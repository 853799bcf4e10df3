"""qsep benchmark: closed-loop CLI workloads, end-to-end timings and a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload tables --seed 0 --seconds 30 --trace 0

One process and one client: each workload pass drives its qsep commands
through ``qsep.cli.main`` in-process, the next command starting only when the
previous one returns, and passes repeat until ``--seconds`` is used up (at
least one pass). BLAS runs on one thread unless OPENBLAS_NUM_THREADS is set.
Every output is checked
(see ``workloads.py``); the last stdout line is the JSON result, and the exit
code is 1 when any command failed its check.

``--trace 0`` reports the end-to-end metrics:
  setup_s      median over fresh interpreters, sampled before the first pass and
               after each pass, of: start, ``import qsep`` and one warm-up margin
               evaluation (loads BLAS/LAPACK)
  wall_s       median time of one pass of the workload's commands
  peak_rss_mb  peak resident memory of this process
  ok_frac      share of commands that returned and passed every check

``--trace 1`` runs one untraced pass, then one pass with every qsep layer
wrapped (``layers.py``), then one pass in a child process with BLAS at its
default pool of one thread per CPU, and reports the per-layer metrics. The
lines before the result record the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# BLAS runs single-threaded unless the caller set a thread count. On a 2-vCPU
# KVM guest (Xeon, OpenBLAS 0.3.31) the default 2-thread pool gave dense-n8 a
# quartile spread over 5 seeds of 18% in wall_s and 35% in setup_s, against 7%
# and 5% single-threaded, and made no workload faster. Traced runs still time
# one pass with the default pool (baseline.default_threads_wall_s).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import layers  # noqa: E402  (numpy must load after the thread count is set)
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"

# set-up samples taken before the first pass and again after each pass, so that
# one slow spell of the host does not set the whole median
SETUP_REPS_PER_GAP = {"full": 3, "tiny": 1}
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import qsep; "
    "qsep.margin(qsep.StateFamily('pp-w', 3, 0.5), qsep.Criterion('cstre', 2.0))"
)
CHILD_TIMEOUT_S = 120


def import_qsep():
    """Import qsep from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import qsep
    import qsep.cli

    if Path(qsep.__file__).resolve().parent != SRC / "qsep":
        raise ImportError(f"qsep imported from {qsep.__file__}, not from {SRC}")
    return qsep


def measure_setup(reps: int) -> list[float]:
    times = []
    for _ in range(reps):
        start = perf_counter()
        # no timeout: with one, Popen.wait polls and rounds the time up to 50 ms steps
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True)
        times.append(perf_counter() - start)
    return times


def run_pass(qsep, cmds, outdir: Path):
    """Run the commands back to back; returns (seconds, [(rc, output or error)])."""
    results = []
    start = perf_counter()
    for i, cmd in enumerate(cmds):
        argv = list(cmd.argv) + (["--out", str(outdir / f"{i}.csv")] if cmd.writes_file else [])
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = qsep.cli.main(argv)
        except Exception as err:  # a crash is a failed command, not a benchmark error
            rc, stdout = None, io.StringIO(f"{type(err).__name__}: {err}")
        results.append((rc, stdout))
    elapsed = perf_counter() - start
    outputs = []
    for i, (cmd, (rc, stdout)) in enumerate(zip(cmds, results)):
        path = outdir / f"{i}.csv"
        if cmd.writes_file and rc == 0:
            outputs.append((rc, path.read_text()))
            path.unlink()
        else:
            outputs.append((rc, stdout.getvalue()))
    return elapsed, outputs


class Tally:
    def __init__(self, checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, cmds, outputs):
        for cmd, (rc, out) in zip(cmds, outputs):
            self.attempted += 1
            errors = self.checker.check(cmd, rc, out)
            if errors:
                self.failed += 1
                self.errors.extend(f"{cmd.key}: {e}" for e in errors)


def default_threads_wall(args) -> float:
    """wall_s of one pass in a child process whose BLAS pool has one thread per CPU."""
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=nproc, OMP_NUM_THREADS=nproc)
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--size", args.size]
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"default-threads baseline failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().split("\n")[-1])["metrics"]["wall_s"]["value"]


def blas_threads() -> int | None:
    """OpenBLAS's effective thread count, read from the loaded library."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def machine_record() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.read_bytes())
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny runs N = 3 variants, for the self-test")
    args = parser.parse_args(argv)

    try:
        qsep = import_qsep()
    except ImportError as err:
        sys.stderr.write(f"perfbench: cannot import qsep from {SRC}: {err}\n")
        return 2
    checker = workloads.Checker(qsep, json.loads(GOLDENS.read_text()))
    cmds = workloads.commands(args.workload, args.seed, args.size)
    tally = Tally(checker)

    # the same warm-up as setup_s, so timed passes start with BLAS loaded
    qsep.margin(qsep.StateFamily("pp-w", 3, 0.5), qsep.Criterion("cstre", 2.0))

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        outdir = Path(tmp)
        if args.trace == 0:
            reps = SETUP_REPS_PER_GAP[args.size]
            setup_times = measure_setup(reps)
            pass_times = []
            while True:
                elapsed, outputs = run_pass(qsep, cmds, outdir)
                pass_times.append(elapsed)
                tally.add(cmds, outputs)
                setup_times += measure_setup(reps)
                if sum(pass_times) + elapsed > args.seconds:
                    break
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "wall_s": (statistics.median(pass_times), "s"),
                "peak_rss_mb": (rss_mb, "MB"),
                "ok_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
            }
            print(f"pass seconds: {pass_times}")
            print(f"set-up seconds: {setup_times}")
        else:
            untraced, outputs = run_pass(qsep, cmds, outdir)
            tally.add(cmds, outputs)
            tracer = layers.Tracer()
            with layers.installed(tracer):
                start = perf_counter()
                traced, outputs = tracer.run(lambda: run_pass(qsep, cmds, outdir))
                traced_total = perf_counter() - start
            tally.add(cmds, outputs)
            span_sum = sum(tracer.self_s.values())
            if abs(span_sum - traced_total) > 1e-3 * traced_total + 1e-3:
                raise RuntimeError(
                    f"span self times sum to {span_sum:.6f} s, traced pass took "
                    f"{traced_total:.6f} s")
            metrics = layers.layer_metrics(tracer)
            metrics["trace.wall_s"] = (traced, "s")
            metrics["trace.untraced_wall_s"] = (untraced, "s")
            metrics["trace.overhead_s"] = (traced - untraced, "s")
            metrics["baseline.default_threads_wall_s"] = (default_threads_wall(args), "s")
            print(f"span self times sum to {span_sum:.6f} s of {traced_total:.6f} s traced")

    print(json.dumps({"machine": machine_record(), "workload": args.workload,
                      "seed": args.seed, "size": args.size,
                      "commands": [c.key for c in cmds]}))
    for error in tally.errors:
        print(f"FAILED {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
