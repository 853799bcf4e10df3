"""Fast self-test of the benchmark, in about half a minute. Run from the repository root:

    python3 perfbench/selftest.py

1. Runs every workload at its tiny size (N = 3) with --trace 0 and --trace 1,
   and checks the result line: its keys, that the run is correct, and that
   the metric names and units are exactly those BENCHMARK.json declares.
2. Shows that the correctness gate trips: outputs checked against a
   deliberately wrong golden, or a wrong x* that only the closed-form oracle
   can catch, must fail.
3. Shows that the benchmark fails, printing no result, in a directory that
   holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_result_line(workload: str, trace: int) -> None:
    argv = [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", "0",
            "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"{workload} trace={trace}: {set(got) ^ set(units)}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    print(f"ok   {workload} --trace {trace}: {len(got)} metrics")


def wrong(golden: dict, cmd) -> dict:
    """A copy of the golden for one command with its answer made wrong."""
    golden = copy.deepcopy(golden)
    entry = golden[cmd.key]
    kind = cmd.argv[0]
    if kind == "table":
        entry["out"] = entry["out"].replace("0.", "0,", 1)
    elif kind == "verify":
        entry["out"] = entry["out"].replace("PASS", "WARN", 1)
    else:
        header, row, *rest = entry["out"].split("\n")
        fields = row.split(",")
        fields[-1] = repr(float(fields[-1]) + 1e-6)
        entry["out"] = "\n".join([header, ",".join(fields), *rest])
    return golden


def check_gate_trips() -> None:
    qsep = run.import_qsep()
    goldens = json.loads(run.GOLDENS.read_text())
    right = workloads.Checker(qsep, goldens)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=run.ROOT) as tmp:
        for workload in workloads.WORKLOADS:
            cmds = workloads.commands(workload, 0, "tiny")
            _, outputs = run.run_pass(qsep, cmds, Path(tmp))
            for cmd, (rc, out) in zip(cmds, outputs):
                assert right.check(cmd, rc, out) == [], cmd.key
                bad = workloads.Checker(qsep, wrong(goldens, cmd))
                assert bad.check(cmd, rc, out), f"wrong golden not caught: {cmd.key}"
                assert right.check(cmd, 1, out), f"wrong exit code not caught: {cmd.key}"
            print(f"ok   gate trips on a wrong golden for {workload}")
    # an x* that matches its golden but not the closed-form oracle
    cmd = workloads.commands("dense-n8", 0, "tiny")[0]
    shifted = wrong(goldens, cmd)
    oracle_only = workloads.Checker(qsep, shifted)
    errors = oracle_only.check(cmd, 0, shifted[cmd.key]["out"])
    assert any("oracle" in e for e in errors), errors
    print("ok   gate trips on an x* that only the closed-form oracle rejects")


def check_bare_directory_fails() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=run.ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([*SPEC["command"], "--workload", "tables", "--seed", "0",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    print(f"ok   fails with exit code {proc.returncode} and no result without the program")


def main() -> None:
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_result_line(workload, trace)
    check_gate_trips()
    check_bare_directory_fails()
    print("selftest passed")


if __name__ == "__main__":
    main()
