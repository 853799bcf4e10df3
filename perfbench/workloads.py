"""The benchmark's workloads: the qsep CLI commands each one runs, and their checks.

Every command is driven in-process through ``qsep.cli.main(argv)``. Its output
(stdout for ``threshold`` and ``verify``, the ``--out`` file for ``table`` and
``curve``) is checked two ways:

* against a golden recorded from the seed commit (``goldens.json``): table CSVs
  byte for byte, every other ``x*`` within ``GOLDEN_X_TOL``, verify statuses
  exactly;
* against the closed-form oracle of ``qsep.analytic``: ``cstre-inf`` and
  ``ppt`` thresholds against ``criteria.CLOSED_FORM_BOUND``, and finite-q
  ``cstre`` thresholds against a bisection of the closed-form spectrum margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WORKLOADS = ("tables", "curve", "dense-n8", "verify")
SIZES = ("full", "tiny")

# Seed 0 gives the family of the documented example; other seeds rotate through the rest.
CURVE_FAMILIES = ("pp-ghz", "pp-w", "wl-ghz", "wl-w")
DENSE_FAMILIES = ("pp-w", "pp-ghz", "wl-w", "wl-ghz")
TABLE_FAMILY = {"1": "pp-w", "2": "wl-w", "pp-ghz": "pp-ghz", "wl-ghz": "wl-ghz"}

GOLDEN_X_TOL = 1e-9
# |x* - closed-form bound| for cstre-inf and ppt; verify's GHZ_CLOSED_FORM_TOL.
BOUND_X_TOL = 1e-8
# |x* - x*_oracle| for finite-q cstre: the solver stops at an x bracket of 1e-10,
# and the spectra agree to SPECTRUM_ORACLE_TOL = 1e-9.
SPECTRUM_X_TOL = 1e-8
# A 4-decimal table cell is within half a unit of its last place of the bound.
TABLE_CELL_TOL = 0.5e-4 + 1e-12


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``argv`` excludes the ``--out`` path for file writers."""

    argv: tuple[str, ...]

    @property
    def writes_file(self) -> bool:
        return self.argv[0] in ("table", "curve")

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def family_for(workload: str, seed: int) -> str | None:
    if workload == "curve":
        return CURVE_FAMILIES[seed % len(CURVE_FAMILIES)]
    if workload == "dense-n8":
        return DENSE_FAMILIES[seed % len(DENSE_FAMILIES)]
    return None


def commands(workload: str, seed: int, size: str = "full") -> list[Command]:
    """The commands of one closed-loop pass of a workload, in order."""
    tiny = size == "tiny"
    family = family_for(workload, seed)
    if workload == "tables":
        if tiny:
            return [
                Command(("threshold", "--family", "pp-w", "--n", "3", "--criterion", c))
                for c in ("vn", "ar-inf", "cstre-inf", "ppt")
            ]
        return [Command(("table", "--id", i)) for i in TABLE_FAMILY]
    if workload == "curve":
        n, steps = ("3", "3") if tiny else ("6", "10")
        return [
            Command(
                ("curve", "--family", family, "--n", n, "--criterion", "cstre,ar",
                 "--q-min", "1.5", "--q-max", "2000", "--q-steps", steps, "--log-spacing")
            )
        ]
    if workload == "dense-n8":
        n = "3" if tiny else "8"
        return [Command(("threshold", "--family", family, "--n", n, "--criterion", "cstre",
                         "--q", "2"))]
    if workload == "verify":
        return [Command(("verify", "--n-max", "3" if tiny else "5"))]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def all_commands() -> list[Command]:
    """Every command any seed and size can run, for recording goldens."""
    seen = {}
    for workload in WORKLOADS:
        for size in SIZES:
            for seed in range(len(CURVE_FAMILIES)):
                for cmd in commands(workload, seed, size):
                    seen[cmd.key] = cmd
    return list(seen.values())


# ---------------------------------------------------------------------------
# Closed-form oracle
# ---------------------------------------------------------------------------


def _spectrum_fn(qsep, family: str):
    return getattr(qsep.analytic, family.replace("-", "_") + "_sandwich_eigs")


def _log_trace_power(spectrum, q: float) -> float:
    """log sum_i m_i lam_i**q over the closed-form eigenvalues above entropy.EIG_CUTOFF."""
    logs = [(q * math.log(v), m) for v, m in spectrum.entries if v > 1e-15]
    peak = max(log for log, _ in logs)
    return peak + math.log(sum(m * math.exp(log - peak) for log, m in logs))


def oracle_cstre_threshold(qsep, family: str, n: int, q: float) -> float:
    """x* of finite-q cstre from the closed-form spectrum, by scan and bisection.

    cstre > 0 exactly when the log power sum is negative; the scan requires a
    single sign change on [0, 1 - 1e-9] like the solver under test.
    """
    eigs = _spectrum_fn(qsep, family)

    def positive(x: float) -> bool:
        return _log_trace_power(eigs(n, x, q), q) < 0.0

    grid = [i * (1.0 - 1e-9) / 400 for i in range(401)]
    signs = [positive(x) for x in grid]
    flips = [i for i in range(400) if signs[i] != signs[i + 1]]
    if len(flips) != 1:
        raise ValueError(f"oracle margin of {family} n={n} q={q} flips {len(flips)} times")
    lo, hi = grid[flips[0]], grid[flips[0] + 1]
    lo_positive = signs[flips[0]]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if positive(mid) == lo_positive:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class Checker:
    """Checks command outputs against goldens and the closed-form oracle."""

    def __init__(self, qsep, goldens: dict):
        self.qsep = qsep
        self.goldens = goldens
        self._oracle_cache: dict[tuple, float] = {}

    def _oracle(self, family: str, n: int, q: float) -> float:
        key = (family, n, q)
        if key not in self._oracle_cache:
            self._oracle_cache[key] = oracle_cstre_threshold(self.qsep, family, n, q)
        return self._oracle_cache[key]

    def _bound(self, family: str, n: int) -> float:
        return self.qsep.criteria.CLOSED_FORM_BOUND[family](n)

    def check(self, cmd: Command, rc: int, out: str) -> list[str]:
        """Return the ways the output is wrong; empty when it is correct."""
        golden = self.goldens.get(cmd.key)
        if golden is None:
            return [f"no golden recorded for {cmd.key!r}"]
        if rc != golden["rc"]:
            return [f"exit code {rc}, golden {golden['rc']}"]
        kind = cmd.argv[0]
        try:
            if kind == "table":
                return self._check_table(cmd, out, golden["out"])
            if kind == "verify":
                return _check_verify(out, golden["out"])
            return self._check_x_rows(cmd, out, golden["out"])
        except (ValueError, IndexError, KeyError) as err:
            return [f"unreadable output: {type(err).__name__}: {err}"]

    def _check_table(self, cmd: Command, out: str, golden: str) -> list[str]:
        errors = [] if out == golden else ["table CSV differs from golden"]
        family = TABLE_FAMILY[cmd.argv[2]]
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        # q -> infinity columns: cstre (cstre-inf in the W tables), ppt, threshold
        columns = [i for i, name in enumerate(header) if name in ("cstre", "ppt", "threshold")]
        for line in lines[1:]:
            cells = line.split(",")
            n = int(cells[0])
            for i in columns:
                if abs(float(cells[i]) - self._bound(family, n)) > TABLE_CELL_TOL:
                    errors.append(f"n={n} {header[i]}={cells[i]} far from the closed-form bound")
        return errors

    def _check_x_rows(self, cmd: Command, out: str, golden: str) -> list[str]:
        """threshold and curve CSVs: same rows, x* near golden and oracle."""
        got, want = _csv_rows(out), _csv_rows(golden)
        if len(got) != len(want) or got[0] != want[0]:
            return ["CSV shape or header differs from golden"]
        argv = dict(zip(cmd.argv[1::2], cmd.argv[2::2]))
        family, n = argv["--family"], int(argv["--n"])
        errors = []
        for row, ref in zip(got[1:], want[1:]):
            if row[:-1] != ref[:-1]:
                errors.append(f"row {row} differs from golden {ref}")
                continue
            if (row[-1] == "") != (ref[-1] == ""):
                errors.append(f"row {row}: x* presence differs from golden")
                continue
            if row[-1] == "":
                continue
            x = float(row[-1])
            if abs(x - float(ref[-1])) > GOLDEN_X_TOL:
                errors.append(f"row {row}: x* off golden {ref[-1]}")
            criterion = row[0] if cmd.argv[0] == "curve" else row[2]
            q = row[1] if cmd.argv[0] == "curve" else row[3]
            if criterion in ("cstre-inf", "ppt"):
                if abs(x - self._bound(family, n)) > BOUND_X_TOL:
                    errors.append(f"row {row}: x* off the closed-form bound")
            elif criterion == "cstre":
                if abs(x - self._oracle(family, n, float(q))) > SPECTRUM_X_TOL:
                    errors.append(f"row {row}: x* off the closed-form spectrum oracle")
        return errors


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().split("\n")]


def _check_verify(out: str, golden: str) -> list[str]:
    """Same checks with the same statuses, ending in OVERALL PASS."""

    def statuses(text: str) -> list[tuple[str, str]]:
        return [tuple(line.split(":")[0].split()) for line in text.strip().split("\n")]

    errors = []
    if statuses(out) != statuses(golden):
        errors.append("verify check statuses differ from golden")
    if out.strip().split("\n")[-1] != "OVERALL PASS":
        errors.append("verify did not end in OVERALL PASS")
    return errors
