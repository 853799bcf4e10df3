"""Separability thresholds via bracketed bisection, q-sweeps, and cross-validation.

Every criterion is wrapped as a margin function of the noise parameter x that
is positive on the separable-detected side. A threshold is located by a coarse
1001-point scan over [0, 1) followed by bisection; exactly one sign change is
expected for the implemented families, and anything else raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analytic
from .entropy import (
    EIG_CUTOFF,
    ar_conditional,
    ar_infinity_margin,
    check_entropic_order,
    cstre,
    cstre_infinity_margin,
    ppt_margin,
    sandwiched_matrix,
    von_neumann_conditional,
)
from .exceptions import BadParameter, MultipleRoots, NanMargin, NoSignChange
from .linalg import eigvals_hermitian
from .states import FAMILIES, PP_GHZ, PP_W, WL_GHZ, WL_W, StateFamily, build

#: criterion name -> margin function of (rho, n[, q])
_MARGIN_FN = {
    "cstre": cstre,
    "ar": ar_conditional,
    "vn": von_neumann_conditional,
    "ppt": ppt_margin,
    "cstre-inf": cstre_infinity_margin,
    "ar-inf": ar_infinity_margin,
}
CRITERIA = tuple(_MARGIN_FN)
FINITE_Q_CRITERIA = ("cstre", "ar")

#: q grid spanning the visible convergence range plus the slow tail
DEFAULT_Q_GRID = (1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0, 2000.0)

SCAN_POINTS = 1001
X_SCAN_MAX = 1.0 - 1e-9  # exclude the pure endpoint where sB may lose rank
DEFAULT_X_TOL = 1e-10

LARGE_Q = 2000.0


@dataclass(frozen=True)
class Criterion:
    """A separability criterion; finite-q kinds carry their entropic order."""

    kind: str
    q: float | None = None

    def __post_init__(self):
        if self.kind not in CRITERIA:
            raise BadParameter(f"unknown criterion {self.kind!r}, expected one of {CRITERIA}")
        if self.kind in FINITE_Q_CRITERIA:
            if self.q is None:
                raise BadParameter(f"criterion {self.kind!r} needs an entropic order q")
            check_entropic_order(self.q)
        elif self.q is not None:
            raise BadParameter(f"criterion {self.kind!r} does not take q")


@dataclass(frozen=True)
class ThresholdResult:
    """Solved threshold x* with solver diagnostics."""

    family: str
    n_qubits: int
    criterion: Criterion
    x_star: float
    bracket: tuple[float, float]
    iterations: int
    residual: float


@dataclass(frozen=True)
class CurvePoint:
    """One point of a threshold-versus-q sweep; x_star is None on NoSignChange."""

    criterion: str
    q: float
    x_star: float | None


def margin(family: StateFamily, criterion: Criterion) -> float:
    """Margin of a criterion on a family state: positive means separable-detected."""
    q_arg = () if criterion.q is None else (criterion.q,)
    return _MARGIN_FN[criterion.kind](build(family), family.n_qubits, *q_arg)


def locate_sign_change(
    margin_of_x: Callable[[float], float], tol: float = DEFAULT_X_TOL
) -> tuple[float, tuple[float, float], int, float]:
    """Scan [0, 1) for the single sign change of a margin and bisect it.

    Returns (x_star, initial bracket, bisection iterations, residual margin).
    Raises BadParameter unless tol is finite and > 0, NanMargin at the first
    NaN margin, NoSignChange when the margin keeps one sign on the scan grid
    and MultipleRoots when it flips more than once. Infinite margins are legal.
    """
    if not 0.0 < tol < np.inf:
        raise BadParameter(f"x tolerance must be finite and > 0, got {tol}")

    def evaluate(x: float) -> float:
        value = margin_of_x(x)
        if math.isnan(value):
            raise NanMargin(f"margin is NaN at x = {x!r}")
        return value

    xs = np.linspace(0.0, X_SCAN_MAX, SCAN_POINTS)
    values = [evaluate(float(x)) for x in xs]
    flips = [
        i for i in range(SCAN_POINTS - 1) if (values[i] > 0.0) != (values[i + 1] > 0.0)
    ]
    if not flips:
        raise NoSignChange("margin keeps one sign on [0, 1)")
    if len(flips) > 1:
        raise MultipleRoots(f"margin changes sign {len(flips)} times on [0, 1)")
    i = flips[0]
    lo, hi = float(xs[i]), float(xs[i + 1])
    bracket = (lo, hi)
    lo_positive = values[i] > 0.0
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # the bracket is one ulp wide
            break
        if (evaluate(mid) > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
        iterations += 1
    x_star = 0.5 * (lo + hi)
    return x_star, bracket, iterations, evaluate(x_star)


def threshold(
    kind: str, n: int, criterion: Criterion, tol: float = DEFAULT_X_TOL
) -> ThresholdResult:
    """Solve for the noise threshold x* of a criterion on one family.

    The family, n and x rules are StateFamily's; it raises at the first scan point.
    """
    x_star, bracket, iterations, residual = locate_sign_change(
        lambda x: margin(StateFamily(kind, n, x), criterion), tol
    )
    return ThresholdResult(kind, n, criterion, x_star, bracket, iterations, residual)


def curve(kind: str, n: int, criterion_kinds, q_grid) -> list[CurvePoint]:
    """Threshold x*(q) for each finite-q criterion kind over a grid of entropic orders.

    Every Criterion(kind, q) of the sweep is built, and so checked, before the
    first solve. Points run through q_grid once per kind, in the given order.
    A q with no sign change on [0, 1) gets x_star None; any other solver
    error, MultipleRoots included, aborts the whole sweep.
    """
    sweep = [Criterion(c, float(q)) for c in criterion_kinds for q in q_grid]
    if not sweep:
        raise BadParameter("a curve needs at least one criterion kind and one q")
    points = []
    for criterion in sweep:
        try:
            x_star = threshold(kind, n, criterion).x_star
        except NoSignChange:
            x_star = None
        points.append(CurvePoint(criterion.kind, criterion.q, x_star))
    return points


# ---------------------------------------------------------------------------
# Verification report
# ---------------------------------------------------------------------------

#: published tables: id -> (family, (CSV label, criterion) columns, values per n)
_W_COLUMNS = (("vn", "vn"), ("ar", "ar-inf"), ("cstre", "cstre-inf"), ("ppt", "ppt"))
TABLES = {
    "1": (PP_W, _W_COLUMNS, {
        3: (0.7390, 0.3636, 0.3083, 0.3083),
        4: (0.6963, 0.25, 0.1807, 0.1807),
        5: (0.6723, 0.1621, 0.1014, 0.1014),
        6: (0.6621, 0.1, 0.0552, 0.0552),
    }),
    "2": (WL_W, _W_COLUMNS, {
        3: (0.7018, 0.2727, 0.2095, 0.2095),
        4: (0.6760, 0.2, 0.1261, 0.1261),
        5: (0.6618, 0.1351, 0.0724, 0.0724),
        6: (0.6567, 0.0857, 0.0402, 0.0402),
    }),
    "pp-ghz": (PP_GHZ, (("threshold", "cstre-inf"),),
               {3: (0.3,), 4: (0.1666,), 5: (0.0882,), 6: (0.0454,)}),
    "wl-ghz": (WL_GHZ, (("threshold", "cstre-inf"),),
               {3: (0.2,), 4: (0.1111,), 5: (0.0588,), 6: (0.0303,)}),
}
#: the qubit counts every published table covers
TABLE_N = (3, 4, 5, 6)

REFERENCE_TOL = 5e-4
BOUND_IDENTITY_TOL = 1e-12
PPT_AGREEMENT_TOL = 1e-6
GHZ_CLOSED_FORM_TOL = 1e-8
SPECTRUM_ORACLE_TOL = 1e-9
LARGE_Q_TOL = 2e-3

#: q -> infinity analytic threshold per family
CLOSED_FORM_BOUND = {
    PP_W: analytic.bound_pp_w,
    PP_GHZ: analytic.bound_pp_ghz,
    WL_W: analytic.bound_wl_w,
    WL_GHZ: analytic.bound_wl_ghz,
}

#: closed-form sandwich spectrum per family
CLOSED_FORM_SPECTRUM = {
    PP_W: analytic.pp_w_sandwich_eigs,
    PP_GHZ: analytic.pp_ghz_sandwich_eigs,
    WL_W: analytic.wl_w_sandwich_eigs,
    WL_GHZ: analytic.wl_ghz_sandwich_eigs,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS or FAIL
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    n_max: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.status == "PASS" for c in self.checks)

    def summary(self) -> str:
        lines = [f"{c.status:4s} {c.name}: {c.detail}" for c in self.checks]
        lines.append("OVERALL PASS" if self.passed else "OVERALL FAIL")
        return "\n".join(lines)


def family_table(table_id: str, n_values=TABLE_N) -> dict[int, tuple[float, ...]]:
    """Thresholds per qubit count, one per column of a published table."""
    if table_id not in TABLES:
        raise BadParameter(f"unknown table {table_id!r}, expected one of {tuple(TABLES)}")
    kind, columns, _ = TABLES[table_id]
    return {
        n: tuple(threshold(kind, n, Criterion(c)).x_star for _, c in columns) for n in n_values
    }


def numeric_sandwich_eigs(family: StateFamily, q: float) -> np.ndarray:
    """Ascending eigenvalues of the sandwiched matrix, from operator definitions.

    Eigenvalues within EIG_CUTOFF of zero are returned as exact zeros, the
    zero rule of the entropy sums.
    """
    lam = eigvals_hermitian(sandwiched_matrix(build(family), family.n_qubits, q))
    return np.where(np.abs(lam) <= EIG_CUTOFF, 0.0, lam)


def spectrum_oracle_deviation(kind: str, n: int, x: float, q: float) -> float:
    """Largest gap between numeric and closed-form sandwich spectra, as multisets."""
    numeric = numeric_sandwich_eigs(StateFamily(kind, n, x), q)
    return float(np.abs(numeric - CLOSED_FORM_SPECTRUM[kind](n, x, q).expand()).max())


def _check(name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(name, "PASS" if ok else "FAIL", detail)


def _check_bound_identities(checks: list[CheckResult]) -> None:
    worst = 0.0
    for n in range(3, analytic.MAX_CLOSED_FORM_N + 1):
        u1, u2 = analytic.schmidt_coeffs("w", n)
        g1, g2 = analytic.schmidt_coeffs("ghz", n)
        d_sq = 2**n
        worst = max(
            worst,
            abs(analytic.bound_pp_w(n) - analytic.vidal_tarrach_pp(u1, u2, d_sq)),
            abs(analytic.bound_wl_w(n) - analytic.vidal_tarrach_wl(u1, u2, d_sq)),
            abs(analytic.bound_pp_ghz(n) - analytic.vidal_tarrach_pp(g1, g2, d_sq)),
            abs(analytic.bound_wl_ghz(n) - analytic.vidal_tarrach_wl(g1, g2, d_sq)),
        )
    detail = f"max |delta| = {worst:.3e} (n = 3..{analytic.MAX_CLOSED_FORM_N})"
    checks.append(_check("bound-identities", worst <= BOUND_IDENTITY_TOL, detail))


def _check_tables(checks: list[CheckResult], n_values) -> dict[str, dict]:
    """Solve every published table; returns family -> n -> criterion -> x*."""
    solved = {}
    for table_id, (kind, columns, published) in TABLES.items():
        table = family_table(table_id, n_values)
        solved[kind] = {n: {c: x for (_, c), x in zip(columns, table[n])} for n in n_values}
        worst_closed = max(
            abs(x - CLOSED_FORM_BOUND[kind](n))
            for n in n_values
            for c, x in solved[kind][n].items()
            if c in ("cstre-inf", "ppt")
        )
        worst_ref = max(abs(x - w) for n in n_values for x, w in zip(table[n], published[n]))
        ok = worst_closed <= GHZ_CLOSED_FORM_TOL and worst_ref <= REFERENCE_TOL
        detail = (
            f"closed-form |delta| = {worst_closed:.2e}, reference |delta| = "
            f"{worst_ref:.2e} over n in {n_values}"
        )
        checks.append(_check(f"reference-thresholds-{kind}", ok, detail))
    return solved


def _check_ppt_agreement(checks, n_values, solved) -> None:
    worst = 0.0
    for kind, rows in solved.items():
        for n, row in rows.items():
            ppt = row["ppt"] if "ppt" in row else threshold(kind, n, Criterion("ppt")).x_star
            worst = max(worst, abs(row["cstre-inf"] - ppt))
    detail = f"max |delta| = {worst:.2e} over n in {n_values}"
    checks.append(_check("ppt-vs-cstre-inf", worst <= PPT_AGREEMENT_TOL, detail))


def _check_spectrum_oracle(checks, n_max) -> None:
    sample_n = tuple(n for n in (3, 4, 5) if n <= n_max)
    for kind in FAMILIES:
        worst = max(
            spectrum_oracle_deviation(kind, n, x, q)
            for n in sample_n
            for x in (0.05, 0.2, 0.5, 0.8)
            for q in (1.5, 2.0, 5.0, 20.0)
        )
        detail = f"max multiset deviation = {worst:.2e} over n in {sample_n}"
        checks.append(_check(f"spectrum-oracle-{kind}", worst <= SPECTRUM_ORACLE_TOL, detail))


def _check_large_q_agreement(checks, n_values, solved) -> None:
    worst = 0.0
    for kind in FAMILIES:
        for n in n_values:
            x_large = threshold(kind, n, Criterion("cstre", LARGE_Q)).x_star
            worst = max(worst, abs(x_large - solved[kind][n]["cstre-inf"]))
    detail = f"max |x*(q={LARGE_Q:g}) - x*_inf| = {worst:.2e} over n in {n_values}"
    checks.append(_check("large-q-vs-infinity", worst <= LARGE_Q_TOL, detail))


def verify(n_max: int = TABLE_N[-1]) -> VerificationReport:
    """Cross-validate the numeric path, the closed forms, and the references.

    All five kinds of check must pass, and any FAIL fails the report: bound
    identities, every published table to n_max (its values, and the
    closed-form bound for cstre-inf and ppt), PPT versus q -> infinity
    agreement, numeric versus closed-form sandwich spectra, and x*(q = LARGE_Q)
    versus the q -> infinity threshold. Raises BadParameter unless n_max is in
    TABLE_N.
    """
    if n_max not in TABLE_N:
        raise BadParameter(f"n_max must lie in [{TABLE_N[0]}, {TABLE_N[-1]}], got {n_max}")
    n_values = TABLE_N[: TABLE_N.index(n_max) + 1]
    checks: list[CheckResult] = []
    _check_bound_identities(checks)
    solved = _check_tables(checks, n_values)
    _check_ppt_agreement(checks, n_values, solved)
    _check_spectrum_oracle(checks, n_max)
    _check_large_q_agreement(checks, n_values, solved)
    return VerificationReport(n_max, tuple(checks))
