"""Separability thresholds via bracketed bisection, q-sweeps, and cross-validation.

Every criterion is wrapped as a margin function of the noise parameter x that
is positive on the separable-detected side. A threshold is located by a coarse
1001-point scan over [0, 1) followed by bisection; exactly one sign change is
expected for the implemented families, and anything else raises. Criteria on
one family and qubit count share one scan: each scanned state, with its
reduction and spectra, is built once for all of them.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from . import analytic
from .entropy import (
    EIG_CUTOFF,
    DenseSource,
    ar_infinity_of,
    ar_of,
    check_entropic_order,
    cstre_infinity_of,
    cstre_of,
    ppt_of,
    von_neumann_of,
)
from .exceptions import BadParameter, MultipleRoots, NanMargin, NoSignChange
from .states import FAMILIES, PP_GHZ, PP_W, WL_GHZ, WL_W, StateFamily, build

#: criterion name -> formula of (DenseSource[, q])
_FORMULA = {
    "cstre": cstre_of,
    "ar": ar_of,
    "vn": von_neumann_of,
    "ppt": ppt_of,
    "cstre-inf": cstre_infinity_of,
    "ar-inf": ar_infinity_of,
}
CRITERIA = tuple(_FORMULA)
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
            object.__setattr__(self, "q", check_entropic_order(self.q))
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


def margin(
    family: StateFamily, criterion: Criterion, source: DenseSource | None = None
) -> float:
    """Margin of a criterion on a family state: positive means separable-detected.

    ``source`` is the state's DenseSource when several criteria share it; by
    default the state is built from the family.
    """
    if source is None:
        source = DenseSource(build(family), family.n_qubits)
    q_arg = () if criterion.q is None else (criterion.q,)
    return _FORMULA[criterion.kind](source, *q_arg)


#: a located root: (x_star, initial bracket, bisection iterations, residual margin)
Root = tuple[float, tuple[float, float], int, float]


def locate_sign_changes(
    state_at: Callable[[float], Any],
    margins: Sequence[Callable[[Any], float]],
    tol: float = DEFAULT_X_TOL,
    allow_no_sign_change: bool = False,
) -> list[Root | None]:
    """Scan [0, 1) once for the single sign change of each margin of a state, then bisect each.

    Each scan point's ``state_at(x)`` is shared by every margin. The scan raises
    the first failure it meets, at the lowest x and in criterion order at one x:
    NanMargin at a NaN, or any QsepError from the state or a margin. Margins are
    then bisected in order: NoSignChange (None with allow_no_sign_change) or
    MultipleRoots unless a scan flips sign once, NanMargin at a NaN. Infinite
    margins are legal. Raises BadParameter, before any state is built, on no
    margins or unless tol is a finite real number > 0.
    """
    if not isinstance(tol, numbers.Real) or not 0.0 < tol < np.inf:
        raise BadParameter(f"x tolerance must be finite and > 0, got {tol}")
    if not margins:
        raise BadParameter("need at least one criterion to solve")

    def checked(value: float, x: float) -> float:
        if math.isnan(value):
            raise NanMargin(f"margin is NaN at x = {x!r}")
        return value

    xs = np.linspace(0.0, X_SCAN_MAX, SCAN_POINTS)
    values: list[list[float]] = [[] for _ in margins]
    for x in map(float, xs):
        state = state_at(x)
        for margin_of, scanned in zip(margins, values):
            scanned.append(checked(margin_of(state), x))
        del state  # free this point's operators before the next point builds its own

    roots: list[Root | None] = []
    for margin_of, scanned in zip(margins, values):
        try:
            roots.append(_bisect(lambda x: checked(margin_of(state_at(x)), x), xs, scanned, tol))
        except NoSignChange:
            if not allow_no_sign_change:
                raise
            roots.append(None)
    return roots


def _bisect(evaluate: Callable[[float], float], xs, values: list[float], tol: float) -> Root:
    """Bisect the one sign change of a margin scanned to values on the grid xs."""
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


def locate_sign_change(margin_of_x: Callable[[float], float], tol: float = DEFAULT_X_TOL) -> Root:
    """Scan [0, 1) for the single sign change of one margin of x and bisect it.

    The one-margin case of locate_sign_changes, with x as the state.
    """
    return locate_sign_changes(float, (margin_of_x,), tol)[0]


def thresholds(
    kind: str,
    n: int,
    criteria: Sequence[Criterion],
    tol: float = DEFAULT_X_TOL,
    allow_no_sign_change: bool = False,
) -> list[ThresholdResult | None]:
    """Solve the noise threshold x* of each criterion on one family, over one shared scan.

    Each scan point builds its state and DenseSource once for all criteria.
    Errors follow locate_sign_changes, an empty request included; the family,
    n and x rules are StateFamily's, raised at the first scan point.
    """
    criteria = tuple(criteria)

    def state_at(x: float) -> tuple[StateFamily, DenseSource]:
        family = StateFamily(kind, n, x)
        return family, DenseSource(build(family), n)

    margins = [lambda state, c=c: margin(state[0], c, state[1]) for c in criteria]
    roots = locate_sign_changes(state_at, margins, tol, allow_no_sign_change)
    return [
        None if root is None else ThresholdResult(kind, n, criterion, *root)
        for criterion, root in zip(criteria, roots)
    ]


def threshold(
    kind: str, n: int, criterion: Criterion, tol: float = DEFAULT_X_TOL
) -> ThresholdResult:
    """Solve for the noise threshold x* of a criterion on one family: thresholds of one."""
    return thresholds(kind, n, (criterion,), tol)[0]


def curve(kind: str, n: int, criterion_kinds, q_grid) -> list[CurvePoint]:
    """Threshold x*(q) for each finite-q criterion kind over a grid of entropic orders.

    Every Criterion(kind, q) of the sweep is built, and so checked, before the
    first solve, and all of them are solved over one shared scan. Points run
    through q_grid once per kind, in the given order. A q with no sign change
    on [0, 1) gets x_star None; any other solver error, MultipleRoots
    included, aborts the whole sweep.
    """
    sweep = [Criterion(c, q) for c, q in itertools.product(criterion_kinds, q_grid)]
    if not sweep:
        raise BadParameter("a curve needs at least one criterion kind and one q")
    results = thresholds(kind, n, sweep, allow_no_sign_change=True)
    return [
        CurvePoint(c.kind, c.q, None if r is None else r.x_star) for c, r in zip(sweep, results)
    ]


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
CLOSED_FORM_TOL = 1e-8
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


def family_table(table_id: str) -> dict[int, tuple[float, ...]]:
    """Thresholds per qubit count, one per column of a published table.

    The columns of each qubit count are solved over one shared scan.
    """
    if table_id not in TABLES:
        raise BadParameter(f"unknown table {table_id!r}, expected one of {tuple(TABLES)}")
    kind, columns, _ = TABLES[table_id]
    row = [Criterion(c) for _, c in columns]
    return {n: tuple(r.x_star for r in thresholds(kind, n, row)) for n in TABLE_N}


def numeric_sandwich_eigs(family: StateFamily, q: float) -> np.ndarray:
    """Ascending eigenvalues of the sandwiched matrix, from operator definitions.

    Eigenvalues within EIG_CUTOFF of zero are returned as exact zeros, the
    zero rule of the entropy sums.
    """
    q = check_entropic_order(q)
    lam = DenseSource(build(family), family.n_qubits).sandwich_eigs((1.0 - q) / (2.0 * q))
    return np.where(np.abs(lam) <= EIG_CUTOFF, 0.0, lam)


def spectrum_oracle_deviation(kind: str, n: int, x: float, q: float) -> float:
    """Largest gap between numeric and closed-form sandwich spectra, as multisets."""
    numeric = numeric_sandwich_eigs(StateFamily(kind, n, x), q)
    return float(np.abs(numeric - CLOSED_FORM_SPECTRUM[kind](n, x, q).expand()).max())


def verify(n_max: int = TABLE_N[-1]) -> VerificationReport:
    """Cross-validate the numeric path, the closed forms, and the references.

    All five kinds of check must pass, and any FAIL fails the report: bound
    identities, every published table to n_max (its values, and the
    closed-form bound for cstre-inf and ppt), PPT versus q -> infinity
    agreement, numeric versus closed-form sandwich spectra, and x*(q = LARGE_Q)
    versus the q -> infinity threshold. Each (family, n) row of thresholds the
    checks read (the table columns, ppt, cstre-inf and cstre at LARGE_Q) is
    solved over one shared scan. Raises BadParameter unless n_max is in TABLE_N.
    """
    if n_max not in TABLE_N:
        raise BadParameter(f"n_max must lie in [{TABLE_N[0]}, {TABLE_N[-1]}], got {n_max}")
    n_values = TABLE_N[: TABLE_N.index(n_max) + 1]
    over_n = f"over n in {n_values}"
    checks: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append(CheckResult(name, "PASS" if ok else "FAIL", detail))

    worst = 0.0
    for n in range(3, analytic.MAX_CLOSED_FORM_N + 1):
        coeffs = {pure: analytic.schmidt_coeffs(pure, n) for pure in ("w", "ghz")}
        for bound, pure, rule in (
            (analytic.bound_pp_w, "w", analytic.vidal_tarrach_pp),
            (analytic.bound_wl_w, "w", analytic.vidal_tarrach_wl),
            (analytic.bound_pp_ghz, "ghz", analytic.vidal_tarrach_pp),
            (analytic.bound_wl_ghz, "ghz", analytic.vidal_tarrach_wl),
        ):
            worst = max(worst, abs(bound(n) - rule(*coeffs[pure], 2**n)))
    detail = f"max |delta| = {worst:.3e} (n = 3..{analytic.MAX_CLOSED_FORM_N})"
    check("bound-identities", worst <= BOUND_IDENTITY_TOL, detail)

    ppt, inf, large_q = Criterion("ppt"), Criterion("cstre-inf"), Criterion("cstre", LARGE_Q)
    rows: list[dict[Criterion, float]] = []  # x* per criterion of each (family, n)
    for kind, columns, published in TABLES.values():
        cells = [Criterion(c) for _, c in columns]
        solve = list(dict.fromkeys([*cells, ppt, inf, large_q]))
        ref, closed = [], []
        for n in n_values:
            x = {r.criterion: r.x_star for r in thresholds(kind, n, solve)}
            rows.append(x)
            ref += [abs(x[c] - w) for c, w in zip(cells, published[n])]
            closed += [abs(x[c] - CLOSED_FORM_BOUND[kind](n)) for c in cells if c in (ppt, inf)]
        worst_ref, worst_closed = max(ref), max(closed)
        ok = worst_closed <= CLOSED_FORM_TOL and worst_ref <= REFERENCE_TOL
        detail = f"closed-form |delta| = {worst_closed:.2e}, reference |delta| = {worst_ref:.2e}"
        check(f"reference-thresholds-{kind}", ok, f"{detail} {over_n}")

    worst = max(abs(x[inf] - x[ppt]) for x in rows)
    check("ppt-vs-cstre-inf", worst <= PPT_AGREEMENT_TOL, f"max |delta| = {worst:.2e} {over_n}")

    sample_n = tuple(n for n in (3, 4, 5) if n <= n_max)
    for kind in FAMILIES:
        worst = max(
            spectrum_oracle_deviation(kind, n, x, q)
            for n in sample_n
            for x in (0.05, 0.2, 0.5, 0.8)
            for q in (1.5, 2.0, 5.0, 20.0)
        )
        detail = f"max multiset deviation = {worst:.2e} over n in {sample_n}"
        check(f"spectrum-oracle-{kind}", worst <= SPECTRUM_ORACLE_TOL, detail)

    worst = max(abs(x[large_q] - x[inf]) for x in rows)
    detail = f"max |x*(q={LARGE_Q:g}) - x*_inf| = {worst:.2e} {over_n}"
    check("large-q-vs-infinity", worst <= LARGE_Q_TOL, detail)
    return VerificationReport(n_max, tuple(checks))
