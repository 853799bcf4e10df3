"""Separability thresholds via bracketed bisection, q-sweeps, and cross-validation.

Every criterion is wrapped as a margin function of the noise parameter x that
is positive on the separable-detected side. A threshold is located by a coarse
1001-point scan over [0, 1) followed by bisection; exactly one sign change is
expected for the implemented families, and anything else raises. Criteria on
one family and qubit count share one scan: the family's pure state is
decomposed once, and each scanned state's spectra are computed once for all of
them, a chunk of states at a time, with one eigensolver call per sandwich power
for the whole chunk.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from . import analytic
from .entropy import (
    EIG_CUTOFF,
    Q_MAX,
    DenseSource,
    MixtureSource,
    Source,
    ar_infinity_of,
    ar_of,
    check_entropic_order,
    cstre_infinity_of,
    cstre_of,
    entropic_order_as_float,
    mixture_basis,
    ppt_of,
    von_neumann_of,
)
from .exceptions import BadParameter, MultipleRoots, NanMargin, NoSignChange
from .states import (
    FAMILIES,
    MAX_QUBITS,
    PP_GHZ,
    PP_W,
    WL_GHZ,
    WL_W,
    StateFamily,
    build,
    mixing_weights,
    pure_state,
)

#: criterion name -> formula of (source[, q])
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
#: least q a finite-q criterion takes: the log power sums are of order q - 1 and their
#: round-off near 1e-16, so closer to 1 x* drifts past DEFAULT_X_TOL; at 1 + 1e-5 every
#: family at n = 3..6 is within 8.2e-11 of a 60-digit reference, at 1 + 1e-6 up to 3.9e-10
Q_FLOOR = 1.0 + 1e-5

#: q grid spanning the visible convergence range plus the slow tail
DEFAULT_Q_GRID = (1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0, 2000.0)

SCAN_POINTS = 1001
X_SCAN_MAX = 1.0 - 1e-9  # exclude the pure endpoint where sB may lose rank
DEFAULT_X_TOL = 1e-10

LARGE_Q = 2000.0


def check_finite_q(q) -> float:
    """The entropic order of a finite-q criterion as a float: Q_FLOOR <= q <= Q_MAX."""
    q = entropic_order_as_float(q)
    if not Q_FLOOR <= q <= Q_MAX:
        raise BadParameter(f"finite-q criteria need q in [{Q_FLOOR!r}, {Q_MAX:g}], got {q!r}")
    return q


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
            object.__setattr__(self, "q", check_finite_q(self.q))
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


def _formula(criterion: Criterion, source: Source) -> np.ndarray:
    """The criterion's margin of each state of a source's stack."""
    q_arg = () if criterion.q is None else (criterion.q,)
    return _FORMULA[criterion.kind](source, *q_arg)


def _family_sources(kind: str, n: int) -> Callable[[np.ndarray], MixtureSource]:
    """The MixtureSource of a family's states at an array of x, its pure state decomposed once."""
    basis = mixture_basis(pure_state(kind, n), n)
    return lambda xs: MixtureSource(basis, *mixing_weights(kind, n, xs))


def margin(family: StateFamily, criterion: Criterion, source: Source | None = None) -> float:
    """Margin of a criterion on a family state: positive means separable-detected.

    ``source`` holds the state's spectra, a stack of one, when several criteria
    share it; by default it is the family's MixtureSource at the state's x.
    """
    if source is None:
        source = _family_sources(family.kind, family.n_qubits)(np.array([float(family.x)]))
    (value,) = _formula(criterion, source)
    return float(value)


#: a located root: (x_star, initial bracket, bisection iterations, residual margin)
Root = tuple[float, tuple[float, float], int, float]

#: most density-matrix entries a chunk of scanned states holds: a chunk is
#: max(1, 2**15 // 4**n) states, 512 at n = 3, 32 at n = 5 and 1 at n = 8
SCAN_CHUNK_ENTRIES = 2**15


def _scan_and_bisect(states_at, margins, tol: float, chunk: int) -> list[Root]:
    """Scan [0, 1) once for the single sign change of each margin, then bisect each.

    ``states_at(xs)`` gives the states at an array of x, shared by every
    margin, and each margin maps them to one value per x. The grid is scanned
    ``chunk`` consecutive points at a time, and the scan raises the first
    failure it meets, chunk by chunk and in criterion order within a chunk:
    NanMargin at a margin's lowest NaN x, or any QsepError from the state or
    a margin; no chunk past it is built. Margins are then bisected in order,
    one point at a time: NoSignChange or MultipleRoots unless a scan flips
    sign once, NanMargin at a NaN. Infinite margins are legal. Raises
    BadParameter, before any state is built, on no margins or unless tol is
    a finite real number > 0.
    """
    if not isinstance(tol, numbers.Real) or not 0.0 < tol < np.inf:
        raise BadParameter(f"x tolerance must be finite and > 0, got {tol}")
    if not margins:
        raise BadParameter("need at least one criterion to solve")

    def checked(values, points: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        nan = np.isnan(values)
        if nan.any():
            raise NanMargin(f"margin is NaN at x = {float(points[nan.argmax()])!r}")
        return values

    def scan(points: np.ndarray) -> list[np.ndarray]:
        state = states_at(points)
        return [checked(margin_of(state), points) for margin_of in margins]

    def at_one_x(margin_of) -> Callable[[float], float]:
        def evaluate(x: float) -> float:
            points = np.array([x])
            return float(checked(margin_of(states_at(points)), points)[0])

        return evaluate

    xs = np.linspace(0.0, X_SCAN_MAX, SCAN_POINTS)
    chunks = [scan(xs[start:start + chunk]) for start in range(0, SCAN_POINTS, chunk)]
    scanned = [np.concatenate(values) for values in zip(*chunks)]
    return [
        _bisect(at_one_x(margin_of), xs, values, tol)
        for margin_of, values in zip(margins, scanned)
    ]


def _bisect(evaluate: Callable[[float], float], xs, values: np.ndarray, tol: float) -> Root:
    """Bisect the one sign change of a margin scanned to values on the grid xs."""
    positive = values > 0.0
    flips = np.flatnonzero(positive[:-1] != positive[1:])
    if not flips.size:
        raise NoSignChange("margin keeps one sign on [0, 1)")
    if flips.size > 1:
        raise MultipleRoots(f"margin changes sign {flips.size} times on [0, 1)")
    i = flips[0]
    lo, hi = float(xs[i]), float(xs[i + 1])
    bracket = (lo, hi)
    lo_positive = bool(positive[i])
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

    The one-margin case of _scan_and_bisect, with x as the state, scanned one
    point at a time: failures come in x order.
    """
    margins = (lambda xs: [margin_of_x(float(xs[0]))],)
    return _scan_and_bisect(lambda xs: xs, margins, tol, 1)[0]


def thresholds(
    kind: str,
    n: int,
    criteria: Sequence[Criterion],
    tol: float = DEFAULT_X_TOL,
) -> list[ThresholdResult]:
    """Solve the noise threshold x* of each criterion on one family, over one shared scan.

    The family's pure state is decomposed once, at the first scan point; the
    scan then takes a MixtureSource of max(1, SCAN_CHUNK_ENTRIES // 4**n)
    points at a time, for all criteria; bisection and the residual evaluate
    one state at a time through margin. Errors follow _scan_and_bisect, an
    empty request included; the family, n and x rules are StateFamily's,
    raised at the first scan point.
    """
    criteria = tuple(criteria)
    family_sources = functools.cache(lambda: _family_sources(kind, n))

    def states_at(xs: np.ndarray) -> tuple[list[StateFamily], MixtureSource]:
        families = [StateFamily(kind, n, float(x)) for x in xs]
        return families, family_sources()(xs)

    def margins_of(criterion: Criterion) -> Callable[[Any], np.ndarray]:
        def of(state) -> np.ndarray:
            families, source = state
            if len(families) == 1:  # one state: margin, the per-state evaluation
                return np.array([margin(families[0], criterion, source)])
            return _formula(criterion, source)

        return of

    # an n that StateFamily rejects is scanned one point at a time, and raises at the first
    valid_n = n in range(2, MAX_QUBITS + 1)
    chunk = max(1, SCAN_CHUNK_ENTRIES // 4 ** int(n)) if valid_n else 1
    roots = _scan_and_bisect(states_at, [margins_of(c) for c in criteria], tol, chunk)
    return [ThresholdResult(kind, n, criterion, *root) for criterion, root in zip(criteria, roots)]


def threshold(
    kind: str, n: int, criterion: Criterion, tol: float = DEFAULT_X_TOL
) -> ThresholdResult:
    """Solve for the noise threshold x* of a criterion on one family: thresholds of one."""
    return thresholds(kind, n, (criterion,), tol)[0]


def curve(kind: str, n: int, criterion_kinds, q_grid) -> list[ThresholdResult]:
    """Thresholds x*(q) of each finite-q criterion kind over a grid of entropic orders.

    The sweep runs through q_grid once per kind, in the given order. Every
    Criterion(kind, q) is built, and so checked, before thresholds solves them
    all over one shared scan; its errors, an empty sweep included, are the
    curve's.
    """
    sweep = [Criterion(c, q) for c, q in itertools.product(criterion_kinds, q_grid)]
    return thresholds(kind, n, sweep)


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
    lam = DenseSource(build(family), family.n_qubits).sandwich_eigs((1.0 - q) / (2.0 * q))[0]
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
