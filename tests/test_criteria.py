import types

import mpmath
import numpy as np
import pytest

from qsep import analytic, criteria
from qsep.analytic import vidal_tarrach_pp, vidal_tarrach_wl
from qsep.criteria import (
    DEFAULT_X_TOL,
    FINITE_Q_CRITERIA,
    Q_FLOOR,
    SCAN_POINTS,
    Criterion,
    curve,
    locate_sign_change,
    margin,
    threshold,
    thresholds,
    verify,
)
from qsep.entropy import DenseSource, MixtureSource, cstre_infinity_margin, ppt_margin
from qsep.exceptions import BadParameter, MultipleRoots, NanMargin, NoSignChange, NotPSD, QsepError
from qsep.states import FAMILIES, StateFamily, build, pseudopure, werner_like

from util import flatten_cstre_at_five, mp_sandwich_eigs, random_pure, shifted_pp_ghz_spectrum

SCAN_GRID = [float(x) for x in np.linspace(0.0, criteria.X_SCAN_MAX, SCAN_POINTS)]

ALL_CRITERIA = (
    Criterion("cstre", 2.0),
    Criterion("ar", 2.0),
    Criterion("vn"),
    Criterion("ppt"),
    Criterion("cstre-inf"),
    Criterion("ar-inf"),
)


def test_margin_signs():
    assert margin(StateFamily("wl-ghz", 2, 0.2), Criterion("ppt")) > 0.0
    assert margin(StateFamily("pp-w", 4, 0.5), Criterion("cstre-inf")) < 0.0
    for kind in FAMILIES:
        for criterion in ALL_CRITERIA:
            assert margin(StateFamily(kind, 3, 0.0), criterion) > 0.0


def test_margins_read_only_spectra():
    # every formula reads the four spectra alone, the interface another source plugs into
    spectra_criteria = [
        *(Criterion(c) for c in ("vn", "ppt", "cstre-inf", "ar-inf")),
        *(Criterion(c, q) for c in ("cstre", "ar") for q in (1.5, 2.0, 20.0)),
    ]
    for kind in FAMILIES:
        for x in (0.05, 0.3, 0.8):
            family = StateFamily(kind, 4, x)
            source = DenseSource(build(family), 4)
            spectra = types.SimpleNamespace(
                rho_eigs=source.rho_eigs,
                reduction_eigs=source.reduction_eigs,
                transpose_eigs=source.transpose_eigs,
                sandwich_eigs=source.sandwich_eigs,
            )
            for criterion in spectra_criteria:
                assert margin(family, criterion, spectra) == margin(family, criterion, source)


#: the six criteria, cstre and ar at two q: the sandwich is read at -1/6, -1/4 and -1/2
SIX_CRITERIA = (
    *(Criterion(c) for c in ("vn", "ppt", "cstre-inf", "ar-inf")),
    *(Criterion(c, q) for c in ("cstre", "ar") for q in (1.5, 2.0)),
)


def _count_lapack_calls(monkeypatch) -> list:
    """Record (routine, shape) of each np.linalg.eigh and eigvalsh call from here on."""
    solves = []

    def counted(name):
        solve = getattr(np.linalg, name)

        def counted_solve(a, *args, **kwargs):
            solves.append((name, a.shape))
            return solve(a, *args, **kwargs)

        return counted_solve

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    return solves


def test_one_decomposition_per_operator(monkeypatch):
    # one LAPACK call per operator stack: sB is decomposed once for its spectrum and every
    # power; each 2^n x 2^n operator (rho, rho^T1, the sandwich at -1/6, -1/4 and -1/2) is
    # solved for eigenvalues only, once for the whole stack
    solves = _count_lapack_calls(monkeypatch)
    for kind in FAMILIES:
        stack = np.stack([build(StateFamily(kind, 4, x)) for x in (0.1, 0.3, 0.5)])
        source = DenseSource(stack, 4)
        solves.clear()
        for criterion in SIX_CRITERIA:
            assert criteria._formula(criterion, source).shape == (3,)
        assert sorted(solves) == [("eigh", (3, 8, 8))] + [("eigvalsh", (3, 16, 16))] * 5, kind
        # the formulas read [..., 0] and [..., -1], and _log_power_sum its peak from the last
        for spectrum in (
            source.rho_eigs,
            source.reduction_eigs,
            source.transpose_eigs,
            *(source.sandwich_eigs(p) for p in (-1 / 6, -0.25, -0.5)),
        ):
            assert np.all(np.diff(spectrum, axis=-1) >= 0.0), kind


def test_one_decomposition_per_family(monkeypatch):
    # a thresholds call decomposes its pure state once: one eigh of Tr_1 |phi><phi| and one
    # eigvalsh of |phi><phi|^T1. Past that only the sandwich is solved, one eigvalsh per
    # power per chunk: the 1001 scan points in chunks of 2**15 // 4**4 = 128, then each
    # bisection step and residual of a sandwich criterion as a chunk of one
    solves = _count_lapack_calls(monkeypatch)
    sandwich = [c for c in SIX_CRITERIA if c.kind in ("cstre", "cstre-inf")]
    scan = [128] * 7 + [105]
    for kind in FAMILIES:
        solves.clear()
        results = thresholds(kind, 4, SIX_CRITERIA)
        steps = sum(r.iterations + 1 for r in results if r.criterion in sandwich)
        assert solves == (
            [("eigh", (8, 8)), ("eigvalsh", (16, 16))]
            + [("eigvalsh", (k, 16, 16)) for k in scan for _ in sandwich]
            + [("eigvalsh", (1, 16, 16))] * steps
        ), kind


def test_criterion_validation():
    with pytest.raises(BadParameter):
        Criterion("cstre")  # missing q
    with pytest.raises(BadParameter):
        Criterion("vn", 2.0)  # q not allowed
    with pytest.raises(BadParameter):
        Criterion("bogus")
    with pytest.raises(BadParameter):
        Criterion("ar", 1.0)
    with pytest.raises(BadParameter):
        Criterion("cstre", 2e6)


def test_criterion_reads_q_as_a_float():
    # q is stored as the float check_entropic_order reads, so every margin takes it
    criterion = Criterion("cstre", "2")
    assert criterion == Criterion("cstre", 2.0) and type(criterion.q) is float
    assert margin(StateFamily("pp-w", 3, 0.0), criterion) > 0.0
    for q in ("abc", [2.0]):
        with pytest.raises(BadParameter, match="entropic order q must be a number"):
            Criterion("ar", q)


def test_finite_q_thresholds_hold_their_tolerance_at_the_q_floor():
    # nearer q = 1 the power sums' round-off moves x* past DEFAULT_X_TOL, so no finite-q
    # criterion takes a q below Q_FLOOR. At the floor, the 40-digit gap of each margin's
    # power sums changes sign between x* - DEFAULT_X_TOL and x* + DEFAULT_X_TOL, so the
    # root lies within tolerance of x*
    for kind in FINITE_Q_CRITERIA:
        with pytest.raises(BadParameter, match=r"need q in \[1\.00001, 1e\+06\], got"):
            Criterion(kind, np.nextafter(Q_FLOOR, 1.0))
    n, q = 3, mpmath.mpf(Q_FLOOR)
    d = 2**n

    def cstre_gap(kind, x):  # sum of the sandwich's lam**q, less 1
        (lam,) = mp_sandwich_eigs(kind, n, x, [Q_FLOOR]).values()
        with mpmath.workdps(40):
            return sum(v**q for v in lam) - 1

    def ar_gap(kind, x):  # rho's power sum less sB's, for a I + b |phi><phi|
        with mpmath.workdps(40):
            x, pp = mpmath.mpf(x), kind.startswith("pp-")
            a = (1 - x) / (d - 1 if pp else d)
            b = x - a if pp else x
            # the squared Schmidt coefficients of phi across the first-qubit cut
            w = ((n - 1) / mpmath.mpf(n), 1 / mpmath.mpf(n))
            schmidt = w if kind.endswith("-w") else (mpmath.mpf(0.5),) * 2
            rho = (a + b) ** q + (d - 1) * a**q
            return rho - sum((2 * a + b * s) ** q for s in schmidt) - (d // 2 - 2) * (2 * a) ** q

    for kind in FAMILIES:
        cstre, ar = thresholds(kind, n, [Criterion(c, Q_FLOOR) for c in ("cstre", "ar")])
        for result, gap in ((cstre, cstre_gap), (ar, ar_gap)):
            x_star = result.x_star
            below, above = gap(kind, x_star - DEFAULT_X_TOL), gap(kind, x_star + DEFAULT_X_TOL)
            assert (below < 0) != (above < 0), (kind, result.criterion)


def test_threshold_matches_closed_form():
    result = threshold("pp-w", 3, Criterion("cstre-inf"))
    assert abs(result.x_star - analytic.bound_pp_w(3)) < 1e-8
    assert result.bracket[0] < result.x_star < result.bracket[1]
    assert 0.0 < result.x_star < 1.0
    assert result.iterations > 0


def test_threshold_result_brackets_the_root():
    crit = Criterion("ppt")
    result = threshold("wl-w", 3, crit)
    assert margin(StateFamily("wl-w", 3, result.x_star - 1e-8), crit) >= -1e-6
    assert margin(StateFamily("wl-w", 3, result.x_star + 1e-8), crit) <= 1e-6
    assert abs(result.residual) < 1e-9


def test_threshold_is_deterministic():
    first = threshold("pp-ghz", 3, Criterion("cstre", 5.0))
    second = threshold("pp-ghz", 3, Criterion("cstre", 5.0))
    assert first.x_star == second.x_star
    assert first.iterations == second.iterations
    assert first.bracket == second.bracket


def test_threshold_rejects_unknown_family():
    with pytest.raises(BadParameter):
        threshold("bogus", 3, Criterion("ppt"))
    with pytest.raises(BadParameter):
        criteria.family_table("pp-w")  # a family, not a table id


def test_locate_sign_change_on_synthetic_margins():
    x_star, bracket, iterations, residual = locate_sign_change(lambda x: 0.5 - x)
    assert abs(x_star - 0.5) < 1e-9
    assert bracket[0] <= x_star <= bracket[1]
    assert iterations > 0
    assert abs(residual) < 1e-9
    with pytest.raises(NoSignChange):
        locate_sign_change(lambda x: 1.0)
    with pytest.raises(MultipleRoots):
        locate_sign_change(lambda x: np.cos(3.0 * np.pi * x))


@pytest.mark.parametrize(
    "nan_on",
    [lambda x: 0.3 < x < 0.4, lambda x: 0.49999 < x < 0.5, lambda x: x > 0.7],
    ids=["scan-interior", "bisection", "past-root"],
)
def test_nan_margin_raises(nan_on):
    # a NaN margin is never read as a sign: it raises, naming x, wherever it shows up
    with pytest.raises(NanMargin, match=r"margin is NaN at x = 0\.\d+"):
        locate_sign_change(lambda x: float("nan") if nan_on(x) else 0.5 - x)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), "1e-3", None, 1e-300])
def test_threshold_tolerance(tol):
    # bisection neither loops forever nor skips: a bracket one ulp wide ends it
    if not isinstance(tol, float) or not 0.0 < tol < np.inf:
        with pytest.raises(BadParameter):
            threshold("wl-ghz", 3, Criterion("ppt"), tol=tol)
        return
    result = threshold("wl-ghz", 3, Criterion("ppt"), tol=tol)
    assert abs(result.x_star - 0.2) < 1e-12
    assert result.iterations < 64


def test_curve_single_point():
    points = curve("pp-ghz", 3, ("cstre",), [2.0])
    assert len(points) == 1
    assert (points[0].criterion.kind, points[0].criterion.q) == ("cstre", 2.0)


def test_curve_validation():
    with pytest.raises(BadParameter):
        curve("pp-ghz", 3, ("ppt",), [2.0])
    with pytest.raises(BadParameter):
        curve("pp-ghz", 3, ("cstre",), [])


def test_curve_checks_the_whole_sweep_first(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("threshold solved before the whole sweep was checked")

    monkeypatch.setattr(criteria, "thresholds", no_solve)
    for kinds, q_grid in (
        (("cstre", "vn"), [2.0]),
        (("cstre",), [2.0, 2e6]),
        (("ar",), [2.0, float("nan")]),
    ):
        with pytest.raises(BadParameter):
            curve("pp-ghz", 3, kinds, q_grid)
    # an empty sweep is the solver's empty request, rejected before any state is built
    monkeypatch.undo()
    monkeypatch.setattr(criteria, "mixture_basis", None)
    monkeypatch.setattr(criteria, "MixtureSource", None)
    with pytest.raises(BadParameter, match="^need at least one criterion to solve$"):
        curve("pp-ghz", 3, (), [2.0])


def test_curve_points_name_their_criterion(monkeypatch):
    # the four points share one scan: 1001 states, then one per bisection step and
    # residual, not four times 1026; each x* is still that of its own threshold solve
    builds = []
    monkeypatch.setattr(criteria, "MixtureSource", lambda basis, a, b: (
        builds.extend(a) or MixtureSource(basis, a, b)))
    points = curve("wl-ghz", 3, ("cstre", "ar"), [2.0, 5.0])
    monkeypatch.undo()
    assert [(p.criterion.kind, p.criterion.q) for p in points] == [
        ("cstre", 2.0), ("cstre", 5.0), ("ar", 2.0), ("ar", 5.0)
    ]
    # the whole result, bracket, iterations and residual included
    alone = [threshold("wl-ghz", 3, p.criterion) for p in points]
    assert points == alone
    assert len(builds) == SCAN_POINTS + sum(result.iterations + 1 for result in alone)


def test_table_cells_match_independent_thresholds(published_tables):
    table, _ = published_tables["1"]
    kinds = [c for _, c in criteria.TABLES["1"][1]]
    assert table[3] == tuple(threshold("pp-w", 3, Criterion(c)).x_star for c in kinds)


# margins over a stack of x, one value per x


def _one_root(xs):
    return 0.5 - xs


def _two_roots(xs):
    return np.cos(3.0 * np.pi * xs)


def _nan_early(xs):
    return np.where(xs > 0.05, np.nan, 0.5 - xs)


def _not_psd(xs):
    if (xs > 0.05).any():
        raise NotPSD("matrix has negative eigenvalue -1e-3")
    return 0.5 - xs


def _nan_in_bisection(xs):
    return np.where((0.49999 < xs) & (xs < 0.5), np.nan, 0.5 - xs)


def _nan_late(xs):
    return np.where(xs > 0.3, np.nan, 0.5 - xs)


def _not_psd_late(xs):
    return _not_psd(xs - 0.25)


@pytest.mark.parametrize(
    "margins, chunk, error, nan_at",
    [
        ((_two_roots, _nan_early), 1, NanMargin, 51),
        ((_two_roots, _not_psd), 1, NotPSD, None),
        ((_nan_early, _two_roots), 1, NanMargin, 51),
        ((_nan_in_bisection, _not_psd), 1, NotPSD, None),
        ((_one_root, lambda xs: np.ones_like(xs), _two_roots), 1, NoSignChange, None),
        ((_nan_early, _not_psd_late), 1, NanMargin, 51),
        ((_nan_late, _not_psd), 1, NotPSD, None),
        ((_nan_late, _not_psd), SCAN_POINTS, NanMargin, 301),
    ],
    ids=["roots-before-nan", "roots-before-error", "nan-before-roots", "bisection-nan-first",
         "no-sign-change-first", "nan-below-error-in-chunk", "error-below-nan-in-chunk",
         "criterion-order-in-one-chunk"],
)
def test_shared_scan_raises_in_criterion_order(margins, chunk, error, nan_at):
    # the scan raises the first failure it meets, chunk by chunk and in criterion order
    # within a chunk, before any margin is bisected; only a scan that meets none leaves the
    # margins to be judged in their given order. A NaN is named at its lowest x. In the
    # last three cases criterion 1 is NaN and criterion 2 raises, each from its own x on:
    # chunks of one point meet the lower x first, one chunk of the whole grid criterion 1
    with pytest.raises(QsepError) as raised:
        criteria._scan_and_bisect(lambda xs: xs, margins, DEFAULT_X_TOL, chunk)
    assert type(raised.value) is error
    if error is NanMargin:
        assert str(raised.value) == f"margin is NaN at x = {SCAN_GRID[nan_at]!r}"


def test_shared_scan_stops_at_the_first_failure(monkeypatch):
    # n = 5 scans chunks of SCAN_CHUNK_ENTRIES // 4**5 = 32 points; the NaN past x = 0.05
    # first shows at index 51, in the second chunk, and no chunk past it is built. A
    # Werner-like state's weight b is its x
    chunk = criteria.SCAN_CHUNK_ENTRIES // 4**5
    built = []
    monkeypatch.setattr(
        criteria,
        "MixtureSource",
        lambda basis, a, b: built.append([float(x) for x in b]) or MixtureSource(basis, a, b),
    )
    monkeypatch.setitem(criteria._FORMULA, "ppt", lambda source: _nan_early(np.array(built[-1])))
    with pytest.raises(NanMargin, match=f"NaN at x = {SCAN_GRID[51]!r}$"):
        thresholds("wl-ghz", 5, [Criterion("ppt")])
    assert built == [SCAN_GRID[:chunk], SCAN_GRID[chunk:2 * chunk]]
    assert chunk < 51 < 2 * chunk and SCAN_GRID[50] <= 0.05 < SCAN_GRID[51]


#: every criterion, cstre and ar at a small, a middle and a large q
STACK_CRITERIA = (
    *(Criterion(c) for c in ("vn", "ppt", "cstre-inf", "ar-inf")),
    *(Criterion(c, q) for c in ("cstre", "ar") for q in (1.5, 2.0, 2000.0)),
)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("kind", FAMILIES)
def test_chunked_scan_matches_point_by_point_margins(monkeypatch, kind, n):
    # the scan evaluates chunks of stacked states; margin evaluates one state at a time.
    # Both must give the same sign at every scan point, margins within 1e-14 relative,
    # and == thresholds. 1001 = 7 * 11 * 13, so every chunk length leaves a partial chunk
    bisect = criteria._bisect

    def solve():
        scans, built = [], []
        with monkeypatch.context() as patch:
            patch.setattr(criteria, "_bisect", lambda evaluate, xs, values, tol: (
                scans.append(values) or bisect(evaluate, xs, values, tol)))
            patch.setattr(criteria, "MixtureSource", lambda basis, a, b: (
                built.append(len(a)) or MixtureSource(basis, a, b)))
            return thresholds(kind, n, STACK_CRITERIA), scans, built

    chunked, chunked_scans, built = solve()
    chunk = criteria.SCAN_CHUNK_ENTRIES // 4**n
    full, last = divmod(SCAN_POINTS, chunk)
    assert chunk > 1 and last > 0
    assert built[: full + 1] == [chunk] * full + [last]
    assert set(built[full + 1:]) == {1}  # bisection and residuals
    monkeypatch.setattr(criteria, "SCAN_CHUNK_ENTRIES", 0)  # one point per chunk
    single, single_scans, built = solve()
    assert set(built) == {1}
    assert chunked == single
    for criterion, got, want in zip(STACK_CRITERIA, chunked_scans, single_scans):
        assert np.array_equal(got > 0.0, want > 0.0), criterion
        differ = got != want  # equal infinities included
        gap = np.abs(got[differ] - want[differ]) / np.abs(want[differ])
        assert not differ.any() or gap.max() <= 1e-14, (criterion, gap.max())


def test_curve_reads_one_shot_inputs_once():
    points = curve("pp-ghz", 3, (k for k in ("cstre", "ar")), (q for q in [2.0, 3.0]))
    assert points == curve("pp-ghz", 3, ["cstre", "ar"], [2.0, 3.0])


def test_thresholds_reads_a_one_shot_request_once():
    row = thresholds("wl-ghz", 3, (Criterion(k) for k in ("ppt", "ar-inf")))
    assert row == thresholds("wl-ghz", 3, [Criterion("ppt"), Criterion("ar-inf")])


def test_empty_threshold_request_builds_no_state(monkeypatch):
    monkeypatch.setattr(criteria, "mixture_basis", None)
    monkeypatch.setattr(criteria, "MixtureSource", None)
    for kind, row in (("wl-ghz", []), ("bogus", []), ("wl-ghz", iter(()))):
        with pytest.raises(BadParameter, match="at least one criterion"):
            thresholds(kind, 3, row)
    xs = []
    with pytest.raises(BadParameter, match="at least one criterion"):
        criteria._scan_and_bisect(xs.append, (), DEFAULT_X_TOL, 1)
    assert xs == []


def test_curve_raises_without_sign_change(monkeypatch):
    # a curve solves like any request: a q whose margin keeps one sign raises
    flatten_cstre_at_five(monkeypatch)
    with pytest.raises(NoSignChange, match="margin keeps one sign on"):
        curve("wl-ghz", 3, ("cstre",), [2.0, 5.0])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_thresholds_of_random_pure_states_match_vidal_tarrach(n):
    # beyond W/GHZ: a pure state mixed with noise is 1:(N-1) separable exactly up to the
    # Vidal-Tarrach threshold of its two Schmidt coefficients (PRA 59, 141 (1999))
    phi = random_pure(2**n, np.random.default_rng(70 + n))
    s1, s2 = np.linalg.svd(phi.reshape(2, -1), compute_uv=False)
    for mix, bound in (
        (pseudopure, vidal_tarrach_pp(s1, s2, 2**n)),
        (werner_like, vidal_tarrach_wl(s1, s2, 2**n)),
    ):
        for margin_of in (ppt_margin, cstre_infinity_margin):
            x_star = locate_sign_change(lambda x: margin_of(mix(phi, x), n))[0]
            assert abs(x_star - bound) <= 1e-9, (mix.__name__, margin_of.__name__)


def test_verify_small_run_passes(monkeypatch, solved_once):
    # verify reaches the solver only by rows: one scan per (family, n), and each threshold
    # the checks read is requested once (10 table cells, 2 GHZ ppt, 4 at q = 2000)
    calls, solve = [], criteria.thresholds
    monkeypatch.setattr(criteria, "thresholds", lambda *call: calls.append(call) or solve(*call))
    monkeypatch.setattr(criteria, "threshold", None)
    report = verify(n_max=3)
    assert sorted((kind, n) for kind, n, _ in calls) == sorted((kind, 3) for kind in FAMILIES)
    solves = [(kind, criterion) for kind, _, row in calls for criterion in row]
    assert len(solves) == len(set(solves)) == 16
    assert (report.n_max, report.passed) == (3, True)
    for check in report.checks[1:]:  # names and statuses: test_cli's verify tests
        assert check.detail.endswith("over n in (3,)"), check


def test_verify_fails_on_a_spectrum_deviation(monkeypatch, solved_once):
    spectra = {**criteria.CLOSED_FORM_SPECTRUM, "pp-ghz": shifted_pp_ghz_spectrum}
    monkeypatch.setattr(criteria, "CLOSED_FORM_SPECTRUM", spectra)
    report = verify(3)
    assert report.passed is False
    assert [c.name for c in report.checks if c.status == "FAIL"] == ["spectrum-oracle-pp-ghz"]
    assert report.summary().endswith("\nOVERALL FAIL")


def test_verify_rejects_bad_n_max():
    # the published tables stop at n = 6, so verify accepts only the n it checks
    for n_max in (2, 7, 8, 9):
        with pytest.raises(BadParameter, match=r"n_max must lie in \[3, 6\]"):
            verify(n_max)
