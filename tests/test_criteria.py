import types

import numpy as np
import pytest

from qsep import analytic, criteria
from qsep.analytic import vidal_tarrach_pp, vidal_tarrach_wl
from qsep.criteria import (
    SCAN_POINTS,
    Criterion,
    curve,
    locate_sign_change,
    locate_sign_changes,
    margin,
    threshold,
    thresholds,
    verify,
)
from qsep.entropy import DenseSource, cstre_infinity_margin, ppt_margin
from qsep.exceptions import BadParameter, MultipleRoots, NanMargin, NoSignChange, NotPSD, QsepError
from qsep.states import FAMILIES, StateFamily, build, pseudopure, werner_like

from util import random_pure, shifted_pp_ghz_spectrum

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
                assert margin(family, criterion, spectra) == margin(family, criterion)


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


def test_threshold_matches_closed_form():
    result = threshold("pp-w", 3, Criterion("cstre-inf"))
    assert abs(result.x_star - analytic.bound_pp_w(3)) < 1e-8
    assert abs(result.x_star - 0.3083) < 5e-4
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
    assert points[0].q == 2.0
    assert points[0].x_star is not None


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
        ((), [2.0]),
    ):
        with pytest.raises(BadParameter):
            curve("pp-ghz", 3, kinds, q_grid)


def test_curve_points_name_their_criterion(monkeypatch):
    # the four points share one scan: 1001 states, then one per bisection step and
    # residual, not four times 1026; each x* is still that of its own threshold solve
    builds = []
    monkeypatch.setattr(criteria, "build", lambda family: builds.append(family) or build(family))
    points = curve("wl-ghz", 3, ("cstre", "ar"), [2.0, 5.0])
    monkeypatch.undo()
    assert [(p.criterion, p.q) for p in points] == [
        ("cstre", 2.0), ("cstre", 5.0), ("ar", 2.0), ("ar", 5.0)
    ]
    alone = [threshold("wl-ghz", 3, Criterion(p.criterion, p.q)) for p in points]
    assert [p.x_star for p in points] == [result.x_star for result in alone]
    assert len(builds) == SCAN_POINTS + sum(result.iterations + 1 for result in alone)


def test_table_cells_match_independent_thresholds(pp_w_table):
    table, _ = pp_w_table
    kinds = [c for _, c in criteria.TABLES["1"][1]]
    assert table[3] == tuple(threshold("pp-w", 3, Criterion(c)).x_star for c in kinds)


def _one_root(x):
    return 0.5 - x


def _two_roots(x):
    return np.cos(3.0 * np.pi * x)


def _nan_early(x):
    return float("nan") if x > 0.05 else 0.5 - x


def _not_psd(x):
    if x > 0.05:
        raise NotPSD("matrix has negative eigenvalue -1e-3")
    return 0.5 - x


def _nan_in_bisection(x):
    return float("nan") if 0.49999 < x < 0.5 else 0.5 - x


@pytest.mark.parametrize(
    "margins, error",
    [
        ((_two_roots, _nan_early), NanMargin),
        ((_two_roots, _not_psd), NotPSD),
        ((_nan_early, _two_roots), NanMargin),
        ((_nan_in_bisection, _not_psd), NotPSD),
        ((_one_root, lambda x: 1.0, _two_roots), NoSignChange),
    ],
    ids=["roots-before-nan", "roots-before-error", "nan-before-roots", "bisection-nan-first",
         "no-sign-change-first"],
)
def test_shared_scan_raises_in_criterion_order(margins, error):
    # the scan raises the first failure it meets, before any margin is bisected; only a
    # scan that meets none leaves the margins to be judged in their given order
    with pytest.raises(QsepError) as raised:
        locate_sign_changes(float, margins)
    assert type(raised.value) is error


def test_shared_scan_stops_at_the_first_failure():
    xs = []
    with pytest.raises(NanMargin, match="NaN at x = "):
        locate_sign_changes(lambda x: xs.append(x) or x, (_one_root, _nan_early))
    # index 51 is the first scan point past x = 0.05; no bisection follows
    assert len(xs) == 52
    assert xs[-2] <= 0.05 < xs[-1]


def test_curve_reads_one_shot_inputs_once():
    points = curve("pp-ghz", 3, (k for k in ("cstre", "ar")), (q for q in [2.0, 3.0]))
    assert points == curve("pp-ghz", 3, ["cstre", "ar"], [2.0, 3.0])


def test_thresholds_reads_a_one_shot_request_once():
    row = thresholds("wl-ghz", 3, (Criterion(k) for k in ("ppt", "ar-inf")))
    assert row == thresholds("wl-ghz", 3, [Criterion("ppt"), Criterion("ar-inf")])


def test_empty_threshold_request_builds_no_state(monkeypatch):
    monkeypatch.setattr(criteria, "build", None)
    for kind, row in (("wl-ghz", []), ("bogus", []), ("wl-ghz", iter(()))):
        with pytest.raises(BadParameter, match="at least one criterion"):
            thresholds(kind, 3, row)
    xs = []
    with pytest.raises(BadParameter, match="at least one criterion"):
        locate_sign_changes(xs.append, ())
    assert xs == []


def test_shared_scan_solves_past_a_margin_without_sign_change():
    roots = locate_sign_changes(float, (lambda x: 1.0, _one_root), allow_no_sign_change=True)
    assert roots == [None, locate_sign_change(_one_root)]
    with pytest.raises(MultipleRoots):
        locate_sign_changes(float, (lambda x: 1.0, _two_roots), allow_no_sign_change=True)


def test_curve_point_without_sign_change_is_empty(monkeypatch):
    cstre_of = criteria._FORMULA["cstre"]

    def flat_at_five(source, q):
        return 1.0 if q == 5.0 else cstre_of(source, q)

    x_star = threshold("wl-ghz", 3, Criterion("cstre", 2.0)).x_star
    monkeypatch.setitem(criteria._FORMULA, "cstre", flat_at_five)
    points = curve("wl-ghz", 3, ("cstre",), [5.0, 2.0])
    assert [(p.q, p.x_star) for p in points] == [(5.0, None), (2.0, x_star)]


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


def test_verify_small_run_passes(monkeypatch):
    # the library report behind qsep verify: every check a PASS CheckResult, n_max kept
    scans, solves = [], []
    solve_row = criteria.thresholds

    def counted(kind, n, row, *args, **kwargs):
        scans.append((kind, n))
        solves.extend((kind, n, c.kind, c.q) for c in row)
        return solve_row(kind, n, row, *args, **kwargs)

    monkeypatch.setattr(criteria, "thresholds", counted)
    monkeypatch.setattr(criteria, "threshold", None)  # verify reaches the solver only by rows
    report = verify(n_max=3)
    # the ppt and large-q checks reach every family through its one table
    assert sorted(kind for kind, _, _ in criteria.TABLES.values()) == sorted(FAMILIES)
    # one scan per (family, n), and each threshold the checks read is solved once:
    # 10 table cells, 2 GHZ ppt, 4 at q = 2000
    assert sorted(scans) == sorted((kind, 3) for kind in FAMILIES)
    assert len(solves) == len(set(solves)) == 16
    assert report.n_max == 3
    assert report.passed is True
    assert len(report.checks) == 11
    assert all(check.status == "PASS" for check in report.checks)
    for check in report.checks:
        if check.name != "bound-identities":
            assert check.detail.endswith("over n in (3,)"), check
    assert report.summary().endswith("\nOVERALL PASS")


def test_verify_fails_on_a_spectrum_deviation(monkeypatch):
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
