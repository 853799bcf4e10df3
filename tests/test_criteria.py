import numpy as np
import pytest

from qsep import analytic, criteria
from qsep.analytic import vidal_tarrach_pp, vidal_tarrach_wl
from qsep.criteria import (
    Criterion,
    curve,
    locate_sign_change,
    margin,
    threshold,
    verify,
)
from qsep.entropy import cstre_infinity_margin, ppt_margin, von_neumann_conditional
from qsep.exceptions import BadParameter, MultipleRoots, NanMargin, NoSignChange
from qsep.states import FAMILIES, StateFamily, build, pseudopure, werner_like

from util import random_pure, shifted_spectrum, swap_qubits

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


def test_threshold_matches_closed_form():
    result = threshold("pp-w", 3, Criterion("cstre-inf"))
    assert abs(result.x_star - analytic.bound_pp_w(3)) < 1e-8
    assert abs(result.x_star - 0.3083) < 5e-4
    assert result.bracket[0] < result.x_star < result.bracket[1]
    assert 0.0 < result.x_star < 1.0
    assert result.iterations > 0


def test_threshold_wl_w_ppt_n6():
    result = threshold("wl-w", 6, Criterion("ppt"))
    assert abs(result.x_star - 0.0402) < 5e-4


def test_threshold_result_brackets_the_root():
    crit = Criterion("ppt")
    result = threshold("wl-w", 3, crit)
    assert margin(StateFamily("wl-w", 3, result.x_star - 1e-8), crit) >= -1e-6
    assert margin(StateFamily("wl-w", 3, result.x_star + 1e-8), crit) <= 1e-6
    assert abs(result.residual) < 1e-9


def test_threshold_two_qubit_sanity():
    assert abs(threshold("wl-ghz", 2, Criterion("vn")).x_star - 0.747) < 1e-3
    assert abs(threshold("wl-ghz", 2, Criterion("ppt")).x_star - 1.0 / 3.0) < 1e-6
    assert abs(threshold("wl-ghz", 2, Criterion("ar-inf")).x_star - 1.0 / 3.0) < 1e-6


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


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), 1e-300])
def test_threshold_tolerance(tol):
    # bisection neither loops forever nor skips: a bracket one ulp wide ends it
    if not 0.0 < tol < np.inf:
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


def test_curve_ordering():
    grid = (2.0, 10.0, 100.0)
    xc = [p.x_star for p in curve("pp-ghz", 4, ("cstre",), grid)]
    xa = [p.x_star for p in curve("pp-ghz", 4, ("ar",), grid)]
    assert all(c >= a for c, a in zip(xc, xa))
    assert all(first >= second for first, second in zip(xc, xc[1:]))
    assert all(first >= second for first, second in zip(xa, xa[1:]))


def test_curve_validation():
    with pytest.raises(BadParameter):
        curve("pp-ghz", 3, ("ppt",), [2.0])
    with pytest.raises(BadParameter):
        curve("pp-ghz", 3, ("cstre",), [])


def test_curve_checks_the_whole_sweep_first(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("threshold solved before the whole sweep was checked")

    monkeypatch.setattr(criteria, "threshold", no_solve)
    for kinds, q_grid in (
        (("cstre", "vn"), [2.0]),
        (("cstre",), [2.0, 2e6]),
        (("ar",), [2.0, float("nan")]),
        ((), [2.0]),
    ):
        with pytest.raises(BadParameter):
            curve("pp-ghz", 3, kinds, q_grid)


def test_curve_points_name_their_criterion():
    points = curve("wl-ghz", 3, ("cstre", "ar"), [2.0, 5.0])
    assert [(p.criterion, p.q) for p in points] == [
        ("cstre", 2.0), ("cstre", 5.0), ("ar", 2.0), ("ar", 5.0)
    ]
    for p in points:
        assert p.x_star == threshold("wl-ghz", 3, Criterion(p.criterion, p.q)).x_star


def test_margins_invariant_under_qubit_relabeling():
    for kind in FAMILIES:
        rho = build(StateFamily(kind, 3, 0.15))
        for i, j in ((1, 2), (1, 3)):
            permuted = swap_qubits(rho, 3, i, j)
            assert abs(cstre_infinity_margin(permuted, 3) - cstre_infinity_margin(rho, 3)) < 1e-9
            assert abs(ppt_margin(permuted, 3) - ppt_margin(rho, 3)) < 1e-9
            assert abs(von_neumann_conditional(permuted, 3) - von_neumann_conditional(rho, 3)) < 1e-9


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


def test_verify_small_run_passes():
    report = verify(n_max=4)
    assert report.passed
    names = {check.name for check in report.checks}
    assert "bound-identities" in names
    assert "ppt-vs-cstre-inf" in names
    assert any(name.startswith("reference-thresholds") for name in names)
    assert any(name.startswith("spectrum-oracle") for name in names)
    assert all(check.status == "PASS" for check in report.checks)
    for check in report.checks:
        if check.name != "bound-identities":
            assert check.detail.endswith("over n in (3, 4)"), check
    assert "OVERALL PASS" in report.summary()


def test_verify_rejects_bad_n_max():
    # the published tables stop at n = 6, so verify accepts only the n it checks
    for n_max in (2, 7, 8, 9):
        with pytest.raises(BadParameter, match=r"n_max must lie in \[3, 6\]"):
            verify(n_max)


def test_verify_checks_w_tables_against_closed_form(monkeypatch):
    bound = criteria.CLOSED_FORM_BOUND["pp-w"]
    monkeypatch.setitem(criteria.CLOSED_FORM_BOUND, "pp-w", lambda n: bound(n) + 1e-6)
    report = verify(3)
    assert "FAIL reference-thresholds-pp-w" in report.summary()
    assert report.passed is False


def test_verify_fails_on_a_spectrum_deviation(monkeypatch):
    spectrum = shifted_spectrum(criteria.CLOSED_FORM_SPECTRUM["pp-ghz"], 1e-6)
    monkeypatch.setitem(criteria.CLOSED_FORM_SPECTRUM, "pp-ghz", spectrum)
    report = verify(3)
    assert "FAIL spectrum-oracle-pp-ghz" in report.summary()
    assert report.passed is False
    assert "OVERALL FAIL" in report.summary()


def test_verify_fails_on_a_large_q_deviation(monkeypatch):
    monkeypatch.setattr(criteria, "LARGE_Q_TOL", 1e-6)
    report = verify(3)
    assert "FAIL large-q-vs-infinity" in report.summary()
    assert report.passed is False
