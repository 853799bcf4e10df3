import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsep import entropy
from qsep.analytic import wl_ghz_sandwich_eigs
from qsep.criteria import DEFAULT_Q_GRID
from qsep.entropy import (
    ar_conditional,
    ar_infinity_margin,
    cstre,
    cstre_infinity_margin,
    ppt_margin,
    sandwiched_matrix,
    sandwiched_tsallis_relative,
    traditional_tsallis_relative,
    von_neumann_conditional,
)
from qsep.exceptions import BadParameter, SupportViolation
from qsep.linalg import (
    eigvals_hermitian,
    hermitize,
    kron,
    partial_trace_first,
    power_on_support,
)
from qsep.states import FAMILIES, StateFamily, build, ghz_state

from util import random_density, random_unitary


def test_sandwich_of_maximally_mixed():
    for n, q in ((3, 2.0), (4, 5.0)):
        dim = 2**n
        out = sandwiched_matrix(np.eye(dim) / dim, n, q)
        factor = 2.0 ** ((n - 1) * (q - 1) / q) / dim
        assert np.allclose(out, factor * np.eye(dim), atol=1e-12)


def test_sandwich_of_product_state():
    # for rho = rho_A (x) sB the sandwich reduces to rho_A (x) sB**(1/q)
    rng = np.random.default_rng(21)
    rho_a = random_density(2, rng)
    sigma_b = random_density(4, rng)
    q = 3.0
    values = np.sort(eigvals_hermitian(sandwiched_matrix(kron(rho_a, sigma_b), 3, q)))
    mu = np.linalg.eigvalsh(rho_a)
    nu = np.linalg.eigvalsh(sigma_b)
    expected = np.sort(np.outer(mu, nu ** (1.0 / q)).ravel())
    assert np.allclose(values, expected, atol=1e-10)


def test_sandwich_matches_closed_form():
    rho = build(StateFamily("wl-ghz", 3, 0.2))
    numeric = np.sort(eigvals_hermitian(sandwiched_matrix(rho, 3, 2.0)))
    assert np.allclose(numeric, wl_ghz_sandwich_eigs(3, 0.2, 2.0).expand(), atol=1e-9)


def test_cstre_at_zero_noise():
    for kind in ("wl-w", "wl-ghz"):
        for n in (3, 4):
            rho = build(StateFamily(kind, n, 0.0))
            for q in (1.5, 2.0, 5.0):
                expected = (2.0 ** (1 - q) - 1.0) / (1.0 - q)
                value = cstre(rho, n, q)
                assert abs(value - expected) < 1e-12
                assert value > 0.0


def test_cstre_equals_ar_for_maximally_mixed_reduction():
    # the two-qubit Werner state has sB = I/2 at every x; values grow with q,
    # so compare relative to magnitude there
    for x in (0.0, 0.3, 0.7):
        rho = build(StateFamily("wl-ghz", 2, x))
        for q in (1.5, 2.0, 10.0, 100.0):
            a = cstre(rho, 2, q)
            b = ar_conditional(rho, 2, q)
            assert abs(a - b) < 1e-9 * max(1.0, abs(b))
    for kind in ("wl-w", "wl-ghz"):
        rho = build(StateFamily(kind, 3, 0.0))
        for q in DEFAULT_Q_GRID:
            assert abs(cstre(rho, 3, q) - ar_conditional(rho, 3, q)) < 1e-9


def test_cstre_flags_entangled_werner_at_large_q():
    rho = build(StateFamily("wl-ghz", 2, 0.4))  # 0.4 > 1/3
    assert cstre(rho, 2, 2000.0) < 0.0


def test_ar_conditional_maximally_mixed():
    rho = np.eye(8) / 8.0
    for q in (1.5, 3.0):
        expected = (1.0 - 2.0 ** (1 - q)) / (q - 1.0)
        assert expected > 0.0
        assert abs(ar_conditional(rho, 3, q) - expected) < 1e-12


def test_ar_conditional_pure_product_is_zero():
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0
    assert abs(ar_conditional(rho, 3, 2.0)) < 1e-12


def test_ar_conditional_negative_above_werner_threshold():
    rho = build(StateFamily("wl-ghz", 2, 0.34))  # just above 1/3
    assert ar_conditional(rho, 2, 1e4) < 0.0


def test_von_neumann_conditional():
    assert abs(von_neumann_conditional(np.eye(8) / 8.0, 3) - np.log(2.0)) < 1e-12
    ghz = np.outer(ghz_state(3), ghz_state(3).conj())
    assert abs(von_neumann_conditional(ghz, 3) + np.log(2.0)) < 1e-12
    # two-qubit Werner sign change sits between 0.73 and 0.76
    assert von_neumann_conditional(build(StateFamily("wl-ghz", 2, 0.73)), 2) > 0.0
    assert von_neumann_conditional(build(StateFamily("wl-ghz", 2, 0.76)), 2) < 0.0


def test_traditional_tsallis_relative_hand_case():
    rho = np.diag([0.5, 0.5])
    sigma = np.diag([0.75, 0.25])
    # (Tr[rho^2 sigma^-1] - 1) / 1 = (1/4 * 4/3 + 1/4 * 4) - 1 = 1/3
    assert abs(traditional_tsallis_relative(rho, sigma, 2.0) - 1.0 / 3.0) < 1e-12
    assert abs(traditional_tsallis_relative(rho, rho, 2.0)) < 1e-12


def test_traditional_support_violation():
    with pytest.raises(SupportViolation):
        traditional_tsallis_relative(np.eye(2) / 2.0, np.diag([1.0, 0.0]), 2.0)


def test_commuting_pairs_sandwiched_equals_traditional():
    rng = np.random.default_rng(33)
    for trial in range(100):
        dim = (2, 4, 8)[trial % 3]
        basis = random_unitary(dim, rng)
        p = rng.dirichlet(np.ones(dim))
        s = rng.dirichlet(np.ones(dim)) + 0.05
        s /= s.sum()
        rho = (basis * p) @ basis.conj().T
        sigma = (basis * s) @ basis.conj().T
        q = float(rng.uniform(1.1, 6.0))
        sandwiched = sandwiched_tsallis_relative(rho, sigma, q)
        traditional = traditional_tsallis_relative(rho, sigma, q)
        assert abs(sandwiched - traditional) < 1e-9


def test_power_sum_continuity_near_q_one():
    q = 1.0 + 1e-4
    for kind in FAMILIES:
        rho = build(StateFamily(kind, 3, 0.3))
        lam = eigvals_hermitian(sandwiched_matrix(rho, 3, q))
        lam = lam[lam > 1e-15]
        assert abs(float((lam**q).sum()) - 1.0) <= 1e-3


def test_cstre_infinity_margin():
    # 3/(2**3 + 2) = 0.3 is the exact pp-ghz threshold at n = 3
    assert abs(cstre_infinity_margin(build(StateFamily("pp-ghz", 3, 0.3)), 3)) < 1e-9
    assert abs(cstre_infinity_margin(np.eye(8) / 8.0, 3) - 0.5) < 1e-12
    assert cstre_infinity_margin(build(StateFamily("pp-w", 3, 0.5)), 3) < 0.0


def test_ar_infinity_margin():
    assert abs(ar_infinity_margin(build(StateFamily("wl-ghz", 2, 1.0 / 3.0)), 2)) < 1e-12
    assert abs(ar_infinity_margin(build(StateFamily("pp-w", 3, 4.0 / 11.0)), 3)) < 1e-12
    assert abs(ar_infinity_margin(np.eye(16) / 16.0, 4) - (1.0 / 8.0 - 1.0 / 16.0)) < 1e-12


def test_ppt_margin():
    for x in (0.2, 0.5):
        rho = build(StateFamily("wl-ghz", 2, x))
        assert abs(ppt_margin(rho, 2) - (1 - 3 * x) / 4) < 1e-12
    rng = np.random.default_rng(41)
    product = kron(random_density(2, rng), random_density(4, rng))
    assert ppt_margin(product, 3) >= -1e-12
    assert abs(ppt_margin(build(StateFamily("pp-w", 3, 0.3083)), 3)) < 1e-4


def test_finite_on_state_grid():
    for kind in FAMILIES:
        for n in (3, 4):
            for x in np.linspace(0.0, 0.9, 10):
                rho = build(StateFamily(kind, n, float(x)))
                for q in (1.5, 2.0, 20.0, 100.0, 500.0):
                    assert np.isfinite(cstre(rho, n, q))
                    assert np.isfinite(ar_conditional(rho, n, q))


def test_overflow_saturates_to_infinity():
    # past the double range the literal values saturate, with cstre and ar negated
    rho = build(StateFamily("pp-ghz", 3, 0.9))
    values = (
        cstre(rho, 3, 1e6),
        ar_conditional(rho, 3, 1e6),
        sandwiched_tsallis_relative(np.diag([0.9, 0.1, 0, 0]), np.diag([0.5, 0.5, 0, 0]), 1e6),
    )
    assert not np.isnan(values).any()
    assert values == (-np.inf, -np.inf, np.inf)


def test_entropic_order_validation():
    rho = np.eye(8) / 8.0
    for bad_q in (1.0, 0.5, 2e6):
        with pytest.raises(BadParameter):
            cstre(rho, 3, bad_q)
        with pytest.raises(BadParameter):
            ar_conditional(rho, 3, bad_q)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind", FAMILIES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    x=st.floats(0.0, 1.0, exclude_max=True),
    q=st.floats(1.01, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_margins_invariant_under_local_unitaries(kind, n, x, q, seed):
    # every margin sees rho only through the 1:(N-1) cut, so U_1 (x) U_rest leaves it fixed
    rng = np.random.default_rng(seed)
    local = kron(random_unitary(2, rng), random_unitary(2 ** (n - 1), rng))
    rho = build(StateFamily(kind, n, x))
    rotated = hermitize(local @ rho @ local.conj().T)
    for margin_of, q_arg in (
        (cstre, (q,)),
        (ar_conditional, (q,)),
        (von_neumann_conditional, ()),
        (ppt_margin, ()),
        (cstre_infinity_margin, ()),
        (ar_infinity_margin, ()),
    ):
        before, after = margin_of(rho, n, *q_arg), margin_of(rotated, n, *q_arg)
        assert math.isclose(after, before, rel_tol=1e-9, abs_tol=1e-9), (
            margin_of.__name__, before, after
        )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(n=st.integers(2, 4), rank=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_reduction_criterion_equals_ppt_on_the_qubit_cut(n, rank, seed):
    # on a qubit the reduction map is sigma_y T sigma_y, so I (x) sB - rho is unitarily
    # equivalent to the partial transpose (M. & P. Horodecki, PRA 59, 4206 (1999)):
    # cstre's q -> infinity margin and the PPT margin change sign together
    rng = np.random.default_rng(seed)
    shape = (2**n, min(rank, 2**n))
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = hermitize(a @ a.conj().T)
    rho /= np.trace(rho).real
    reduction, ppt = cstre_infinity_margin(rho, n), ppt_margin(rho, n)
    assume(abs(reduction) > 1e-9 and abs(ppt) > 1e-9)
    assert (reduction > 0.0) == (ppt > 0.0), (reduction, ppt)


def test_families_are_built_real():
    for kind in FAMILIES:
        rho = build(StateFamily(kind, 3, 0.3))
        assert rho.dtype == np.float64
        assert sandwiched_matrix(rho, 3, 2.0).dtype == np.float64


@pytest.mark.parametrize("n", [3, 4, 5])
def test_block_sandwich_matches_kronecker_sandwich(n):
    rng = np.random.default_rng(50 + n)
    rho = random_density(2**n, rng)
    for power in (-0.5, -0.25, (1.0 - 20.0) / 40.0):
        side = kron(np.eye(2), power_on_support(partial_trace_first(rho, n), power))
        reference = hermitize(side @ rho @ side)
        assert np.abs(entropy._sandwich(rho, n, power) - reference).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", FAMILIES)
def test_real_margins_match_complex_margins(kind, n):
    # the complex path is the reference for the real symmetric one
    margins = [(von_neumann_conditional, ()), (ppt_margin, ()),
               (cstre_infinity_margin, ()), (ar_infinity_margin, ())]
    margins += [(fn, (q,)) for fn in (cstre, ar_conditional) for q in (1.5, 20.0)]
    for x in (0.05, 0.3, 0.8):
        real = build(StateFamily(kind, n, x))
        for margin_of, q_arg in margins:
            got = margin_of(real, n, *q_arg)
            want = margin_of(real.astype(complex), n, *q_arg)
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-14), (
                margin_of.__name__, q_arg, x, got, want
            )
