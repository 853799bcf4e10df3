import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsep import entropy
from qsep.criteria import DEFAULT_Q_GRID, SCAN_POINTS, X_SCAN_MAX
from qsep.entropy import (
    DenseSource,
    MixtureSource,
    ar_conditional,
    ar_infinity_margin,
    ar_infinity_of,
    ar_of,
    cstre,
    cstre_infinity_margin,
    cstre_infinity_of,
    cstre_of,
    mixture_basis,
    ppt_margin,
    ppt_of,
    sandwiched_matrix,
    sandwiched_tsallis_relative,
    traditional_tsallis_relative,
    von_neumann_conditional,
    von_neumann_of,
)
from qsep.exceptions import BadParameter, DimensionMismatch, SupportViolation
from qsep.linalg import (
    eigvals_hermitian,
    hermitize,
    partial_trace_first,
    power_on_support,
)
from qsep.states import FAMILIES, StateFamily, build, ghz_state, mixing_weights, pure_state

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
    values = np.sort(eigvals_hermitian(sandwiched_matrix(np.kron(rho_a, sigma_b), 3, q)))
    mu = np.linalg.eigvalsh(rho_a)
    nu = np.linalg.eigvalsh(sigma_b)
    expected = np.sort(np.outer(mu, nu ** (1.0 / q)).ravel())
    assert np.allclose(values, expected, atol=1e-10)


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
    # both relative entropies reject bad matrices with a typed error: never a NaN, a
    # warning, an IndexError or numpy's shape ValueError
    for rho, sigma, error in (
        (np.full((2, 2), np.nan), np.eye(2) / 2.0, BadParameter),
        ([[np.inf, 0.0], [0.0, 1.0]], np.diag([1.0, 0.0]), BadParameter),
        (np.zeros((0, 0)), np.zeros((0, 0)), DimensionMismatch),
        (np.eye(2) / 2.0, np.eye(4) / 4.0, DimensionMismatch),
    ):
        for relative in (sandwiched_tsallis_relative, traditional_tsallis_relative):
            with pytest.raises(error):
                relative(rho, sigma, 2.0)


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
    product = np.kron(random_density(2, rng), random_density(4, rng))
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


def test_empty_power_sum_raises():
    # no eigenvalue above the cut-off leaves no power sum: a typed error, never
    # an IndexError or the NaN of ar's -inf - -inf
    for margin_of in (cstre, ar_conditional):
        with pytest.raises(BadParameter, match=r"no eigenvalue above the cut-off 1e-15"):
            margin_of(np.zeros((8, 8)), 3, 2.0)


def test_margins_of_a_stack_are_those_of_each_matrix():
    # a (k, d, d) stack gives one margin per matrix, each that matrix's own: the power sums
    # take the cut-off and the overflow guard row by row, with no warning
    stack = np.array([build(StateFamily("pp-ghz", 3, x)) for x in (0.0, 0.3, 0.9)])
    for margin_of, q_arg in (
        (cstre, (2.0,)),
        (cstre, (1e6,)),  # -inf at x = 0.9 only
        (ar_conditional, (1e6,)),
        (von_neumann_conditional, ()),
        (ppt_margin, ()),
        (cstre_infinity_margin, ()),
        (ar_infinity_margin, ()),
    ):
        values = margin_of(stack, 3, *q_arg)
        assert values.tolist() == [margin_of(rho, 3, *q_arg) for rho in stack], margin_of
    assert np.isneginf(cstre(stack, 3, 1e6)).tolist() == [False, False, True]
    assert np.array_equal(sandwiched_matrix(stack, 3, 2.0)[1], sandwiched_matrix(stack[1], 3, 2.0))
    with pytest.raises(BadParameter, match=r"no eigenvalue above the cut-off"):
        cstre(np.array([np.eye(8) / 8.0, np.zeros((8, 8))]), 3, 2.0)


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
    local = np.kron(random_unitary(2, rng), random_unitary(2 ** (n - 1), rng))
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
        side = np.kron(np.eye(2), power_on_support(partial_trace_first(rho, n), power))
        reference = hermitize(side @ rho @ side)
        assert np.abs(entropy.DenseSource(rho, n).sandwich(power) - reference).max() <= 1e-12


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


#: |MixtureSource - DenseSource| per eigenvalue of each spectrum
MIXTURE_TOL = 1e-11
#: the same for the sandwich at X_SCAN_MAX. There sB's least eigenvalue 2a is 1e-10 or
#: less, and both sources carry the eigensolver's absolute round-off of about 1e-16 in
#: its zero modes of Tr_1 |phi><phi|, so the W sandwiches differ by up to 1.3e-6 (wl-w, n = 6)
MIXTURE_PURE_END_SANDWICH_TOL = 1e-5


@pytest.mark.parametrize(
    "kind, n", [(k, n) for k in FAMILIES for n in (3, 4, 5, 6)] + [("wl-w", 2), ("wl-ghz", 2)]
)
def test_mixture_source_matches_dense_source(kind, n):
    # the production source against the operator definitions, on every 50th scan point
    # from x = 0 to X_SCAN_MAX: all four spectra, the sandwich at each power the formulas
    # read (q = 1.5, 2, 2000 and infinity), and the sign of each of the six margins
    xs = np.linspace(0.0, X_SCAN_MAX, SCAN_POINTS)[::50]
    assert xs[0] == 0.0 and xs[-1] == X_SCAN_MAX
    dense = DenseSource(np.stack([build(StateFamily(kind, n, float(x))) for x in xs]), n)
    mixture = MixtureSource(mixture_basis(pure_state(kind, n), n), *mixing_weights(kind, n, xs))
    for name in ("rho_eigs", "reduction_eigs", "transpose_eigs"):
        gap = np.abs(getattr(mixture, name) - getattr(dense, name)).max()
        assert gap <= MIXTURE_TOL, (name, gap)
    sandwich_tol = np.where(xs == X_SCAN_MAX, MIXTURE_PURE_END_SANDWICH_TOL, MIXTURE_TOL)
    for power in (-1 / 6, -0.25, -0.5, (1.0 - 2000.0) / 4000.0):
        gap = np.abs(mixture.sandwich_eigs(power) - dense.sandwich_eigs(power)).max(axis=-1)
        assert (gap <= sandwich_tol).all(), (power, gap.max())
    formulas = [(von_neumann_of, ()), (ppt_of, ()), (cstre_infinity_of, ()), (ar_infinity_of, ())]
    formulas += [(f, (q,)) for f in (cstre_of, ar_of) for q in (1.5, 2.0, 2000.0)]
    for formula, q_arg in formulas:
        signs = [np.sign(formula(source, *q_arg)) for source in (mixture, dense)]
        assert np.array_equal(*signs), (formula.__name__, q_arg)
