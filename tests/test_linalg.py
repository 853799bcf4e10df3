import numpy as np
import pytest

from qsep import linalg
from qsep.exceptions import BadParameter, DimensionMismatch, NotHermitian, NotPSD
from qsep.states import ghz_state, w_state, werner_like

from util import random_density, random_hermitian


def test_eig_diagonal_ascending():
    values, vectors = linalg.eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(values, [1.0, 2.0, 3.0])
    assert np.allclose((vectors * values) @ vectors.conj().T, np.diag([3.0, 1.0, 2.0]))


def test_eig_bit_flip():
    values, _ = linalg.eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(values, [-1.0, 1.0])


def test_eig_noisy_w_family_spectrum():
    # rho = (1-x) I/8 + x |W3><W3| at x = 0.5 has eigenvalues 0.0625 (x7), 0.5625
    rho = werner_like(w_state(3), 0.5)
    values = linalg.eig_hermitian(rho).values
    assert np.allclose(np.sort(values), [0.0625] * 7 + [0.5625], atol=1e-12)
    # independent check through the characteristic polynomial
    for lam in (0.0625, 0.5625):
        assert abs(np.linalg.det(rho - lam * np.eye(8))) < 1e-12
    assert abs(np.linalg.det(rho) - 0.0625**7 * 0.5625) < 1e-12
    assert abs(np.trace(rho).real - (7 * 0.0625 + 0.5625)) < 1e-12


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        linalg.eigvals_hermitian(np.array([[0.0, 1.0j], [1.0j, 0.0]]))
    # NaN, inf and text are typed errors, not NaN spectra, warnings or numpy's ValueError
    # so is a finite matrix whose norm overflows, alone or as one matrix of a stack
    overflowing = [[1e200, 0.0], [0.0, 1.0]]
    for bad in (
        np.full((2, 2), np.nan),
        [[np.inf, 0], [0, 1]],
        [["a", "b"], ["c", "d"]],
        overflowing,
        [np.eye(2), overflowing],
    ):
        for solve in (linalg.eig_hermitian, linalg.eigvals_hermitian):
            with pytest.raises(BadParameter):
                solve(bad)


def test_stack_checks_hermiticity_against_each_matrix_norm():
    # a skew of 1e-6 is round-off on a matrix of norm 1e6 but not on one of norm 1
    skew = np.array([[0.0, 1e-6], [0.0, 0.0]])
    large, small = 1e6 * np.eye(2) + skew, np.eye(2) + skew
    assert np.array_equal(
        linalg.eigvals_hermitian([large, large]), [linalg.eigvals_hermitian(large)] * 2
    )
    for stack in ([large, small], [small, large]):
        with pytest.raises(NotHermitian):
            linalg.eigvals_hermitian(stack)


def test_stack_is_solved_matrix_by_matrix():
    rng = np.random.default_rng(7)
    stack = np.array([random_density(4, rng) for _ in range(3)])
    values, vectors = linalg.eig_hermitian(stack)
    assert values.shape == (3, 4) and vectors.shape == (3, 4, 4)
    for i, rho in enumerate(stack):
        assert np.array_equal(values[i], linalg.eig_hermitian(rho).values)
        assert np.array_equal(linalg.eigvals_hermitian(stack)[i], linalg.eigvals_hermitian(rho))
        assert np.array_equal(linalg.power_on_support(stack, -0.5)[i],
                              linalg.power_on_support(rho, -0.5))
        for partial in (linalg.partial_trace_first, linalg.partial_transpose_first):
            assert np.array_equal(partial(stack, 2)[i], partial(rho, 2))


def test_power_scalar_matrix():
    out = linalg.power_on_support(np.eye(4) / 4.0, -0.5)
    assert np.allclose(out, 2.0 * np.eye(4), atol=1e-12)


def test_power_keeps_zero_modes():
    out = linalg.power_on_support(np.diag([4.0, 0.0]), 0.5)
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)


def test_power_inverse_sqrt_of_pure_ghz_reduction():
    ghz = ghz_state(3)
    sigma = linalg.partial_trace_first(np.outer(ghz, ghz.conj()), 3)
    assert np.allclose(sigma, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12)
    out = linalg.power_on_support(sigma, -0.5)
    root2 = np.sqrt(2.0)
    assert np.allclose(out, np.diag([root2, 0.0, 0.0, root2]), atol=1e-12)


def test_power_rejects_indefinite():
    indefinite = np.diag([1.0, -1.0])
    for a in (indefinite, linalg.eig_hermitian(indefinite), [np.eye(2), indefinite]):
        with pytest.raises(NotPSD):
            linalg.power_on_support(a, 0.5)


def test_power_takes_each_matrix_support():
    # 1e-13 lies off the support of diag(1, 1e-13) but on that of diag(1e-10, 1e-13)
    out = linalg.power_on_support([np.diag([1.0, 1e-13]), np.diag([1e-10, 1e-13])], -0.5)
    assert np.allclose(out[0], np.diag([1.0, 0.0]), rtol=1e-12, atol=0.0)
    assert np.allclose(out[1], np.diag([1e5, 10**6.5]), rtol=1e-12, atol=0.0)


def test_power_of_a_shared_decomposition_is_the_power_of_its_matrix():
    sigma = random_density(8, np.random.default_rng(12))
    decomposition = linalg.eig_hermitian(sigma)
    for p in (-0.5, -0.25, 0.5):
        assert np.array_equal(
            linalg.power_on_support(decomposition, p), linalg.power_on_support(sigma, p)
        )


def test_partial_trace_ghz3():
    ghz = ghz_state(3)
    reduced = linalg.partial_trace_first(np.outer(ghz, ghz.conj()), 3)
    assert np.allclose(reduced, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12)


def test_partial_trace_w3():
    # Tr_1 |W3><W3| = (1/3)|00><00| + (2/3)|W2><W2|
    w3 = w_state(3)
    reduced = linalg.partial_trace_first(np.outer(w3, w3.conj()), 3)
    w2 = w_state(2)
    expected = (2.0 / 3.0) * np.outer(w2, w2.conj())
    expected[0, 0] += 1.0 / 3.0
    assert np.allclose(reduced, expected, atol=1e-12)


def test_partial_trace_maximally_mixed():
    assert np.allclose(linalg.partial_trace_first(np.eye(8) / 8.0, 3), np.eye(4) / 4.0)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        rho = random_density(2**n, rng)
        reduced = linalg.partial_trace_first(rho, n)
        assert abs(np.trace(reduced) - np.trace(rho)) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.partial_trace_first(np.eye(8) / 8.0, 4)
    with pytest.raises(DimensionMismatch):
        linalg.partial_trace_first(np.eye(2) / 2.0, 1)
    # not a square matrix at all, or an empty one
    for rho in (np.ones((2, 3)), np.ones(4), np.zeros((0, 0))):
        with pytest.raises(DimensionMismatch, match="expected a non-empty square matrix"):
            linalg.partial_trace_first(rho, 2)
    with pytest.raises(DimensionMismatch, match="expected a non-empty square matrix"):
        linalg.power_on_support(np.zeros((0, 0)), 0.5)


def test_partial_transpose_product_state():
    rng = np.random.default_rng(5)
    a = random_density(2, rng).real
    b = random_density(4, rng)
    out = linalg.partial_transpose_first(np.kron(a, b), 3)
    assert np.allclose(out, np.kron(a.T, b), atol=1e-12)


def test_partial_transpose_werner_spectrum():
    for x in (0.1, 1.0 / 3.0, 0.8):
        rho = werner_like(ghz_state(2), x)
        values = np.sort(linalg.eigvals_hermitian(linalg.partial_transpose_first(rho, 2)))
        expected = np.sort([(1 - 3 * x) / 4] + [(1 + x) / 4] * 3)
        assert np.allclose(values, expected, atol=1e-12)


def test_partial_transpose_identity_fixed_point():
    assert np.array_equal(linalg.partial_transpose_first(np.eye(4) / 4.0, 2), np.eye(4) / 4.0)


def test_partial_maps_reject_non_finite_entries():
    # a NaN or inf is a typed error here, not a NaN operator for a later eigensolve to meet
    for bad in (np.full((4, 4), np.nan), np.diag([np.inf, 1.0, 1.0, 1.0])):
        for stack in (bad, [np.eye(4) / 4.0, bad]):
            for partial in (linalg.partial_trace_first, linalg.partial_transpose_first):
                with pytest.raises(BadParameter, match="NaN or infinite entry"):
                    partial(stack, 2)


def test_partial_transpose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.partial_transpose_first(np.eye(6) / 6.0, 2)


def test_field_rule_integer_list_is_real():
    values = linalg.eigvals_hermitian([[2, 1], [1, 2]])
    assert values.dtype == np.float64
    assert np.array_equal(values, [1.0, 3.0])
    assert linalg.power_on_support([[2, 1], [1, 2]], 1.0).dtype == np.float64


def test_field_rule_complex_list_stays_complex():
    hermitian = [[2, 1j], [-1j, 2]]
    assert np.allclose(linalg.eigvals_hermitian(hermitian), [1.0, 3.0], atol=1e-12)
    assert linalg.eig_hermitian(hermitian).vectors.dtype == np.complex128
    powered = linalg.power_on_support(hermitian, 1.0)
    assert powered.dtype == np.complex128
    assert np.allclose(powered, hermitian, atol=1e-12)


def test_power_of_zero_matrix_keeps_the_field():
    assert linalg.power_on_support(np.zeros((2, 2)), 0.5).dtype == np.float64
    assert linalg.power_on_support(np.zeros((2, 2), dtype=complex), 0.5).dtype == np.complex128
