"""Dense Hermitian linear algebra for small multiqubit operators.

All operations are pure functions on numpy arrays and never mutate their
input. One field rule holds throughout: a real input stays real (float64,
integers included), a complex input stays complex128. Real symmetric input so
reaches the real LAPACK and BLAS routines, complex Hermitian input the complex
ones. Dimensions stay at or below 2**8, so dense routines are used throughout.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .exceptions import DimensionMismatch, NoConvergence, NotHermitian, NotPSD

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
SUPPORT_TOL = 1e-12


class EigenDecomposition(NamedTuple):
    """Ascending eigenvalues with matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def _in_field(a) -> np.ndarray:
    """The array as float64 if it is real (or integer), else as complex128."""
    a = np.asarray(a)
    return a.astype(np.result_type(a, float), copy=False)


def _as_square(a) -> np.ndarray:
    a = _in_field(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def _check_hermitian(a: np.ndarray) -> np.ndarray:
    a = _as_square(a)
    scale = max(1.0, frobenius(a))
    if frobenius(a - a.conj().T) > HERMITICITY_TOL * scale:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    return a


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a^dag) / 2."""
    return 0.5 * (a + a.conj().T)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, first factor on the most significant index."""
    return np.kron(_in_field(a), _in_field(b))


def eig_hermitian(a: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises
    ------
    NotHermitian
        If ``||a - a^dag||_F > 1e-10 * max(1, ||a||_F)``.
    NoConvergence
        If the underlying solver fails to converge.
    """
    a = _check_hermitian(a)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(err)) from err
    return EigenDecomposition(values, vectors)


def eigvals_hermitian(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (no eigenvectors)."""
    a = _check_hermitian(a)
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as err:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(err)) from err


def power_on_support(a: np.ndarray, p: float) -> np.ndarray:
    """Spectral power ``a**p`` taken on the support only.

    Eigenvalues at or below ``SUPPORT_TOL * lambda_max`` are mapped to zero,
    which keeps negative powers of rank-deficient operators well defined.

    Raises
    ------
    NotPSD
        If an eigenvalue falls below ``-1e-10``.
    """
    values, vectors = eig_hermitian(a)
    if values[0] < -PSD_TOL:
        raise NotPSD(f"matrix has negative eigenvalue {values[0]:.3e}")
    lam_max = float(values[-1])
    if lam_max <= 0.0:
        return np.zeros_like(vectors)  # in the input's field
    powered = np.zeros_like(values)
    on_support = values > SUPPORT_TOL * lam_max
    powered[on_support] = values[on_support] ** p
    return hermitize((vectors * powered) @ vectors.conj().T)


def partial_trace_first(rho: np.ndarray, n_qubits: int) -> np.ndarray:
    """Trace out the first (most significant) qubit of an n-qubit operator."""
    rho = _as_square(rho)
    if n_qubits < 2 or rho.shape[0] != 2**n_qubits:
        raise DimensionMismatch(
            f"need a 2**n x 2**n matrix with n >= 2, got shape {rho.shape} for n={n_qubits}"
        )
    half = rho.shape[0] // 2
    return np.trace(rho.reshape(2, half, 2, half), axis1=0, axis2=2)


def partial_transpose_first(rho: np.ndarray, n_qubits: int) -> np.ndarray:
    """Transpose the first-qubit indices only, leaving the rest untouched."""
    rho = _as_square(rho)
    dim = 2**n_qubits
    if n_qubits < 1 or rho.shape[0] != dim:
        raise DimensionMismatch(
            f"need a 2**n x 2**n matrix, got shape {rho.shape} for n={n_qubits}"
        )
    half = dim // 2
    return rho.reshape(2, half, 2, half).swapaxes(0, 2).reshape(dim, dim)
