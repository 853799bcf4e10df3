"""Dense Hermitian linear algebra for small multiqubit operators.

All operations are pure functions on numpy arrays and never mutate their
input. One field rule holds throughout: a real input stays real (float64,
integers included), a complex input stays complex128. Real symmetric input so
reaches the real LAPACK and BLAS routines, complex Hermitian input the complex
ones. Dimensions stay at or below 2**8, so dense routines are used throughout.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .exceptions import BadParameter, DimensionMismatch, NoConvergence, NotHermitian, NotPSD

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
SUPPORT_TOL = 1e-12


class EigenDecomposition(NamedTuple):
    """Ascending eigenvalues with matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def _in_field(a) -> np.ndarray:
    """The array as float64 if it is real (or integer), else as complex128."""
    a = np.asarray(a)
    if a.dtype.kind not in "biufc":
        raise BadParameter(f"expected a numeric matrix, got dtype {a.dtype}")
    return a.astype(np.result_type(a, float), copy=False)


def _as_square(a) -> np.ndarray:
    a = _in_field(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise DimensionMismatch(f"expected a non-empty square matrix, got shape {a.shape}")
    return a


def check_hermitian(a: np.ndarray) -> np.ndarray:
    """The matrix in its field, once it passes eig_hermitian's input checks."""
    a = _as_square(a)
    norm = np.linalg.norm(a)  # NaN or inf if any entry is
    if not math.isfinite(norm):
        raise BadParameter("matrix has a NaN or infinite entry, or a norm past the double range")
    scale = max(1.0, norm)
    if np.linalg.norm(a - a.conj().T) > HERMITICITY_TOL * scale:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    return a


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a^dag) / 2."""
    return 0.5 * (a + a.conj().T)


def eig_hermitian(a: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises
    ------
    BadParameter
        If ``a`` is not numeric, or its Frobenius norm is not finite.
    DimensionMismatch
        If ``a`` is not a non-empty square matrix.
    NotHermitian
        If ``||a - a^dag||_F > 1e-10 * max(1, ||a||_F)``.
    NoConvergence
        If the underlying solver fails to converge.
    """
    a = check_hermitian(a)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(err)) from err
    return EigenDecomposition(values, vectors)


def eigvals_hermitian(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (no eigenvectors)."""
    a = check_hermitian(a)
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as err:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(err)) from err


def on_support(values: np.ndarray) -> np.ndarray:
    """Mask of the ascending eigenvalues above ``SUPPORT_TOL * max(lambda_max, 0)``."""
    return values > SUPPORT_TOL * max(float(values[-1]), 0.0)


def power_on_support(a: np.ndarray | EigenDecomposition, p: float) -> np.ndarray:
    """Spectral power ``a**p`` taken on the support only.

    ``a`` is a Hermitian matrix or its ``eig_hermitian`` decomposition, so one
    eigensolve can serve several powers. Eigenvalues off the support (see
    ``on_support``) are mapped to zero, which keeps negative powers of
    rank-deficient operators well defined.

    Raises
    ------
    NotPSD
        If an eigenvalue falls below ``-1e-10``.
    """
    values, vectors = a if isinstance(a, EigenDecomposition) else eig_hermitian(a)
    if values[0] < -PSD_TOL:
        raise NotPSD(f"matrix has negative eigenvalue {values[0]:.3e}")
    powered = np.zeros_like(values)
    support = on_support(values)
    powered[support] = values[support] ** p
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
