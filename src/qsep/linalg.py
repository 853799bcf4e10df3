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
    """A square matrix or a (k, m, m) stack of them, in its field."""
    a = _in_field(a)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or not a.size:
        raise DimensionMismatch(
            f"expected a non-empty square matrix or stack of them, got shape {a.shape}"
        )
    return a


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _squared_norms(a: np.ndarray) -> np.ndarray:
    """The squared Frobenius norm of a matrix, or of each matrix of a stack."""
    return np.einsum("...ij,...ij->...", a.conj(), a).real


def check_hermitian(a: np.ndarray) -> np.ndarray:
    """The matrix or stack in its field, once each matrix passes eig_hermitian's checks."""
    a = _as_square(a)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN, inf or past the double range
        norm2 = _squared_norms(a)
        skew2 = _squared_norms(a - _adjoint(a))
    if not np.isfinite(norm2).all():
        raise BadParameter("matrix has a NaN or infinite entry, or a norm past the double range")
    if (skew2 > HERMITICITY_TOL**2 * np.maximum(1.0, norm2)).any():
        raise NotHermitian("matrix is not Hermitian within tolerance")
    return a


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a^dag) / 2 of a matrix or of each matrix of a stack."""
    part = a + _adjoint(a)
    part *= 0.5
    return part


def eig_hermitian(a: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    A ``(k, m, m)`` stack is decomposed in one call, into ``(k, m)`` values and
    ``(k, m, m)`` vectors, and every check below holds for each matrix alone.

    Raises
    ------
    BadParameter
        If ``a`` is not numeric, has a NaN or infinite entry, or its Frobenius
        norm is past the double range.
    DimensionMismatch
        If ``a`` is not a non-empty square matrix or stack of them.
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
    """Ascending eigenvalues of a Hermitian matrix or stack (no eigenvectors)."""
    a = check_hermitian(a)
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as err:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(err)) from err


def on_support(values: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues above ``SUPPORT_TOL * max(lambda_max, 0)``, per row."""
    return values > SUPPORT_TOL * np.maximum(values.max(axis=-1, keepdims=True), 0.0)


def spectral_power(values: np.ndarray, p: float) -> np.ndarray:
    """Each eigenvalue to the power p on its row's support (see ``on_support``), else zero.

    Rows may come in any order. Raises NotPSD if an eigenvalue falls below ``-1e-10``.
    """
    lowest = values.min(axis=-1)
    if (lowest < -PSD_TOL).any():
        raise NotPSD(f"matrix has negative eigenvalue {lowest.min():.3e}")
    powered = np.zeros_like(values)
    support = on_support(values)
    powered[support] = values[support] ** p
    return powered


def power_on_support(a: np.ndarray | EigenDecomposition, p: float) -> np.ndarray:
    """Spectral power ``a**p`` taken on the support only.

    ``a`` is a Hermitian matrix or stack, or its ``eig_hermitian``
    decomposition, so one eigensolve can serve several powers. Eigenvalues off
    each matrix's support (see ``on_support``) are mapped to zero, which keeps
    negative powers of rank-deficient operators well defined.

    Raises
    ------
    NotPSD
        If an eigenvalue falls below ``-1e-10``.
    """
    values, vectors = a if isinstance(a, EigenDecomposition) else eig_hermitian(a)
    powered = spectral_power(values, p)
    return hermitize((vectors * powered[..., np.newaxis, :]) @ _adjoint(vectors))


def _first_qubit_blocks(rho, n_qubits: int, min_n: int) -> np.ndarray:
    """rho, a 2**n x 2**n matrix or stack, as (..., 2, half, 2, half) first-qubit blocks."""
    rho = _as_square(rho)
    if n_qubits < min_n or rho.shape[-1] != 2**n_qubits:
        raise DimensionMismatch(
            f"need a 2**n x 2**n matrix with n >= {min_n}, got shape {rho.shape} for n={n_qubits}"
        )
    if not np.isfinite(rho).all():
        raise BadParameter("matrix has a NaN or infinite entry")
    half = rho.shape[-1] // 2
    return rho.reshape(*rho.shape[:-2], 2, half, 2, half)


def partial_trace_first(rho: np.ndarray, n_qubits: int) -> np.ndarray:
    """Trace out the first (most significant) qubit of an n-qubit operator or stack."""
    return np.trace(_first_qubit_blocks(rho, n_qubits, 2), axis1=-4, axis2=-2)


def partial_transpose_first(rho: np.ndarray, n_qubits: int) -> np.ndarray:
    """Transpose the first-qubit indices only, leaving the rest untouched, per matrix."""
    blocks = _first_qubit_blocks(rho, n_qubits, 1)
    return blocks.swapaxes(-4, -2).reshape(np.shape(rho))
