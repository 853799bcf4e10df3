"""Entanglement-detecting entropic quantities, computed from operator definitions.

Everything here works on the 1:(N-1) cut that separates the first qubit from
the rest: the conditioning subsystem is always ``sigma_B = Tr_1[rho]``. For
each finite-q quantity, negative values witness entanglement across that cut;
the ``*_margin`` functions carry the same sign convention in the q -> infinity
limit, so a bisection on any of them locates the detection threshold.

Power sums ``sum_i lambda_i**q`` are evaluated in the log domain, so large q
(up to the 1e6 cap) neither overflows nor loses the sign near a root. The
returned value can still be ``-inf`` when the mathematically correct result
exceeds the double range, but it is never NaN.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import BadParameter, SupportViolation
from .linalg import (
    eig_hermitian,
    eigvals_hermitian,
    hermitize,
    on_support,
    partial_trace_first,
    partial_transpose_first,
    power_on_support,
)

#: eigenvalues at or below this are treated as exact zeros in entropy sums
EIG_CUTOFF = 1e-15

#: solver cap on the entropic order
Q_MAX = 1e6

_LOG_DBL_MAX = 709.0


def check_entropic_order(q: float) -> float:
    """Validate a finite entropic order: 1 < q <= 1e6."""
    q = float(q)
    if not q > 1.0 or q > Q_MAX:
        raise BadParameter(f"entropic order q must lie in (1, {Q_MAX:g}], got {q}")
    return q


def _positive_eigs(matrix: np.ndarray) -> np.ndarray:
    lam = eigvals_hermitian(matrix)
    return lam[lam > EIG_CUTOFF]


def _log_power_sum(lam: np.ndarray, q: float) -> float:
    """log(sum_i lam_i**q) for strictly positive lam, stable at large q."""
    logs = q * np.log(lam)
    peak = float(logs[-1])  # lam ascending
    return peak + math.log(float(np.exp(logs - peak).sum()))


def _tsallis_from_log_trace(log_trace: float, q: float) -> float:
    """(e**log_trace - 1) / (q - 1), or +inf once e**log_trace exceeds the double range."""
    if log_trace > _LOG_DBL_MAX:
        return float("inf")
    return math.expm1(log_trace) / (q - 1.0)


def _sandwich(rho: np.ndarray, n: int, power: float) -> np.ndarray:
    """(I_2 (x) S) rho (I_2 (x) S) with S = sB**power and sB = Tr_1[rho].

    Formed on the four first-qubit blocks rho_ij of rho as S rho_ij S, the
    only non-zero products of the Kronecker sandwich.
    """
    side = power_on_support(partial_trace_first(rho, n), power)
    half = side.shape[0]
    blocks = side @ np.asarray(rho).reshape(2, half, 2, half).swapaxes(1, 2) @ side
    return hermitize(blocks.swapaxes(1, 2).reshape(2 * half, 2 * half))


def sandwiched_matrix(rho: np.ndarray, n: int, q: float) -> np.ndarray:
    """The operator (I_2 (x) sB)^((1-q)/2q) rho (I_2 (x) sB)^((1-q)/2q).

    ``sB = Tr_1[rho]`` is the (N-1)-qubit reduction; fractional powers are
    taken on the support of sB, which keeps pure-state endpoints defined.
    """
    q = check_entropic_order(q)
    return _sandwich(rho, n, (1.0 - q) / (2.0 * q))


def cstre(rho: np.ndarray, n: int, q: float) -> float:
    """Conditional sandwiched Tsallis relative entropy across the first-qubit cut.

    Returns ``(sum_i lambda_i**q - 1) / (1 - q)`` over the eigenvalues of the
    sandwiched matrix; a negative value is sufficient for entanglement in the
    1:(N-1) bipartition.
    """
    q = check_entropic_order(q)
    lam = _positive_eigs(sandwiched_matrix(rho, n, q))
    return -_tsallis_from_log_trace(_log_power_sum(lam, q), q)


def ar_conditional(rho: np.ndarray, n: int, q: float) -> float:
    """Tsallis conditional entropy (1 - Tr[rho**q] / Tr[sB**q]) / (q - 1).

    The commuting counterpart of :func:`cstre`; negative values witness
    entanglement across the 1:(N-1) cut.
    """
    q = check_entropic_order(q)
    lam_rho = _positive_eigs(rho)
    lam_b = _positive_eigs(partial_trace_first(rho, n))
    return -_tsallis_from_log_trace(_log_power_sum(lam_rho, q) - _log_power_sum(lam_b, q), q)


def von_neumann_conditional(rho: np.ndarray, n: int) -> float:
    """Conditional von Neumann entropy S(rho) - S(sB), natural logarithm."""

    def entropy(matrix: np.ndarray) -> float:
        lam = _positive_eigs(matrix)
        return float(-(lam * np.log(lam)).sum())

    return entropy(rho) - entropy(partial_trace_first(rho, n))


def sandwiched_tsallis_relative(rho: np.ndarray, sigma: np.ndarray, q: float) -> float:
    """Sandwiched Tsallis relative entropy of rho against a positive operator sigma.

    (Tr[(sigma^((1-q)/2q) rho sigma^((1-q)/2q))^q] - 1) / (q - 1), powers on
    the support of sigma. Zero iff rho equals sigma.
    """
    q = check_entropic_order(q)
    side = power_on_support(sigma, (1.0 - q) / (2.0 * q))
    lam = _positive_eigs(hermitize(side @ rho @ side))
    return _tsallis_from_log_trace(_log_power_sum(lam, q), q)


def traditional_tsallis_relative(rho: np.ndarray, sigma: np.ndarray, q: float) -> float:
    """Relative Tsallis entropy (Tr[rho**q sigma**(1-q)] - 1) / (q - 1).

    Valid when the support of rho lies inside the support of sigma; raises
    SupportViolation otherwise. Agrees with the sandwiched form whenever rho
    and sigma commute.
    """
    q = check_entropic_order(q)
    values, vectors = eig_hermitian(sigma)
    null_vecs = vectors[:, ~on_support(values)]
    out_of_support = float(np.real(np.einsum("ij,ik,kj->", null_vecs.conj(), rho, null_vecs)))
    if out_of_support > 1e-10:
        raise SupportViolation(f"rho has weight {out_of_support:.3e} outside the support of sigma")
    rho_q = power_on_support(rho, q)
    sigma_pow = power_on_support(sigma, 1.0 - q)
    return (float(np.real(np.trace(rho_q @ sigma_pow))) - 1.0) / (q - 1.0)


def cstre_infinity_margin(rho: np.ndarray, n: int) -> float:
    """Sign-equivalent limit of cstre as q -> infinity.

    Returns ``1 - lambda_max((I (x) sB)^(-1/2) rho (I (x) sB)^(-1/2))``;
    positive on the separable-detected side, zero at the threshold.
    """
    return 1.0 - float(eigvals_hermitian(_sandwich(rho, n, -0.5))[-1])


def ar_infinity_margin(rho: np.ndarray, n: int) -> float:
    """Sign-equivalent limit of ar_conditional as q -> infinity.

    Returns ``lambda_max(sB) - lambda_max(rho)``.
    """
    lam_b = eigvals_hermitian(partial_trace_first(rho, n))
    lam_rho = eigvals_hermitian(rho)
    return float(lam_b[-1]) - float(lam_rho[-1])


def ppt_margin(rho: np.ndarray, n: int) -> float:
    """Minimum eigenvalue of the first-qubit partial transpose.

    Negative iff the state is NPT across the 1:(N-1) cut.
    """
    return float(eigvals_hermitian(partial_transpose_first(rho, n))[0])
