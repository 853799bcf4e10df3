"""Entanglement-detecting entropic quantities, computed from operator definitions.

Everything here works on the 1:(N-1) cut that separates the first qubit from
the rest: the conditioning subsystem is always ``sigma_B = Tr_1[rho]``. For
each finite-q quantity, negative values witness entanglement across that cut;
the ``*_margin`` functions carry the same sign convention in the q -> infinity
limit, so a bisection on any of them locates the detection threshold.

Each margin is written once, as a formula (``cstre_of``, ``ar_of``, ...) over
a ``DenseSource``: the state's reduction, spectra and sandwiches, each
computed once per state. The public margins of ``(rho, n)`` build a source
and apply their formula; the threshold solver shares one source per state
among all the criteria it evaluates there.

Power sums ``sum_i lambda_i**q`` are evaluated in the log domain, so large q
(up to the 1e6 cap) neither overflows nor loses the sign near a root. The
returned value can still be ``-inf`` when the mathematically correct result
exceeds the double range, but it is never NaN.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .exceptions import BadParameter, SupportViolation
from .linalg import (
    EigenDecomposition,
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
    """Validate a finite entropic order, 1 < q <= 1e6, and return it as a float."""
    try:
        q = float(q)
    except (TypeError, ValueError):
        raise BadParameter(f"entropic order q must be a number, got {q!r}") from None
    if not q > 1.0 or q > Q_MAX:
        raise BadParameter(f"entropic order q must lie in (1, {Q_MAX:g}], got {q}")
    return q


def _positive(lam: np.ndarray) -> np.ndarray:
    return lam[lam > EIG_CUTOFF]


def _log_power_sum(lam: np.ndarray, q: float) -> float:
    """log(sum_i lam_i**q) for strictly positive lam, stable at large q."""
    if not lam.size:
        raise BadParameter(f"no eigenvalue above the cut-off {EIG_CUTOFF:g}: empty power sum")
    logs = q * np.log(lam)
    peak = float(logs[-1])  # lam ascending
    return peak + math.log(float(np.exp(logs - peak).sum()))


def _tsallis_from_log_trace(log_trace: float, q: float) -> float:
    """(e**log_trace - 1) / (q - 1), or +inf once e**log_trace exceeds the double range."""
    if log_trace > _LOG_DBL_MAX:
        return float("inf")
    return math.expm1(log_trace) / (q - 1.0)


class DenseSource:
    """The operators and spectra of one state across the first-qubit cut.

    Everything comes from operator definitions: ``sB = Tr_1[rho]``, the
    spectra of rho and sB, the eigendecomposition of sB and the sandwich at
    each power. Each is computed once, on first use, and lives as long as the
    source, so criteria evaluated on one state share the work. Build one per
    state; it holds no reference to any other.
    """

    def __init__(self, rho: np.ndarray, n: int):
        self.rho = rho
        self.n = n
        self._sandwiches: dict[float, np.ndarray] = {}

    @cached_property
    def reduction(self) -> np.ndarray:
        return partial_trace_first(self.rho, self.n)

    @cached_property
    def rho_eigs(self) -> np.ndarray:
        return eigvals_hermitian(self.rho)

    @cached_property
    def reduction_eigs(self) -> np.ndarray:
        return eigvals_hermitian(self.reduction)

    @cached_property
    def reduction_eig(self) -> EigenDecomposition:
        return eig_hermitian(self.reduction)

    def sandwich(self, power: float) -> np.ndarray:
        """(I_2 (x) S) rho (I_2 (x) S) with S = sB**power on the support of sB.

        Formed on the four first-qubit blocks rho_ij of rho as S rho_ij S, the
        only non-zero products of the Kronecker sandwich.
        """
        if power not in self._sandwiches:
            side = power_on_support(self.reduction_eig, power)
            half = side.shape[0]
            blocks = side @ np.asarray(self.rho).reshape(2, half, 2, half).swapaxes(1, 2) @ side
            self._sandwiches[power] = hermitize(
                blocks.swapaxes(1, 2).reshape(2 * half, 2 * half)
            )
        return self._sandwiches[power]


# Criterion formulas over a DenseSource; q is a checked entropic order. Each
# public margin below applies one of them to a source built from (rho, n).


def cstre_of(source: DenseSource, q: float) -> float:
    lam = _positive(eigvals_hermitian(source.sandwich((1.0 - q) / (2.0 * q))))
    return -_tsallis_from_log_trace(_log_power_sum(lam, q), q)


def ar_of(source: DenseSource, q: float) -> float:
    lam_rho = _positive(source.rho_eigs)
    lam_b = _positive(source.reduction_eigs)
    return -_tsallis_from_log_trace(_log_power_sum(lam_rho, q) - _log_power_sum(lam_b, q), q)


def von_neumann_of(source: DenseSource) -> float:
    def entropy(lam: np.ndarray) -> float:
        lam = _positive(lam)
        return float(-(lam * np.log(lam)).sum())

    return entropy(source.rho_eigs) - entropy(source.reduction_eigs)


def ppt_of(source: DenseSource) -> float:
    return float(eigvals_hermitian(partial_transpose_first(source.rho, source.n))[0])


def cstre_infinity_of(source: DenseSource) -> float:
    return 1.0 - float(eigvals_hermitian(source.sandwich(-0.5))[-1])


def ar_infinity_of(source: DenseSource) -> float:
    return float(source.reduction_eigs[-1]) - float(source.rho_eigs[-1])


def sandwiched_matrix(rho: np.ndarray, n: int, q: float) -> np.ndarray:
    """The operator (I_2 (x) sB)^((1-q)/2q) rho (I_2 (x) sB)^((1-q)/2q).

    ``sB = Tr_1[rho]`` is the (N-1)-qubit reduction; fractional powers are
    taken on the support of sB, which keeps pure-state endpoints defined.
    """
    q = check_entropic_order(q)
    return DenseSource(rho, n).sandwich((1.0 - q) / (2.0 * q))


def cstre(rho: np.ndarray, n: int, q: float) -> float:
    """Conditional sandwiched Tsallis relative entropy across the first-qubit cut.

    Returns ``(sum_i lambda_i**q - 1) / (1 - q)`` over the eigenvalues of the
    sandwiched matrix; a negative value is sufficient for entanglement in the
    1:(N-1) bipartition.
    """
    return cstre_of(DenseSource(rho, n), check_entropic_order(q))


def ar_conditional(rho: np.ndarray, n: int, q: float) -> float:
    """Tsallis conditional entropy (1 - Tr[rho**q] / Tr[sB**q]) / (q - 1).

    The commuting counterpart of :func:`cstre`; negative values witness
    entanglement across the 1:(N-1) cut.
    """
    return ar_of(DenseSource(rho, n), check_entropic_order(q))


def von_neumann_conditional(rho: np.ndarray, n: int) -> float:
    """Conditional von Neumann entropy S(rho) - S(sB), natural logarithm."""
    return von_neumann_of(DenseSource(rho, n))


def sandwiched_tsallis_relative(rho: np.ndarray, sigma: np.ndarray, q: float) -> float:
    """Sandwiched Tsallis relative entropy of rho against a positive operator sigma.

    (Tr[(sigma^((1-q)/2q) rho sigma^((1-q)/2q))^q] - 1) / (q - 1), powers on
    the support of sigma. Zero iff rho equals sigma.
    """
    q = check_entropic_order(q)
    side = power_on_support(sigma, (1.0 - q) / (2.0 * q))
    lam = _positive(eigvals_hermitian(hermitize(side @ rho @ side)))
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
    return cstre_infinity_of(DenseSource(rho, n))


def ar_infinity_margin(rho: np.ndarray, n: int) -> float:
    """Sign-equivalent limit of ar_conditional as q -> infinity.

    Returns ``lambda_max(sB) - lambda_max(rho)``.
    """
    return ar_infinity_of(DenseSource(rho, n))


def ppt_margin(rho: np.ndarray, n: int) -> float:
    """Minimum eigenvalue of the first-qubit partial transpose.

    Negative iff the state is NPT across the 1:(N-1) cut.
    """
    return ppt_of(DenseSource(rho, n))
