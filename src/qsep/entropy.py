"""Entanglement-detecting entropic quantities, computed from operator definitions.

Everything here works on the 1:(N-1) cut that separates the first qubit from
the rest: the conditioning subsystem is always ``sigma_B = Tr_1[rho]``. For
each finite-q quantity, negative values witness entanglement across that cut;
the ``*_margin`` functions carry the same sign convention in the q -> infinity
limit, so a bisection on any of them locates the detection threshold.

Each margin is written once, as a formula (``cstre_of``, ``ar_of``, ...) over
the spectra a source computes for a stack of states: those of rho, sB, rho^T1
and the sandwich, one row per state. A ``DenseSource`` computes them from the
operator definitions; the public margins of ``(rho, n)`` build one and apply
their formula: one density matrix gives a float, a (k, d, d) stack one margin
per matrix. A ``MixtureSource`` computes them for states a I + b |phi><phi| of
one pure state, from a decomposition of phi made once; the threshold solver
shares one per chunk of scanned states among all the criteria it evaluates
there.

Power sums ``sum_i lambda_i**q`` are evaluated in the log domain, so large q
(up to the 1e6 cap) neither overflows nor loses the sign near a root. The
returned value can still be ``-inf`` when the mathematically correct result
exceeds the double range, but it is never NaN.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .exceptions import BadParameter, DimensionMismatch, SupportViolation
from .linalg import (
    EigenDecomposition,
    check_hermitian,
    eig_hermitian,
    eigvals_hermitian,
    hermitize,
    on_support,
    partial_trace_first,
    partial_transpose_first,
    power_on_support,
    spectral_power,
)

#: eigenvalues at or below this are treated as exact zeros in entropy sums
EIG_CUTOFF = 1e-15

#: solver cap on the entropic order
Q_MAX = 1e6

_LOG_DBL_MAX = 709.0


def entropic_order_as_float(q) -> float:
    """q as a float; raises BadParameter unless it is a number."""
    try:
        return float(q)
    except (TypeError, ValueError):
        raise BadParameter(f"entropic order q must be a number, got {q!r}") from None


def check_entropic_order(q: float) -> float:
    """Validate a finite entropic order, 1 < q <= 1e6, and return it as a float."""
    q = entropic_order_as_float(q)
    if not q > 1.0 or q > Q_MAX:
        raise BadParameter(f"entropic order q must lie in (1, {Q_MAX:g}], got {q}")
    return q


def _log_power_sum(lam: np.ndarray, q: float) -> np.ndarray:
    """log(sum_i lam_i**q) over each row's eigenvalues above EIG_CUTOFF, stable at large q.

    ``lam`` is a (k, m) stack of ascending spectra, one row per state.
    """
    positive = lam > EIG_CUTOFF
    if not positive[..., -1].all():
        raise BadParameter(f"no eigenvalue above the cut-off {EIG_CUTOFF:g}: empty power sum")
    # off the cut-off a term is exp(-inf) = 0, so no log or exp sees an excluded value
    logs = np.where(positive, q * np.log(np.where(positive, lam, 1.0)), -np.inf)
    peak = logs[..., -1]  # lam ascending
    return peak + np.log(np.exp(logs - peak[..., np.newaxis]).sum(axis=-1))


def _tsallis_from_log_trace(log_trace: np.ndarray, q: float) -> np.ndarray:
    """(e**log_trace - 1) / (q - 1), or +inf wherever e**log_trace exceeds the double range."""
    finite = np.expm1(np.minimum(log_trace, _LOG_DBL_MAX)) / (q - 1.0)
    return np.where(log_trace > _LOG_DBL_MAX, np.inf, finite)


class DenseSource:
    """The ascending spectra of a stack of states' operators across the first-qubit cut.

    ``rho`` is one density matrix or a (k, d, d) stack of them; a matrix is a
    stack of one. Each spectrum is a (k, m) array, one ascending row per
    state, from one eigensolver call per operator for the whole stack.
    ``rho_eigs``, ``reduction_eigs`` (of sB = Tr_1[rho]) and ``transpose_eigs``
    (of rho^T1) are computed once, on first use; ``sandwich_eigs`` solves the
    sandwich at each power it is given. sB is eigendecomposed once: its
    spectrum and every fractional power of it come from ``reduction_eig``.
    No margin formula forms an operator or calls the eigensolver itself.
    """

    def __init__(self, rho: np.ndarray, n: int):
        rho = np.asarray(rho)
        self.rho = rho[np.newaxis] if rho.ndim == 2 else rho
        self.n = n

    @cached_property
    def rho_eigs(self) -> np.ndarray:
        return eigvals_hermitian(self.rho)

    @cached_property
    def reduction_eig(self) -> EigenDecomposition:
        return eig_hermitian(partial_trace_first(self.rho, self.n))

    @property
    def reduction_eigs(self) -> np.ndarray:
        return self.reduction_eig.values

    @cached_property
    def transpose_eigs(self) -> np.ndarray:
        return eigvals_hermitian(partial_transpose_first(self.rho, self.n))

    def sandwich(self, power: float) -> np.ndarray:
        """(I_2 (x) S) rho (I_2 (x) S) with S = sB**power on the support of sB, per state.

        Formed on the four first-qubit blocks rho_ij of rho as S rho_ij S, the
        only non-zero products of the Kronecker sandwich.
        """
        side = power_on_support(self.reduction_eig, power)[:, np.newaxis, np.newaxis]
        k, half = side.shape[0], side.shape[-1]
        blocks = side @ self.rho.reshape(k, 2, half, 2, half).swapaxes(2, 3) @ side
        return hermitize(blocks.swapaxes(2, 3).reshape(k, 2 * half, 2 * half))

    def sandwich_eigs(self, power: float) -> np.ndarray:
        return eigvals_hermitian(self.sandwich(power))


def mixture_basis(phi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the states a I + b |phi><phi| of a real pure state share at every (a, b).

    With P = |phi><phi|: the ascending spectrum of Tr_1 P, with eigenvector
    columns V; that of P^T1; and the (2, 2**(n-1)) array (I_2 (x) V)^T phi.
    """
    proj = np.outer(phi, phi)
    reduction = eig_hermitian(partial_trace_first(proj, n))
    transpose = eigvals_hermitian(partial_transpose_first(proj, n))
    return reduction.values, transpose, phi.reshape(2, -1) @ reduction.vectors


class MixtureSource:
    """The ascending spectra of a stack of states a I + b |phi><phi| of one pure state.

    ``a`` and ``b`` are (k,) arrays of weights, one state each, and ``basis``
    is phi's ``mixture_basis``. With P = |phi><phi|, rho has spectrum a (d - 1
    times) and a + b, sB = 2a I + b Tr_1 P has 2a + b q over the spectrum q
    of Tr_1 P, and rho^T1 has a + b t over the spectrum t of P^T1: no weight
    changes an eigenvector. In the basis I_2 (x) V the sandwich is
    a D^2 + b (D psi)(D psi)^T, with D = I_2 (x) diag(s**power) over sB's
    eigenvalues s on its support and psi = (I_2 (x) V)^T phi: an orthogonal
    similarity of DenseSource's sandwich, and the one operator eigensolved,
    once per power for the whole stack.
    """

    def __init__(self, basis: tuple[np.ndarray, ...], a: np.ndarray, b: np.ndarray):
        q, self._transpose, self._psi = basis
        self.a, self.b = np.asarray(a)[:, np.newaxis], np.asarray(b)[:, np.newaxis]
        # sB's eigenvalues in the order of V's columns: ascending where b >= 0, else descending
        self._reduction = 2.0 * self.a + self.b * q

    @cached_property
    def rho_eigs(self) -> np.ndarray:
        degenerate = np.broadcast_to(self.a, (len(self.a), self._transpose.size - 1))
        return np.sort(np.concatenate((degenerate, self.a + self.b), axis=-1), axis=-1)

    @cached_property
    def reduction_eigs(self) -> np.ndarray:
        return np.sort(self._reduction, axis=-1)

    @cached_property
    def transpose_eigs(self) -> np.ndarray:
        return np.sort(self.a + self.b * self._transpose, axis=-1)

    def sandwich_eigs(self, power: float) -> np.ndarray:
        side = np.tile(spectral_power(self._reduction, power), 2)  # the diagonal of D
        u = side * self._psi.reshape(-1)  # D psi
        # b (u u^T) is exactly symmetric as built; (b u) u^T need not be
        sandwich = self.b[..., np.newaxis] * (u[:, :, np.newaxis] * u[:, np.newaxis, :])
        diagonal = np.arange(side.shape[-1])
        sandwich[:, diagonal, diagonal] += self.a * side**2
        return eigvals_hermitian(sandwich)


#: a source of the four spectra the criterion formulas read
Source = DenseSource | MixtureSource

# Criterion formulas over a source's spectra, one margin per stacked state; q
# is a checked entropic order. Each public margin below applies one of them to
# a DenseSource of (rho, n).


def cstre_of(source: Source, q: float) -> np.ndarray:
    lam = source.sandwich_eigs((1.0 - q) / (2.0 * q))
    return -_tsallis_from_log_trace(_log_power_sum(lam, q), q)


def ar_of(source: Source, q: float) -> np.ndarray:
    log_ratio = _log_power_sum(source.rho_eigs, q) - _log_power_sum(source.reduction_eigs, q)
    return -_tsallis_from_log_trace(log_ratio, q)


def von_neumann_of(source: Source) -> np.ndarray:
    def entropy(lam: np.ndarray) -> np.ndarray:
        positive = lam > EIG_CUTOFF
        lam = np.where(positive, lam, 1.0)  # log(1) = 0: no term off the cut-off
        return -(lam * np.log(lam)).sum(axis=-1)

    return entropy(source.rho_eigs) - entropy(source.reduction_eigs)


def ppt_of(source: Source) -> np.ndarray:
    return source.transpose_eigs[..., 0]


def cstre_infinity_of(source: Source) -> np.ndarray:
    return 1.0 - source.sandwich_eigs(-0.5)[..., -1]


def ar_infinity_of(source: Source) -> np.ndarray:
    return source.reduction_eigs[..., -1] - source.rho_eigs[..., -1]


def _per_state(rho: np.ndarray, n: int, formula, *q: float) -> float | np.ndarray:
    """A formula over DenseSource(rho, n): a float for one matrix, an array for a stack."""
    values = formula(DenseSource(rho, n), *q)
    return float(values[0]) if np.ndim(rho) == 2 else values


def sandwiched_matrix(rho: np.ndarray, n: int, q: float) -> np.ndarray:
    """The operator (I_2 (x) sB)^((1-q)/2q) rho (I_2 (x) sB)^((1-q)/2q).

    ``sB = Tr_1[rho]`` is the (N-1)-qubit reduction; fractional powers are
    taken on the support of sB, which keeps pure-state endpoints defined.
    """
    q = check_entropic_order(q)
    sandwich = DenseSource(rho, n).sandwich((1.0 - q) / (2.0 * q))
    return sandwich[0] if np.ndim(rho) == 2 else sandwich


def cstre(rho: np.ndarray, n: int, q: float) -> float:
    """Conditional sandwiched Tsallis relative entropy across the first-qubit cut.

    Returns ``(sum_i lambda_i**q - 1) / (1 - q)`` over the eigenvalues of the
    sandwiched matrix; a negative value is sufficient for entanglement in the
    1:(N-1) bipartition.
    """
    return _per_state(rho, n, cstre_of, check_entropic_order(q))


def ar_conditional(rho: np.ndarray, n: int, q: float) -> float:
    """Tsallis conditional entropy (1 - Tr[rho**q] / Tr[sB**q]) / (q - 1).

    The commuting counterpart of :func:`cstre`; negative values witness
    entanglement across the 1:(N-1) cut.
    """
    return _per_state(rho, n, ar_of, check_entropic_order(q))


def von_neumann_conditional(rho: np.ndarray, n: int) -> float:
    """Conditional von Neumann entropy S(rho) - S(sB), natural logarithm."""
    return _per_state(rho, n, von_neumann_of)


def _check_pair(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """rho, checked by linalg.check_hermitian, once it has sigma's shape."""
    rho = check_hermitian(rho)
    if rho.ndim != 2 or rho.shape != np.shape(sigma):
        raise DimensionMismatch(
            f"need two matrices of one shape, rho has shape {rho.shape}, sigma {np.shape(sigma)}"
        )
    return rho


def sandwiched_tsallis_relative(rho: np.ndarray, sigma: np.ndarray, q: float) -> float:
    """Sandwiched Tsallis relative entropy of rho against a positive operator sigma.

    (Tr[(sigma^((1-q)/2q) rho sigma^((1-q)/2q))^q] - 1) / (q - 1), powers on
    the support of sigma. Zero iff rho equals sigma.
    """
    q = check_entropic_order(q)
    rho = _check_pair(rho, sigma)
    side = power_on_support(sigma, (1.0 - q) / (2.0 * q))
    lam = eigvals_hermitian(hermitize(side @ rho @ side))
    return float(_tsallis_from_log_trace(_log_power_sum(lam, q), q))


def traditional_tsallis_relative(rho: np.ndarray, sigma: np.ndarray, q: float) -> float:
    """Relative Tsallis entropy (Tr[rho**q sigma**(1-q)] - 1) / (q - 1).

    Valid when the support of rho lies inside the support of sigma; raises
    SupportViolation otherwise. Agrees with the sandwiched form whenever rho
    and sigma commute.
    """
    q = check_entropic_order(q)
    rho = _check_pair(rho, sigma)
    sigma_eig = eig_hermitian(sigma)
    null_vecs = sigma_eig.vectors[:, ~on_support(sigma_eig.values)]
    out_of_support = float(np.real(np.einsum("ij,ik,kj->", null_vecs.conj(), rho, null_vecs)))
    if out_of_support > 1e-10:
        raise SupportViolation(f"rho has weight {out_of_support:.3e} outside the support of sigma")
    rho_q = power_on_support(rho, q)
    sigma_pow = power_on_support(sigma_eig, 1.0 - q)
    return (float(np.real(np.trace(rho_q @ sigma_pow))) - 1.0) / (q - 1.0)


def cstre_infinity_margin(rho: np.ndarray, n: int) -> float:
    """Sign-equivalent limit of cstre as q -> infinity.

    Returns ``1 - lambda_max((I (x) sB)^(-1/2) rho (I (x) sB)^(-1/2))``;
    positive on the separable-detected side, zero at the threshold.
    """
    return _per_state(rho, n, cstre_infinity_of)


def ar_infinity_margin(rho: np.ndarray, n: int) -> float:
    """Sign-equivalent limit of ar_conditional as q -> infinity.

    Returns ``lambda_max(sB) - lambda_max(rho)``.
    """
    return _per_state(rho, n, ar_infinity_of)


def ppt_margin(rho: np.ndarray, n: int) -> float:
    """Minimum eigenvalue of the first-qubit partial transpose.

    Negative iff the state is NPT across the 1:(N-1) cut.
    """
    return _per_state(rho, n, ppt_of)
