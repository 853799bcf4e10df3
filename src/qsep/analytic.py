"""Closed-form sandwich spectra and separability bounds for the four families.

Each family is a(x) I + b(x) |phi><phi| with phi a W or GHZ state, so the
sandwich spectra are written once per pure state in the noise weights (a, b)
and each family only supplies its weights.

These formulas are the independent oracle against the numeric path built from
operator definitions: the spectra must agree as multisets, and the bounds must
coincide with the pure-state mixing conditions evaluated at the W/GHZ Schmidt
coefficients. The numeric path stays authoritative for thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import check_entropic_order
from .exceptions import BadParameter, BadQubitCount, BadSchmidt
from .states import (
    PP_GHZ,
    PP_W,
    WL_GHZ,
    WL_W,
    check_integer_qubit_count,
    check_noise_parameter,
    mixing_weights,
)

#: largest qubit count the closed forms take; verify checks the bound identities up to it
MAX_CLOSED_FORM_N = 12


@dataclass(frozen=True)
class SandwichSpectrum:
    """Eigenvalues of a sandwiched matrix as (value, multiplicity) pairs."""

    entries: tuple[tuple[float, int], ...]

    def sorted_entries(self) -> tuple[tuple[float, int], ...]:
        return tuple(sorted(self.entries))

    def expand(self) -> np.ndarray:
        """All eigenvalues with multiplicity, sorted ascending."""
        return np.sort(np.repeat([v for v, _ in self.entries], [m for _, m in self.entries]))


def _check_n(n: int, what: str) -> None:
    check_integer_qubit_count(n)
    if n < 3:
        raise BadParameter(f"{what} need n >= 3, got {n}")
    if n > MAX_CLOSED_FORM_N:
        raise BadQubitCount(f"{what} need n <= {MAX_CLOSED_FORM_N}, got {n}")


def _check_spectrum_args(n: int, x: float, q: float) -> None:
    _check_n(n, "closed-form spectra")
    check_noise_parameter(x)
    if x == 1.0:
        raise BadParameter(f"closed-form spectra need 0 <= x < 1, got {x}")
    check_entropic_order(q)


def _w_spectrum(n: int, a: float, b: float, q: float) -> SandwichSpectrum:
    """Sandwich spectrum of a I + b |W><W|: four scalars and one 2x2 block.

    sB has eigenvalues 2a, alpha and beta; the block's radicand is a sum of
    squares and its small root is det / lam4, so no eigenvalue cancels.
    """
    e = (1.0 - q) / q
    s_0, s_w = 1.0 / n, (n - 1) / n
    alpha_e, beta_e = (2.0 * a + b * s_0) ** e, (2.0 * a + b * s_w) ** e
    big_a = (a + b * s_w) * beta_e
    big_b = (a + b * s_0) * alpha_e
    root = math.sqrt((big_a - big_b) ** 2 + 4.0 * b * b * s_0 * s_w * alpha_e * beta_e)
    lam4 = 0.5 * (big_a + big_b + root)
    lam5 = a * (a + b) * alpha_e * beta_e / lam4
    return SandwichSpectrum(((a * (2.0 * a) ** e, 2**n - 4), (a * alpha_e, 1),
                             (a * beta_e, 1), (lam4, 1), (lam5, 1)))


def _ghz_spectrum(n: int, a: float, b: float, q: float) -> SandwichSpectrum:
    """Sandwich spectrum of a I + b |GHZ><GHZ|; sB has eigenvalues 2a and alpha (twice)."""
    e = (1.0 - q) / q
    alpha_e = (2.0 * a + 0.5 * b) ** e
    return SandwichSpectrum(((a * (2.0 * a) ** e, 2**n - 4), (a * alpha_e, 3),
                             ((a + b) * alpha_e, 1)))


def pp_w_sandwich_eigs(n: int, x: float, q: float) -> SandwichSpectrum:
    """Sandwich spectrum of the pseudopure W family."""
    _check_spectrum_args(n, x, q)
    return _w_spectrum(n, *mixing_weights(PP_W, n, x), q)


def pp_ghz_sandwich_eigs(n: int, x: float, q: float) -> SandwichSpectrum:
    """Sandwich spectrum of the pseudopure GHZ family."""
    _check_spectrum_args(n, x, q)
    return _ghz_spectrum(n, *mixing_weights(PP_GHZ, n, x), q)


def wl_w_sandwich_eigs(n: int, x: float, q: float) -> SandwichSpectrum:
    """Sandwich spectrum of the Werner-like W family."""
    _check_spectrum_args(n, x, q)
    return _w_spectrum(n, *mixing_weights(WL_W, n, x), q)


def wl_ghz_sandwich_eigs(n: int, x: float, q: float) -> SandwichSpectrum:
    """Sandwich spectrum of the Werner-like GHZ family."""
    _check_spectrum_args(n, x, q)
    return _ghz_spectrum(n, *mixing_weights(WL_GHZ, n, x), q)


def bound_pp_w(n: int) -> float:
    """Separability threshold of the pseudopure W family, 1:(N-1) cut."""
    _check_n(n, "separability bounds")
    root = math.sqrt(n - 1)
    return (n + root) / (n + 2**n * root)


def bound_pp_ghz(n: int) -> float:
    """Separability threshold of the pseudopure GHZ family, 1:(N-1) cut."""
    _check_n(n, "separability bounds")
    return 3.0 / (2**n + 2)


def bound_wl_w(n: int) -> float:
    """Separability threshold of the Werner-like W family, 1:(N-1) cut."""
    _check_n(n, "separability bounds")
    root = math.sqrt(n - 1)
    return n / (n + 2**n * root)


def bound_wl_ghz(n: int) -> float:
    """Separability threshold of the Werner-like GHZ family, 1:(N-1) cut."""
    _check_n(n, "separability bounds")
    return 1.0 / (2 ** (n - 1) + 1)


def _check_schmidt_pair(u1: float, u2: float) -> None:
    if not 1.0 >= u1 >= u2 >= 0.0:
        raise BadSchmidt(f"need 1 >= u1 >= u2 >= 0, got u1={u1}, u2={u2}")


def vidal_tarrach_pp(u1: float, u2: float, d_sq: int) -> float:
    """Pseudopure mixing threshold (1 + u1*u2) / (1 + d_sq*u1*u2)."""
    _check_schmidt_pair(u1, u2)
    return (1.0 + u1 * u2) / (1.0 + d_sq * u1 * u2)


def vidal_tarrach_wl(u1: float, u2: float, d_sq: int) -> float:
    """Werner-like mixing threshold 1 / (d_sq*u1*u2 + 1)."""
    _check_schmidt_pair(u1, u2)
    return 1.0 / (d_sq * u1 * u2 + 1.0)


def schmidt_coeffs(kind: str, n: int) -> tuple[float, float]:
    """Two largest Schmidt coefficients of the 1:(N-1) cut of a W or GHZ state."""
    check_integer_qubit_count(n)
    if n < 2:
        raise BadQubitCount(f"schmidt_coeffs needs n >= 2, got {n}")
    if kind == "w":
        return math.sqrt((n - 1) / n), 1.0 / math.sqrt(n)
    if kind == "ghz":
        return 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)
    raise BadParameter(f"kind must be 'w' or 'ghz', got {kind!r}")
