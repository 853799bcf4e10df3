"""Closed-form sandwich spectra and separability bounds for the four families.

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

#: largest qubit count the closed forms take; verify checks the bound identities up to it
MAX_CLOSED_FORM_N = 12


@dataclass(frozen=True)
class SandwichSpectrum:
    """Eigenvalues of a sandwiched matrix as (value, multiplicity) pairs."""

    entries: tuple[tuple[float, int], ...]

    @property
    def dim(self) -> int:
        return sum(mult for _, mult in self.entries)

    def sorted_entries(self) -> tuple[tuple[float, int], ...]:
        return tuple(sorted(self.entries))

    def expand(self) -> np.ndarray:
        """All eigenvalues with multiplicity, sorted ascending."""
        return np.sort(np.repeat([v for v, _ in self.entries], [m for _, m in self.entries]))


def _check_n(n: int, what: str) -> None:
    if n < 3:
        raise BadParameter(f"{what} need n >= 3, got {n}")
    if n > MAX_CLOSED_FORM_N:
        raise BadQubitCount(f"{what} need n <= {MAX_CLOSED_FORM_N}, got {n}")


def _check_spectrum_args(n: int, x: float, q: float) -> None:
    _check_n(n, "closed-form spectra")
    if not 0.0 <= x < 1.0:
        raise BadParameter(f"closed-form spectra need 0 <= x < 1, got {x}")
    check_entropic_order(q)


def pp_w_sandwich_eigs(n: int, x: float, q: float) -> SandwichSpectrum:
    """Sandwich spectrum of the pseudopure W family."""
    _check_spectrum_args(n, x, q)
    e = (1.0 - q) / q
    d = 2**n
    scale = n * (d - 1)
    noise = (1.0 - x) / (d - 1)
    big_a = (2 * n - 1) + (d - 2 * n) * x
    big_b = (n + 1) + ((n - 1) * d - 2 * n) * x
    lam1 = 2.0**e * noise ** (1.0 / q)
    lam2 = noise * (big_a / scale) ** e
    lam3 = noise * (big_b / scale) ** e
    alpha = big_a**e
    beta = big_b**e
    small_a = (n - 1) + (d - n) * x
    small_b = 1 + ((n - 1) * d - n) * x
    root = math.sqrt(
        (alpha * small_a - beta * small_b) ** 2
        + 4.0 * (n - 1) * (1.0 - d * x) ** 2 * alpha * beta
    )
    pref = 0.5 * scale ** (-1.0 / q)
    lam4 = pref * (alpha * small_a + beta * small_b + root)
    lam5 = pref * (alpha * small_a + beta * small_b - root)
    return SandwichSpectrum(((lam1, d - 4), (lam2, 1), (lam3, 1), (lam4, 1), (lam5, 1)))


def pp_ghz_sandwich_eigs(n: int, x: float, q: float) -> SandwichSpectrum:
    """Sandwich spectrum of the pseudopure GHZ family."""
    _check_spectrum_args(n, x, q)
    e = (1.0 - q) / q
    d = 2**n
    noise = (1.0 - x) / (d - 1)
    bracket = (3.0 + (d - 4) * x) / (2 * (d - 1))
    lam1 = noise * (2.0 * noise) ** e
    lam2 = noise * bracket**e
    lam3 = x * bracket**e
    return SandwichSpectrum(((lam1, d - 4), (lam2, 3), (lam3, 1)))


def wl_w_sandwich_eigs(n: int, x: float, q: float) -> SandwichSpectrum:
    """Sandwich spectrum of the Werner-like W family."""
    _check_spectrum_args(n, x, q)
    e = (1.0 - q) / q
    d = 2**n
    half = 2 ** (n - 1)
    scale = n * half
    noise = (1.0 - x) / d
    big_a = n + (half - n) * x
    big_b = n + ((n - 1) * half - n) * x
    lam1 = noise * ((1.0 - x) / half) ** e
    lam2 = noise * (big_a / scale) ** e
    lam3 = noise * (big_b / scale) ** e
    alpha = big_a**e
    beta = big_b**e
    small_a = n + (d - n) * x
    small_b = n + ((n - 1) * d - n) * x
    root = math.sqrt(
        (alpha * small_a - beta * small_b) ** 2
        + 2.0 ** (2 * n + 2) * (n - 1) * x * x * alpha * beta
    )
    pref = 0.25 * scale ** (-1.0 / q)
    lam4 = pref * (alpha * small_a + beta * small_b + root)
    lam5 = pref * (alpha * small_a + beta * small_b - root)
    return SandwichSpectrum(((lam1, d - 4), (lam2, 1), (lam3, 1), (lam4, 1), (lam5, 1)))


def wl_ghz_sandwich_eigs(n: int, x: float, q: float) -> SandwichSpectrum:
    """Sandwich spectrum of the Werner-like GHZ family."""
    _check_spectrum_args(n, x, q)
    e = (1.0 - q) / q
    d = 2**n
    half = 2 ** (n - 1)
    noise = (1.0 - x) / d
    bracket = (1.0 + (2 ** (n - 2) - 1) * x) / half
    lam1 = noise * ((1.0 - x) / half) ** e
    lam2 = noise * bracket**e
    lam3 = (1.0 + (d - 1) * x) / d * bracket**e
    return SandwichSpectrum(((lam1, d - 4), (lam2, 3), (lam3, 1)))


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
    if n < 2:
        raise BadQubitCount(f"schmidt_coeffs needs n >= 2, got {n}")
    kind = kind.lower()
    if kind == "w":
        return math.sqrt((n - 1) / n), 1.0 / math.sqrt(n)
    if kind == "ghz":
        return 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)
    raise BadParameter(f"kind must be 'w' or 'ghz', got {kind!r}")
