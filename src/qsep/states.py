"""Pure W/GHZ states and the four one-parameter noisy families.

Basis convention: computational basis with qubit 1 as the most significant
bit, so basis index ``sum_i b_i * 2**(N-i)``. The first tensor factor is the
qubit that gets traced out or partially transposed.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import BadParameter, BadQubitCount

PP_W = "pp-w"
PP_GHZ = "pp-ghz"
WL_W = "wl-w"
WL_GHZ = "wl-ghz"
FAMILIES = (PP_W, PP_GHZ, WL_W, WL_GHZ)

# Dimension cap 2**8 keeps the dense numeric path fast.
MAX_QUBITS = 8

NORM_TOL = 1e-12


def check_integer_qubit_count(n) -> None:
    """Raise BadQubitCount unless n is an integer; numpy integers count."""
    if not isinstance(n, (int, np.integer)):
        raise BadQubitCount(f"qubit count must be an integer, got {n!r}")


def w_state(n: int) -> np.ndarray:
    """Equal superposition of the n basis states with exactly one qubit set."""
    check_integer_qubit_count(n)
    if n < 2:
        raise BadQubitCount(f"w_state needs n >= 2, got {n}")
    amp = np.zeros(2**n)
    for k in range(n):
        amp[2**k] = 1.0
    return amp / np.sqrt(n)


def ghz_state(n: int) -> np.ndarray:
    """Equal superposition of the all-zeros and all-ones basis states."""
    check_integer_qubit_count(n)
    if n < 2:
        raise BadQubitCount(f"ghz_state needs n >= 2, got {n}")
    amp = np.zeros(2**n)
    amp[0] = amp[-1] = 1.0 / np.sqrt(2.0)
    return amp


def check_noise_parameter(x) -> None:
    """Raise BadParameter unless x is a real number in [0, 1]."""
    if not isinstance(x, numbers.Real):
        raise BadParameter(f"noise parameter x must be a real number, got {x!r}")
    if not 0.0 <= x <= 1.0:
        raise BadParameter(f"noise parameter x must lie in [0, 1], got {x}")


def _projector(phi: np.ndarray) -> np.ndarray:
    phi = np.asarray(phi).reshape(-1)
    if abs(np.linalg.norm(phi) - 1.0) > NORM_TOL:
        raise BadParameter("pure state amplitudes must have unit norm")
    return np.outer(phi, phi.conj())


def _pseudopure_mix(proj: np.ndarray, x) -> np.ndarray:
    d = proj.shape[0]
    return (1.0 - x) / (d - 1) * (np.eye(d) - proj) + x * proj


def _werner_like_mix(proj: np.ndarray, x) -> np.ndarray:
    d = proj.shape[0]
    return (1.0 - x) * np.eye(d) / d + x * proj


def pseudopure(phi: np.ndarray, x: float) -> np.ndarray:
    """Mix a pure state with white noise spread over the orthogonal complement.

    rho = (1-x)/(d-1) * (I - |phi><phi|) + x * |phi><phi|
    """
    check_noise_parameter(x)
    return _pseudopure_mix(_projector(phi), x)


def werner_like(phi: np.ndarray, x: float) -> np.ndarray:
    """Mix a pure state with global white noise.

    rho = (1-x) * I/d + x * |phi><phi|
    """
    check_noise_parameter(x)
    return _werner_like_mix(_projector(phi), x)


@dataclass(frozen=True)
class StateFamily:
    """One of the four noisy families at a fixed qubit count and noise level.

    Pseudopure families need n_qubits >= 3; the Werner-like families also
    accept n_qubits = 2 so the two-qubit sanity cases are constructible.
    """

    kind: str
    n_qubits: int
    x: float

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise BadParameter(f"unknown family kind {self.kind!r}, expected one of {FAMILIES}")
        check_noise_parameter(self.x)
        check_integer_qubit_count(self.n_qubits)
        min_n = 3 if self.kind in (PP_W, PP_GHZ) else 2
        if not min_n <= self.n_qubits <= MAX_QUBITS:
            raise BadQubitCount(
                f"{self.kind} needs {min_n} <= n_qubits <= {MAX_QUBITS}, got {self.n_qubits}"
            )


def pure_state(kind: str, n: int) -> np.ndarray:
    """The pure state |phi> that a family of this kind mixes with noise."""
    return w_state(n) if kind in (PP_W, WL_W) else ghz_state(n)


def mixing_weights(kind: str, n: int, x):
    """The weights (a, b) of a family member written as a I + b |phi><phi|.

    ``x`` is a noise parameter or an array of them, and a and b follow its
    shape: a = (1-x)/(2^n - 1) and b = x - a for the pseudopure families,
    a = (1-x)/2^n and b = x for the Werner-like ones.
    """
    if kind in (PP_W, PP_GHZ):
        a = (1.0 - x) / (2**n - 1)
        return a, x - a
    return (1.0 - x) / 2**n, x


def build(family: StateFamily) -> np.ndarray:
    """Construct the density matrix of a noisy family member."""
    proj = _projector(pure_state(family.kind, family.n_qubits))
    mix = _pseudopure_mix if family.kind in (PP_W, PP_GHZ) else _werner_like_mix
    return mix(proj, float(family.x))
