"""Shared random-matrix helpers and faults for the test suite."""

import numpy as np

from qsep import criteria
from qsep.analytic import SandwichSpectrum, pp_ghz_sandwich_eigs


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def random_density(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def swap_qubits(rho, n, i, j):
    """Relabel qubits i and j (1-based, qubit 1 most significant)."""
    idx = np.arange(2**n)
    bit_i = (idx >> (n - i)) & 1
    bit_j = (idx >> (n - j)) & 1
    perm = idx & ~((1 << (n - i)) | (1 << (n - j)))
    perm |= bit_i << (n - j)
    perm |= bit_j << (n - i)
    return rho[np.ix_(perm, perm)]


def shifted_pp_ghz_spectrum(n, x, q):
    """The pp-ghz closed-form spectrum with every eigenvalue moved up by 1e-6."""
    entries = pp_ghz_sandwich_eigs(n, x, q).entries
    return SandwichSpectrum(tuple((value + 1e-6, mult) for value, mult in entries))


def flatten_cstre_at_five(monkeypatch):
    """Patch the cstre margin to 1 at q = 5, so it never changes sign there."""
    cstre_of = criteria._FORMULA["cstre"]

    def flat_at_five(source, q):
        return np.ones(len(source.rho)) if q == 5.0 else cstre_of(source, q)

    monkeypatch.setitem(criteria._FORMULA, "cstre", flat_at_five)
