"""Shared random-matrix helpers for the test suite."""

import numpy as np

from qsep.analytic import SandwichSpectrum


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


def shifted_spectrum(spectrum_of, delta):
    """A closed-form spectrum function with every eigenvalue moved by delta."""

    def spectrum(n, x, q):
        entries = spectrum_of(n, x, q).entries
        return SandwichSpectrum(tuple((value + delta, mult) for value, mult in entries))

    return spectrum
