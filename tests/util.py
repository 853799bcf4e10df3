"""Shared random-matrix helpers, high-precision references and faults for the test suite."""

import mpmath
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


def mp_sandwich_eigs(kind, n, x, q_values):
    """Sandwich spectra at 40 digits from the operator definitions, one per q.

    rho is the family's state, sB = Tr_1 rho, and the sandwich is
    (I (x) sB^t) rho (I (x) sB^t) with t = (1-q)/2q; powers and spectra come from eigsy.
    """
    d, h = 2**n, 2 ** (n - 1)
    with mpmath.workdps(40):
        if kind.endswith("-w"):
            amp = {2**k: 1 / mpmath.sqrt(n) for k in range(n)}
        else:
            amp = {0: 1 / mpmath.sqrt(2), d - 1: 1 / mpmath.sqrt(2)}
        proj = mpmath.matrix(d, d)
        for i, u in amp.items():
            for j, v in amp.items():
                proj[i, j] = u * v
        x = mpmath.mpf(x)
        if kind.startswith("pp-"):
            rho = (1 - x) / (d - 1) * (mpmath.eye(d) - proj) + x * proj
        else:
            rho = (1 - x) / d * mpmath.eye(d) + x * proj
        s_vals, s_vecs = mpmath.eigsy(rho[:h, :h] + rho[h:, h:])
        spectra = {}
        for q in q_values:
            t = (1 - mpmath.mpf(q)) / (2 * q)
            root = s_vecs * mpmath.diag([v**t for v in s_vals]) * s_vecs.T
            lift = mpmath.matrix(d, d)  # I (x) root
            for i in range(h):
                for j in range(h):
                    lift[i, j] = lift[h + i, h + j] = root[i, j]
            spectra[q] = sorted(mpmath.eigsy(lift * rho * lift, eigvals_only=True))
    return spectra


def shifted_pp_ghz_spectrum(n, x, q):
    """The pp-ghz closed-form spectrum with every eigenvalue moved up by 1e-6."""
    entries = pp_ghz_sandwich_eigs(n, x, q).entries
    return SandwichSpectrum(tuple((value + 1e-6, mult) for value, mult in entries))


def flatten_cstre_at_five(monkeypatch):
    """Patch the cstre margin to 1 at q = 5, so it never changes sign there."""
    cstre_of = criteria._FORMULA["cstre"]

    def flat_at_five(source, q):
        return np.ones(len(source.rho_eigs)) if q == 5.0 else cstre_of(source, q)

    monkeypatch.setitem(criteria._FORMULA, "cstre", flat_at_five)
