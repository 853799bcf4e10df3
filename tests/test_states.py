import numpy as np
import pytest

from qsep.exceptions import BadParameter, BadQubitCount
from qsep.states import (
    FAMILIES,
    StateFamily,
    build,
    ghz_state,
    pseudopure,
    w_state,
    werner_like,
)

from util import random_pure, swap_qubits


def test_w_state_two_qubits():
    amp = w_state(2)
    assert np.allclose(amp, np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0))


def test_w_state_three_qubit_indices():
    amp = w_state(3)
    nonzero = np.flatnonzero(np.abs(amp) > 1e-15)
    assert list(nonzero) == [1, 2, 4]
    assert np.allclose(amp[nonzero], 1.0 / np.sqrt(3.0))


def test_w_state_four_qubits_normalized():
    amp = w_state(4)
    assert np.count_nonzero(np.abs(amp) > 1e-15) == 4
    assert abs(np.linalg.norm(amp) - 1.0) < 1e-12


def test_ghz_two_qubits():
    amp = ghz_state(2)
    assert np.allclose(amp, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))


def test_ghz_three_qubits():
    amp = ghz_state(3)
    assert list(np.flatnonzero(np.abs(amp) > 1e-15)) == [0, 7]


def test_ghz_six_qubits():
    amp = ghz_state(6)
    assert amp.size == 64
    assert np.count_nonzero(np.abs(amp) > 1e-15) == 2


def test_pseudopure_pure_endpoint():
    phi = w_state(3)
    assert np.allclose(pseudopure(phi, 1.0), np.outer(phi, phi.conj()), atol=1e-15)


def test_pseudopure_maximally_mixed_fixed_point():
    # at x = 1/2**n both terms weigh (1-x)/(2**n - 1) = x
    phi = ghz_state(3)
    assert np.allclose(pseudopure(phi, 1.0 / 8.0), np.eye(8) / 8.0, atol=1e-15)


def test_pseudopure_spectrum():
    rng = np.random.default_rng(17)
    phi = random_pure(16, rng)
    x = 0.42
    values = np.sort(np.linalg.eigvalsh(pseudopure(phi, x)))
    expected = np.sort([(1 - x) / 15.0] * 15 + [x])
    assert np.allclose(values, expected, atol=1e-12)


def test_werner_like_endpoints():
    phi = w_state(3)
    assert np.allclose(werner_like(phi, 0.0), np.eye(8) / 8.0, atol=1e-15)
    assert np.allclose(werner_like(phi, 1.0), np.outer(phi, phi.conj()), atol=1e-15)


def test_werner_like_spectrum():
    rng = np.random.default_rng(19)
    phi = random_pure(8, rng)
    x = 0.3
    values = np.sort(np.linalg.eigvalsh(werner_like(phi, x)))
    expected = np.sort([(1 - x) / 8.0] * 7 + [(1 - x) / 8.0 + x])
    assert np.allclose(values, expected, atol=1e-12)


def test_build_two_qubit_werner_matches_direct_form():
    x = 0.37
    psi = ghz_state(2)
    expected = (1 - x) * np.eye(4) / 4.0 + x * np.outer(psi, psi.conj())
    assert np.allclose(build(StateFamily("wl-ghz", 2, x)), expected, atol=1e-15)


def test_build_pseudopure_endpoints():
    w3 = w_state(3)
    assert np.allclose(build(StateFamily("pp-w", 3, 1.0)), np.outer(w3, w3.conj()), atol=1e-15)
    g4 = ghz_state(4)
    expected = (np.eye(16) - np.outer(g4, g4.conj())) / 15.0
    assert np.allclose(build(StateFamily("pp-ghz", 4, 0.0)), expected, atol=1e-15)


def test_family_validation():
    with pytest.raises(BadParameter):
        StateFamily("pp-x", 3, 0.5)
    with pytest.raises(BadParameter):
        StateFamily("pp-w", 3, 1.5)
    with pytest.raises(BadQubitCount):
        StateFamily("pp-w", 2, 0.5)  # pseudopure families need n >= 3
    with pytest.raises(BadQubitCount):
        StateFamily("wl-w", 1, 0.5)
    with pytest.raises(BadQubitCount):
        StateFamily("wl-w", 9, 0.5)
    for n in (3.0, 3.5):  # qubit counts are integers
        with pytest.raises(BadQubitCount, match="qubit count must be an integer"):
            StateFamily("pp-w", n, 0.2)
    StateFamily("wl-ghz", 2, 0.5)  # two-qubit sanity case is allowed
    assert build(StateFamily("pp-w", np.int64(3), 0.2)).shape == (8, 8)


def test_constructor_validation():
    with pytest.raises(BadQubitCount):
        w_state(1)
    with pytest.raises(BadQubitCount):
        ghz_state(0)
    for make_state in (w_state, ghz_state):  # qubit counts are integers
        with pytest.raises(BadQubitCount):
            make_state(3.0)
    with pytest.raises(BadParameter):
        pseudopure(w_state(3), -0.1)
    with pytest.raises(BadParameter):
        werner_like(w_state(3), 1.1)
    with pytest.raises(BadParameter):
        pseudopure(2.0 * w_state(3), 0.5)  # not normalized


def test_families_are_permutation_symmetric():
    for kind in FAMILIES:
        rho = build(StateFamily(kind, 3, 0.4))
        for i, j in ((1, 2), (1, 3), (2, 3)):
            assert np.abs(swap_qubits(rho, 3, i, j) - rho).max() < 1e-12


def test_purity_strictly_increasing():
    def purity(rho):
        return float(np.trace(rho @ rho).real)

    for kind in ("wl-w", "wl-ghz"):
        values = [purity(build(StateFamily(kind, 3, x))) for x in np.linspace(0.0, 1.0, 21)]
        assert all(b > a for a, b in zip(values, values[1:]))
    for kind in ("pp-w", "pp-ghz"):
        values = [purity(build(StateFamily(kind, 3, x))) for x in np.linspace(1.0 / 8.0, 1.0, 15)]
        assert all(b > a for a, b in zip(values, values[1:]))
