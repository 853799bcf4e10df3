import numpy as np
import pytest

from qsep import analytic
from qsep.criteria import spectrum_oracle_deviation
from qsep.entropy import check_entropic_order
from qsep.exceptions import BadParameter, BadQubitCount, BadSchmidt

SPECTRA = {
    "pp-w": analytic.pp_w_sandwich_eigs,
    "pp-ghz": analytic.pp_ghz_sandwich_eigs,
    "wl-w": analytic.wl_w_sandwich_eigs,
    "wl-ghz": analytic.wl_ghz_sandwich_eigs,
}

BOUNDS = {
    "pp-w": analytic.bound_pp_w,
    "pp-ghz": analytic.bound_pp_ghz,
    "wl-w": analytic.bound_wl_w,
    "wl-ghz": analytic.bound_wl_ghz,
}


def test_total_multiplicity_and_unit_trace_at_q_one():
    q = 1.0 + 1e-13
    for fn in SPECTRA.values():
        for n in (3, 4, 6):
            for x in (0.0, 0.3, 0.9):
                spectrum = fn(n, x, q)
                assert spectrum.dim == 2**n
                total = sum(value * mult for value, mult in spectrum.entries)
                assert abs(total - 1.0) < 1e-12


def test_q_to_one_limit_is_the_state_spectrum():
    q = 1.0 + 1e-9
    got = SPECTRA["pp-w"](3, 0.2, q).expand()
    assert np.allclose(got, np.sort([0.8 / 7.0] * 7 + [0.2]), atol=1e-7)
    got = SPECTRA["wl-w"](3, 0.25, q).expand()
    assert np.allclose(got, np.sort([0.75 / 8.0] * 7 + [0.75 / 8.0 + 0.25]), atol=1e-7)


def test_wl_w_flat_spectrum_at_zero_noise():
    q = 3.0
    spectrum = SPECTRA["wl-w"](4, 0.0, q)
    flat = 2.0 ** ((4 - 1) * (q - 1) / q) / 2**4
    assert np.allclose(spectrum.expand(), flat, atol=1e-12)


@pytest.mark.parametrize("q", [1.01, 1.5, 2.0, 20.0, 1e6])
def test_pp_w_degenerate_blocks_at_the_maximally_mixed_point(q):
    # at x = 2**-n the pseudopure W state is I/d, so every 2x2 block is degenerate and
    # the radicand is a square of round-off: the spectrum is flat at (1/d)(2/d)**((1-q)/q)
    for n in range(3, analytic.MAX_CLOSED_FORM_N + 1):
        d = 2**n
        flat = (1.0 / d) * (2.0 / d) ** ((1.0 - q) / q)
        got = analytic.pp_w_sandwich_eigs(n, 2.0**-n, q).expand()
        assert np.abs(got / flat - 1.0).max() <= 1e-12, (n, q)


@pytest.mark.parametrize("kind", sorted(SPECTRA))
def test_spectra_match_numeric_path(kind):
    worst = max(
        spectrum_oracle_deviation(kind, n, x, q)
        for n in (3, 4, 5)
        for x in (0.05, 0.2, 0.5, 0.8)
        for q in (1.5, 2.0, 5.0, 20.0)
    )
    assert worst < 1e-9


def test_ghz_bounds_solve_the_ratio_conditions():
    # pp-ghz: x * 2(2^n - 1) = 3 + (2^n - 4) x at the bound
    # wl-ghz: 1 + (2^n - 1) x = 2 + (2^(n-1) - 2) x at the bound
    for n in (3, 4, 6, 8):
        x = analytic.bound_pp_ghz(n)
        assert abs(x * 2 * (2**n - 1) - (3 + (2**n - 4) * x)) < 1e-12
        x = analytic.bound_wl_ghz(n)
        assert abs((1 + (2**n - 1) * x) - (2 + (2 ** (n - 1) - 2) * x)) < 1e-12


def test_bound_reference_values():
    assert abs(analytic.bound_pp_w(3) - 0.3083) < 1e-4
    assert abs(analytic.bound_wl_w(3) - 0.2095) < 1e-4
    assert analytic.bound_pp_ghz(3) == 0.3
    assert abs(analytic.bound_pp_ghz(6) - 0.04545) < 1e-5
    assert abs(analytic.bound_wl_ghz(6) - 0.0303) < 1e-5
    assert analytic.bound_wl_ghz(4) == 1.0 / 9.0


def test_bound_vidal_tarrach_identities():
    for n in range(3, 13):
        d_sq = 2**n
        u1, u2 = analytic.schmidt_coeffs("w", n)
        assert abs(analytic.bound_pp_w(n) - analytic.vidal_tarrach_pp(u1, u2, d_sq)) < 1e-12
        assert abs(analytic.bound_wl_w(n) - analytic.vidal_tarrach_wl(u1, u2, d_sq)) < 1e-12
        g1, g2 = analytic.schmidt_coeffs("ghz", n)
        assert abs(analytic.bound_pp_ghz(n) - analytic.vidal_tarrach_pp(g1, g2, d_sq)) < 1e-12
        assert abs(analytic.bound_wl_ghz(n) - analytic.vidal_tarrach_wl(g1, g2, d_sq)) < 1e-12


def test_vidal_tarrach_product_limit():
    assert analytic.vidal_tarrach_pp(1.0, 0.0, 16) == 1.0
    assert analytic.vidal_tarrach_wl(1.0, 0.0, 16) == 1.0


def test_vidal_tarrach_werner_value():
    # two-qubit GHZ is the Bell state: threshold 1/3
    u1, u2 = analytic.schmidt_coeffs("ghz", 2)
    assert abs(analytic.vidal_tarrach_wl(u1, u2, 4) - 1.0 / 3.0) < 1e-12


def test_schmidt_coeffs():
    u1, u2 = analytic.schmidt_coeffs("w", 3)
    assert abs(u1 - np.sqrt(2.0 / 3.0)) < 1e-15
    assert abs(u2 - 1.0 / np.sqrt(3.0)) < 1e-15
    for n in (2, 5):
        g1, g2 = analytic.schmidt_coeffs("ghz", n)
        assert g1 == g2 == 1.0 / np.sqrt(2.0)
        w1, w2 = analytic.schmidt_coeffs("w", n)
        assert abs(w1**2 + w2**2 - 1.0) < 1e-12


def test_bounds_strictly_decreasing_in_n():
    for fn in BOUNDS.values():
        values = [fn(n) for n in range(3, 13)]
        assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("q", [1.0, 2e6, float("inf"), float("nan")])
def test_spectra_take_the_numeric_q_domain(q):
    # the closed forms accept exactly the entropic orders of the numeric path
    with pytest.raises(BadParameter) as numeric:
        check_entropic_order(q)
    for kind, spectrum in SPECTRA.items():
        with pytest.raises(BadParameter) as closed_form:
            spectrum(3, 0.2, q)
        assert str(closed_form.value) == str(numeric.value), kind


def test_closed_forms_cap_n():
    # past the cap 2**n would overflow a float; the cap is the verified range
    with pytest.raises(BadQubitCount):
        analytic.bound_pp_w(2000)
    with pytest.raises(BadQubitCount):
        analytic.pp_w_sandwich_eigs(2000, 0.2, 2.0)
    n_max = analytic.MAX_CLOSED_FORM_N
    assert n_max >= 12
    for kind, bound in BOUNDS.items():
        assert 0.0 < bound(n_max) < 1.0, kind
        with pytest.raises(BadQubitCount):
            bound(n_max + 1)
    for kind, spectrum in SPECTRA.items():
        assert spectrum(n_max, 0.2, 2.0).dim == 2**n_max, kind
        with pytest.raises(BadQubitCount):
            spectrum(n_max + 1, 0.2, 2.0)


def test_validation_errors():
    with pytest.raises(BadParameter):
        analytic.pp_w_sandwich_eigs(2, 0.1, 2.0)
    with pytest.raises(BadParameter):
        analytic.wl_ghz_sandwich_eigs(3, 1.0, 2.0)  # x = 1 excluded
    with pytest.raises(BadParameter):
        analytic.pp_ghz_sandwich_eigs(3, 0.1, 1.0)
    with pytest.raises(BadParameter):
        analytic.bound_pp_w(2)
    with pytest.raises(BadSchmidt):
        analytic.vidal_tarrach_pp(0.3, 0.5, 8)
    with pytest.raises(BadQubitCount):
        analytic.schmidt_coeffs("w", 1)
    with pytest.raises(BadParameter):
        analytic.schmidt_coeffs("bell", 3)
