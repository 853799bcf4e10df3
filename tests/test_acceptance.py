"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import numpy as np

from qsep import analytic, criteria
from qsep.criteria import Criterion, curve, spectrum_oracle_deviation, threshold, thresholds
from qsep.entropy import sandwiched_tsallis_relative, traditional_tsallis_relative
from qsep.linalg import eig_hermitian, eigvals_hermitian, partial_transpose_first
from qsep.states import FAMILIES, StateFamily, build

from util import random_density, random_hermitian, random_unitary

TABLE_TOL = 5e-4
CLOSED_FORM_TOL = 1e-8


def _check_w_table(table, reference):
    worst = max(abs(table[n][j] - reference[n][j]) for n in table for j in range(4))
    assert worst <= TABLE_TOL
    # criterion ordering: vn > ar >= cstre, cstre = ppt
    for n in table:
        vn_x, ar_x, cstre_x, ppt_x = table[n]
        assert vn_x > ar_x
        assert ar_x >= cstre_x - 1e-9
        assert abs(cstre_x - ppt_x) <= 1e-6
    return worst


def test_acceptance_1_pp_w_table(published_tables):
    table, elapsed = published_tables["1"]
    worst = _check_w_table(table, criteria.TABLES["1"][2])
    assert elapsed < 10.0
    print(f"\nacceptance 1 (pp-w thresholds n=3..6): PASS, max|delta|={worst:.2e}, {elapsed:.1f}s")


def test_acceptance_2_wl_w_table(published_tables):
    worst = _check_w_table(published_tables["2"][0], criteria.TABLES["2"][2])
    print(f"\nacceptance 2 (wl-w thresholds n=3..6): PASS, max|delta|={worst:.2e}")


def test_acceptance_3_pp_ghz_thresholds(published_tables):
    # cstre-inf, ar-inf and ppt all land on the published values, and cstre-inf meets
    # the closed form up to n = 8: the table's cells, then n = 7 and 8 solved
    cstre_inf = {n: x for n, (x,) in published_tables["pp-ghz"][0].items()}
    cstre_inf |= {n: threshold("pp-ghz", n, Criterion("cstre-inf")).x_star for n in (7, 8)}
    worst_ref = 0.0
    for n, (want,) in criteria.TABLES["pp-ghz"][2].items():
        others = [r.x_star for r in thresholds("pp-ghz", n, map(Criterion, ("ar-inf", "ppt")))]
        worst_ref = max(worst_ref, *(abs(x - want) for x in (cstre_inf[n], *others)))
    assert worst_ref <= TABLE_TOL
    worst_closed = max(abs(x - analytic.bound_pp_ghz(n)) for n, x in cstre_inf.items())
    assert worst_closed <= CLOSED_FORM_TOL
    print(
        f"\nacceptance 3 (pp-ghz): PASS, ref|delta|={worst_ref:.2e}, "
        f"closed-form|delta|={worst_closed:.2e} (n=3..8)"
    )


def test_acceptance_4_wl_ghz_thresholds(published_tables):
    cstre_inf = {n: x for n, (x,) in published_tables["wl-ghz"][0].items()}
    cstre_inf |= {n: threshold("wl-ghz", n, Criterion("cstre-inf")).x_star for n in (7, 8)}
    assert abs(cstre_inf[6] - 0.030303) <= 1e-6
    worst_closed = max(abs(x - analytic.bound_wl_ghz(n)) for n, x in cstre_inf.items())
    assert worst_closed <= CLOSED_FORM_TOL
    # the commuting limit and the partial-transpose test share the root
    for n in (3, 6):
        for result in thresholds("wl-ghz", n, map(Criterion, ("ar-inf", "ppt"))):
            assert abs(result.x_star - analytic.bound_wl_ghz(n)) <= 1e-6
    print(f"\nacceptance 4 (wl-ghz): PASS, closed-form|delta|={worst_closed:.2e} (n=3..8)")


def test_acceptance_5_bound_identities():
    worst = 0.0
    for n in range(3, 13):
        d_sq = 2**n
        u1, u2 = analytic.schmidt_coeffs("w", n)
        g1, g2 = analytic.schmidt_coeffs("ghz", n)
        worst = max(
            worst,
            abs(analytic.bound_pp_w(n) - analytic.vidal_tarrach_pp(u1, u2, d_sq)),
            abs(analytic.bound_wl_w(n) - analytic.vidal_tarrach_wl(u1, u2, d_sq)),
            abs(analytic.bound_pp_ghz(n) - analytic.vidal_tarrach_pp(g1, g2, d_sq)),
            abs(analytic.bound_wl_ghz(n) - analytic.vidal_tarrach_wl(g1, g2, d_sq)),
        )
    assert worst <= 1e-12
    print(f"\nacceptance 5 (bound identities n=3..12): PASS, max|delta|={worst:.2e}")


def test_acceptance_6_two_qubit_sanity():
    ppt = threshold("wl-ghz", 2, Criterion("ppt")).x_star
    ar_inf = threshold("wl-ghz", 2, Criterion("ar-inf")).x_star
    vn = threshold("wl-ghz", 2, Criterion("vn")).x_star
    assert abs(ppt - 1.0 / 3.0) <= 1e-6
    assert abs(ar_inf - 1.0 / 3.0) <= 1e-6
    assert abs(vn - 0.747) <= 1e-3
    print(
        f"\nacceptance 6 (two-qubit Werner): PASS, ppt={ppt:.7f}, "
        f"ar-inf={ar_inf:.7f}, vn={vn:.4f}"
    )


def test_acceptance_7_oracle_equivalence():
    sample = [
        (n, x, q)
        for n in (3, 4, 5)
        for x in (0.05, 0.2, 0.5, 0.8)
        for q in (1.5, 2.0, 5.0, 20.0)
    ]
    worst = {
        kind: max(spectrum_oracle_deviation(kind, n, x, q) for n, x, q in sample)
        for kind in FAMILIES
    }
    # every family's spectrum must match outright, as verify's spectrum-oracle checks demand
    for kind in FAMILIES:
        assert worst[kind] <= 1e-9, (kind, worst[kind])
    detail = ", ".join(f"{kind}={worst[kind]:.1e}" for kind in sorted(worst))
    print(f"\nacceptance 7 (spectrum oracle): PASS, {detail}")


def test_acceptance_8_convergence_shape():
    grid = criteria.DEFAULT_Q_GRID
    finals = {}
    for kind, bound in (("pp-ghz", analytic.bound_pp_ghz), ("wl-ghz", analytic.bound_wl_ghz)):
        limit = bound(6)
        points = curve(kind, 6, ("cstre", "ar"), grid)
        x_cstre = [p.x_star for p in points if p.criterion.kind == "cstre"]
        x_ar = [p.x_star for p in points if p.criterion.kind == "ar"]
        assert len(x_cstre) == len(x_ar) == len(grid)
        assert all(c >= a for c, a in zip(x_cstre, x_ar))
        assert all(first >= second for first, second in zip(x_cstre, x_cstre[1:]))
        assert all(first >= second for first, second in zip(x_ar, x_ar[1:]))
        assert abs(x_cstre[-1] - limit) <= 2e-3
        assert abs(x_ar[-1] - limit) <= 2e-3
        finals[kind] = (x_cstre[-1] - limit, x_ar[-1] - limit)
    print(f"\nacceptance 8 (convergence shape at n=6): PASS, final gaps {finals}")


def test_acceptance_9_numerical_kernels():
    rng = np.random.default_rng(2024)
    # eigensolver residual, orthonormality and ascending order up to dim 64
    for dim in (2, 4, 8, 16, 32, 64):
        for _ in range(10):
            a = random_hermitian(dim, rng)
            values, vectors = eig_hermitian(a)
            scale = max(1.0, np.linalg.norm(a))
            assert np.linalg.norm((vectors * values) @ vectors.conj().T - a) <= 1e-10 * scale
            assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(dim)) <= 1e-10 * dim
            assert np.all(np.diff(values) >= 0)
    # family states are Hermitian, unit trace, PSD on the whole grid
    for kind in FAMILIES:
        for n in range(3, 9):
            for x in np.linspace(0.0, 1.0, 11):
                rho = build(StateFamily(kind, n, float(x)))
                assert np.abs(rho - rho.conj().T).max() <= 1e-12
                assert abs(np.trace(rho).real - 1.0) <= 1e-12
                assert eigvals_hermitian(rho)[0] >= -1e-10
    # partial transpose applied twice is the identity
    for n in (2, 4, 6):
        rho = random_density(2**n, rng)
        assert np.array_equal(
            partial_transpose_first(partial_transpose_first(rho, n), n), rho
        )
    # sandwiched and traditional relative entropies agree on commuting pairs
    worst = 0.0
    for trial in range(100):
        dim = (2, 4, 8)[trial % 3]
        basis = random_unitary(dim, rng)
        p = rng.dirichlet(np.ones(dim))
        s = rng.dirichlet(np.ones(dim)) + 0.05
        s /= s.sum()
        rho = (basis * p) @ basis.conj().T
        sigma = (basis * s) @ basis.conj().T
        q = float(rng.uniform(1.1, 6.0))
        gap = abs(
            sandwiched_tsallis_relative(rho, sigma, q)
            - traditional_tsallis_relative(rho, sigma, q)
        )
        worst = max(worst, gap)
    assert worst <= 1e-9
    print(f"\nacceptance 9 (numerical kernels): PASS, commuting-pair max gap {worst:.1e}")
