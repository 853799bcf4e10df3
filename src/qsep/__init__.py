"""Separability thresholds of noisy multiqubit W and GHZ state families.

The package decides 1:(N-1) separability of four one-parameter noisy state
families by six criteria: sandwiched and commuting Tsallis conditional
entropies at finite entropic order, their q -> infinity limits, the
conditional von Neumann entropy, and the partial-transpose test. Thresholds
on the noise parameter are solved by bracketed bisection, and closed-form
spectra and bounds serve as an independent oracle for the numeric path.
"""

from .analytic import (
    SandwichSpectrum,
    bound_pp_ghz,
    bound_pp_w,
    bound_wl_ghz,
    bound_wl_w,
    pp_ghz_sandwich_eigs,
    pp_w_sandwich_eigs,
    schmidt_coeffs,
    vidal_tarrach_pp,
    vidal_tarrach_wl,
    wl_ghz_sandwich_eigs,
    wl_w_sandwich_eigs,
)
from .criteria import (
    CRITERIA,
    DEFAULT_Q_GRID,
    Criterion,
    ThresholdResult,
    VerificationReport,
    curve,
    margin,
    threshold,
    thresholds,
    verify,
)
from .entropy import (
    ar_conditional,
    ar_infinity_margin,
    cstre,
    cstre_infinity_margin,
    ppt_margin,
    sandwiched_matrix,
    sandwiched_tsallis_relative,
    traditional_tsallis_relative,
    von_neumann_conditional,
)
from .linalg import (
    EigenDecomposition,
    eig_hermitian,
    eigvals_hermitian,
    partial_trace_first,
    partial_transpose_first,
    power_on_support,
)
from .states import (
    FAMILIES,
    StateFamily,
    build,
    ghz_state,
    pseudopure,
    w_state,
    werner_like,
)

__version__ = "0.1.0"
