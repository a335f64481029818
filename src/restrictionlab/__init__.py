"""Numerical laboratory for Fourier restriction and oscillatory-integral estimates.

The package builds discrete measures with prescribed ball-regularity and
Fourier-decay behavior, computes Lorentz quasi-norms of sampled fields,
carries out the exact rational exponent bookkeeping behind endpoint
restriction estimates, and runs scaling experiments (Knapp superpositions,
oscillatory operators with curved and folding phases) whose fitted slopes
witness both the boundedness and the sharpness sides of those estimates.

Everything is deterministic: fixed seeds, exact closed forms where they
exist, and CSV output that is bytewise reproducible.
"""

from .bumps import (
    smoothstep,
    bump,
    radial_plateau,
    dyadic_ring,
    annulus_window,
    plateau_window,
    wide_plateau,
    kernel_ring,
)
from .grids import (
    GridSpec,
    fourier_on_grid,
    inverse_fourier_on_grid,
)
from .measures import (
    DiscreteMeasure,
    RegularityProfile,
    DecayProfile,
    DyadicPiece,
    make_sphere_measure,
    make_cantor_measure,
    make_random_cantor_measure,
    make_point_mass,
    fourier_transform_at,
    mu_hat_on_lattice,
    ball_regularity_profile,
    fourier_decay_profile,
    dyadic_piece,
    save_measure,
    load_measure,
)
from .lorentz import (
    lorentz_norm_values,
    indicator_lorentz_norm,
)
from .exponents import (
    ExponentProfile,
    OscillatoryExponents,
    exponent_profile,
    conjugate,
    critical_q,
    oscillatory_exponents,
    verify_identities,
)
from .operators import (
    extend,
    restrict_at_atoms,
    restrict_sq_integral,
    convolve_mu_hat,
    stein_tomas_ratio,
    gaussian_dilate_family,
    knapp_cap_family,
    random_smooth_family,
)
from .knapp import (
    KnappSpec,
    ExperimentReport,
    knapp_g_values,
    knapp_function,
    knapp_sharpness_experiment,
)
from .oscillatory import (
    PhaseSpec,
    ConditionReport,
    ScalingReport,
    phase_catalog,
    derivative_consistency,
    apply_T_lambda,
    phase_factors,
    apply_T_lambda_product,
    check_rank_mixed_hessian,
    check_curvature_rank,
    check_fold,
    tstar_kernel_entry,
    dyadic_kernel_entry,
    dyadic_kernel_sup,
    scaling_experiment,
    parabola_scaling_family,
    fold_scaling_family,
    constant_family,
    polynomial_phase_from_file,
)
from .fitting import loglog_fit, flatness_factor, FitResult
from .reporting import (
    ExperimentConfig,
    ReportTable,
    Result,
    emit_csv,
    format_cell,
    render_value,
    render_verdict,
    write_report,
    write_verdict,
)
from .acceptance import run_acceptance

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
