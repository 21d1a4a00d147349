"""Numerical laboratory for Bergman density asymptotics on constant-curvature surfaces."""

from .cutoff import (
    C1_PROFILE,
    SMOOTH_PROFILE,
    CutoffProfile,
    PoleError,
    WeightParams,
    get_profile,
    psi,
    psi_hessian_bound_check,
)
from .density import (
    DensityReport,
    ErrorBudget,
    SweepResult,
    cp1_density,
    density_estimate,
    expansion_reference,
    remainder_envelope,
    remainder_sweep,
    sweep_to_csv,
    sweep_to_json,
)
from .geometry import (
    DomainError,
    ModelGeometry,
    bundle_weight,
    curvature_residual,
    metric_density,
    polar_ode_residual,
)
from .gram import (
    BorderedGram,
    NonPositiveDefiniteError,
    assemble_truncated_gram,
    inverse00_oracle,
    orthonormalize_i00,
    schur_i00,
)
from .quadrature import (
    RadialMoment,
    lambda0_closed_form,
    lambda0_tail,
    lambda_inv_sq,
    monomial_moment,
    peak_norm_bound_check,
    truncation_radius,
)

__version__ = "0.1.0"
