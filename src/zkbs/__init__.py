"""Spectral solver for a dissipative long-wave model on a strip.

The model is u_t + u_xxx + u_xyy + u u_x - delta (u_xx + u_yy) = 0 on
[-X, X) x (0, L), periodic in x with Dirichlet walls in y.  The package
provides the exact linear propagator, an exponential two-stage stepper
and a Picard fixed-point solver for the nonlinear flow, discrete energy
audits, regularized flux variants, decay-rate fits, and a CLI harness.
"""

from .domain import (
    DomainConfig,
    GridField,
    ModeMultipliers,
    SpectralField,
    dealias_mask,
    derivative,
    grid_quadrature,
    mixed_derivative,
    mode_inner,
    mode_multipliers,
    parseval_norm_sq,
    plan_domain,
    to_grid,
    to_spectral,
)
from .dynamics import (
    BlowupError,
    ContractionError,
    PicardDiagnostics,
    RegularizedFlux,
    StepperConfig,
    eta,
    etd2_step,
    g_h,
    nonlinear_term,
    picard_solve,
    simulate,
)
from .functionals import (
    DecayFit,
    NormSpec,
    SteklovResult,
    ThresholdReport,
    audit_identity,
    decay_fit,
    dk_seminorm_sq,
    interpolation_ratio,
    lyapunov_h1,
    lyapunov_h2,
    norm,
    steklov_check,
    threshold_time,
)
from .io import (
    read_diagnostics_csv,
    read_snapshot,
    write_diagnostics_csv,
    write_json,
    write_snapshot,
)
from .initial_data import (
    eigenmode,
    gaussian_bump,
    make_initial,
    random_band,
    traveling_mode,
)
from .semigroup import (
    SymbolTable,
    apply_semigroup,
    audit_linear_identity,
    duhamel_solve,
    phi,
    symbol,
)
from .trajectory import EnergyReport, Trajectory, attach_refinement_order

__version__ = "0.1.0"

__all__ = [
    "BlowupError",
    "ContractionError",
    "DecayFit",
    "DomainConfig",
    "EnergyReport",
    "GridField",
    "ModeMultipliers",
    "NormSpec",
    "PicardDiagnostics",
    "RegularizedFlux",
    "SpectralField",
    "StepperConfig",
    "SteklovResult",
    "SymbolTable",
    "ThresholdReport",
    "Trajectory",
    "apply_semigroup",
    "attach_refinement_order",
    "audit_identity",
    "audit_linear_identity",
    "dealias_mask",
    "decay_fit",
    "derivative",
    "dk_seminorm_sq",
    "duhamel_solve",
    "eigenmode",
    "eta",
    "etd2_step",
    "g_h",
    "gaussian_bump",
    "grid_quadrature",
    "interpolation_ratio",
    "lyapunov_h1",
    "lyapunov_h2",
    "make_initial",
    "mixed_derivative",
    "mode_inner",
    "mode_multipliers",
    "nonlinear_term",
    "norm",
    "parseval_norm_sq",
    "phi",
    "picard_solve",
    "plan_domain",
    "random_band",
    "read_diagnostics_csv",
    "read_snapshot",
    "simulate",
    "steklov_check",
    "symbol",
    "threshold_time",
    "to_grid",
    "to_spectral",
    "traveling_mode",
    "write_diagnostics_csv",
    "write_json",
    "write_snapshot",
]
