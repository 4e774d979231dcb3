"""Numerics for the fully fractional heat operator (d_t - Laplacian)^s.

Subpackages by concern: ``core`` (parameters and kernels), ``fields``
(evaluatable fields and the named registry), ``quadrature`` (pointwise
operator evaluation), ``spectral`` (periodic-grid Fourier path),
``solver`` (Dirichlet problem in the unit ball), ``planes`` (moving-plane
diagnostics) and ``cli`` (scenario harness).
"""

from .core import (
    FracParams,
    SpaceTimePoint,
    gamma_abs_neg,
    heat_kernel,
    integrated_kernel_constant,
    integrated_time_kernel,
    normalization_constant,
)
from .fields import SpaceField, SpaceTimeField, TimeField
from .planes import (
    PlaneConfig,
    antisymmetric_fold_residual,
    build_antisym_bump,
    build_cutoff_eta,
    narrow_region_check,
    reflect,
    symmetry_and_monotonicity_report,
    unbounded_mp_probe,
    verify_lemma_scaling,
    w_lambda_field,
)
from .quadrature import (
    OperatorValue,
    QuadratureScheme,
    fractional_laplacian_pointwise,
    marchaud_left,
    marchaud_right,
    master_operator_pointwise,
    truncation_tail_bound,
)
from .solver import (
    BallProblem,
    Nonlinearity,
    Solution,
    assemble_dirichlet_matrix,
    residual_field,
    solve_steady,
)
from .spectral import (
    GridField,
    TorusGrid,
    apply_operator_spectral,
    liouville_nullspace_dimension,
    marchaud_symbol,
    spacetime_symbol,
)

__all__ = [
    "FracParams",
    "SpaceTimePoint",
    "SpaceField",
    "SpaceTimeField",
    "TimeField",
    "OperatorValue",
    "QuadratureScheme",
    "gamma_abs_neg",
    "heat_kernel",
    "integrated_kernel_constant",
    "integrated_time_kernel",
    "normalization_constant",
    "fractional_laplacian_pointwise",
    "marchaud_left",
    "marchaud_right",
    "master_operator_pointwise",
    "truncation_tail_bound",
    "GridField",
    "TorusGrid",
    "apply_operator_spectral",
    "liouville_nullspace_dimension",
    "marchaud_symbol",
    "spacetime_symbol",
    "BallProblem",
    "Nonlinearity",
    "Solution",
    "assemble_dirichlet_matrix",
    "residual_field",
    "solve_steady",
    "PlaneConfig",
    "antisymmetric_fold_residual",
    "build_antisym_bump",
    "build_cutoff_eta",
    "narrow_region_check",
    "reflect",
    "symmetry_and_monotonicity_report",
    "unbounded_mp_probe",
    "verify_lemma_scaling",
    "w_lambda_field",
]

__version__ = "0.1.0"
