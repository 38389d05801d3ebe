"""Inverse construction of uniformly stressed antiplane inclusions.

The package builds conformal maps from collinear-slit domains whose slit
images bound inclusions carrying a uniform interior stress under uniform
far-field antiplane shear.  Everything is delivered by quadratures:
Gauss-Chebyshev rules, Chebyshev expansions of the slit densities, and
closed-form continuation of the weighted Cauchy kernels.
"""

from .branch import BranchData, bank_value, eval_q, weight_factor
from .geometry import (
    ContourProfile,
    build_profiles,
    disjoint,
    fit_ellipse,
    self_intersects,
    symmetry_checks,
)
from .mapper import (
    BoundaryValue,
    SlitMap,
    g0,
    n1_circular_profile,
    n1_shape_ratio,
    n1_slit_profile,
)
from .model import (
    AT_INFINITY,
    ConfigurationError,
    DegenerateEllipseError,
    DerivedConstants,
    EvaluationError,
    FreeParameters,
    Loading,
    MaterialSet,
    NumericsConfig,
    SlitConfiguration,
    SolverError,
    ValidationReport,
    derive_constants,
    validate,
)
from .pipeline import Diagnostics, SolveResult, override_constants, solve
from .quadrature import (
    ChebyshevSeries,
    cauchy_off,
    cheb_coeffs,
    gauss_cheb,
    singular_on,
)
from .solvability import (
    PeriodMatrix,
    SolvabilityConstants,
    antisymmetric_free_values,
    period_matrix,
    solve_a,
    solve_rho,
)

__version__ = "0.1.0"

__all__ = [
    "AT_INFINITY",
    "BoundaryValue",
    "BranchData",
    "ChebyshevSeries",
    "ConfigurationError",
    "ContourProfile",
    "DegenerateEllipseError",
    "DerivedConstants",
    "Diagnostics",
    "EvaluationError",
    "FreeParameters",
    "Loading",
    "MaterialSet",
    "NumericsConfig",
    "PeriodMatrix",
    "SlitConfiguration",
    "SlitMap",
    "SolvabilityConstants",
    "SolveResult",
    "SolverError",
    "ValidationReport",
    "antisymmetric_free_values",
    "bank_value",
    "build_profiles",
    "cauchy_off",
    "cheb_coeffs",
    "derive_constants",
    "disjoint",
    "eval_q",
    "fit_ellipse",
    "g0",
    "gauss_cheb",
    "n1_circular_profile",
    "n1_shape_ratio",
    "n1_slit_profile",
    "override_constants",
    "period_matrix",
    "self_intersects",
    "singular_on",
    "solve",
    "solve_a",
    "solve_rho",
    "symmetry_checks",
    "validate",
    "weight_factor",
]
