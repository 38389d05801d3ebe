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
    contacts,
    fit_ellipse,
)
from .mapper import (
    SlitMap,
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
    g0,
    validate,
)
from .pipeline import Diagnostics, SolveResult, solve
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
    period_matrix,
    solve_constants,
)

__version__ = "0.1.0"

__all__ = [
    "AT_INFINITY",
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
    "bank_value",
    "build_profiles",
    "cauchy_off",
    "cheb_coeffs",
    "contacts",
    "derive_constants",
    "eval_q",
    "fit_ellipse",
    "g0",
    "gauss_cheb",
    "n1_circular_profile",
    "n1_shape_ratio",
    "n1_slit_profile",
    "period_matrix",
    "singular_on",
    "solve",
    "solve_constants",
    "validate",
    "weight_factor",
]
