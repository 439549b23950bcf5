"""Solvers and special functions for fractional Cauchy problems taken
with respect to a monotone transform.

The package couples a product-integration discretization of the
transform-weighted fractional integral with a successive-approximation
solver in the natural weighted function space, and validates solutions
against closed-form Mittag-Leffler / Kilbas-Saigo representations,
integral-inequality majorants and a-priori error bounds.
"""

from .errors import (ConfigParseError, DomainViolation, ExprDomainError,
                     ExprSyntaxError, GridMismatch, GridTooCoarse,
                     NonMonotone, OverflowGuard, ParamViolation,
                     PsiHilferError, SeriesNotConverged, UnknownIdentifier,
                     ValidationError)
from .frac_ops import (FracIntegralOperator, OrderParams, PsiGrid,
                       WeightedGridFunction, build_grid, gronwall_bound,
                       hilfer_derivative, monomial_oracle)
from .linear_forms import (LinearProblem, solve_constant, solve_variable,
                           variable_series_params)
from .picard import (CauchyProblem, SolveReport,
                     apriori_error_bound_sequence,
                     continuous_dependence_bound, existence_interval,
                     picard_solve, picard_step, residual_check)
from .psi_maps import (PsiMap, make_custom_psi, make_psi, psi_from_config,
                       psi_increment)
from .rhs_expr import RhsExpr, lipschitz_estimate, parse
from .special_fn import (DEFAULT_SERIES_PARAMS, MLSeriesParams, SeriesResult,
                         kilbas_saigo, ks_coefficients, log_gamma,
                         mittag_leffler2)

__version__ = "0.1.0"

__all__ = [
    "CauchyProblem", "ConfigParseError", "DEFAULT_SERIES_PARAMS",
    "DomainViolation", "ExprDomainError", "ExprSyntaxError",
    "FracIntegralOperator", "GridMismatch", "GridTooCoarse",
    "LinearProblem", "MLSeriesParams", "NonMonotone", "OrderParams",
    "OverflowGuard", "ParamViolation", "PsiGrid", "PsiHilferError",
    "PsiMap", "RhsExpr", "SeriesNotConverged", "SeriesResult", "SolveReport",
    "UnknownIdentifier",
    "ValidationError", "WeightedGridFunction",
    "apriori_error_bound_sequence", "build_grid",
    "continuous_dependence_bound", "existence_interval", "gronwall_bound",
    "hilfer_derivative", "kilbas_saigo", "ks_coefficients",
    "lipschitz_estimate", "log_gamma", "make_custom_psi", "make_psi",
    "mittag_leffler2", "monomial_oracle", "parse", "picard_solve",
    "picard_step", "psi_from_config", "psi_increment", "residual_check",
    "solve_constant", "solve_variable", "variable_series_params",
]
