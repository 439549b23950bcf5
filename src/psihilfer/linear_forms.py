"""Closed-form solutions of the linear fractional Cauchy problems.

Constant coefficient:

    D^{eta,nu} y - lambda y = f(t),   I^{1-zeta} y(a) = y_a

has the representation (X(t) = Psi(t) - Psi(a))

    y(t) = y_a X^(zeta-1) E[eta,zeta](lambda X^eta)
         + integral_a^t Psi'(s) (Psi(t)-Psi(s))^(eta-1)
                        E[eta,eta](lambda (Psi(t)-Psi(s))^eta) f(s) ds.

Variable coefficient (homogeneous):

    D^{eta,nu} y - lambda X^(mu-1) y = 0,   mu > 1 - eta,

is solved by a three-parameter Kilbas-Saigo series in lambda X^(eta+mu-1)
whose coefficients are the Gamma-ratio products

    c_k = prod_{j<k} G(j(eta+mu-1)+mu+zeta-1) / G(j(eta+mu-1)+eta+mu+zeta-1),

i.e. parameters m = 1 + (mu-1)/eta and l = (mu+zeta-2)/eta.  These
evaluators double as oracles for the iterative solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainViolation, GridTooCoarse, OverflowGuard,
                     ParamViolation, broken, raise_on)
from .frac_ops import (OrderParams, WeightedGridFunction, _abel_product_rule,
                       _kernel_spectrum, build_grid)
from .psi_maps import PsiMap
from .rhs_expr import RhsExpr
from .special_fn import ks_array, log_gamma, ml2_array


@dataclass(frozen=True)
class LinearProblem:
    """Linear problem data; ``mu`` switches to the variable-coefficient
    homogeneous mode, in which no forcing is allowed."""

    psi: PsiMap
    params: OrderParams
    a: float
    b: float
    y_a: float
    lam: float
    mu: float | None = None
    forcing: RhsExpr | None = None

    def __post_init__(self):
        raise_on(self.psi.domain_violations((self.a, "a"), (self.b, "b")),
                 DomainViolation)
        if not self.a < self.b:
            raise DomainViolation("need a < b")
        raise_on(self.violations(self.params.eta, self.mu, self.forcing),
                 ParamViolation)

    @staticmethod
    def violations(eta, mu, forcing=None) -> list[str]:
        """The message of each rule that eta, mu and the forcing break;
        None is unchecked."""
        problems = []
        if mu is not None and eta is not None and not mu > 1.0 - eta:
            problems.append(f"mu must exceed 1-eta = {1.0 - eta}, got {mu!r}")
        if mu is not None and forcing is not None:
            problems.append("the variable-coefficient mode is homogeneous; "
                            "drop the forcing")
        if forcing is not None and forcing.uses_y():
            problems.append("forcing must be a function of t only")
        return problems


def solve_violations(n) -> list[str]:
    """The message of the panel-count rule of both solves, if n breaks it."""
    return broken((n, lambda v: v >= 8, "need n >= 8"))


def variable_series_params(params: OrderParams, mu: float) -> tuple[float, float]:
    """Kilbas-Saigo parameters (m, l) of the variable-coefficient series."""
    raise_on(LinearProblem.violations(params.eta, mu), ParamViolation)
    m = 1.0 + (mu - 1.0) / params.eta
    l = (mu + params.zeta - 2.0) / params.eta
    return m, l


def solve_constant(problem: LinearProblem, n: int) -> WeightedGridFunction:
    """Evaluate the constant-coefficient representation on an n-panel grid.

    The homogeneous part is a pointwise series evaluation.  The forcing
    convolution is the fractional integral's FFT product rule with the
    resolvent's exact moments: exact for f affine in Psi, second order
    for smooth f.
    """
    if problem.mu is not None:
        raise ParamViolation("use solve_variable when mu is present")
    raise_on(solve_violations(n), GridTooCoarse)
    p = problem.params
    grid = build_grid(problem.psi, problem.a, problem.b, n)
    z = problem.lam * grid.x ** p.eta
    with np.errstate(over="ignore", invalid="ignore"):
        w = problem.y_a * ml2_array(p.eta, p.zeta, z)
        if problem.forcing is not None:
            fv = problem.forcing.eval_many(grid.nodes, np.zeros(n + 1))
            conv = _abel_product_rule(p.eta, grid.h, _kernel_spectrum(p.eta, n, z))
            w = w + grid.x_pow(1.0 - p.zeta) * conv(fv)
    return _solution(grid, p.zeta, w)


def solve_variable(problem: LinearProblem, n: int) -> WeightedGridFunction:
    """Evaluate the variable-coefficient series on an n-panel grid.

    Pure series evaluation, no quadrature: the coefficient products are
    shared across nodes.  A nonpositive Gamma argument in the products
    raises ParamViolation (cannot happen for mu > 1 - eta).
    """
    if problem.mu is None:
        raise ParamViolation("solve_variable needs mu")
    raise_on(solve_violations(n), GridTooCoarse)
    p = problem.params
    m, l = variable_series_params(p, problem.mu)
    grid = build_grid(problem.psi, problem.a, problem.b, n)
    z = problem.lam * grid.x_pow(p.eta + problem.mu - 1.0)
    w0c = problem.y_a * math.exp(-log_gamma(p.zeta))
    with np.errstate(over="ignore", invalid="ignore"):
        w = w0c * ks_array(p.eta, m, l, z)
    return _solution(grid, p.zeta, w)


def _solution(grid, zeta: float, w: np.ndarray) -> WeightedGridFunction:
    """The solution of weighted samples w; OverflowGuard unless finite."""
    if not np.isfinite(w).all():
        raise OverflowGuard("the closed-form solution on this grid exceeds "
                            "the floating-point range")
    return WeightedGridFunction(grid, zeta, w)
