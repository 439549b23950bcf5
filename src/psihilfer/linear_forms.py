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

from .errors import DomainViolation, GridTooCoarse, ParamViolation
from .frac_ops import (OrderParams, WeightedGridFunction, _abel_convolve,
                       _abel_kernels, build_grid)
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
        self.psi.check_in_domain(self.a, "a")
        self.psi.check_in_domain(self.b, "b")
        if not self.a < self.b:
            raise DomainViolation("need a < b")
        if self.mu is not None and not self.mu > 1.0 - self.params.eta:
            raise ParamViolation(
                f"mu must exceed 1-eta = {1.0 - self.params.eta}, got {self.mu!r}"
            )
        if self.mu is not None and self.forcing is not None:
            raise ParamViolation(
                "the variable-coefficient mode is homogeneous; drop the forcing"
            )
        if self.forcing is not None and self.forcing.uses_y():
            raise ParamViolation("forcing must be a function of t only")


def variable_series_params(params: OrderParams, mu: float) -> tuple[float, float]:
    """Kilbas-Saigo parameters (m, l) of the variable-coefficient series."""
    if not mu > 1.0 - params.eta:
        raise ParamViolation(f"mu must exceed 1-eta = {1.0 - params.eta}")
    m = 1.0 + (mu - 1.0) / params.eta
    l = (mu + params.zeta - 2.0) / params.eta
    return m, l


def solve_constant(problem: LinearProblem, n: int) -> WeightedGridFunction:
    """Evaluate the constant-coefficient representation on an n-panel grid.

    The homogeneous part is a pointwise series evaluation.  The forcing
    convolution reuses the linear-interpolant product weights for the
    power kernel and samples the smooth series factor at panel
    midpoints, where it is continuous all the way to zero separation
    (value 1/Gamma(eta)).
    """
    if problem.mu is not None:
        raise ParamViolation("use solve_variable when mu is present")
    if n < 8:
        raise GridTooCoarse("need n >= 8")
    p = problem.params
    grid = build_grid(problem.psi, problem.a, problem.b, n)
    x = grid.x
    w = problem.y_a * ml2_array(p.eta, p.zeta, problem.lam * x ** p.eta)

    if problem.forcing is not None:
        fv = problem.forcing.eval_many(grid.nodes, np.zeros(n + 1))
        d = np.arange(1, n + 1, dtype=float)
        mid = problem.lam * ((d - 0.5) * grid.h) ** p.eta
        e_mid = ml2_array(p.eta, p.eta, mid)
        cl, cr = _abel_kernels(p.eta, n)
        scale = grid.h ** p.eta
        conv = _abel_convolve(fv, cl * e_mid * scale, cr * e_mid * scale)
        w = w + grid.x_pow(1.0 - p.zeta) * conv
    return WeightedGridFunction(grid, p.zeta, w)


def solve_variable(problem: LinearProblem, n: int) -> WeightedGridFunction:
    """Evaluate the variable-coefficient series on an n-panel grid.

    Pure series evaluation, no quadrature: the coefficient products are
    shared across nodes.  A nonpositive Gamma argument in the products
    raises ParamViolation (cannot happen for mu > 1 - eta).
    """
    if problem.mu is None:
        raise ParamViolation("solve_variable needs mu")
    if n < 8:
        raise GridTooCoarse("need n >= 8")
    p = problem.params
    m, l = variable_series_params(p, problem.mu)
    grid = build_grid(problem.psi, problem.a, problem.b, n)
    z = problem.lam * grid.x_pow(p.eta + problem.mu - 1.0)
    w0c = problem.y_a * math.exp(-log_gamma(p.zeta))
    w = w0c * ks_array(p.eta, m, l, z)
    return WeightedGridFunction(grid, p.zeta, w)
