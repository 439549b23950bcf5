"""Successive-approximation solver for the nonlinear fractional Cauchy problem.

The problem

    D^{eta,nu} y(t) = f(t, y(t)),   I^{1-zeta} y(a) = y_a,

is equivalent to a weakly singular Volterra equation whose fixed point
is approached by the iteration

    y_0(t) = y_a * (Psi(t)-Psi(a))^(zeta-1) / Gamma(zeta),
    y_m = y_0 + I^{eta} f(., y_{m-1}).

Iterates live entirely in weighted form: the weighted value at t = a is
pinned to y_a / Gamma(zeta) for every iterate, and f is evaluated on
values reconstructed away from the endpoint, because y itself is
unbounded at a whenever zeta < 1.  Convergence is measured in the
weighted max norm, where the contraction factor decays
super-geometrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainViolation, GridTooCoarse
from .frac_ops import (FracIntegralOperator, OrderParams, PsiGrid,
                       WeightedGridFunction, build_grid, hilfer_derivative)
from .psi_maps import PsiMap, psi_increment
from .rhs_expr import RhsExpr, lipschitz_estimate
from .special_fn import log_gamma, mittag_leffler2, ml2_tail_sums

#: relative box overshoot tolerated before the solver records a warning
_BOX_SLACK = 1.1


@dataclass(frozen=True)
class CauchyProblem:
    """Problem data: transform, orders, initial datum and right-hand side.

    ``xi`` is the candidate horizon and ``k_box`` the radius of the box
    around the initial iterate inside which f is trusted; both feed the
    existence-interval formula.
    """

    psi: PsiMap
    params: OrderParams
    a: float
    xi: float
    y_a: float
    rhs: RhsExpr
    k_box: float

    def __post_init__(self):
        if not self.xi > 0:
            raise DomainViolation(f"xi must be positive, got {self.xi!r}")
        if not self.k_box > 0:
            raise DomainViolation(f"k_box must be positive, got {self.k_box!r}")
        self.psi.check_in_domain(self.a, "a")
        self.psi.check_in_domain(self.a + self.xi, "a+xi")


@dataclass
class SolveReport:
    """Telemetry of one solve.

    ``weighted_deltas[m]`` is the weighted norm of the m-th increment,
    ``apriori_bounds[m]`` the guaranteed distance to the true solution
    after m iterations, and ``y0_gap_ratios[m]`` the measured maximum of
    |w_m - w_0| / (Psi(t)-Psi(a))^eta used by the first-iterate bound.
    ``chi`` is the horizon actually solved on; ``chi_formula`` the value
    produced by the existence-interval formula with the measured M.
    When the Lipschitz estimate is zero the bounds arrays hold the
    L -> 0 limits.
    """

    iterations: int = 0
    chi: float = 0.0
    weighted_deltas: list = field(default_factory=list)
    apriori_bounds: list = field(default_factory=list)
    residual_norm: float = float("nan")
    converged: bool = False
    M_used: float = 0.0
    L_used: float = 0.0
    chi_formula: float = 0.0
    box_exit: bool = False
    y0_gap_ratios: list = field(default_factory=list)
    history: list | None = None


def existence_interval(problem: CauchyProblem, norm_f: float) -> float:
    """Guaranteed solution horizon from the box radius and a bound on f.

    chi = min(xi, Psi^{-1}[Psi(a) + (k * G(eta+zeta) / (G(zeta) * norm_f))^(1/eta)] - a)

    with norm_f the weighted sup of the right-hand side.  A zero bound
    leaves the box unconstrained, so chi = xi.
    """
    if norm_f < 0:
        raise DomainViolation("norm_f must be nonnegative")
    if norm_f == 0.0:
        return problem.xi
    p = problem.params
    log_amp = (math.log(problem.k_box)
               + log_gamma(p.eta + p.zeta) - log_gamma(p.zeta)
               - math.log(norm_f))
    offset = math.exp(log_amp / p.eta)
    u_a = float(problem.psi.value(problem.a))
    u_xi = float(problem.psi.value(problem.a + problem.xi))
    if u_a + offset >= u_xi:
        return problem.xi
    return float(problem.psi.inverse(u_a + offset)) - problem.a


def picard_step(rhs: RhsExpr, grid: PsiGrid, op: FracIntegralOperator,
                zeta: float, w0_const: float, w: np.ndarray) -> np.ndarray:
    """One application of the integral fixed-point map in weighted form.

    Reconstructs y away from the endpoint, weights the composite
    f(t, y(t)) and pushes it through the fractional integral; the value
    of the weighted composite at t = a is quadratically extrapolated so
    the singular endpoint is never evaluated.
    """
    n = grid.n
    xw = grid.x_pow(1.0 - zeta)
    phi = np.empty(n + 1)
    if zeta == 1.0:
        y_plain = w
        phi[:] = rhs.eval_many(grid.nodes, y_plain)
    else:
        y_plain = w[1:] * grid.x_pow(zeta - 1.0)[1:]
        phi[1:] = xw[1:] * rhs.eval_many(grid.nodes[1:], y_plain)
        phi[0] = 3.0 * phi[1] - 3.0 * phi[2] + phi[3]
    return w0_const + op.apply_weighted(phi)


def estimate_constants(problem: CauchyProblem, scout: PsiGrid,
                       L_override: float | None = None) -> tuple[float, float]:
    """Lipschitz constant L and weighted bound M of f on the trust box.

    L is ``L_override`` when given, else estimated on the box of radius
    k_box around the initial iterate at the scout nodes.  M is the
    weighted sup of f along the initial iterate plus Lipschitz slack
    covering the whole box.
    """
    p = problem.params
    w0c = problem.y_a * math.exp(-log_gamma(p.zeta))
    xw = scout.x_pow(1.0 - p.zeta)
    if p.zeta == 1.0:
        y0 = np.full(scout.n + 1, w0c)
    else:
        y0 = w0c * scout.x_pow(p.zeta - 1.0)[1:]
    if L_override is not None:
        if not L_override > 0:
            raise DomainViolation("L_override must be positive")
        l_used = float(L_override)
    else:
        l_used = lipschitz_estimate(problem.rhs,
                                    (problem.a, problem.a + problem.xi),
                                    (float(np.min(y0)) - problem.k_box,
                                     float(np.max(y0)) + problem.k_box))
    if p.zeta == 1.0:
        m0 = float(np.max(np.abs(problem.rhs.eval_many(scout.nodes, y0))))
    else:
        phi = xw[1:] * problem.rhs.eval_many(scout.nodes[1:], y0)
        phi0 = 3.0 * phi[0] - 3.0 * phi[1] + phi[2]
        m0 = max(float(np.max(np.abs(phi))), abs(phi0))
    return l_used, m0 + l_used * problem.k_box * float(np.max(xw))


def picard_solve(problem: CauchyProblem, n: int, tol: float = 1e-10,
                 max_iter: int = 200, L_override: float | None = None,
                 horizon: float | None = None, keep_history: bool = False,
                 ) -> tuple[WeightedGridFunction, SolveReport]:
    """Iterate the integral map until the weighted increment drops below tol.

    The horizon defaults to the existence-interval formula evaluated
    with the measured bound M; pass ``horizon`` to clamp it manually
    (it must not exceed xi).  Non-convergence is reported through the
    returned :class:`SolveReport`, never raised: the last iterate is
    still useful.  An iterate drifting more than 10% outside the trust
    box is recorded as a warning flag and iteration continues.
    """
    if n < 16:
        raise GridTooCoarse("solver needs n >= 16")
    if not tol > 0:
        raise DomainViolation("tol must be positive")
    if max_iter < 1:
        raise DomainViolation("max_iter must be at least 1")
    p = problem.params
    w0c = problem.y_a * math.exp(-log_gamma(p.zeta))

    scout = build_grid(problem.psi, problem.a, problem.a + problem.xi, n)
    l_used, m_used = estimate_constants(problem, scout, L_override)
    chi_formula = existence_interval(problem, m_used)
    if horizon is None:
        chi_used = chi_formula
    else:
        if not 0 < horizon <= problem.xi * (1.0 + 1e-12):
            raise DomainViolation("horizon must lie in (0, xi]")
        chi_used = float(horizon)

    grid = build_grid(problem.psi, problem.a, problem.a + chi_used, n)
    op = FracIntegralOperator(grid, p.eta, zeta=p.zeta)
    x_eta = grid.x_pow(p.eta)

    report = SolveReport(chi=chi_used, chi_formula=chi_formula,
                         M_used=m_used, L_used=l_used,
                         history=[] if keep_history else None)
    w = np.full(n + 1, w0c)
    if keep_history:
        report.history.append(w.copy())
    for _ in range(max_iter):
        w_new = picard_step(problem.rhs, grid, op, p.zeta, w0c, w)
        delta = float(np.max(np.abs(w_new - w)))
        gap = np.abs(w_new - w0c)
        report.weighted_deltas.append(delta)
        report.y0_gap_ratios.append(float(np.max(gap[1:] / x_eta[1:])))
        if float(np.max(gap)) > _BOX_SLACK * problem.k_box:
            report.box_exit = True
        w = w_new
        report.iterations += 1
        if keep_history:
            report.history.append(w.copy())
        if delta <= tol:
            report.converged = True
            break

    solution = WeightedGridFunction(grid, p.zeta, w)
    report.apriori_bounds = list(apriori_error_bound_sequence(
        m_used, l_used, report.iterations, p, problem.psi,
        problem.a, chi_used))
    if n >= 256:
        report.residual_norm = residual_check(problem, solution)
    return solution, report


def apriori_error_bound_sequence(M: float, L: float, n_max: int,
                                 params: OrderParams, psi: PsiMap,
                                 a: float, chi: float) -> np.ndarray:
    """Bounds on the weighted distance to the solution after 0..n_max steps.

    (M G(zeta) / L) * sum_{k>n} (L X^eta)^k / G(k eta + zeta),
    X = Psi(a+chi) - Psi(a),

    evaluated as an explicit series tail, which is nonnegative and
    strictly decreasing by construction.  L = 0 yields the limiting
    bounds M G(zeta) X^eta / G(eta+zeta), 0, 0, ...
    """
    if M < 0:
        raise DomainViolation("M must be nonnegative")
    if L < 0:
        raise DomainViolation("L must be nonnegative")
    x = psi_increment(psi, a, a + chi)
    if M == 0.0:
        return np.zeros(n_max + 1)
    if L == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = (M * math.exp(log_gamma(params.zeta)
                               - log_gamma(params.eta + params.zeta))
                  * x ** params.eta)
        return out
    z = L * x ** params.eta
    tails = ml2_tail_sums(params.eta, params.zeta, z, n_max)
    return (M * math.exp(log_gamma(params.zeta)) / L) * tails


def apriori_error_bound(M: float, L: float, n_iter: int, params: OrderParams,
                        psi: PsiMap, a: float, chi: float) -> float:
    """Guaranteed weighted distance to the solution after n_iter steps."""
    if not L > 0:
        raise DomainViolation("L must be positive")
    seq = apriori_error_bound_sequence(M, L, n_iter, params, psi, a, chi)
    return float(seq[n_iter])


def continuous_dependence_bound(y_a: float, z_a: float, L: float,
                                params: OrderParams, psi: PsiMap,
                                a: float, chi: float) -> float:
    """Weighted distance bound for solutions with perturbed initial data.

    {1 + G(zeta) E[eta, zeta](L X^eta)} * |y_a - z_a| / G(zeta);
    the weighting cancels the initial monomials exactly, so the data
    distance is |y_a - z_a| / G(zeta) with no quadrature involved.
    """
    if not L > 0:
        raise DomainViolation("L must be positive")
    if y_a == z_a:
        return 0.0
    p = params
    x = psi_increment(psi, a, a + chi)
    gz = math.exp(log_gamma(p.zeta))
    ml = mittag_leffler2(p.eta, p.zeta, L * x ** p.eta).value
    return (1.0 + gz * ml) * abs(y_a - z_a) / gz


def residual_check(problem: CauchyProblem, solution: WeightedGridFunction) -> float:
    """Weighted sup of D y - f(t, y) over interior nodes away from t = a.

    The first n/16 nodes are skipped: differencing amplifies the
    endpoint layer there while the solution is certified by the
    weighted-norm bounds anyway.
    """
    grid = solution.grid
    n = grid.n
    if n < 256:
        raise GridTooCoarse("residual check needs n >= 256")
    p = problem.params
    deriv = hilfer_derivative(p, solution)  # nodes 1..n-1
    if p.zeta == 1.0:
        y_plain = solution.w[1:n]
    else:
        y_plain = solution.w[1:n] * grid.x_pow(p.zeta - 1.0)[1:n]
    fvals = problem.rhs.eval_many(grid.nodes[1:n], y_plain)
    resid = deriv - fvals
    skip = max(n // 16, 1)
    xw = grid.x_pow(1.0 - p.zeta)[1:n]
    return float(np.max(np.abs(resid[skip - 1:] * xw[skip - 1:])))
