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

from .errors import DomainViolation, GridTooCoarse, broken, raise_on
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
        raise_on(self.violations(self.psi, self.a, self.xi, self.k_box),
                 DomainViolation)

    @staticmethod
    def violations(psi, a, xi, k_box) -> list[str]:
        """The message of each rule these values break; None is unchecked,
        and the domain only when psi, a and a positive xi are given."""
        problems = broken((xi, lambda v: v > 0, "xi must be positive"),
                          (k_box, lambda v: v > 0, "k_box must be positive"))
        if psi is not None and a is not None and xi is not None and xi > 0:
            problems += psi.domain_violations((a, "a"), (a + xi, "a+xi"))
        return problems


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
    if not 0 <= norm_f < math.inf:
        raise DomainViolation(f"norm_f must be finite and >= 0, got {norm_f!r}")
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


def _extrapolate_start(v: np.ndarray) -> float:
    """The t = a value of a weighted profile, quadratically extrapolated
    from nodes 1..3 (node 0 is not read)."""
    if len(v) < 4:
        raise GridTooCoarse("need n >= 3 to extrapolate the value at t = a")
    return 3.0 * v[1] - 3.0 * v[2] + v[3]


def _weighted_composite(rhs: RhsExpr, grid: PsiGrid, zeta: float,
                        w: np.ndarray, to_plain: np.ndarray,
                        to_weighted: np.ndarray) -> np.ndarray:
    """X^(1-zeta) f(t, X^(zeta-1) w) at every node, with the power tables
    given off t = a.  f is evaluated at t = a only when zeta = 1; else y
    is unbounded there and node 0 is quadratically extrapolated.
    """
    if zeta == 1.0:
        return rhs.eval_many(grid.nodes, w)
    phi = np.empty(grid.n + 1)
    phi[1:] = to_weighted[1:] * rhs.eval_many(grid.nodes[1:], w[1:] * to_plain[1:])
    phi[0] = _extrapolate_start(phi)
    return phi


def picard_step(rhs: RhsExpr, op: FracIntegralOperator, w0_const: float,
                w: np.ndarray) -> np.ndarray:
    """One application of the integral fixed-point map in weighted form.

    Pushes the weighted composite of f along w through the fractional
    integral ``op``, whose grid, zeta and power tables it uses.
    """
    phi = _weighted_composite(rhs, op.grid, op.zeta, w, op.to_plain,
                              op.to_weighted)
    return w0_const + op.apply_weighted(phi)


def solve_violations(n=None, tol=None, max_iter=None, L_override=None,
                     horizon=None, xi=None) -> list[str]:
    """The message of each rule of :func:`picard_solve` these values
    break (``L_override``: of :func:`estimate_constants`); None is
    unchecked, and ``horizon`` only against a given ``xi``."""
    return broken((n, lambda v: v >= 16, "solver needs n >= 16"),
                  (tol, lambda v: v > 0, "tol must be positive"),
                  (max_iter, lambda v: v >= 1, "max_iter must be at least 1"),
                  (L_override, lambda v: v > 0, "L_override must be positive"),
                  (horizon, lambda v: xi is None or 0 < v <= xi * (1.0 + 1e-12),
                   "horizon must lie in (0, xi]"))


def estimate_constants(problem: CauchyProblem, n: int,
                       L_override: float | None = None) -> tuple[float, float]:
    """Lipschitz constant L and weighted bound M of f on the trust box.

    L is ``L_override`` when given, else estimated on the box of radius
    k_box around the initial iterate at the n-panel scout nodes on
    [a, a + xi].  M is the weighted sup of f along the initial iterate
    plus Lipschitz slack covering the whole box.
    """
    raise_on(solve_violations(L_override=L_override), DomainViolation)
    p = problem.params
    scout = build_grid(problem.psi, problem.a, problem.a + problem.xi, n)
    w0c = problem.y_a * math.exp(-log_gamma(p.zeta))
    xp = scout.x_pow(p.zeta - 1.0)
    xw = scout.x_pow(1.0 - p.zeta)
    y0 = w0c * xp[1:]
    if L_override is not None:
        l_used = float(L_override)
    else:
        l_used = lipschitz_estimate(problem.rhs,
                                    (problem.a, problem.a + problem.xi),
                                    (float(np.min(y0)) - problem.k_box,
                                     float(np.max(y0)) + problem.k_box))
    phi = _weighted_composite(problem.rhs, scout, p.zeta,
                              np.full(n + 1, w0c), xp, xw)
    m0 = float(np.max(np.abs(phi)))
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
    raise_on(solve_violations(n=n), GridTooCoarse)
    raise_on(solve_violations(tol=tol, max_iter=max_iter, horizon=horizon,
                              xi=problem.xi), DomainViolation)
    p = problem.params
    w0c = problem.y_a * math.exp(-log_gamma(p.zeta))

    l_used, m_used = estimate_constants(problem, n, L_override)
    chi_formula = existence_interval(problem, m_used)
    chi_used = chi_formula if horizon is None else float(horizon)
    if not problem.a < problem.a + chi_used:
        raise DomainViolation(
            f"the solve interval [a, a + chi] is empty: chi = {chi_used!r} "
            f"from M_used = {m_used!r} and k_box = {problem.k_box!r}")

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
        w_new = picard_step(problem.rhs, op, w0c, w)
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
    raise_on(broken((M, lambda v: v >= 0, "M must be nonnegative"),
                    (L, lambda v: v >= 0, "L must be nonnegative"),
                    (n_max, lambda v: v >= 0, "n_max must be nonnegative")),
             DomainViolation)
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


def continuous_dependence_bound(y_a: float, z_a: float, L: float,
                                params: OrderParams, psi: PsiMap,
                                a: float, chi: float) -> float:
    """Weighted distance bound for solutions with perturbed initial data.

    {1 + G(zeta) E[eta, zeta](L X^eta)} * |y_a - z_a| / G(zeta);
    the weighting cancels the initial monomials exactly, so the data
    distance is |y_a - z_a| / G(zeta) with no quadrature involved.
    L = 0 yields 2 |y_a - z_a| / G(zeta), since E[eta, zeta](0) = 1/G(zeta).
    """
    if not L >= 0:
        raise DomainViolation("L must be nonnegative")
    if not math.isfinite(y_a) or not math.isfinite(z_a):
        raise DomainViolation(f"y_a and z_a must be finite, got {y_a!r}, {z_a!r}")
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
    fvals = problem.rhs.eval_many(grid.nodes[1:n], solution.to_plain()[1:n])
    resid = deriv - fvals
    skip = max(n // 16, 1)
    xw = grid.x_pow(1.0 - p.zeta)[1:n]
    return float(np.max(np.abs(resid[skip - 1:] * xw[skip - 1:])))
