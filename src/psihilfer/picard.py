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
from dataclasses import dataclass

import numpy as np

from .errors import (DomainViolation, GridTooCoarse, OverflowGuard, broken,
                     raise_on)
from .frac_ops import (FracIntegralOperator, OrderParams, PsiGrid,
                       WeightedGridFunction, build_grid, hilfer_derivative)
from .psi_maps import PsiMap, psi_increment
from .rhs_expr import RhsExpr, lipschitz_estimate
from .special_fn import _is_int, _tail_argument, log_gamma, ml2_tail_sums

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


@dataclass(frozen=True)
class SolveReport:
    """Certificates of one solve: the ``report.json`` schema, whose keys
    are these fields in declaration order.

    ``deltas[m]`` is the weighted norm of the (m+1)-th increment and
    ``apriori_bounds[m]`` the guaranteed distance to the true solution
    after m iterations.  ``chi`` is the horizon actually solved on;
    ``chi_formula`` the value produced by the existence-interval formula
    with the measured M.  When the Lipschitz estimate is zero the bounds
    hold the L -> 0 limits.  ``residual`` is NaN below n = 256.  The
    m-th iterate itself is the solution of ``picard_solve(...,
    max_iter=m)``, bit for bit.
    """

    chi: float
    chi_formula: float
    iterations: int
    deltas: list
    apriori_bounds: list
    residual: float
    M_used: float
    L_used: float
    converged: bool
    box_exit: bool


def existence_interval(problem: CauchyProblem, norm_f: float) -> float:
    """Guaranteed solution horizon from the box radius and a bound on f.

    chi = min(xi, Psi^{-1}[Psi(a) + (k * G(eta+zeta) / (G(zeta) * norm_f))^(1/eta)] - a)

    with norm_f the weighted sup of the right-hand side.  A zero bound,
    or an offset beyond the floating-point range, leaves the box
    unconstrained, so chi = xi.
    """
    if not 0 <= norm_f < math.inf:
        raise DomainViolation(f"norm_f must be finite and >= 0, got {norm_f!r}")
    if norm_f == 0.0:
        return problem.xi
    p = problem.params
    log_amp = (math.log(problem.k_box)
               + log_gamma(p.eta + p.zeta) - log_gamma(p.zeta)
               - math.log(norm_f))
    try:
        offset = math.exp(log_amp / p.eta)
    except OverflowError:
        return problem.xi
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


def _composite_nodes(grid: PsiGrid, zeta: float) -> np.ndarray:
    """The nodes at which the weighted composite evaluates f: every node
    when zeta = 1, else all but t = a."""
    return grid.nodes if zeta == 1.0 else grid.nodes[1:]


def _weighted_composite(rhs: RhsExpr, grid: PsiGrid, zeta: float,
                        w: np.ndarray, to_plain: np.ndarray,
                        to_weighted: np.ndarray) -> np.ndarray:
    """X^(1-zeta) f(t, X^(zeta-1) w) at every node, with the power tables
    given off t = a.  f is evaluated at t = a only when zeta = 1; else y
    is unbounded there and node 0 is quadratically extrapolated.  ``rhs``
    may be bound at ``_composite_nodes(grid, zeta)``.
    """
    nodes = _composite_nodes(grid, zeta)
    if zeta == 1.0:
        return rhs.eval_many(nodes, w)
    phi = np.empty(grid.n + 1)
    phi[1:] = to_weighted[1:] * rhs.eval_many(nodes, w[1:] * to_plain[1:])
    phi[0] = _extrapolate_start(phi)
    return phi


def picard_step(rhs: RhsExpr, op: FracIntegralOperator, w0_const: float,
                w: np.ndarray) -> np.ndarray:
    """One application of the integral fixed-point map in weighted form.

    Pushes the weighted composite of f along w through the fractional
    integral ``op``, whose grid, zeta and power tables it uses.  ``rhs``
    may be bound (:meth:`RhsExpr.bind`) at the nodes the composite reads,
    as :func:`picard_solve` binds it once for all its steps.
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
    plus Lipschitz slack covering the whole box.  Raises
    :class:`OverflowGuard` when the box or M is not finite.
    """
    raise_on(solve_violations(L_override=L_override), DomainViolation)
    p = problem.params
    scout = build_grid(problem.psi, problem.a, problem.a + problem.xi, n)
    w0c = problem.y_a * math.exp(-log_gamma(p.zeta))
    xp = scout.x_pow(p.zeta - 1.0)
    xw = scout.x_pow(1.0 - p.zeta)
    with np.errstate(over="ignore"):  # an infinite box is rejected below
        y0 = w0c * xp[1:]
    box = (float(np.min(y0)) - problem.k_box, float(np.max(y0)) + problem.k_box)
    if not math.isfinite(box[1] - box[0]):
        raise OverflowGuard(
            f"the trust box y0 +- k_box exceeds the floating-point range: "
            f"y_a = {problem.y_a!r}, k_box = {problem.k_box!r}")
    if L_override is not None:
        l_used = float(L_override)
    else:
        l_used = lipschitz_estimate(problem.rhs,
                                    (problem.a, problem.a + problem.xi), box)
    with np.errstate(all="ignore"):  # an M that is not finite is rejected below
        phi = _weighted_composite(problem.rhs, scout, p.zeta,
                                  np.full(n + 1, w0c), xp, xw)
        m_used = (float(np.max(np.abs(phi)))
                  + l_used * problem.k_box * float(np.max(xw)))
    if not math.isfinite(m_used):
        raise OverflowGuard(
            f"the bound M of f on the trust box exceeds the floating-point "
            f"range: M = {m_used!r} with L = {l_used!r}")
    return l_used, m_used


def picard_solve(problem: CauchyProblem, n: int, tol: float = 1e-10,
                 max_iter: int = 200, L_override: float | None = None,
                 horizon: float | None = None
                 ) -> tuple[WeightedGridFunction, SolveReport]:
    """Iterate the integral map until the weighted increment drops below tol.

    The horizon defaults to the existence-interval formula evaluated
    with the measured bound M; pass ``horizon`` to clamp it manually
    (it must not exceed xi).  Non-convergence is reported through the
    returned :class:`SolveReport`, never raised: the last iterate is
    still useful.  An iterate drifting more than 10% outside the trust
    box is recorded as a warning flag and iteration continues.  An
    iterate that leaves the floating-point range raises
    :class:`OverflowGuard`.
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
    # every step evaluates f at the same nodes, so the parts of f that do
    # not read y are evaluated once, here
    rhs = problem.rhs.bind(_composite_nodes(grid, p.zeta))

    deltas, box_exit = [], False
    w = np.full(n + 1, w0c)
    with np.errstate(all="ignore"):  # a non-finite iterate raises below
        for _ in range(max_iter):
            w_new = picard_step(rhs, op, w0c, w)
            delta = float(np.max(np.abs(w_new - w)))
            if not math.isfinite(delta):
                raise OverflowGuard(
                    f"iteration {len(deltas) + 1} exceeds the "
                    f"floating-point range: weighted increment {delta!r}")
            deltas.append(delta)
            if float(np.max(np.abs(w_new - w0c))) > _BOX_SLACK * problem.k_box:
                box_exit = True
            w = w_new
            if delta <= tol:
                break

    solution = WeightedGridFunction(grid, p.zeta, w)
    report = SolveReport(
        chi=chi_used, chi_formula=chi_formula, iterations=len(deltas),
        deltas=deltas,
        apriori_bounds=list(apriori_error_bound_sequence(
            m_used, l_used, len(deltas), p, problem.psi, problem.a, chi_used)),
        residual=residual_check(problem, solution) if n >= 256 else math.nan,
        M_used=m_used, L_used=l_used, converged=bool(deltas[-1] <= tol),
        box_exit=box_exit)
    return solution, report


def apriori_error_bound_sequence(M: float, L: float, n_max: int,
                                 params: OrderParams, psi: PsiMap,
                                 a: float, chi: float) -> np.ndarray:
    """Bounds on the weighted distance to the solution after 0..n_max steps.

    (M G(zeta) / L) * sum_{k>n} (L X^eta)^k / G(k eta + zeta),
    X = Psi(a+chi) - Psi(a),

    evaluated as an explicit series tail, which is nonnegative and
    strictly decreasing by construction.  L = 0 yields the limiting
    bounds M G(zeta) X^eta / G(eta+zeta), 0, 0, ..., and M = 0 or X = 0
    exact zeros.  Raises :class:`OverflowGuard` when M G(zeta) / L or
    L X^eta is not finite.
    """
    raise_on(broken((M, lambda v: v >= 0, "M must be nonnegative"),
                    (L, lambda v: v >= 0, "L must be nonnegative"),
                    (n_max, lambda v: _is_int(v) and v >= 0,
                     "n_max must be a nonnegative integer")),
             DomainViolation)
    x = psi_increment(psi, a, a + chi)
    scale = M * math.exp(log_gamma(params.zeta)) / L if L > 0 else 0.0
    if not math.isfinite(scale):
        raise OverflowGuard(f"M*Gamma(zeta)/L exceeds the floating-point "
                            f"range: M = {M!r}, L = {L!r}")
    out = np.zeros(n_max + 1)
    if M == 0.0 or x == 0.0:
        return out
    if L == 0.0:
        out[0] = (M * math.exp(log_gamma(params.zeta)
                               - log_gamma(params.eta + params.zeta))
                  * x ** params.eta)
        return out
    z = _tail_argument("L*X^eta", L, x, params.eta)
    tails = ml2_tail_sums(params.eta, params.zeta, z, n_max)
    return scale * tails


def continuous_dependence_bound(y_a: float, z_a: float, L: float,
                                params: OrderParams, psi: PsiMap,
                                a: float, chi: float) -> float:
    """Weighted distance bound for solutions with perturbed initial data.

    {1 + G(zeta) E[eta, zeta](L X^eta)} * |y_a - z_a| / G(zeta);
    the weighting cancels the initial monomials exactly, so the data
    distance is |y_a - z_a| / G(zeta) with no quadrature involved.
    L = 0 yields 2 |y_a - z_a| / G(zeta), since E[eta, zeta](0) = 1/G(zeta).
    E is 1/G(zeta) plus the tail past k = 0 of the a-priori bound's series,
    so a sum that does not converge raises :class:`SeriesNotConverged`, and
    an L X^eta past the double range :class:`OverflowGuard`.
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
    tail = ml2_tail_sums(p.eta, p.zeta, _tail_argument("L*X^eta", L, x, p.eta), 0)[0]
    return (2.0 + gz * tail) * abs(y_a - z_a) / gz


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
