import math

import numpy as np
import pytest

from psihilfer import (CauchyProblem, DomainViolation, FracIntegralOperator,
                       GridTooCoarse, LinearProblem, OrderParams,
                       apriori_error_bound_sequence, build_grid,
                       continuous_dependence_bound, existence_interval,
                       make_custom_psi, make_psi, parse, picard_solve,
                       picard_step, residual_check, solve_constant)
from psihilfer import picard
from psihilfer.picard import estimate_constants
from psihilfer.rhs_expr import _OPS
from psihilfer.special_fn import log_gamma

IDENT = make_psi("identity", (), (0.0, 2.0))

# (Gamma(1.25)/Gamma(0.75))^2, thirty-digit reference 0.54710990380661916
CHI_REFERENCE = 0.5471099038066192
# Gamma(0.75) * (E[0.5,0.75](sqrt 0.5) - 1/Gamma(0.75)), series reference
APRIORI0_REFERENCE = 2.3350388683776081


def _problem(eta=0.6, nu=0.4, rhs="-1*y", y_a=1.0, k=1.0, xi=1.0):
    return CauchyProblem(psi=IDENT, params=OrderParams(eta, nu), a=0.0,
                         xi=xi, y_a=y_a, rhs=parse(rhs), k_box=k)


def test_existence_interval_reference_value():
    prob = _problem(eta=0.5, nu=0.5)
    assert abs(existence_interval(prob, 1.0) - CHI_REFERENCE) < 1e-6


def test_existence_interval_zero_norm_gives_horizon():
    assert existence_interval(_problem(), 0.0) == 1.0


def test_existence_interval_huge_box_gives_horizon():
    prob = _problem(k=1e9)
    assert existence_interval(prob, 1.0) == 1.0


def test_existence_interval_offset_beyond_double_range_gives_horizon():
    # (k G(eta+zeta) / (G(zeta) norm_f))^(1/eta) ~ 1e400 does not bind
    prob = _problem(eta=0.5, nu=0.5, rhs="1e-200*y")
    assert existence_interval(prob, 1e-200) == 1.0
    sol, rep = picard_solve(prob, n=64)
    assert rep.chi == rep.chi_formula == 1.0 and rep.converged


def test_zero_rhs_fixed_in_one_iteration():
    prob = _problem(rhs="0", eta=0.5, nu=0.5)
    sol, rep = picard_solve(prob, n=64, horizon=1.0)
    assert rep.converged and rep.iterations == 1
    assert np.allclose(sol.w, 1.0 / math.gamma(0.75), rtol=1e-14)


def test_initial_weight_conventions():
    # type nu = 1 pins w(a) to y_a; nu = 0 pins it to y_a/Gamma(eta)
    for nu, expected in ((1.0, 2.0), (0.0, 2.0 / math.gamma(0.6))):
        prob = _problem(eta=0.6, nu=nu, rhs="0", y_a=2.0)
        sol, _ = picard_solve(prob, n=64, horizon=1.0)
        assert np.isclose(sol.w[0], expected, rtol=1e-14)


def test_linear_decay_matches_closed_form():
    prob = _problem()
    sol, rep = picard_solve(prob, n=2048, horizon=1.0)
    assert rep.converged and rep.iterations <= 60
    ref = solve_constant(LinearProblem(psi=IDENT, params=prob.params, a=0.0,
                                       b=1.0, y_a=1.0, lam=-1.0), 2048)
    assert np.max(np.abs(sol.w - ref.w)) <= 5e-3


def test_iterate_bound_pointwise():
    # |w_m - w_0| / X^eta at nodes 1..n, w_m the solve cut off after m steps
    prob = _problem()
    sol, rep = picard_solve(prob, n=512, horizon=1.0)
    p = prob.params
    cap = (rep.M_used * math.gamma(p.zeta) / math.gamma(p.eta + p.zeta))
    w0c = prob.y_a * math.exp(-log_gamma(p.zeta))
    x_eta = sol.grid.x_pow(p.eta)[1:]
    for m in range(1, rep.iterations + 1):
        w = picard_solve(prob, n=512, horizon=1.0, max_iter=m)[0].w
        assert np.max(np.abs(w[1:] - w0c) / x_eta) <= cap * (1.0 + 1e-9), m


def test_increment_cascade():
    prob = _problem()
    sol, rep = picard_solve(prob, n=512, horizon=1.0)
    p = prob.params
    z = rep.L_used * 1.0 ** p.eta
    gz = math.gamma(p.zeta)
    for m, delta in enumerate(rep.deltas):
        cap = (rep.M_used * gz / rep.L_used) * z ** (m + 1) \
            / math.gamma((m + 1) * p.eta + p.zeta)
        assert delta <= cap * 1.1


def test_apriori_bounds_dominate_history():
    # w_0 is the constant start, and w_m the solve cut off after m steps
    prob = _problem()
    sol, rep = picard_solve(prob, n=512, horizon=1.0)
    w0c = prob.y_a * math.exp(-log_gamma(prob.params.zeta))
    for m in range(rep.iterations):
        iterate = (np.full_like(sol.w, w0c) if m == 0 else
                   picard_solve(prob, n=512, horizon=1.0, max_iter=m)[0].w)
        measured = np.max(np.abs(sol.w - iterate))
        assert measured <= rep.apriori_bounds[m] * 1.1


def test_truncated_solve_returns_each_iterate_of_the_full_solve():
    prob = _problem()
    p = prob.params
    sol, rep = picard_solve(prob, n=512, horizon=1.0)
    assert rep.converged and rep.iterations > 10
    op = FracIntegralOperator(sol.grid, p.eta, zeta=p.zeta)
    w0c = prob.y_a * math.exp(-log_gamma(p.zeta))
    w = np.full_like(sol.w, w0c)
    for m in range(1, rep.iterations + 1):
        w = picard_step(prob.rhs, op, w0c, w)
        cut, cut_rep = picard_solve(prob, n=512, horizon=1.0, max_iter=m)
        assert np.array_equal(cut.w, w), m
        assert cut_rep.deltas == rep.deltas[:m]
        assert cut_rep.iterations == m
    assert np.array_equal(w, sol.w)


def test_solve_evaluates_the_y_free_part_of_f_once_per_grid(monkeypatch):
    # sin(t) is evaluated once by each binding of f (the Lipschitz scan,
    # the bound M, the iteration), however many steps the iteration takes
    calls = []
    arity, sin, form, powers = _OPS["sin"]

    def counted(x):
        calls.append(np.size(x))
        return sin(x)

    monkeypatch.setitem(_OPS, "sin", (arity, counted, form, powers))
    prob = _problem(rhs="sin(t) + 0.5*y")
    counts = []
    for max_iter in (2, 10):
        calls.clear()
        _, rep = picard_solve(prob, n=64, tol=1e-300, max_iter=max_iter,
                              horizon=1.0)
        assert rep.iterations == max_iter
        counts.append(len(calls))
    assert counts == [3, 3]


def _custom_psi_problem(eta, nu, s, p, c, kappa):
    """The manufactured problem of the custom_psi_nonlinear benchmark:
    Psi(t) = t + s sin t with no inverse, and the f whose solution is
    y = c X^p, X = Psi(t)."""
    amp = c * math.gamma(p + 1.0) / math.gamma(p + 1.0 - eta)
    x = f"(t + {s!r}*sin(t))"
    rhs = f"{amp!r}*{x}^{p - eta!r} + {kappa!r}*sin(y - {c!r}*{x}^{p!r})"
    psi = make_custom_psi(lambda t: np.asarray(t, dtype=float) + s * np.sin(t),
                          lambda t: 1.0 + s * np.cos(np.asarray(t, dtype=float)),
                          (0.0, 2.0))
    return CauchyProblem(psi=psi, params=OrderParams(eta, nu), a=0.0, xi=1.0,
                         y_a=0.0, rhs=parse(rhs), k_box=1.0)


@pytest.mark.parametrize("nu", [0.4, 1.0])
def test_solve_matches_steps_over_the_unbound_rhs(nu):
    prob = _custom_psi_problem(0.5, nu, 0.25, 1.5, 1.0, 2.0)
    sol, rep = picard_solve(prob, n=512)
    op = FracIntegralOperator(sol.grid, prob.params.eta, zeta=prob.params.zeta)
    w0c = prob.y_a * math.exp(-log_gamma(prob.params.zeta))
    w = np.full_like(sol.w, w0c)
    for _ in range(rep.iterations):
        w = picard_step(prob.rhs, op, w0c, w)
    assert np.array_equal(sol.w, w)


def test_apriori_sequence_strictly_decreasing():
    seq = apriori_error_bound_sequence(1.9, 1.1, 60, OrderParams(0.6, 0.4),
                                       IDENT, 0.0, 1.0)
    assert np.all(np.diff(seq) < 0)
    assert seq[60] < 1e-12


def test_apriori_zero_forcing():
    seq = apriori_error_bound_sequence(0.0, 1.0, 10, OrderParams(0.6, 0.4),
                                       IDENT, 0.0, 1.0)
    assert np.all(seq == 0.0)


def test_apriori_reference_value():
    # M = 1, L = 1, zeta = 0.75, X = 0.5: two-term series evaluation
    val = apriori_error_bound_sequence(1.0, 1.0, 0, OrderParams(0.5, 0.5),
                                       IDENT, 0.0, 0.5)[0]
    assert abs(val - APRIORI0_REFERENCE) < 1e-12 * APRIORI0_REFERENCE


@pytest.mark.parametrize("y_a, z_a", [(1.0, math.nan), (math.inf, 1.0)])
def test_continuous_dependence_rejects_non_finite_data(y_a, z_a):
    with pytest.raises(DomainViolation, match="must be finite"):
        continuous_dependence_bound(y_a, z_a, 1.0, OrderParams(0.5, 0.5),
                                    IDENT, 0.0, 1.0)


def test_continuous_dependence_trivial_and_limit():
    p = OrderParams(0.5, 0.5)
    assert continuous_dependence_bound(1.0, 1.0, 2.0, p, IDENT, 0.0, 1.0) == 0.0
    # L -> 0: {1 + G(z) * 1/G(z)} |dy| / G(z) = 2 |dy| / G(z)
    got = continuous_dependence_bound(1.0, 1.5, 1e-300, p, IDENT, 0.0, 1.0)
    assert np.isclose(got, 2.0 * 0.5 / math.gamma(0.75), rtol=1e-10)


def test_continuous_dependence_dominates_measured_gap():
    base = _problem(y_a=1.0)
    shifted = _problem(y_a=1.1)
    sol1, _ = picard_solve(base, n=512, horizon=1.0)
    sol2, _ = picard_solve(shifted, n=512, horizon=1.0)
    measured = np.max(np.abs(sol1.w - sol2.w))
    bound = continuous_dependence_bound(1.0, 1.1, 1.0, base.params,
                                        IDENT, 0.0, 1.0)
    assert measured <= bound / 1.05


def test_fixed_point_under_one_more_step():
    prob = _problem()
    tol = 1e-10
    sol, rep = picard_solve(prob, n=256, tol=tol, horizon=1.0)
    assert rep.converged
    grid = sol.grid
    op = FracIntegralOperator(grid, prob.params.eta, zeta=prob.params.zeta)
    w0c = prob.y_a / math.gamma(prob.params.zeta)
    again = picard_step(prob.rhs, op, w0c, sol.w)
    assert np.max(np.abs(again - sol.w)) <= tol


def test_unique_limit_from_perturbed_start():
    prob = _problem()
    tol = 1e-10
    sol, rep = picard_solve(prob, n=256, tol=tol, horizon=1.0)
    grid = sol.grid
    op = FracIntegralOperator(grid, prob.params.eta, zeta=prob.params.zeta)
    w0c = prob.y_a / math.gamma(prob.params.zeta)
    w = np.full(grid.n + 1, w0c) + 0.3 * np.sin(7.0 * grid.nodes)
    w[0] = w0c
    for _ in range(200):
        w_new = picard_step(prob.rhs, op, w0c, w)
        if np.max(np.abs(w_new - w)) <= tol:
            w = w_new
            break
        w = w_new
    assert np.max(np.abs(w - sol.w)) <= 10.0 * tol


def test_residual_of_converged_solution_is_small():
    prob = _problem()
    sol, rep = picard_solve(prob, n=2048, horizon=1.0)
    assert rep.residual <= 5e-2


def test_residual_of_exact_initial_profile():
    prob = _problem(rhs="0", eta=0.5, nu=0.5)
    sol, rep = picard_solve(prob, n=2048, horizon=1.0)
    assert rep.residual <= 1e-3


def test_unconverged_iterate_has_larger_residual():
    # the increments of a stiff problem overshoot before contracting, so
    # keep the horizon short enough for full floating-point convergence
    prob = _problem(rhs="-4*y", k=5.0)
    sol_conv, rep_conv = picard_solve(prob, n=512, horizon=0.5)
    sol_one, rep_one = picard_solve(prob, n=512, horizon=0.5, max_iter=1)
    assert rep_conv.converged and not rep_one.converged
    assert rep_one.residual > rep_conv.residual


def test_domain_error_propagates_from_rhs():
    prob = _problem(rhs="ln(y)", y_a=-1.0)
    with pytest.raises(Exception) as exc_info:
        picard_solve(prob, n=64, horizon=1.0)
    assert "undefined" in str(exc_info.value)


def test_solver_rejects_coarse_grid():
    with pytest.raises(GridTooCoarse):
        picard_solve(_problem(), n=8)


@pytest.mark.parametrize("n", [1, 2])
def test_constants_need_three_panels_to_extrapolate(n):
    # zeta < 1: the composite at t = a is extrapolated from nodes 1..3
    with pytest.raises(GridTooCoarse):
        estimate_constants(_problem(eta=0.6, nu=0.4), n)


def test_a_horizon_of_xi_solves_on_the_scout_grid(monkeypatch):
    built = []
    real = picard.build_grid
    monkeypatch.setattr(picard, "build_grid",
                        lambda *args: built.append(args) or real(*args))
    prob = _problem()
    sol, _ = picard_solve(prob, n=64, horizon=prob.xi)
    assert built == [(IDENT, 0.0, 1.0, 64)]
    assert np.array_equal(sol.grid.nodes, real(IDENT, 0.0, 1.0, 64).nodes)
    built.clear()
    picard_solve(prob, n=64, horizon=0.5)
    assert built == [(IDENT, 0.0, 1.0, 64), (IDENT, 0.0, 0.5, 64)]


def test_box_exit_is_flag_not_error():
    prob = _problem(k=0.01)  # tiny trust box; the iterates leave it at once
    sol, rep = picard_solve(prob, n=64, horizon=1.0)
    assert rep.box_exit
    assert rep.converged


def test_report_records_chi_formula_and_horizon():
    prob = _problem()
    sol, rep = picard_solve(prob, n=64, horizon=1.0)
    assert rep.chi == 1.0
    assert 0.0 < rep.chi_formula <= 1.0
    sol2, rep2 = picard_solve(prob, n=64)
    assert rep2.chi == rep2.chi_formula


def test_residual_check_needs_fine_grid():
    prob = _problem()
    sol, _ = picard_solve(prob, n=64, horizon=1.0)
    with pytest.raises(GridTooCoarse):
        residual_check(prob, sol)


def test_stiff_decay_increments_contract_below_tolerance():
    # eta 0.3, nu 1 with L near 2 overshoots to increments of ~3e3 before
    # contracting; roundoff in the weighted operator must stay far enough
    # below that peak for the increments to fall under tol = 1e-10
    prob = _problem(eta=0.3, nu=1.0, rhs="-1.9825353760527153*y")
    sol, rep = picard_solve(prob, n=1024, horizon=1.0)
    assert max(rep.deltas) > 1e3
    assert rep.converged and rep.iterations <= 160, rep.deltas[-5:]


def test_collapsed_existence_interval_is_named():
    # M ~ 8e299: the existence-interval formula underflows to chi = 0
    problem = _problem(y_a=1e300)
    with pytest.raises(DomainViolation, match="chi = 0.0 from M_used = .* "
                                              "and k_box = 1.0"):
        picard_solve(problem, n=16)
    # an explicit horizon does not depend on the formula
    _, report = picard_solve(problem, n=16, horizon=1.0, max_iter=2)
    assert report.chi == 1.0 and report.chi_formula == 0.0


def test_continuous_dependence_at_zero_lipschitz_constant():
    p = OrderParams(0.5, 0.5)
    got = continuous_dependence_bound(1.0, 1.5, 0.0, p, IDENT, 0.0, 1.0)
    assert math.isclose(got, 2.0 * 0.5 / math.gamma(0.75), rel_tol=1e-14)
    with pytest.raises(DomainViolation, match="L must be nonnegative"):
        continuous_dependence_bound(1.0, 1.5, -1.0, p, IDENT, 0.0, 1.0)


@pytest.mark.parametrize("M, L", [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
def test_apriori_rejects_negative_n_max(M, L):
    # the rule of ml2_tail_sums, on every path: a float or a bool is refused
    for n_max in (-2, 2.5, True):
        with pytest.raises(DomainViolation,
                           match="n_max must be a nonnegative integer"):
            apriori_error_bound_sequence(M, L, n_max, OrderParams(0.6, 0.4),
                                         IDENT, 0.0, 1.0)


def test_apriori_is_zero_on_a_collapsed_interval():
    # X = 0: every bound is 0, also where M G(zeta) / G(eta+zeta) overflows
    for L in (0.0, 10.0):
        out = apriori_error_bound_sequence(1.4e308, L, 3, OrderParams(0.6, 0.4),
                                           IDENT, 0.0, 0.0)
        assert np.array_equal(out, np.zeros(4))


def test_l_override_replaces_the_estimate():
    prob = _problem(rhs="sin(t)*y^2")
    l_est, m_est = estimate_constants(prob, 64)
    l_over, m_over = estimate_constants(prob, 64, 2.0)
    assert l_over == 2.0 and l_est != 2.0
    scout = build_grid(IDENT, 0.0, 1.0, 64)
    slack = (2.0 - l_est) * prob.k_box * np.max(scout.x_pow(1.0 - prob.params.zeta))
    assert m_over - m_est == pytest.approx(slack, rel=1e-12)
    _, report = picard_solve(prob, n=64, L_override=2.0, horizon=0.5)
    assert report.L_used == 2.0


def test_a_long_solve_ends_unconverged_not_in_its_bound_series():
    # the a-priori tails past 10 000 iterations still converge: the report,
    # not a SeriesNotConverged, says that max_iter ended the solve
    _, report = picard_solve(_problem(), n=16, tol=1e-300, max_iter=10_000,
                             horizon=1.0)
    assert not report.converged and report.iterations == 10_000
    assert len(report.apriori_bounds) == 10_001


@pytest.mark.parametrize("cases", [
    [("identity", (), 1.0, "-1*y"), ("power", (2.0,), 1.0, "-1*y"),
     ("exp", (), math.log(2.0), "-1*y")],
    [("identity", (), 1.0, "-sqrt(t)*y"), ("power", (2.0,), 1.0, "-t*y")],
], ids=["autonomous", "time-dependent"])
def test_solve_sees_psi_only_through_its_node_times(cases):
    # the same X range gives the same Psi-uniform nodes, so the discrete
    # solve is bit-identical; identity with f(u) is power(2) with f(sqrt t)
    solutions = []
    for kind, params, b, rhs in cases:
        prob = CauchyProblem(psi=make_psi(kind, params, (0.0, b)),
                             params=OrderParams(0.6, 0.4), a=0.0, xi=b,
                             y_a=1.0, rhs=parse(rhs), k_box=1.0)
        solutions.append(picard_solve(prob, n=256, horizon=b)[0].w)
    for w in solutions[1:]:
        assert np.array_equal(w, solutions[0])
