import math

import numpy as np
import pytest

from psihilfer import (DomainViolation, LinearProblem, OrderParams, ParamViolation,
                       hilfer_derivative, ks_coefficients, make_psi,
                       mittag_leffler2, parse, solve_constant, solve_variable,
                       variable_series_params)
from psihilfer.frac_ops import _abel_kernels
from psihilfer.special_fn import ml2_array

IDENT = make_psi("identity", (), (0.0, 1.0))
PARAMS = OrderParams(0.6, 0.4)


def test_zero_coefficient_zero_forcing_is_initial_profile():
    prob = LinearProblem(psi=IDENT, params=PARAMS, a=0.0, b=1.0, y_a=2.0,
                         lam=0.0)
    sol = solve_constant(prob, 64)
    assert np.allclose(sol.w, 2.0 / math.gamma(PARAMS.zeta), rtol=1e-14)


def test_homogeneous_decay_profile():
    prob = LinearProblem(psi=IDENT, params=PARAMS, a=0.0, b=1.0, y_a=1.0,
                         lam=-1.0)
    sol = solve_constant(prob, 512)
    ref = np.array([mittag_leffler2(0.6, 0.76, -t ** 0.6).value
                    for t in sol.grid.nodes])
    assert np.max(np.abs(sol.w - ref)) < 1e-12


def test_classical_ode_limit():
    params = OrderParams(1.0, 1.0)
    for lam in (-2.0, 0.7):
        prob = LinearProblem(psi=IDENT, params=params, a=0.0, b=1.0, y_a=1.3,
                             lam=lam)
        sol = solve_constant(prob, 256)
        exact = 1.3 * np.exp(lam * sol.grid.nodes)
        assert np.max(np.abs(sol.w - exact)) < 1e-6


def test_forcing_against_iterated_oracle():
    # lambda = 0 turns the forcing convolution into the plain fractional
    # integral, for which the monomial closed form is exact
    prob = LinearProblem(psi=IDENT, params=PARAMS, a=0.0, b=1.0, y_a=0.0,
                         lam=0.0, forcing=parse("1"))
    sol = solve_constant(prob, 1024)
    x = sol.grid.x
    exact = x ** PARAMS.eta / math.gamma(PARAMS.eta + 1.0)
    w_exact = sol.grid.x_pow(1.0 - PARAMS.zeta) * exact
    assert np.max(np.abs(sol.w - w_exact)) < 1e-4


def test_forcing_superposition():
    mk = lambda f: LinearProblem(psi=IDENT, params=PARAMS, a=0.0, b=1.0,
                                 y_a=0.7, lam=-0.5, forcing=parse(f))
    both = solve_constant(mk("sin(t) + cos(2*t)"), 256)
    f1 = solve_constant(mk("sin(t)"), 256)
    f2 = solve_constant(mk("cos(2*t)"), 256)
    homog = solve_constant(LinearProblem(psi=IDENT, params=PARAMS, a=0.0,
                                         b=1.0, y_a=0.7, lam=-0.5), 256)
    recombined = f1.w + f2.w - homog.w
    assert np.max(np.abs(both.w - recombined)) < 1e-12


@pytest.mark.parametrize("n", [8, 64, 1024, 4096])
@pytest.mark.parametrize("lam", [-3.0, -1.0, 0.0, 0.5, 2.0])
@pytest.mark.parametrize("eta,nu", [(0.3, 1.0), (0.5, 0.5), (0.6, 0.4), (0.9, 0.0)])
def test_forcing_matches_direct_product_sum(eta, nu, lam, n):
    # the forcing convolution runs by FFT; the reference sums the same
    # product rule directly, with f(a) != 0
    params = OrderParams(eta, nu)
    forcing = parse("1 + t + cos(3*t)")
    sol = solve_constant(LinearProblem(psi=IDENT, params=params, a=0.0, b=1.0,
                                       y_a=1.0, lam=lam, forcing=forcing), n)
    grid = sol.grid
    cl, cr = _abel_kernels(eta, n, lam * grid.x ** eta)
    fv = forcing.eval_many(grid.nodes, np.zeros(n + 1))
    direct = np.zeros(n + 1)
    direct[1:] = np.convolve(fv, cl)[:n] + np.convolve(fv[1:], cr)[:n]
    ref = (ml2_array(eta, params.zeta, lam * grid.x ** eta)
           + grid.x_pow(1.0 - params.zeta) * grid.h ** eta / math.gamma(eta)
           * direct)
    assert np.max(np.abs(sol.w - ref)) <= 1e-13 * np.max(np.abs(ref))


ORDERS = {0.3: 1.0, 0.5: 0.5, 0.6: 0.4, 0.9: 0.0}


@pytest.mark.parametrize("eta,lam", [(0.3, lam) for lam in (-1.0, 0.0, 0.5, 1.0)]
                         + [(eta, lam) for eta in (0.5, 0.6)
                            for lam in (-2.0, -1.0, 0.0, 0.5, 1.0)]
                         + [(0.9, lam) for lam in (-4.0, -1.0, 0.0, 1.0)])
def test_affine_forcing_is_integrated_exactly(eta, lam):
    # the product rule integrates the resolvent kernel exactly against
    # linear pieces, so f = t^deg (deg 0, 1) leaves only rounding:
    # y = X^(eta+deg) E[eta, eta+1+deg](lam X^eta) for y_a = 0, checked
    # at the 65 nodes the two grids share
    mpmath = pytest.importorskip("mpmath")
    from test_special_fn import _mp_mittag_leffler
    params = OrderParams(eta, ORDERS[eta])
    x = np.arange(65) / 64.0
    for deg, text in ((0, "1"), (1, "t")):
        ref = np.array([xi ** (1.0 - params.zeta + eta + deg) * _mp_mittag_leffler(
            mpmath, eta, eta + 1.0 + deg, lam * xi ** eta) for xi in x])
        for n in (64, 1024):
            sol = solve_constant(LinearProblem(
                psi=IDENT, params=params, a=0.0, b=1.0, y_a=0.0, lam=lam,
                forcing=parse(text)), n)
            err = np.max(np.abs(sol.w[::n // 64] - ref))
            assert err <= 1e-12, (text, n, err)


@pytest.mark.parametrize("eta,nu,lam", [(0.3, 1.0, -1.0), (0.5, 0.5, -1.0),
                                        (0.6, 0.4, -2.0), (0.9, 0.0, -3.0)])
def test_smooth_forcing_converges_at_second_order(eta, nu, lam):
    def solve(n):
        return solve_constant(LinearProblem(
            psi=IDENT, params=OrderParams(eta, nu), a=0.0, b=1.0, y_a=0.0,
            lam=lam, forcing=parse("sin(t)")), n).w
    fine = solve(16384)
    errs = [np.max(np.abs(solve(n) - fine[::16384 // n])) for n in (256, 512, 1024)]
    rates = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(rates >= 1.9), rates


def test_constant_coefficient_residual():
    lam = -1.0
    prob = LinearProblem(psi=IDENT, params=PARAMS, a=0.0, b=1.0, y_a=1.0,
                         lam=lam, forcing=parse("cos(t)"))
    n = 2048
    sol = solve_constant(prob, n)
    deriv = hilfer_derivative(PARAMS, sol)
    grid = sol.grid
    y_plain = sol.w[1:n] * grid.x_pow(PARAMS.zeta - 1.0)[1:n]
    rhs = lam * y_plain + np.cos(grid.nodes[1:n])
    xw = grid.x_pow(1.0 - PARAMS.zeta)[1:n]
    resid = np.abs(deriv - rhs) * xw
    assert np.max(resid[n // 16:]) <= 5e-2


def test_variable_series_params():
    m, l = variable_series_params(PARAMS, 1.0)
    assert np.isclose(m, 1.0, rtol=1e-15)
    assert np.isclose(l, (PARAMS.zeta - 1.0) / PARAMS.eta, rtol=1e-12)


def test_variable_coefficient_first_product_factor():
    # the k = 1 coefficient must equal G(mu+zeta-1)/G(eta+mu+zeta-1)
    mu = 1.3
    m, l = variable_series_params(PARAMS, mu)
    c = ks_coefficients(PARAMS.eta, m, l, 1)
    expected = math.gamma(mu + PARAMS.zeta - 1.0) \
        / math.gamma(PARAMS.eta + mu + PARAMS.zeta - 1.0)
    assert abs(c[1] - expected) < 1e-14


def test_variable_reduces_to_constant_at_unit_exponent():
    base = LinearProblem(psi=IDENT, params=PARAMS, a=0.0, b=1.0, y_a=1.0,
                         lam=-1.0)
    varp = LinearProblem(psi=IDENT, params=PARAMS, a=0.0, b=1.0, y_a=1.0,
                         lam=-1.0, mu=1.0)
    wc = solve_constant(base, 512)
    wv = solve_variable(varp, 512)
    assert np.max(np.abs(wv.w - wc.w) / np.abs(wc.w)) < 1e-10


def test_variable_zero_coefficient():
    prob = LinearProblem(psi=IDENT, params=PARAMS, a=0.0, b=1.0, y_a=1.0,
                         lam=0.0, mu=1.4)
    sol = solve_variable(prob, 64)
    assert np.allclose(sol.w, 1.0 / math.gamma(PARAMS.zeta), rtol=1e-14)


def test_variable_requires_admissible_exponent():
    with pytest.raises(ParamViolation):
        LinearProblem(psi=IDENT, params=OrderParams(0.5, 0.5), a=0.0, b=1.0,
                      y_a=1.0, lam=1.0, mu=0.2)


def test_variable_mode_rejects_forcing():
    with pytest.raises(ParamViolation):
        LinearProblem(psi=IDENT, params=PARAMS, a=0.0, b=1.0, y_a=1.0,
                      lam=1.0, mu=1.2, forcing=parse("t"))


def test_forcing_must_not_depend_on_y():
    with pytest.raises(ParamViolation):
        LinearProblem(psi=IDENT, params=PARAMS, a=0.0, b=1.0, y_a=1.0,
                      lam=1.0, forcing=parse("y"))


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.75, 0.25)])
def test_problem_needs_a_below_b(a, b):
    with pytest.raises(DomainViolation, match="need a < b"):
        LinearProblem(psi=IDENT, params=PARAMS, a=a, b=b, y_a=1.0, lam=1.0)


def test_each_solver_takes_only_its_own_problem_class():
    constant = LinearProblem(psi=IDENT, params=PARAMS, a=0.0, b=1.0, y_a=1.0,
                             lam=1.0)
    variable = LinearProblem(psi=IDENT, params=PARAMS, a=0.0, b=1.0, y_a=1.0,
                             lam=1.0, mu=1.2)
    with pytest.raises(ParamViolation, match="use solve_variable"):
        solve_constant(variable, 64)
    with pytest.raises(ParamViolation, match="needs mu"):
        solve_variable(constant, 64)


def test_maps_agree_on_transformed_profile():
    # all three maps share X(t) in [0, 1], so weighted profiles coincide
    psi_p = make_psi("power", (2.0,), (0.0, 1.0))
    psi_l = make_psi("log", (), (1.0, math.e))
    sols = []
    for psi, a, b in ((IDENT, 0.0, 1.0), (psi_p, 0.0, 1.0), (psi_l, 1.0, math.e)):
        prob = LinearProblem(psi=psi, params=PARAMS, a=a, b=b, y_a=1.0, lam=-1.0)
        sols.append(solve_constant(prob, 128).w)
    assert np.max(np.abs(sols[0] - sols[1])) < 1e-12
    assert np.max(np.abs(sols[0] - sols[2])) < 1e-12
