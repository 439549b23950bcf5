import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psihilfer import (DomainViolation, FracIntegralOperator, GridMismatch,
                       GridTooCoarse, OrderParams, OverflowGuard,
                       WeightedGridFunction, build_grid, gronwall_bound,
                       hilfer_derivative, make_psi, monomial_oracle)
from psihilfer.frac_ops import _abel_kernels

G_15_OVER_G_2 = 0.8862269254527580137  # Gamma(1.5)/Gamma(2) = sqrt(pi)/2
INV_G_15 = 1.1283791670955125739      # 1/Gamma(1.5) = 2/sqrt(pi)

IDENT = make_psi("identity", (), (0.0, 1.0))


def test_order_params_zeta():
    p = OrderParams(0.5, 0.5)
    assert p.zeta == 0.75
    assert OrderParams(0.6, 0.0).zeta == 0.6
    assert OrderParams(0.6, 1.0).zeta == 1.0


def test_order_params_validation():
    with pytest.raises(DomainViolation):
        OrderParams(1.5, 0.5)
    with pytest.raises(DomainViolation):
        OrderParams(0.5, -0.1)
    with pytest.raises(DomainViolation,
                       match=r"eta must lie .*, got 1.5; nu must lie .*, got 2.0"):
        OrderParams(1.5, 2.0)


def test_non_finite_order_rejected():
    grid = build_grid(IDENT, 0.0, 1.0, 8)
    with pytest.raises(DomainViolation, match="eta must be finite"):
        FracIntegralOperator(grid, math.inf)
    with pytest.raises(DomainViolation, match="eta must be finite"):
        monomial_oracle(IDENT, math.inf, 1.0, 0.0, 0.5)


def test_grid_is_uniform_in_transform():
    psi = make_psi("power", (2.0,), (0.0, 1.0))
    grid = build_grid(psi, 0.0, 1.0, 64)
    u = np.asarray(psi.value(grid.nodes), dtype=float)
    assert np.allclose(np.diff(u), grid.h, rtol=1e-12)
    assert np.all(np.diff(grid.nodes) > 0)
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0


def test_monomial_oracle_values():
    assert abs(monomial_oracle(IDENT, 0.5, 1.5, 0.0, 1.0) - G_15_OVER_G_2) < 1e-12
    assert monomial_oracle(IDENT, 0.5, 1.5, 0.0, 0.0) == 0.0
    psi2 = make_psi("power", (2.0,), (0.0, 1.0))
    assert abs(monomial_oracle(psi2, 0.5, 1.0, 0.0, 1.0) - INV_G_15) < 1e-12


def test_plain_integral_matches_oracle_at_endpoint():
    grid = build_grid(IDENT, 0.0, 1.0, 1024)
    vals = FracIntegralOperator(grid, 0.5).apply_plain(np.sqrt(grid.nodes))
    assert abs(vals[-1] - G_15_OVER_G_2) < 1e-4 * G_15_OVER_G_2


def test_plain_integral_order_one_is_running_integral():
    grid = build_grid(IDENT, 0.0, 1.0, 128)
    vals = FracIntegralOperator(grid, 1.0).apply_plain(np.ones(129))
    assert np.allclose(vals, grid.nodes, atol=1e-14)


def test_log_map_monomial():
    psi = make_psi("log", (), (1.0, math.e))
    grid = build_grid(psi, 1.0, math.e, 1024)
    h = np.sqrt(np.log(grid.nodes))
    vals = FracIntegralOperator(grid, 0.5).apply_plain(h)
    assert abs(vals[-1] - G_15_OVER_G_2) < 1e-4 * G_15_OVER_G_2


def test_weighted_integral_exact_on_monomials():
    # the endpoint power times a constant is integrated in closed form, so
    # a constant weighted profile must reproduce the closed form to roundoff
    for eta, delta in [(0.3, 0.7), (0.5, 0.75), (0.9, 0.51), (0.4, 2.5)]:
        grid = build_grid(IDENT, 0.0, 1.0, 256)
        out = FracIntegralOperator(grid, eta, delta).apply_weighted(np.ones(257))
        plain = out[1:] * grid.x_pow(delta - 1.0)[1:]
        exact = monomial_oracle(IDENT, eta, delta, 0.0, grid.nodes[1:])
        assert np.max(np.abs(plain - exact) / np.abs(exact)) < 1e-12


def _weighted_integral_of_power(eta, zeta, k, x):
    """Weighted form X^(1-zeta) I^eta[X^(zeta-1) X^k] from the closed form."""
    return x ** (1.0 - zeta) * monomial_oracle(IDENT, eta, zeta + k, 0.0, x)


@pytest.mark.parametrize("profile", ["square", "cos3_plus_square"])
@pytest.mark.parametrize("eta,zeta", [(0.1, 0.1), (0.3, 0.76), (0.6, 0.5),
                                      (0.9, 1.0), (0.5, 2.5)])
def test_weighted_integral_converges_on_non_affine_profiles(profile, eta, zeta):
    # cos 3u is expanded in its Taylor series, each power integrated in
    # closed form; the error is measured away from the endpoint layer
    def exact(x):
        total = _weighted_integral_of_power(eta, zeta, 2.0, x)
        if profile == "cos3_plus_square":
            for k in range(25):
                total = total + ((-9.0) ** k / math.factorial(2 * k)
                                 * _weighted_integral_of_power(eta, zeta, 2.0 * k, x))
        return total

    errs = []
    for n in (256, 512, 1024):
        grid = build_grid(IDENT, 0.0, 1.0, n)
        x = grid.x
        w = x ** 2 if profile == "square" else np.cos(3.0 * x) + x ** 2
        out = FracIntegralOperator(grid, eta, zeta).apply_weighted(w)
        errs.append(np.max(np.abs(out[n // 16:] - exact(x[n // 16:]))))
    assert errs[0] / errs[1] >= 2.0 and errs[1] / errs[2] >= 2.0, errs
    assert errs[2] < 1e-6, errs


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
       st.floats(0.05, 1.0, exclude_min=True))
def test_weighted_equivalent_weights_are_nonnegative(eta, zeta):
    # column m of the equivalent matrix is the image of the m-th unit vector
    grid = build_grid(IDENT, 0.0, 1.0, 64)
    op = FracIntegralOperator(grid, eta, zeta=zeta)
    weights = np.array([op.apply_weighted(e) for e in np.eye(65)]).T
    scale = np.max(np.abs(weights))
    assert np.all(np.tril(weights) >= 0.0)
    # causal: no node depends on later samples beyond FFT roundoff
    assert np.max(np.abs(np.triu(weights, 1))) <= 1e-14 * scale


@pytest.mark.parametrize("eta,zeta", [(0.3, 1.0), (0.3, 0.3), (0.1, 0.5)])
def test_weighted_linearity_to_roundoff_on_steep_layers(eta, zeta):
    # w = 1 + 50 X^eta has first-panel slope ~ 50 h^(eta-1), up to 2.6e4;
    # the FFT must not round a ramp of that size, or Picard increments
    # stall at the rounding noise instead of contracting
    grid = build_grid(IDENT, 0.0, 1.0, 1024)
    op = FracIntegralOperator(grid, eta, zeta=zeta)
    big = 1.0 + 50.0 * grid.x ** eta
    small = 1e-6 * np.cos(7.0 * grid.x)
    defect = (op.apply_weighted(big + small) - op.apply_weighted(big)
              - op.apply_weighted(small))
    assert np.max(np.abs(defect)) <= 1e-14 * np.max(np.abs(big))


def test_weighted_operator_memory_is_linear_in_n():
    # the small size runs first, so an operator with quadratic state
    # fails there instead of attempting a 34 GB table at n = 2^16
    for n, budget in ((1024, 1 << 20), (1 << 16, 64 << 20)):
        grid = build_grid(IDENT, 0.0, 1.0, n)
        w = np.cos(3.0 * grid.x)
        tracemalloc.start()
        try:
            op = FracIntegralOperator(grid, 0.6, zeta=0.76)
            out = op.apply_weighted(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(out))
        assert peak < budget, (n, peak)


def test_weighted_integral_zero_at_left_endpoint():
    grid = build_grid(IDENT, 0.0, 1.0, 64)
    out = FracIntegralOperator(grid, 0.5, 0.75).apply_weighted(np.cos(grid.nodes))
    assert out[0] == 0.0


def direct_product_rule(g, cl, cr):
    """Reference product-rule sums by direct O(n^2) summation:
    out[j] = sum over the panels left of node j of
    cl(d) * g(left end) + cr(d) * g(right end)."""
    n = len(cl)
    out = np.zeros(n + 1)
    out[1:] = np.convolve(g, cl)[:n] + np.convolve(g[1:], cr)[:n]
    return out


@pytest.mark.parametrize("n", [1, 2, 17, 1000, 4096])
@pytest.mark.parametrize("eta", [0.05, 0.3, 0.5, 1.0, 1.7])
def test_plain_apply_matches_direct_sum(eta, n):
    # the FFT product rule against the direct sum, on samples that do
    # not vanish at t = a, with no smoothness (of one sign and of both,
    # where the sums cancel) and with a steep layer
    rng = np.random.default_rng(n)
    for psi, a, b in ((IDENT, 0.0, 1.0), (make_psi("log", (), (1.0, 3.0)), 1.0, 3.0)):
        grid = build_grid(psi, a, b, n)
        cl, cr = _abel_kernels(eta, n)
        scale = grid.h ** eta / math.gamma(eta)
        op = FracIntegralOperator(grid, eta)
        unit = FracIntegralOperator(grid, eta, zeta=1.0)
        for g in (rng.random(n + 1), rng.standard_normal(n + 1),
                  np.exp(5.0 * grid.x), 1.0 + 50.0 * grid.x ** 0.3):
            direct = scale * direct_product_rule(g, cl, cr)
            tol = 1e-11 * np.max(np.abs(direct))
            assert np.max(np.abs(op.apply_plain(g) - direct)) <= tol
            # at zeta = 1 the weighted map is the same arithmetic
            assert np.max(np.abs(unit.apply_weighted(g) - direct)) <= tol
            assert np.array_equal(unit.apply_weighted(g), op.apply_plain(g))


def test_to_plain_with_zero_weighted_start_is_warning_free():
    # X^(zeta-1) is inf at t = a; 0 * inf there would warn (an error
    # under the test configuration) before node 0 is overwritten
    grid = build_grid(IDENT, 0.0, 1.0, 64)
    w = np.sin(grid.x)
    y = WeightedGridFunction(grid, 0.76, w).to_plain()
    assert np.isnan(y[0])
    assert np.array_equal(y[1:], w[1:] * grid.x_pow(-0.24)[1:])


def test_plain_rejects_nonfinite_samples():
    grid = build_grid(IDENT, 0.0, 1.0, 32)
    bad = np.ones(33)
    bad[0] = np.inf
    with pytest.raises(DomainViolation):
        FracIntegralOperator(grid, 0.5).apply_plain(bad)


def test_plain_needs_unit_zeta():
    grid = build_grid(IDENT, 0.0, 1.0, 32)
    with pytest.raises(GridMismatch):
        FracIntegralOperator(grid, 0.5, zeta=0.75).apply_plain(np.ones(33))


def test_plain_checks_length_before_finiteness():
    grid = build_grid(IDENT, 0.0, 1.0, 32)
    with pytest.raises(GridMismatch):
        FracIntegralOperator(grid, 0.5).apply_plain(np.full(40, np.nan))


def test_weighted_rejects_wrong_grid():
    grid = build_grid(IDENT, 0.0, 1.0, 32)
    other = build_grid(IDENT, 0.0, 1.0, 64)
    wgf = WeightedGridFunction(other, 0.75, np.ones(65))
    with pytest.raises(GridMismatch):
        FracIntegralOperator(grid, 0.5, 0.75).apply_weighted(wgf.w)


def test_semigroup_composition():
    grid = build_grid(IDENT, 0.0, 1.0, 1024)
    g = np.sin(grid.nodes)
    first = FracIntegralOperator(grid, 0.4).apply_plain(g)
    chained = FracIntegralOperator(grid, 0.3).apply_plain(first)
    direct = FracIntegralOperator(grid, 0.7).apply_plain(g)
    assert np.max(np.abs(chained - direct)) <= 1e-3 * np.max(np.abs(direct))


def test_linearity_to_roundoff():
    grid = build_grid(IDENT, 0.0, 1.0, 128)
    op = FracIntegralOperator(grid, 0.6)
    h1 = np.sin(grid.nodes)
    h2 = np.exp(grid.nodes)
    combo = op.apply_plain(2.5 * h1 - 1.25 * h2)
    split = 2.5 * op.apply_plain(h1) - 1.25 * op.apply_plain(h2)
    assert np.max(np.abs(combo - split)) < 1e-12


def test_positivity_preserved():
    grid = build_grid(IDENT, 0.0, 1.0, 128)
    rng = np.random.default_rng(7)
    g = rng.random(129)
    assert np.all(FracIntegralOperator(grid, 0.35).apply_plain(g) >= 0.0)
    w = rng.random(129)
    assert np.all(FracIntegralOperator(grid, 0.35, 0.6).apply_weighted(w) >= 0.0)


def test_convergence_order_at_least_one():
    errs = []
    for n in (256, 512, 1024):
        grid = build_grid(IDENT, 0.0, 1.0, n)
        vals = FracIntegralOperator(grid, 0.5).apply_plain(np.sqrt(grid.nodes))
        exact = monomial_oracle(IDENT, 0.5, 1.5, 0.0, 1.0)
        errs.append(abs(vals[-1] - exact))
    assert errs[0] / errs[1] >= 2.0
    assert errs[1] / errs[2] >= 2.0


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.55, 2.95))
def test_oracle_equivalence_random_orders(eta, delta):
    grid = build_grid(IDENT, 0.0, 1.0, 256)
    out = FracIntegralOperator(grid, eta, delta).apply_weighted(np.ones(257))
    plain = out[1:] * grid.x_pow(delta - 1.0)[1:]
    exact = monomial_oracle(IDENT, eta, delta, 0.0, grid.nodes[1:])
    assert np.max(np.abs(plain - exact) / np.abs(exact)) < 1e-10


def test_weighted_plain_roundtrip():
    grid = build_grid(IDENT, 0.0, 1.0, 64)
    zeta = 0.75
    w_true = 1.0 + 0.5 * np.sin(3.0 * grid.nodes)
    y = w_true * grid.x_pow(zeta - 1.0)
    # y is infinite at t = a; w[0] carries the limit of the weighted profile
    w = np.append(w_true[0], y[1:] * grid.x_pow(1 - zeta)[1:])
    wgf = WeightedGridFunction(grid, zeta, w)
    assert np.allclose(wgf.w[1:], w_true[1:], rtol=1e-12)
    back = wgf.to_plain()
    assert np.isnan(back[0])
    assert np.allclose(back[1:], y[1:], rtol=1e-12)


def test_weighted_norm_examples():
    grid = build_grid(IDENT, 0.0, 1.0, 2)
    # weighting the initial monomial profile cancels it exactly
    w0 = 1.7 / math.gamma(0.75)
    wgf = WeightedGridFunction(grid, 0.75, np.full(3, w0))
    assert wgf.weighted_norm() == w0
    assert WeightedGridFunction(grid, 0.75, [1.0, -3.0, 2.0]).weighted_norm() == 3.0


def test_hilfer_kills_the_weight_monomial():
    params = OrderParams(0.6, 0.4)
    grid = build_grid(IDENT, 0.0, 1.0, 2048)
    wgf = WeightedGridFunction(grid, params.zeta, np.ones(2049))
    deriv = hilfer_derivative(params, wgf)
    assert np.max(np.abs(deriv)) < 1e-3


def test_hilfer_caputo_type_of_linear_function():
    params = OrderParams(0.5, 1.0)
    grid = build_grid(IDENT, 0.0, 1.0, 2048)
    wgf = WeightedGridFunction(grid, 1.0, grid.nodes.copy())
    deriv = hilfer_derivative(params, wgf)
    expected = grid.nodes[1:-1] ** 0.5 * INV_G_15
    rel = np.abs(deriv - expected) / np.abs(expected)
    assert np.max(rel) < 1e-3


def test_hilfer_inverts_the_integral_on_smooth_input():
    params = OrderParams(0.6, 0.4)
    n = 2048
    grid = build_grid(IDENT, 0.0, 1.0, n)
    f = np.cos(2.0 * grid.nodes) + 0.5
    integ = FracIntegralOperator(grid, params.eta).apply_plain(f)
    wgf = WeightedGridFunction(grid, params.zeta,
                               integ * grid.x_pow(1 - params.zeta))
    deriv = hilfer_derivative(params, wgf)
    xw = grid.x_pow(1.0 - params.zeta)[1:n]
    err = np.abs(deriv - f[1:n]) * xw
    scale = np.max(np.abs(f[1:n] * xw))
    # differencing amplifies the startup layer; certify away from the
    # endpoint, consistent with the residual convention
    assert np.max(err[n // 16:]) <= 2e-3 * scale


def test_hilfer_requires_enough_nodes():
    params = OrderParams(0.5, 0.5)
    grid = build_grid(IDENT, 0.0, 1.0, 4)
    wgf = WeightedGridFunction(grid, params.zeta, np.ones(5))
    with pytest.raises(GridTooCoarse):
        hilfer_derivative(params, wgf)


GRID32 = build_grid(IDENT, 0.0, 1.0, 32)


@pytest.mark.parametrize("call,error,match", [
    (lambda: build_grid(IDENT, 0.0, 1.0, 0), GridTooCoarse, "at least one panel"),
    (lambda: build_grid(IDENT, 0.5, 0.5, 8), DomainViolation, "need a < b"),
    (lambda: build_grid(IDENT, 0.75, 0.25, 8), DomainViolation, "need a < b"),
    # an interval two ulps wide cannot hold 7 distinct inner nodes
    (lambda: build_grid(make_psi("identity", (), (0.0, 2.0)), 1.0, 1.0 + 4e-16, 8),
     DomainViolation, "grid nodes are not strictly increasing"),
    (lambda: FracIntegralOperator(
        build_grid(make_psi("identity", (), (0.0, 1e12)), 0.0, 1e12, 1), 30.0),
     OverflowGuard, "order-30.0 weights on this grid exceed"),
    (lambda: WeightedGridFunction(GRID32, 0.75, np.ones(32)), GridMismatch,
     "expected 33 samples"),
    (lambda: WeightedGridFunction(GRID32, 0.75, np.full(33, np.nan)),
     DomainViolation, "must be finite"),
    (lambda: hilfer_derivative(OrderParams(0.5, 0.5),
                               WeightedGridFunction(GRID32, 0.5, np.ones(33))),
     GridMismatch, "expected 0.75"),
    (lambda: gronwall_bound(IDENT, 0.7, 0.0, 1.0, -1.0, 1.0), DomainViolation,
     "nonnegative"),
    (lambda: gronwall_bound(IDENT, 0.7, 0.0, 1.0, 1.0, -1.0), DomainViolation,
     "nonnegative"),
    # X^eta = (1e300)^5 is past the double range before the series starts
    (lambda: gronwall_bound(make_psi("identity", (), (0.0, 1e300)), 5.0, 0.0,
                            1e300, 1.0, 1.0),
     OverflowGuard, r"^the series argument g\*Gamma\(eta\)\*X\^eta = .* exceeds"),
], ids=["grid-n-0", "grid-a-equals-b", "grid-a-above-b",
        "grid-nodes-coincide", "operator-scale-overflows", "samples-short",
        "samples-nan", "hilfer-zeta-mismatch", "gronwall-negative-v",
        "gronwall-negative-g", "gronwall-argument-overflows"])
def test_malformed_arguments_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_gronwall_trivial_cases():
    assert gronwall_bound(IDENT, 0.7, 0.0, 1.0, 0.0, 5.0) == 0.0
    assert np.isclose(gronwall_bound(IDENT, 0.7, 0.0, 1.0, 2.0, 0.0), 2.0,
                      rtol=1e-12)
    # g = 0 makes the series argument 0 even where X^eta is past the double range
    assert gronwall_bound(make_psi("identity", (), (0.0, 1e300)), 5.0, 0.0, 1e300,
                          2.0, 0.0) == 2.0


def test_gronwall_classical_exponential_limit():
    val = gronwall_bound(IDENT, 1.0, 0.0, 1.0, 1.0, 1.0)
    assert abs(val - math.e) < 1e-12 * math.e


def test_gronwall_dominates_truncated_resolvent():
    # u = v0 * three-term resolvent series satisfies the inequality with
    # nonnegative slack (the omitted tail), by the closed-form moment rule
    eta, v0, g0 = 0.6, 0.7, 1.3
    grid = build_grid(IDENT, 0.0, 1.0, 129)
    geta = math.gamma(eta)
    u = np.zeros(grid.n + 1)
    for k in range(3):
        u += v0 * (g0 * geta) ** k * grid.x ** (k * eta) / math.gamma(k * eta + 1.0)
    bounds = np.array([gronwall_bound(IDENT, eta, 0.0, float(t), v0, g0)
                       for t in grid.nodes])
    assert np.all(u <= bounds + 1e-14)
