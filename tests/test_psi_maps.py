import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from psihilfer import (DomainViolation, NonMonotone, build_grid,
                       make_custom_psi, make_psi, psi_from_config,
                       psi_increment)
from psihilfer import psi_maps


def _roundtrip_error(psi, ts):
    # max relative error of inverse(value(t)) over the given points
    back = np.asarray(psi.inverse(psi.value(ts)), dtype=float)
    return float(np.max(np.abs(back - ts) / np.maximum(1.0, np.abs(ts))))


def test_identity_values():
    psi = make_psi("identity", (), (0.0, 1.0))
    assert psi.value(0.5) == 0.5
    assert psi.deriv(0.5) == 1.0


def test_power_square_and_sqrt():
    psi = make_psi("power", (2.0,), (0.0, 1.0))
    assert psi.value(0.5) == 0.25
    assert psi.inverse(0.25) == 0.5


def test_log_map_values():
    psi = make_psi("log", (), (1.0, math.e))
    assert np.isclose(psi.value(math.e), 1.0, rtol=1e-15)
    assert np.isclose(psi.deriv(1.0), 1.0, rtol=1e-15)


def test_exp_map_roundtrip():
    psi = make_psi("exp", (), (-1.0, 1.0))
    assert _roundtrip_error(psi, np.linspace(-1, 1, 100)) < 1e-12


def test_log_requires_positive_start():
    with pytest.raises(DomainViolation):
        make_psi("log", (), (0.0, 1.0))
    with pytest.raises(DomainViolation):
        make_psi("log", (), (-1.0, 1.0))


def test_power_requires_positive_exponent():
    with pytest.raises(DomainViolation):
        make_psi("power", (-1.0,), (0.0, 1.0))
    with pytest.raises(DomainViolation):
        make_psi("power", (), (0.0, 1.0))


def test_power_requires_nonnegative_domain():
    with pytest.raises(DomainViolation, match="nonnegative domain"):
        make_psi("power", (2.0,), (-1.0, 1.0))


def test_empty_domain_rejected():
    with pytest.raises(DomainViolation):
        make_psi("identity", (), (1.0, 1.0))


@pytest.mark.parametrize("domain", [(0.0, math.inf), (-math.inf, 1.0),
                                    (0.0, math.nan), (math.nan, 1.0)])
def test_non_finite_domain_rejected(domain):
    with pytest.raises(DomainViolation):
        make_psi("identity", (), domain)
    with pytest.raises(DomainViolation):
        make_custom_psi(lambda t: t, lambda t: np.ones_like(t), domain)


@pytest.mark.parametrize("kind,params", [("identity", (2.0,)), ("log", (1.0,)),
                                         ("exp", (1.0,)), ("power", (2.0, 3.0)),
                                         ("sinh", ())])
def test_only_power_takes_a_parameter(kind, params):
    with pytest.raises(DomainViolation):
        make_psi(kind, params, (1.0, 2.0))


@pytest.mark.parametrize("kind,params,domain", [("exp", (), (0.0, 1000.0)),
                                               ("power", (2000.0,), (0.0, 2.0))])
def test_overflowing_map_rejected_without_warning(kind, params, domain):
    with pytest.raises(NonMonotone):
        make_psi(kind, params, domain)


def test_custom_decreasing_rejected():
    with pytest.raises(NonMonotone):
        make_custom_psi(lambda t: -np.asarray(t), lambda t: -np.ones_like(np.asarray(t)),
                        (0.0, 1.0))
    # a positive derivative does not hide values that decrease
    with pytest.raises(NonMonotone,
                       match="sampled transform values are not strictly increasing"):
        make_custom_psi(lambda t: -np.asarray(t, dtype=float),
                        lambda t: np.ones_like(np.asarray(t, dtype=float)),
                        (0.0, 1.0))


def test_custom_bisection_inverse():
    psi = make_custom_psi(lambda t: np.asarray(t) ** 3 + np.asarray(t),
                          lambda t: 3.0 * np.asarray(t) ** 2 + 1.0,
                          (0.0, 2.0))
    for t in (0.1, 0.77, 1.5, 2.0):
        assert abs(psi.inverse(psi.value(t)) - t) < 1e-12


def _as_float(t):
    return np.asarray(t, dtype=float)


def _cubic_psi(domain=(0.0, 2.0)):
    return make_custom_psi(lambda t: np.asarray(t, dtype=float) ** 3 + t,
                           lambda t: 3.0 * np.asarray(t, dtype=float) ** 2 + 1.0,
                           domain)


def _sine_psi(s):
    return make_custom_psi(lambda t: np.asarray(t, dtype=float) + s * np.sin(t),
                           lambda t: 1.0 + s * np.cos(np.asarray(t, dtype=float)),
                           (0.0, 2.0))


def _sqrt_psi():
    # Newton from the secant guess overshoots below 0 for the targets
    # under 2^-1.5, where the derivative is infinite: they take the bisection
    builtin = make_psi("power", (0.5,), (0.0, 2.0))
    return make_custom_psi(builtin.value, builtin.deriv, (0.0, 2.0))


def _quintic_psi():
    # the secant guess is far from the root, so Newton's steps fail to
    # halve for some targets, which take the bisection
    return make_custom_psi(lambda t: _as_float(t) + _as_float(t) ** 5,
                           lambda t: 1.0 + 5.0 * _as_float(t) ** 4, (0.0, 3.0))


GRID_MAPS = [lambda: _sine_psi(0.1), lambda: _sine_psi(0.4), _cubic_psi,
             lambda: _cubic_psi((0.5, 0.5 + 1e-13 * 2.0 ** 44)), _sqrt_psi,
             _quintic_psi]
GRID_MAP_IDS = ["sin0.1", "sin0.4", "cubic", "cubic-ragged-stop", "sqrt-fallback",
                "quintic-fallback"]


# Targets converge at different steps, so a converged entry must stay
# frozen while the others iterate: the vectorised grid is bit-identical to
# the inverse called on each node as a scalar, on the Newton path and on
# the bisection that nodes failing the certificate take.  The name dates
# from the bisection inverse; the ids are kept so that runs before and
# after the Newton inverse compare case by case.  Closeness to the root is
# checked by the mpmath test below.
@pytest.mark.parametrize("make", GRID_MAPS, ids=GRID_MAP_IDS)
@pytest.mark.parametrize("n", [1, 2, 17, 512, 4096])
def test_custom_grid_bit_identical_to_scalar_bisection(make, n):
    psi = make()
    lo, hi = psi.domain
    u0, u1 = float(psi.value(lo)), float(psi.value(hi))
    targets = u0 + np.arange(1, n) * ((u1 - u0) / n)
    nodes = build_grid(psi, lo, hi, n).nodes
    scalar = [psi.inverse(float(u)) for u in targets]
    assert np.array_equal(nodes, np.concatenate(([lo], scalar, [hi])))
    ends = np.array([psi.value(lo), psi.value(hi)], dtype=float)
    assert psi.inverse(ends).tolist() == [psi.inverse(ends[0]), psi.inverse(ends[1])]


@pytest.mark.parametrize("make", GRID_MAPS, ids=GRID_MAP_IDS)
@pytest.mark.parametrize("n", [1, 2, 17, 512, 4096])
def test_custom_grid_nodes_certified_by_a_sign_change(make, n):
    # each node is within max(5e-14, 1 ulp) of a sign change of Psi(t) - u
    psi = make()
    lo, hi = psi.domain
    u0, u1 = float(psi.value(lo)), float(psi.value(hi))
    targets = u0 + np.arange(1, n) * ((u1 - u0) / n)
    nodes = build_grid(psi, lo, hi, n).nodes[1:-1]
    d = np.maximum(5e-14, np.spacing(nodes))
    assert np.all(psi.value(np.maximum(nodes - d, lo)) - targets <= 0)
    assert np.all(psi.value(np.minimum(nodes + d, hi)) - targets >= 0)


@pytest.mark.parametrize("make,mp_value", [
    (lambda: _sine_psi(0.1), lambda mp, t: t + 0.1 * mp.sin(t)),
    (lambda: _sine_psi(0.4), lambda mp, t: t + 0.4 * mp.sin(t)),
    (_cubic_psi, lambda mp, t: t ** 3 + t),
    (lambda: _cubic_psi((0.5, 0.5 + 1e-13 * 2.0 ** 44)), lambda mp, t: t ** 3 + t),
], ids=["sin0.1", "sin0.4", "cubic", "cubic-shifted"])
@pytest.mark.parametrize("n", [1, 2, 17, 512, 4096])
def test_custom_grid_nodes_within_1e13_of_mpmath_root(make, mp_value, n):
    mpmath = pytest.importorskip("mpmath")
    psi = make()
    lo, hi = psi.domain
    u0, u1 = float(psi.value(lo)), float(psi.value(hi))
    h = (u1 - u0) / n
    nodes = build_grid(psi, lo, hi, n).nodes
    assert nodes[0] == lo and nodes[-1] == hi
    with mpmath.workdps(30):
        for node, target in zip(nodes[1:-1], u0 + np.arange(1, n) * h):
            u = mpmath.mpf(float(target))
            root = mpmath.findroot(lambda t: mp_value(mpmath, t) - u, mpmath.mpf(float(node)))
            assert abs(root - node) <= 1e-13
    ends = np.array([psi.value(lo), psi.value(hi)], dtype=float)
    assert psi.inverse(ends).tolist() == [lo, hi]
    assert psi.inverse(ends[0]) == lo and psi.inverse(ends[1]) == hi


@pytest.mark.parametrize("rho", [2.0, 0.5])
@pytest.mark.parametrize("n", [1, 2, 17, 512, 4096])
def test_custom_grid_matches_closed_form_power_nodes(rho, n):
    # the built-in power map inverts in closed form; wrapped as a custom
    # map without an inverse it must give the same nodes to rounding
    builtin = make_psi("power", (rho,), (0.0, 2.0))
    custom = make_custom_psi(builtin.value, builtin.deriv, (0.0, 2.0))
    exact = build_grid(builtin, 0.0, 2.0, n).nodes
    nodes = build_grid(custom, 0.0, 2.0, n).nodes
    assert np.all(np.abs(nodes - exact) <= 1e-15 * np.maximum(1.0, np.abs(exact)))


def _counted(fn):
    def counted(t):
        counted.calls += 1
        return fn(t)
    counted.calls = 0
    return counted


def _sine_deriv(t):
    return 1.0 + 0.4 * np.cos(np.asarray(t, dtype=float))


@pytest.mark.parametrize("deriv_fn", [
    lambda t: 1e6 * _sine_deriv(t), lambda t: 1e-3 * _sine_deriv(t),
    lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    lambda t: -_sine_deriv(t),
    lambda t: np.full_like(np.asarray(t, dtype=float), np.nan),
    lambda t: np.full_like(np.asarray(t, dtype=float), np.inf),
], ids=["x1e6", "x1e-3", "zero", "negated", "nan", "inf"])
def test_custom_inverse_survives_a_wrong_derivative(deriv_fn):
    eval_fn = _counted(lambda t: np.asarray(t, dtype=float) + 0.4 * np.sin(t))
    inverse = psi_maps._bracketed_inverse(eval_fn, deriv_fn, (0.0, 2.0))
    u1 = float(eval_fn(2.0))
    targets = np.arange(1, 512) * (u1 / 512)
    eval_fn.calls = 0
    nodes = inverse(targets)
    assert eval_fn.calls <= 100
    # every node is within 1e-13 of a sign change of Psi(t) - u
    assert np.all(eval_fn(np.maximum(nodes - 1e-13, 0.0)) - targets <= 0)
    assert np.all(eval_fn(np.minimum(nodes + 1e-13, 2.0)) - targets >= 0)


# Psi(t) - u is exactly 0 on many doubles around each root: 4.8e-6 wide at
# the flat point t = 1 of (t - 1)^3 + 1 (the n = 2 node is inverse(1.0)),
# 2.2e-10 wide for a slope of 1e-6 at u ~ 1 and 1.2e-10 for t + 1e6.  A
# Newton step of zero there ends the iteration; the certificate or the
# bisection must still place each node in few calls.
@pytest.mark.parametrize("eval_fn,deriv_fn,domain", [
    (lambda t: (_as_float(t) - 1.0) ** 3 + 1.0,
     lambda t: 3.0 * (_as_float(t) - 1.0) ** 2, (0.0, 2.0)),
    (lambda t: 1.0 + 1e-6 * _as_float(t),
     lambda t: np.full_like(_as_float(t), 1e-6), (0.0, 1.0)),
    (lambda t: _as_float(t) + 1e6, lambda t: np.ones_like(_as_float(t)), (0.0, 1.0)),
], ids=["flat-point", "small-slope", "offset"])
@pytest.mark.parametrize("n", [2, 512])
def test_custom_grid_crosses_a_flat_residual_in_few_calls(eval_fn, deriv_fn, domain, n):
    eval_fn = _counted(eval_fn)
    psi = make_custom_psi(eval_fn, deriv_fn, domain)
    lo, hi = domain
    u0, u1 = float(eval_fn(lo)), float(eval_fn(hi))
    targets = u0 + np.arange(1, n) * ((u1 - u0) / n)
    eval_fn.calls = 0
    nodes = build_grid(psi, lo, hi, n).nodes[1:-1]
    assert eval_fn.calls <= 100
    assert np.all(eval_fn(np.maximum(nodes - 1e-13, lo)) - targets <= 0)
    assert np.all(eval_fn(np.minimum(nodes + 1e-13, hi)) - targets >= 0)


def test_custom_grid_takes_few_calls_with_the_true_derivative():
    eval_fn = _counted(lambda t: np.asarray(t, dtype=float) + 0.4 * np.sin(t))
    psi = make_custom_psi(eval_fn, _sine_deriv, (0.0, 2.0))
    eval_fn.calls = 0
    build_grid(psi, 0.0, 1.0, 4096)
    assert eval_fn.calls <= 12


@pytest.mark.parametrize("lo", [300.0, 600.0, -601.0])
def test_custom_grid_keeps_newton_speed_on_a_far_domain(lo):
    # from |t| = 256 on one ulp exceeds 5e-14, and the certificate probes
    # one ulp away
    eval_fn = _counted(lambda t: np.asarray(t, dtype=float) + 0.4 * np.sin(t))
    psi = make_custom_psi(eval_fn, _sine_deriv, (lo, lo + 1.0))
    eval_fn.calls = 0
    build_grid(psi, lo, lo + 1.0, 512)
    assert eval_fn.calls <= 16


@pytest.mark.parametrize("lo", [600.0, -601.0])
def test_custom_inverse_ends_where_doubles_are_coarser_than_1e13(lo):
    # from |t| = 512 on one ulp exceeds 1e-13, so a node can only be within
    # one ulp of its root
    eval_fn = _counted(_as_float)
    psi = make_custom_psi(eval_fn, lambda t: np.ones_like(_as_float(t)),
                          (lo, lo + 1.0))
    eval_fn.calls = 0
    assert abs(psi.inverse(lo + 0.5) - (lo + 0.5)) <= np.spacing(abs(lo + 0.5))
    assert eval_fn.calls <= 64
    eval_fn.calls = 0
    nodes = build_grid(psi, lo, lo + 1.0, 510).nodes
    assert eval_fn.calls <= 64
    # Psi is the identity: each node is within one ulp of its target
    targets = lo + np.arange(1, 510) * (1.0 / 510)
    assert np.all(np.abs(nodes[1:-1] - targets) <= np.spacing(np.abs(targets)))


def test_custom_inverse_is_vectorised():
    calls = 0

    def eval_fn(t):
        nonlocal calls
        calls += 1
        return np.asarray(t, dtype=float) + 0.4 * np.sin(t)

    psi = make_custom_psi(eval_fn, lambda t: 1.0 + 0.4 * np.cos(t), (0.0, 2.0))
    calls = 0
    build_grid(psi, 0.0, 1.0, 4096)
    assert calls < 100


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_custom_inverse_rejects_nonfinite_target(target):
    psi = _cubic_psi()
    with pytest.raises(DomainViolation):
        psi.inverse(target)
    with pytest.raises(DomainViolation):
        psi.inverse(np.array([1.0, target, 2.0]))


def test_custom_inverse_names_target_outside_range():
    psi = _cubic_psi()
    with pytest.raises(DomainViolation, match="10.5"):
        psi.inverse(np.array([1.0, 10.5]))
    with pytest.raises(DomainViolation, match="-0.25"):
        psi.inverse(-0.25)


def test_custom_inverse_keeps_input_shape():
    psi = _cubic_psi()
    ts = np.linspace(0.1, 1.9, 6).reshape(2, 3)
    back = psi.inverse(psi.value(ts))
    assert back.shape == (2, 3)
    assert np.array_equal(back.ravel(), psi.inverse(psi.value(ts).ravel()))
    assert np.max(np.abs(back - ts)) < 1e-12
    assert isinstance(psi.inverse(psi.value(0.5)), float)
    assert psi.inverse(np.array([0.3])).shape == (1,)
    assert psi.inverse(np.empty(0)).shape == (0,)
    assert psi.inverse(np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("kind,params,domain", [
    ("identity", (), (0.0, 1.0)),
    ("power", (2.0,), (0.0, 1.0)),
    ("power", (0.5,), (0.0, 4.0)),
    ("log", (), (1.0, math.e)),
    ("exp", (), (-1.0, 1.0)),
])
def test_roundtrip_1000_points(kind, params, domain):
    psi = make_psi(kind, params, domain)
    rng = np.random.default_rng(20240131)
    ts = domain[0] + rng.random(1000) * (domain[1] - domain[0])
    assert _roundtrip_error(psi, ts) <= 1e-12


@pytest.mark.parametrize("kind,params,domain", [
    ("identity", (), (0.0, 1.0)),
    ("power", (2.0,), (0.1, 1.0)),
    ("log", (), (1.0, math.e)),
    ("exp", (), (-1.0, 1.0)),
])
def test_derivative_matches_finite_difference(kind, params, domain):
    psi = make_psi(kind, params, domain)
    h = 1e-5
    ts = np.linspace(domain[0] + 2 * h, domain[1] - 2 * h, 17)
    fd = (np.asarray(psi.value(ts + h)) - np.asarray(psi.value(ts - h))) / (2 * h)
    exact = np.asarray(psi.deriv(ts), dtype=float)
    assert np.max(np.abs(fd - exact)) < 50.0 * h ** 2


def test_increment_examples():
    assert psi_increment(make_psi("identity", (), (0.0, 1.0)), 0.0, 1.0) == 1.0
    assert psi_increment(make_psi("power", (2.0,), (0.0, 1.0)), 0.0, 0.5) == 0.25
    assert np.isclose(psi_increment(make_psi("log", (), (1.0, math.e)), 1.0, math.e),
                      1.0, rtol=1e-15)


def test_increment_zero_at_left_end():
    psi = make_psi("exp", (), (0.0, 1.0))
    assert psi_increment(psi, 0.3, 0.3) == 0.0


def test_increment_rejects_reversed_and_outside():
    psi = make_psi("identity", (), (0.0, 1.0))
    with pytest.raises(DomainViolation):
        psi_increment(psi, 0.5, 0.2)
    with pytest.raises(DomainViolation):
        psi_increment(psi, 0.0, 2.0)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_increment_monotone_in_upper_limit(u1, u2, u3):
    a, s, t = sorted((u1, u2, u3))
    psi = make_psi("power", (2.0,), (0.0, 1.0))
    assert psi_increment(psi, a, t) >= psi_increment(psi, a, s)


def test_config_roundtrip():
    # the config's rho and domain reach the built power map
    psi = psi_from_config({"kind": "power", "rho": 3.0, "domain": [0.0, 2.0]})
    assert psi.kind == "power" and psi.domain == (0.0, 2.0)
    ts = np.array([0.0, 0.5, 1.0, 2.0])
    assert np.array_equal(psi.value(ts), ts ** 3.0)
    assert np.array_equal(psi.deriv(ts), 3.0 * ts ** 2.0)
    assert np.allclose(psi.inverse(ts ** 3.0), ts, rtol=1e-15, atol=0.0)


def test_config_rejects_incomplete():
    with pytest.raises(DomainViolation):
        psi_from_config({"kind": "identity"})


@pytest.mark.parametrize("cfg", [
    "identity", ["identity"], {"kind": 1, "domain": [0, 1]},
    {"kind": "identity", "domain": 1}, {"kind": "identity", "domain": [0]},
    {"kind": "identity", "domain": [0, "a"]},
    {"kind": "identity", "domain": [False, True]},
    {"kind": "power", "rho": "2", "domain": [0, 1]},
    {"kind": "identity", "rho": 2.0, "domain": [0, 1]},
    {"kind": "power", "domain": [0, 1]},
])
def test_config_rejects_malformed_object(cfg):
    with pytest.raises(DomainViolation):
        psi_from_config(cfg)
