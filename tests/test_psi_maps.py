import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from psihilfer import (DomainViolation, NonMonotone, build_grid,
                       make_custom_psi, make_psi, psi_from_config,
                       psi_increment)
from psihilfer.psi_maps import roundtrip_error


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
    assert roundtrip_error(psi, np.linspace(-1, 1, 100)) < 1e-12


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


def test_custom_bisection_inverse():
    psi = make_custom_psi(lambda t: np.asarray(t) ** 3 + np.asarray(t),
                          lambda t: 3.0 * np.asarray(t) ** 2 + 1.0,
                          (0.0, 2.0))
    for t in (0.1, 0.77, 1.5, 2.0):
        assert abs(psi.inverse(psi.value(t)) - t) < 1e-12


def _cubic_psi(domain=(0.0, 2.0)):
    return make_custom_psi(lambda t: np.asarray(t, dtype=float) ** 3 + t,
                           lambda t: 3.0 * np.asarray(t, dtype=float) ** 2 + 1.0,
                           domain)


def _sine_psi(s):
    return make_custom_psi(lambda t: np.asarray(t, dtype=float) + s * np.sin(t),
                           lambda t: 1.0 + s * np.cos(np.asarray(t, dtype=float)),
                           (0.0, 2.0))


def _reference_inverse(eval_fn, lo, hi, targets):
    """The per-node scalar bisection the vectorised inverse must reproduce."""
    out = np.empty(len(targets))
    for idx, target in enumerate(targets):
        a, b = lo, hi
        if eval_fn(a) - target > 0 or eval_fn(b) - target < 0:
            raise DomainViolation(f"inverse target {target!r} outside range")
        while b - a > 1e-13:
            mid = 0.5 * (a + b)
            if eval_fn(mid) - target <= 0:
                a = mid
            else:
                b = mid
        out[idx] = 0.5 * (a + b)
    return out


# On [0, 2] every bracket halves exactly and all targets stop at the same
# step; a width of 2^44 * 1e-13 puts the stop between steps 44 and 45, so
# targets stop at different steps depending on rounding.
@pytest.mark.parametrize("make", [
    lambda: _sine_psi(0.1), lambda: _sine_psi(0.4), _cubic_psi,
    lambda: _cubic_psi((0.5, 0.5 + 1e-13 * 2.0 ** 44)),
], ids=["sin0.1", "sin0.4", "cubic", "cubic-ragged-stop"])
@pytest.mark.parametrize("n", [1, 2, 17, 512, 4096])
def test_custom_grid_bit_identical_to_scalar_bisection(make, n):
    psi = make()
    lo, hi = psi.domain
    u0, u1 = float(psi.value(lo)), float(psi.value(hi))
    h = (u1 - u0) / n
    ref = np.concatenate(([lo], _reference_inverse(
        psi.value, lo, hi, u0 + np.arange(1, n) * h), [hi]))
    assert np.array_equal(build_grid(psi, lo, hi, n).nodes, ref)
    ends = np.array([psi.value(lo), psi.value(hi)], dtype=float)
    assert np.array_equal(psi.inverse(ends), _reference_inverse(psi.value, lo, hi, ends))


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
    assert roundtrip_error(psi, ts) <= 1e-12


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
