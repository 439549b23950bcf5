import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import erfc

from psihilfer import (DomainViolation, MLSeriesParams, OverflowGuard,
                       ParamViolation, kilbas_saigo, ks_coefficients,
                       log_gamma, mittag_leffler2)
from psihilfer.special_fn import ks_array, ml2_array, ml2_tail_sums

# ln Gamma at the classical check points, 30-digit values
LN_SQRT_PI = 0.5723649429247000870717136757
LN_24 = 3.1780538303479456196469416013


def test_log_gamma_examples():
    assert log_gamma(1.0) == 0.0
    assert abs(log_gamma(0.5) - LN_SQRT_PI) < 1e-13
    assert abs(log_gamma(5.0) - LN_24) < 1e-13 * LN_24


def test_log_gamma_rejects_nonpositive():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(DomainViolation):
            log_gamma(bad)


def test_ml_exponential_case():
    res = mittag_leffler2(1.0, 1.0, 1.0)
    assert res.converged
    assert abs(res.value - math.e) < 1e-13 * math.e


def test_ml_sinh_identity():
    # E[2,2](z) = sinh(sqrt z)/sqrt z, so E[2,2](1) = sinh(1)
    res = mittag_leffler2(2.0, 2.0, 1.0)
    assert abs(res.value - math.sinh(1.0)) < 1e-13 * math.sinh(1.0)


def test_ml_matches_brute_force_summation():
    # direct 200-term sums with per-term Gamma evaluation, bypassing the
    # incremental ratio machinery entirely
    for eta, nu, z in [(2.0, 2.0, 1.0), (0.5, 1.0, 1.0), (0.7, 1.3, -0.8)]:
        brute = sum(z ** k * math.exp(-math.lgamma(k * eta + nu))
                    for k in range(200))
        got = mittag_leffler2(eta, nu, z).value
        assert abs(got - brute) <= 1e-12 * max(1.0, abs(brute))


def test_ml_half_order_erfc_identity():
    # E[1/2,1](z) = exp(z^2) erfc(-z); independent of the series route
    expected = math.exp(1.0) * erfc(-1.0)
    res = mittag_leffler2(0.5, 1.0, 1.0)
    assert abs(res.value - expected) < 1e-12 * expected


def test_ml_alternating_matches_exp_on_grid():
    for z in np.linspace(-5.0, 5.0, 41):
        res = mittag_leffler2(1.0, 1.0, float(z))
        assert abs(res.value - math.exp(z)) <= 1e-12 * math.exp(z)


def test_ml_at_zero_is_reciprocal_gamma():
    for eta, nu in [(0.3, 0.4), (0.5, 1.0), (0.9, 2.5), (1.0, 1.0)]:
        res = mittag_leffler2(eta, nu, 0.0)
        assert res.value == math.exp(-log_gamma(nu))
        assert res.converged and res.truncation_estimate == 0.0


def test_ml_rejects_bad_orders():
    with pytest.raises(DomainViolation):
        mittag_leffler2(0.0, 1.0, 1.0)
    with pytest.raises(DomainViolation):
        mittag_leffler2(1.0, -1.0, 1.0)


def test_ml_overflow_guard():
    with pytest.raises(OverflowGuard):
        mittag_leffler2(0.2, 1.0, 1e9)


def test_ml_not_converged_flag():
    res = mittag_leffler2(0.5, 1.0, 30.0, MLSeriesParams(rel_tol=1e-12, max_terms=5))
    assert not res.converged
    assert res.terms_used == 5


def test_truncation_estimate_bounds_first_omitted_term():
    policy = MLSeriesParams()
    for z in (0.5, 2.0, -1.0):
        res = mittag_leffler2(0.7, 1.3, z, policy)
        assert res.converged
        assert res.truncation_estimate <= policy.rel_tol * max(1.0, abs(res.value))


@given(st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_ml_monotone_growth_nonnegative_argument(z1, z2):
    lo, hi = sorted((z1, z2))
    a = mittag_leffler2(0.6, 0.8, lo).value
    b = mittag_leffler2(0.6, 0.8, hi).value
    assert b >= a - 1e-12 * abs(a)


def test_ks_empty_product_at_zero():
    for eta, m, l in [(0.4, 1.2, 0.3), (1.0, 1.0, 0.0), (0.7, 2.0, -0.1)]:
        res = kilbas_saigo(eta, m, l, 0.0)
        assert res.value == 1.0


def test_ks_reduces_to_two_parameter_family():
    # with m=1, l=0 the coefficient product telescopes to 1/Gamma(k*eta+1)
    for eta in (0.3, 0.5, 0.8):
        for z in (-1.0, 0.5, 2.0):
            a = kilbas_saigo(eta, 1.0, 0.0, z).value
            b = mittag_leffler2(eta, 1.0, z).value
            assert abs(a - b) <= 1e-12 * abs(b)


def test_ks_reduction_full_grid_integer_order():
    for z in np.linspace(-5.0, 5.0, 50):
        a = kilbas_saigo(1.0, 1.0, 0.0, float(z)).value
        b = mittag_leffler2(1.0, 1.0, float(z)).value
        assert abs(a - b) <= 1e-12 * max(1e-300, abs(b))


def test_ks_coefficients_telescope():
    for eta in (0.3, 0.5, 0.8):
        got = ks_coefficients(eta, 1.0, 0.0, 20)
        expected = np.array([math.exp(-log_gamma(k * eta + 1.0)) for k in range(21)])
        assert np.max(np.abs(got - expected) / expected) < 1e-12


def test_ks_c2_hand_value():
    # c_2 = [G(1)/G(1.5)] * [G(1.5)/G(2)] = 1/G(2) = 1
    c = ks_coefficients(0.5, 1.0, 0.0, 2)
    assert abs(c[2] - 1.0) < 1e-14


def test_ks_rejects_nonpositive_gamma_argument():
    # eta*(0*m + l) + 1 = -0.5 on the very first factor
    with pytest.raises(ParamViolation):
        kilbas_saigo(1.0, 1.0, -1.5, 1.0)


def test_array_evaluators_match_scalars():
    zs = np.linspace(-1.5, 2.5, 17)
    arr = ml2_array(0.6, 0.76, zs)
    ref = np.array([mittag_leffler2(0.6, 0.76, float(z)).value for z in zs])
    assert np.max(np.abs(arr - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12
    arr = ks_array(0.6, 1.5, 0.2, zs)
    ref = np.array([kilbas_saigo(0.6, 1.5, 0.2, float(z)).value for z in zs])
    assert np.max(np.abs(arr - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12


def test_tail_sums_decrease_and_match_series():
    eta, nu, z = 0.6, 0.76, 1.1
    tails = ml2_tail_sums(eta, nu, z, 60)
    assert np.all(np.diff(tails) < 0)
    total = mittag_leffler2(eta, nu, z).value
    partial = sum(z ** k * math.exp(-log_gamma(k * eta + nu)) for k in range(11))
    assert abs(tails[10] - (total - partial)) < 1e-11


def _mp_mittag_leffler(mpmath, eta, nu, z):
    # plain series at 40 digits: no cancellation trouble on this range
    with mpmath.workdps(40):
        z = mpmath.mpf(z)
        total, k = mpmath.mpf(0), 0
        while True:
            term = z ** k * mpmath.rgamma(k * mpmath.mpf(eta) + nu)
            total += term
            if k > 10 and abs(term) < mpmath.mpf(10) ** -35 * max(1, abs(total)):
                return float(total)
            k += 1


ML_ORACLE_CASES = (
    [(eta, nu, np.linspace(-2.5, 5.0, 16))
     for eta in (0.5, 0.6, 0.9, 1.0) for nu in (0.4, 0.76, 1.0, 1.7)]
    + [(0.3, nu, np.linspace(-1.5, 2.5, 9)) for nu in (0.4, 0.76, 1.0, 1.7)])


@pytest.mark.parametrize("eta,nu,zs", ML_ORACLE_CASES)
def test_ml_scalar_and_array_match_mpmath(eta, nu, zs):
    mpmath = pytest.importorskip("mpmath")
    ref = np.array([_mp_mittag_leffler(mpmath, eta, nu, float(z)) for z in zs])
    scalar = np.array([mittag_leffler2(eta, nu, float(z)).value for z in zs])
    for got in (scalar, ml2_array(eta, nu, zs)):
        err = np.abs(got - ref)
        ok = (err <= 1e-11 * np.abs(ref)) | ((np.abs(ref) < 1e-2) & (err <= 1e-11))
        assert ok.all(), (eta, nu, zs[~ok], err[~ok])


@pytest.mark.parametrize("eta,m,l", [(0.6, 1.5, 0.2), (0.5, 1.0, 0.0),
                                     (0.9, 1.2, -0.4), (0.4, 2.0, 0.7)])
def test_ks_coefficient_partial_sums_match_series(eta, m, l):
    c = ks_coefficients(eta, m, l, 60)
    for z in (-1.0, 0.5, 1.5):
        partial = sum(ck * z ** k for k, ck in enumerate(c))
        value = kilbas_saigo(eta, m, l, z).value
        assert abs(partial - value) <= 1e-11 * abs(value)
