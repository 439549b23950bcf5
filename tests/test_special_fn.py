import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import erfc

from psihilfer import (DomainViolation, MLSeriesParams, OrderParams,
                       OverflowGuard, ParamViolation, SeriesNotConverged,
                       continuous_dependence_bound, gronwall_bound,
                       kilbas_saigo, ks_coefficients, log_gamma, make_psi,
                       mittag_leffler2)
from psihilfer.frac_ops import _abel_kernels
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


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_non_finite_argument_rejected(z):
    with pytest.raises(DomainViolation):
        mittag_leffler2(0.5, 1.0, z)
    with pytest.raises(DomainViolation):
        kilbas_saigo(0.5, 1.0, 0.0, z)


NON_FINITE_PARAMETERS = {
    "ml-eta-inf": lambda: mittag_leffler2(math.inf, 1.0, 1.0),
    "ml-nu-inf": lambda: mittag_leffler2(1.0, math.inf, 1.0),
    "ks-m-inf": lambda: kilbas_saigo(0.5, math.inf, 0.0, 1.0),
    "ks-l-nan": lambda: kilbas_saigo(0.5, 1.0, math.nan, 1.0),
    "coefficients-l-nan": lambda: ks_coefficients(0.5, 1.0, math.nan, 3),
    "tails-z-inf": lambda: ml2_tail_sums(0.5, 1.0, math.inf, 3),
    "ml-array-z-nan": lambda: ml2_array(0.5, 1.0, np.array([1.0, math.nan])),
    "ks-array-z-inf": lambda: ks_array(0.5, 1.0, 0.0, np.array([math.inf])),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_PARAMETERS))
def test_non_finite_parameters_rejected(case):
    # one check serves every evaluator: no OverflowError, no series overflow
    with pytest.raises(DomainViolation, match="must be finite"):
        NON_FINITE_PARAMETERS[case]()


def test_series_params_reject_nan_tolerance():
    with pytest.raises(ParamViolation):
        MLSeriesParams(rel_tol=math.nan)


@pytest.mark.parametrize("max_terms", [1e4, 2.5, np.float64(10.0), True, False, 0, -3,
                                       np.int64(0)])
def test_series_params_need_an_integer_term_count(max_terms):
    with pytest.raises(ParamViolation, match="max_terms"):
        MLSeriesParams(max_terms=max_terms)


@pytest.mark.parametrize("max_terms", [1, 7, np.int64(7), np.int32(7)])
def test_series_params_accept_python_and_numpy_integers(max_terms):
    res = mittag_leffler2(0.5, 1.0, 30.0, MLSeriesParams(max_terms=max_terms))
    assert res.terms_used == max_terms


def test_ml_overflow_guard():
    with pytest.raises(OverflowGuard):
        mittag_leffler2(0.2, 1.0, 1e9)


@pytest.mark.parametrize("z", [[1.0, 1e6], [-1e6, 2.0], [1e300, 1.0], [1e308]])
def test_array_overflow_guard_without_runtime_warning(z):
    # a term step that leaves the double range must surface as
    # OverflowGuard; any RuntimeWarning is an error under the test config
    with pytest.raises(OverflowGuard):
        ml2_array(0.6, 0.76, np.array(z))
    with pytest.raises(OverflowGuard):
        ks_array(0.6, 1.0, 0.5, np.array(z))


def test_ml_not_converged_flag():
    res = mittag_leffler2(0.5, 1.0, 30.0, MLSeriesParams(rel_tol=1e-12, max_terms=5))
    assert not res.converged
    assert res.terms_used == 5


# E[1e-3, 1](0.9999) is 2011.300463 (30 digits) and needs far more than
# 10 000 terms: the scalar evaluator flags it, and the sums that report no
# flag raise instead of returning 2011.300422, as do the two certificates
# built on them
@pytest.mark.parametrize("evaluate", [
    lambda: ml2_array(1e-3, 1.0, np.array([0.5, 0.9999])),
    lambda: ks_array(1e-3, 1.0, 0.0, np.array([0.9999])),
    lambda: ml2_tail_sums(1e-3, 1.0, 0.9999, 5),
    lambda: _abel_kernels(1e-3, 8, np.full(9, 0.9999)),
    lambda: continuous_dependence_bound(1.0, 1.1, 0.9999, OrderParams(1e-3, 1.0),
                                        make_psi("identity", (), (0.0, 1.0)),
                                        0.0, 1.0),
    lambda: gronwall_bound(make_psi("identity", (), (0.0, 1.0)), 1e-3, 0.0, 1.0,
                           1.0, 0.9999 / math.gamma(1e-3)),
], ids=["ml2_array", "ks_array", "ml2_tail_sums", "resolvent-moments",
        "continuous_dependence_bound", "gronwall_bound"])
def test_unconverged_sum_without_a_flag_raises(evaluate):
    assert not mittag_leffler2(1e-3, 1.0, 0.9999).converged
    with pytest.raises(SeriesNotConverged, match="within 10000 terms"):
        evaluate()


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


@pytest.mark.parametrize("count", [-1, -2, -5, 2.5, 3.0, True, np.float64(2.0)])
def test_ks_coefficients_need_a_nonnegative_integer_count(count):
    with pytest.raises(DomainViolation, match="count"):
        ks_coefficients(0.5, 1.0, 0.0, count)


def test_ks_coefficients_take_numpy_integer_counts():
    assert ks_coefficients(0.5, 1.0, 0.0, np.int64(3)).tolist() == \
        ks_coefficients(0.5, 1.0, 0.0, 3).tolist()
    assert ks_coefficients(0.5, 1.0, 0.0, 0).tolist() == [1.0]


@pytest.mark.parametrize("n_max", [-1, 2.5, 3.0, True, False, np.float64(2.0)])
def test_tail_sums_need_a_nonnegative_integer_n_max(n_max):
    with pytest.raises(DomainViolation, match="n_max"):
        ml2_tail_sums(0.5, 1.0, 0.5, n_max)


def test_tail_sums_need_a_nonnegative_argument():
    with pytest.raises(DomainViolation, match="z >= 0"):
        ml2_tail_sums(0.5, 1.0, -0.5, 3)


def test_tail_sums_take_numpy_integer_n_max():
    assert ml2_tail_sums(0.5, 1.0, 0.5, np.int64(3)).tolist() == \
        ml2_tail_sums(0.5, 1.0, 0.5, 3).tolist()
    assert len(ml2_tail_sums(0.5, 1.0, 0.5, 0)) == 1


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


def test_tail_sums_run_past_the_policy_term_count():
    # the term stream has no bound of its own: tails to n_max = 20 000 reach
    # past 10 000 terms and start with the same blocks as a short call
    long = ml2_tail_sums(0.6, 0.8, 1.0, 20_000)
    assert len(long) == 20_001
    assert np.array_equal(long[:51], ml2_tail_sums(0.6, 0.8, 1.0, 50))


def _mp_tail_sums(mpmath, eta, nu, z, n_max):
    # T[n_max] as a plain 50-digit series, summed until a term is below
    # 1e-45 of the tail, then T[m - 1] = T[m] + t_m down to m = 1
    with mpmath.workdps(50):
        eta, nu, z = mpmath.mpf(eta), mpmath.mpf(nu), mpmath.mpf(z)
        term = lambda k: z ** k * mpmath.rgamma(k * eta + nu)
        tail, k = mpmath.mpf(0), n_max + 1
        while True:
            tail += term(k)
            if term(k) < mpmath.mpf(10) ** -45 * tail:
                break
            k += 1
        tails = [tail]
        for m in range(n_max, 0, -1):
            tails.append(tails[-1] + term(m))
        return tails[::-1]


@pytest.mark.parametrize("eta,nu,z,n_max", [(1.0, 1.0, 0.5, 150), (0.9, 0.94, 0.8, 180),
                                            (0.6, 0.76, 2.0, 220), (0.5, 1.0, 1.5, 260)])
def test_tail_sums_match_mpmath_down_to_the_smallest_normal(eta, nu, z, n_max):
    # the deepest tails of these rows reach the bottom of the double range,
    # where only a stop rule relative to the tail keeps them accurate
    mpmath = pytest.importorskip("mpmath")
    ref = _mp_tail_sums(mpmath, eta, nu, z, n_max)
    got = ml2_tail_sums(eta, nu, z, n_max)
    for m, (g, r) in enumerate(zip(got, ref)):
        if r >= np.finfo(float).tiny:
            assert abs(g - r) <= 1e-11 * r, (m, g, float(r))


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
