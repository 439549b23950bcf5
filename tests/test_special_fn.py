import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import erfc

from psihilfer import (DomainViolation, MLSeriesParams, OrderParams,
                       OverflowGuard, ParamViolation, PsiHilferError,
                       SeriesNotConverged,
                       continuous_dependence_bound, gronwall_bound,
                       kilbas_saigo, ks_coefficients, log_gamma, make_psi,
                       mittag_leffler2)
from psihilfer.frac_ops import _abel_kernels
from psihilfer.special_fn import (_HUGE, SeriesResult, _gamma_ratios, _ml_blocks,
                                  _sum_to_tolerance, ks_array, ml2_array,
                                  ml2_tail_sums)

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


def test_series_past_the_double_range_reads_only_finite_gamma_arguments():
    # eta*(j*m + l) + 1 is finite for j <= 8 only: the first ratio block
    # keeps those nine arguments, and only a term that needs j = 9 raises
    assert ks_coefficients(1.0, 2e307, 0.0, 5).tolist() == \
        [1.0, 1.0, 5.000000000000001e-308, 0.0, 0.0, 0.0]
    assert kilbas_saigo(1.0, 2e307, 0.0, 1e-300) == SeriesResult(1.0, 4, 0.0, True)
    assert ks_coefficients(1.0, 2e307, 0.0, 9)[-1] == 0.0
    with pytest.raises(OverflowGuard, match="^a Gamma argument of the series "
                                            "exceeds the floating-point range$"):
        ks_coefficients(1.0, 2e307, 0.0, 10)


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


# one call per evaluator; the ml and ks rows share (eta, nu) and (eta, m, l),
# so a warm memo hands each the blocks another one computed
MEMO_CALLS = {
    "mittag_leffler2": lambda: mittag_leffler2(0.6, 0.76, -3.5),
    "kilbas_saigo": lambda: kilbas_saigo(0.6, 1.5, 0.2, 2.0),
    "ks_coefficients": lambda: ks_coefficients(0.6, 1.5, 0.2, 40),
    "ml2_tail_sums": lambda: ml2_tail_sums(0.6, 0.76, 1.1, 60),
    "ks_array": lambda: ks_array(0.6, 1.5, 0.2, np.linspace(-1.5, 2.5, 17)),
    "ml2_array": lambda: ml2_array(0.6, 0.76, np.linspace(-1.5, 2.5, 17)),
    "resolvent-moments": lambda: _abel_kernels(0.6, 64, np.linspace(0.0, -4.0, 65)),
}


def _identical(a, b):
    if isinstance(a, SeriesResult):
        return a == b
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(np.array_equal, a, b))
    return np.array_equal(a, b)


def test_memoized_ratio_tables_change_no_result():
    cold = {}
    for name, call in MEMO_CALLS.items():
        _gamma_ratios.cache_clear()
        cold[name] = call()
    for call in MEMO_CALLS.values():
        call()
    hits = _gamma_ratios.cache_info().hits
    for name, call in MEMO_CALLS.items():
        assert _identical(call(), cold[name]), name
    assert _gamma_ratios.cache_info().hits > hits


def test_same_orders_at_a_new_argument_compute_no_table():
    _gamma_ratios.cache_clear()
    first = mittag_leffler2(0.3, 0.76, 4.0)
    misses = _gamma_ratios.cache_info().misses
    second = mittag_leffler2(0.3, 0.76, -1.5)
    assert second.terms_used < first.terms_used
    assert _gamma_ratios.cache_info().misses == misses


def test_an_order_of_another_type_keeps_its_own_tables():
    # the Gamma arguments of a float32 order and of its float64 value have
    # the same bytes, but the float32 step rounds x + step differently
    eta = np.float32(0.3)
    _gamma_ratios.cache_clear()
    cold = mittag_leffler2(eta, 0.5, 1.0)
    _gamma_ratios.cache_clear()
    assert mittag_leffler2(float(eta), 0.5, 1.0) != cold
    assert mittag_leffler2(eta, 0.5, 1.0) == cold


@pytest.mark.parametrize("step", [0.6, 2.0])
def test_memoized_tables_are_read_only(step):
    table = _gamma_ratios(np.array([0.5, 1.5, 2.5]).tobytes(), step)
    assert table.dtype == np.longdouble and not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 0.0


def test_threads_sharing_the_memo_get_the_serial_results():
    # 100 orders x 2 arguments touch more blocks than the memo keeps, so
    # the threads also race on evictions
    calls = [(eta, nu, z) for eta, nu in zip(np.linspace(0.3, 1.0, 100).tolist(),
                                             np.linspace(0.4, 1.7, 100).tolist())
             for z in (-2.0, 3.0)]
    run = lambda: [mittag_leffler2(*c) for c in calls]  # noqa: E731
    _gamma_ratios.cache_clear()
    serial = run()
    _gamma_ratios.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(run) for _ in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == serial for r in results)


REFERENCE_TABLE = Path(__file__).resolve().parents[1] / "benchmark" / "reference_table.json"


def test_lattice_points_recorded_correct_stay_correct():
    # the benchmark's tabulated ml/ks lattice (mpmath references): every point
    # the table records as right must stay converged and within the
    # benchmark's rule; the recorded defects are not asserted either way.
    # 240 points were right when this test was written; a table that
    # records fewer has lost one
    with open(REFERENCE_TABLE, encoding="utf-8") as fh:
        points = [p for p in json.load(fh)["points"]
                  if p["kind"] in ("ml", "ks") and p["baseline"] == "ok"]
    assert len(points) >= 240
    wrong = []
    for p in points:
        res = (mittag_leffler2(p["eta"], p["nu"], p["z"]) if p["kind"] == "ml"
               else kilbas_saigo(p["eta"], p["m"], p["l"], p["z"]))
        ref, diff = p["ref"], abs(res.value - p["ref"])
        if not (res.converged and (diff <= 1e-10 * abs(ref)
                                   or (abs(ref) < 1e-2 and diff <= 1e-12))):
            wrong.append((p["id"], res.value, ref))
    assert not wrong


# -- the block engine against a per-term reference ---------------------------
#
# The reference is the engine as it was before it summed by blocks: one
# Python step per term, t_k = (t_{k-1} * z) * r_k with the e^700 guard
# taken by math.log on each term, the ratio table read in blocks of 16,
# 32, 64, ..., and the three-small-terms stop rule tested term by term.

def _ref_terms(first, z, gamma_arg, step):
    vector = isinstance(z, np.ndarray)
    term = np.full(z.shape, first) if vector else np.longdouble(first)
    yield term, np.abs(term) if vector else abs(first)
    k, block = 1, 16
    while True:
        stop = k - 1 + block
        if not math.isfinite(gamma_arg(stop - 1.0) + step):
            with np.errstate(over="ignore"):
                last = gamma_arg(np.arange(k - 1, stop, dtype=float)) + step
            stop = k - 1 + int(np.isfinite(last).argmin())
            if stop < k:
                raise OverflowGuard(
                    "a Gamma argument of the series exceeds the floating-point range")
        ratios = _gamma_ratios(gamma_arg(np.arange(k - 1, stop, dtype=float)).tobytes(),
                               step)
        for r in (ratios.astype(float).tolist() if vector else ratios):
            with np.errstate(over="ignore", invalid="ignore"):
                term = term * z * r
            size = np.abs(term) if vector else abs(float(term))
            mag = float(size.max(initial=0.0)) if vector else size
            if mag != 0.0 and not math.log(mag) <= 700.0:
                raise OverflowGuard(f"series term at k={k} exceeds the floating-point range")
            yield term, size
            k += 1
        block *= 2


def _ref_ml_terms(eta, nu, z):
    return _ref_terms(math.exp(-log_gamma(nu)), z, lambda j: j * eta + nu, eta)


def _ref_ks_terms(eta, m, l, z):
    return _ref_terms(1.0, z, lambda j: eta * (j * m + l) + 1.0, eta)


def _ref_sum(terms, policy=MLSeriesParams()):
    total, consec = 0.0, 0
    for k, (term, size) in zip(range(1, policy.max_terms + 1), terms):
        total += term
        small = size <= policy.rel_tol * abs(total)
        consec = consec + 1 if (small.all() if small.ndim else small) else 0
        if consec >= 3:
            return total, k, True
    return total, policy.max_terms, False


def _ref_converged(terms, policy=MLSeriesParams()):
    total, used, stopped = _ref_sum(terms, policy)
    if not stopped:
        raise SeriesNotConverged(
            f"a series sum did not meet rel_tol {policy.rel_tol!r} within "
            f"{policy.max_terms} terms")
    return total, used


def _ref_series_result(terms, policy):
    total, used, stopped = _ref_sum(terms, policy)
    omitted = next(terms)[1]
    value = float(total)
    return SeriesResult(value, used, omitted,
                        stopped and omitted <= policy.rel_tol * max(1.0, abs(value)))


def _ref_tail_sums(eta, nu, z, n_max):
    terms = []
    stream = _ref_ml_terms(eta, nu, np.longdouble(z))
    for _ in range(n_max + 2):
        terms.append(next(stream)[0])

    def tail():
        for t, size in stream:
            terms.append(t)
            yield t, size
    _ref_converged(tail(), MLSeriesParams(rel_tol=float(np.finfo(np.longdouble).eps)))
    return np.cumsum(np.array(terms[:0:-1], dtype=np.longdouble))[::-1][:n_max + 1].astype(float)


def _ref_abel_kernels(eta, n, z):
    d = np.arange(n + 1, dtype=float)
    rows = ((np.array([[1.0], [1.0 / (k * eta + eta + 1.0)]]), t, size)
            for k, (t, size) in enumerate(_ref_ml_terms(eta, eta + 1.0, z)))
    e = math.exp(log_gamma(eta + 1.0)) * _ref_converged((f * t, f * s) for f, t, s in rows)[0]
    e0, e1 = e[0], (eta + 1.0) / eta * (e[0] - e[1])
    p0 = np.diff(d ** eta * e0) / eta
    p1 = d[1:] * p0 - np.diff(d ** (eta + 1.0) * e1) / (eta + 1.0)
    return np.maximum(p0 - p1, 0.0), np.maximum(p1, 0.0)


def _outcome(call):
    """A call's result as bytes (arrays bit for bit, with dtype and
    shape) or its exception's type and message."""
    try:
        r = call()
    except PsiHilferError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(r, SeriesResult):
        return r
    if isinstance(r, tuple):
        return tuple(_outcome(lambda a=a: a) for a in r)
    r = np.asarray(r)
    return r.dtype.str, r.shape, r.tobytes()


# ratio blocks start at terms 1, 65, 193, ... and array rows come 16 at a time
EDGE_TERMS = [1, 2, 3, 16, 17, 63, 64, 65, 66, 192, 193, 10_000]
EDGE_TOLS = [1e-6, 1e-12, 1e-16]
ARGS = [-50.0, -20.0, -3.0, -1.3, 0.7, 2.5, 10.0, 40.0, 100.0, 300.0]
ML_ORDERS = [(0.3, 0.4), (0.75, 1.0), (1.0, 1.7), (2.0, 0.4)]
KS_ORDERS = [(0.5, 1.5, 0.2), (1.0, 1.0, 0.0), (0.7, 0.7, -0.3)]
POLICIES = [MLSeriesParams(tol, terms) for terms in EDGE_TERMS for tol in EDGE_TOLS]


@pytest.mark.parametrize("eta,nu", ML_ORDERS)
def test_block_engine_matches_per_term_reference_ml(eta, nu):
    for z in ARGS:
        for p in POLICIES:
            got = _outcome(lambda: mittag_leffler2(eta, nu, z, p))
            ref = _outcome(lambda: _ref_series_result(
                _ref_ml_terms(eta, nu, np.longdouble(z)), p))
            assert got == ref, (z, p)
    zs = np.array(ARGS)
    for part in (zs, zs[2:6], zs[:3], zs[4:8]):
        assert _outcome(lambda: ml2_array(eta, nu, part)) == \
            _outcome(lambda: _ref_converged(_ref_ml_terms(eta, nu, part))[0]), part
        for p in POLICIES[::2]:
            assert _outcome(lambda: _sum_to_tolerance(_ml_blocks(eta, nu, part), p)[:3]) \
                == _outcome(lambda: _ref_sum(_ref_ml_terms(eta, nu, part), p)), (part, p)
    for z in (0.7, 2.5, 10.0, 40.0, 300.0):
        for n_max in (0, 1, 2, 61, 62, 63, 64, 190, 191, 10_000):
            assert _outcome(lambda: ml2_tail_sums(eta, nu, z, n_max)) == \
                _outcome(lambda: _ref_tail_sums(eta, nu, z, n_max)), (z, n_max)
    for n, lam in ((8, -50.0), (8, 300.0), (64, -3.0), (64, 2.5), (64, 40.0)):
        z = lam * (np.arange(n + 1) / n) ** eta
        with np.errstate(over="ignore", invalid="ignore"):  # as the product rule
            assert _outcome(lambda: _abel_kernels(eta, n, z)) == \
                _outcome(lambda: _ref_abel_kernels(eta, n, z)), (n, lam)


@pytest.mark.parametrize("eta,m,l", KS_ORDERS)
def test_block_engine_matches_per_term_reference_ks(eta, m, l):
    for z in ARGS:
        for p in POLICIES:
            got = _outcome(lambda: kilbas_saigo(eta, m, l, z, p))
            ref = _outcome(lambda: _ref_series_result(
                _ref_ks_terms(eta, m, l, np.longdouble(z)), p))
            assert got == ref, (z, p)
    zs = np.array(ARGS)
    for part in (zs, zs[2:6], zs[:3], zs[4:8]):
        assert _outcome(lambda: ks_array(eta, m, l, part)) == \
            _outcome(lambda: _ref_converged(_ref_ks_terms(eta, m, l, part))[0]), part
    for count in EDGE_TERMS:
        ref = np.fromiter((t for t, _ in _ref_ks_terms(eta, m, l, np.longdouble(1.0))),
                          dtype=float, count=count + 1)
        assert _outcome(lambda: ks_coefficients(eta, m, l, count)) == \
            _outcome(lambda: ref), count


# -- only a term that is read raises, at block granularity --------------------

def test_a_sum_that_stops_before_an_overflowing_term_returns():
    # z^k / Gamma(k/2 + 1) at z = 1e100: t_3 is 7.5e299 and t_4 past e^700,
    # all in the first block; a sum of three terms reads t_3 as its
    # truncation estimate, a sum of four reads t_4
    p = MLSeriesParams(max_terms=3)
    assert mittag_leffler2(0.5, 1.0, 1e100, p) == \
        SeriesResult(1e200, 3, 7.522527780636747e+299, False)
    with pytest.raises(OverflowGuard, match="^series term at k=4 exceeds"):
        mittag_leffler2(0.5, 1.0, 1e100, MLSeriesParams(max_terms=4))
    # an array sum reads no term past its stop either
    blocks = _ml_blocks(0.5, 1.0, np.array([1.0, 1e100]))
    assert _sum_to_tolerance(blocks, p)[1:3] == (3, False)


def test_a_stop_at_the_end_of_a_block_reads_the_next_block():
    # the first block holds t_0 .. t_64, so a sum of 65 terms takes t_65,
    # the first term of the second block, as its truncation estimate
    res = mittag_leffler2(1.0, 1.0, 21.5)  # e^21.5, stopped by the tolerance
    assert res.terms_used == 65 and res.converged
    assert res.truncation_estimate == pytest.approx(
        math.exp(65 * math.log(21.5) - math.lgamma(66)), rel=1e-12)
    # at z^65 / 65! just past e^700 only that estimate overflows
    z = math.exp((700.0 + math.lgamma(66)) / 65)
    below, above = z * (1 - 1e-9), z * (1 + 1e-9)
    assert mittag_leffler2(1.0, 1.0, above, MLSeriesParams(max_terms=64)).terms_used == 64
    assert mittag_leffler2(1.0, 1.0, below, MLSeriesParams(max_terms=65)).terms_used == 65
    with pytest.raises(OverflowGuard, match="^series term at k=65 exceeds"):
        mittag_leffler2(1.0, 1.0, above, MLSeriesParams(max_terms=65))


def test_guard_constant_is_the_last_double_with_log_at_most_700():
    assert math.log(_HUGE) <= 700.0
    assert math.log(math.nextafter(_HUGE, math.inf)) > 700.0
    assert math.log(math.nextafter(_HUGE, 0.0)) <= 700.0


def test_a_gamma_value_past_the_double_range_raises_only_where_it_is_read():
    # eta*(j*m + l) + 1 + eta passes lgamma's range at j = 25, inside the
    # first ratio block: the 25 ratios before it are kept, and the term
    # that needs it raises
    assert _outcome(lambda: ks_coefficients(1e304, 1.0, 0.0, 25)) == \
        _outcome(lambda: np.r_[1.0, np.zeros(25)])
    with pytest.raises(OverflowGuard, match="^a Gamma value of the series"):
        ks_coefficients(1e304, 1.0, 0.0, 26)
    # at j = 1 the argument 5e303 + 0.5 rounds to 5e303, so log-gamma
    # would read the ratio, about 1e-152, as 1: the table ends there too
    assert list(ks_coefficients(0.5, 1e304, 0.0, 1)) == \
        pytest.approx([1.0, 2.0 / math.sqrt(math.pi)], rel=1e-15)
    for call in (lambda: ks_coefficients(0.5, 1e304, 0.0, 2),
                 lambda: kilbas_saigo(0.5, 1e304, 0.0, 1e-3)):
        with pytest.raises(OverflowGuard, match="^a Gamma value of the series"):
            call()
    # a step lost to rounding where the ratio is 1 to rounding is kept:
    # E[1e-17, 1](0.5) is 1 / (1 - 0.5) to the tolerance
    assert mittag_leffler2(1e-17, 1.0, 0.5).value == pytest.approx(2.0, rel=1e-12)


def test_the_term_stream_ends_a_block_before_its_first_term_past_the_guard():
    # z^k / Gamma(k/2 + 1) at z = 1e100: t_3 is 7.5e299 and t_4 past e^700
    for z in (np.longdouble(1e100), np.array([1.0, 1e100])):
        blocks = _ml_blocks(0.5, 1.0, z)
        first = next(blocks)
        assert first.start == 0 and len(first.terms) == 4
        assert np.all(np.abs(first.terms) <= _HUGE)
        with pytest.raises(OverflowGuard, match="^series term at k=4 exceeds"):
            next(blocks)
