"""Gamma-family special functions evaluated by controlled series summation.

Provides log-gamma, the two-parameter Mittag-Leffler function

    E[eta, nu](z) = sum_k z^k / Gamma(k*eta + nu)

and the three-parameter Kilbas-Saigo generalization

    E[eta, m, l](z) = sum_k c_k z^k,
    c_0 = 1,  c_k = prod_{j<k} Gamma(eta*(j*m+l)+1) / Gamma(eta*(j*m+l+1)+1).

Every evaluator runs on one engine: a table of the Gamma ratios between
consecutive terms, computed in blocks of doubling size, feeds one term
generator, and one stop rule ends the sum.  Scalar arguments are summed
in 80-bit extended precision, arrays in double precision with the ratios
shared across entries.  For integer eta the ratio reduces to an exact
rising factorial, which keeps alternating sums (z < 0) accurate despite
cancellation; for non-integer eta it goes through log-gamma.

Ratio tables are memoized by their Gamma arguments and step and shared
read-only across calls and threads, bounded at 256 blocks (least
recently used dropped first), so evaluating one set of orders at many
arguments computes each table once.  A block of b entries holds 24 b
bytes (table and key): the benchmark lattice keeps about 0.7 MB, and
256 blocks of 8192 entries, the largest a sum within 16 368 terms
reaches, about 50 MB.  A memoized table is the one a fresh computation
gives, so every value is the same warm or cold.  All functions are
pure and safe for concurrent use.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, OverflowGuard, ParamViolation, SeriesNotConverged

# log of the largest double; any term beyond this cannot contribute to a
# representable result and signals an argument outside the supported range
_LOG_HUGE = 700.0
_LD = np.longdouble
_FIRST_BLOCK = 16


def _is_int(n) -> bool:
    """Whether ``n`` is a Python or numpy integer (a bool is neither)."""
    return type(n) is int or isinstance(n, np.integer)


@dataclass(frozen=True)
class MLSeriesParams:
    """Truncation policy for Mittag-Leffler type series."""

    rel_tol: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:
            raise ParamViolation("rel_tol must be finite and positive")
        n = self.max_terms
        if not _is_int(n) or n < 1:
            raise ParamViolation(f"max_terms must be an integer >= 1, got {n!r}")


DEFAULT_SERIES_PARAMS = MLSeriesParams()
_TAIL_PARAMS = MLSeriesParams(rel_tol=float(np.finfo(_LD).eps))


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series together with convergence telemetry.

    ``truncation_estimate`` is the magnitude of the first omitted term;
    when ``converged`` it does not exceed rel_tol * max(1, |value|).
    """

    value: float
    terms_used: int
    truncation_estimate: float
    converged: bool


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for positive arguments.

    None of the representation formulas handled here ever needs a
    nonpositive argument, so those are rejected outright.
    """
    if not x > 0:
        raise DomainViolation(f"log_gamma needs x > 0, got {x!r}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise OverflowGuard(
            f"log_gamma({x!r}) exceeds the floating-point range") from None


def _check_params(z=0.0, l=0.0, **positive) -> None:
    """Raise DomainViolation unless each keyword value (an order or exponent) is
    finite and positive, and the shift l and the argument z (scalar or
    array) are finite."""
    for name, v in positive.items():
        if not 0.0 < v < math.inf:
            raise DomainViolation(f"{name} must be finite and positive, got {v!r}")
    for name, v in (("l", l), ("z", z)):
        bad = (v[~np.isfinite(v)] if isinstance(v, np.ndarray)
               else [] if math.isfinite(v) else [v])
        if len(bad):
            raise DomainViolation(f"{name} must be finite, got {float(bad[0])!r}")


def _is_small_positive_int(x: float) -> int | None:
    p = round(x)
    if 1 <= p <= 64 and abs(x - p) < 1e-12:
        return int(p)
    return None


@functools.lru_cache(maxsize=256, typed=True)
def _gamma_ratios(args: bytes, step: float) -> np.ndarray:
    """Gamma(x) / Gamma(x + step) at every entry of the float64 array x
    whose bytes are ``args``, in extended precision.

    Exact rising-factorial form when ``step`` is a small integer; the
    log-gamma route otherwise.  Requires all arguments positive; raises
    OverflowGuard where a Gamma value or the ratio leaves the double range.
    The table is memoized (see the module docstring) and read-only; the
    memo is typed because a float32 step with a float64's value rounds
    x + step to float32 and so gives another table.
    """
    x = np.frombuffer(args)
    bad = (x <= 0) | (x + step <= 0)
    if bad.any():
        raise ParamViolation(
            f"Gamma argument hit a nonpositive value ({float(x[bad][0])!r})")
    p = _is_small_positive_int(step)
    if p is None:
        try:
            # a double converts to long double exactly, and astype does it
            # several times faster than np.array(..., dtype=_LD) from a list
            table = np.array([math.exp(math.lgamma(v) - math.lgamma(v + step))
                              for v in x.tolist()]).astype(_LD)
        except OverflowError:
            raise OverflowGuard("a Gamma value of the series exceeds the "
                                "floating-point range") from None
    else:
        xi = x.astype(_LD)
        denom = np.ones_like(xi)
        # a product past the extended range is inf, and 1/inf = 0 the right ratio
        with np.errstate(over="ignore"):
            for _ in range(p):
                denom *= xi
                xi += 1
        table = 1.0 / denom
    table.flags.writeable = False
    return table


def _terms(first: float, z, gamma_arg, step: float):
    """Yield (t_k, |t_k|) for t_0 = first and t_k = t_{k-1} * z * Gamma(x_k)
    / Gamma(x_k + step), k = 1, 2, ..., where x_k = gamma_arg(k - 1).
    The stream has no end of its own: its consumer stops it.

    An array z is summed in double precision with each ratio rounded
    once, and |t_k| is an array; any other z runs in extended precision
    and |t_k| is a float.  Ratios are computed in blocks of doubling
    size, so a short series pays for few Gamma evaluations and a long
    one for few blocks.
    """
    vector = isinstance(z, np.ndarray)
    term = np.full(z.shape, first) if vector else _LD(first)
    zmax = float(np.abs(z).max(initial=0.0)) if vector else 0.0
    mag = abs(first)
    yield term, np.abs(term) if vector else mag
    k, block = 1, _FIRST_BLOCK
    while True:
        stop = k - 1 + block
        # the block's largest Gamma argument, in Python floats so that
        # reaching inf is seen here and not as a numpy warning below
        if not math.isfinite(gamma_arg(stop - 1.0) + step):
            # the arguments increase along the block, so its finite part is
            # a prefix; keeping only that part raises for a term that is read
            with np.errstate(over="ignore"):
                last = gamma_arg(np.arange(k - 1, stop, dtype=float)) + step
            stop = k - 1 + int(np.isfinite(last).argmin())
            if stop < k:
                raise OverflowGuard(
                    "a Gamma argument of the series exceeds the floating-point range")
        ratios = _gamma_ratios(
            gamma_arg(np.arange(k - 1, stop, dtype=float)).tobytes(), step)
        for r in (ratios.astype(float).tolist() if vector else ratios):
            if vector and not mag * zmax * max(r, 1.0) < math.inf:
                # a double step that may overflow: the guard below raises
                # for it, so numpy's overflow warning is silenced
                with np.errstate(over="ignore"):
                    term = term * z * r
            else:
                term = term * z * r
            size = np.abs(term) if vector else abs(float(term))
            mag = float(size.max(initial=0.0)) if vector else size
            if mag != 0.0 and not math.log(mag) <= _LOG_HUGE:
                raise OverflowGuard(
                    f"series term at k={k} exceeds the floating-point range")
            yield term, size
            k += 1
        block *= 2


def _ml_terms(eta: float, nu: float, z):
    """Terms z^k / Gamma(k*eta + nu) of E[eta, nu](z)."""
    return _terms(math.exp(-log_gamma(nu)), z, lambda j: j * eta + nu, eta)


def _ks_terms(eta: float, m: float, l: float, z):
    """Terms c_k z^k of E[eta, m, l](z)."""
    return _terms(1.0, z, lambda j: eta * (j * m + l) + 1.0, eta)


def _sum_to_tolerance(terms, policy: MLSeriesParams = DEFAULT_SERIES_PARAMS):
    """Add the (t_k, |t_k|) pairs of a term stream until three sizes in a
    row are below rel_tol * |sum| at every entry, or until max_terms
    terms were added.

    Three, because alternating series terms are not monotone and a
    single small term can be a transient.  Returns the sum, the number
    of terms added and whether the tolerance (not max_terms) stopped it.
    """
    total, consec = 0.0, 0
    for k, (term, size) in zip(range(1, policy.max_terms + 1), terms):
        total += term
        small = size <= policy.rel_tol * abs(total)
        # a scalar sum reads its one comparison: numpy's .all() costs ~2 us a term
        consec = consec + 1 if (small.all() if small.ndim else small) else 0
        if consec >= 3:
            return total, k, True
    return total, policy.max_terms, False


def _converged_sum(terms, policy: MLSeriesParams = DEFAULT_SERIES_PARAMS):
    """_sum_to_tolerance for the sums that report no convergence flag:
    returns the sum and the number of terms added, and raises
    SeriesNotConverged when max_terms, not the tolerance, ended it."""
    total, used, stopped = _sum_to_tolerance(terms, policy)
    if not stopped:
        raise SeriesNotConverged(
            f"a series sum did not meet rel_tol {policy.rel_tol!r} within "
            f"{policy.max_terms} terms")
    return total, used


def _series_result(terms, policy: MLSeriesParams) -> SeriesResult:
    """Sum a scalar term stream; the first omitted term is the
    truncation estimate."""
    total, used, stopped = _sum_to_tolerance(terms, policy)
    omitted = next(terms)[1]
    value = float(total)
    converged = stopped and omitted <= policy.rel_tol * max(1.0, abs(value))
    return SeriesResult(value, used, omitted, converged)


def mittag_leffler2(eta: float, nu: float, z: float,
                    policy: MLSeriesParams = DEFAULT_SERIES_PARAMS) -> SeriesResult:
    """Two-parameter Mittag-Leffler function E[eta, nu](z).

    Special values: E[1,1](z) = exp(z), E[2,2](z^2) = sinh(z)/z,
    E[eta, nu](0) = 1/Gamma(nu).
    """
    _check_params(z, eta=eta, nu=nu)
    if z == 0.0:
        return SeriesResult(math.exp(-log_gamma(nu)), 1, 0.0, True)
    return _series_result(_ml_terms(eta, nu, _LD(z)), policy)


def kilbas_saigo(eta: float, m: float, l: float, z: float,
                 policy: MLSeriesParams = DEFAULT_SERIES_PARAMS) -> SeriesResult:
    """Kilbas-Saigo function E[eta, m, l](z) by incremental products.

    The empty product makes c_0 = 1 for every parameter choice, so
    E(0) = 1 exactly.  A nonpositive Gamma argument anywhere in the
    product raises ParamViolation.
    """
    _check_params(z, l, eta=eta, m=m)
    if z == 0.0:
        return SeriesResult(1.0, 1, 0.0, True)
    return _series_result(_ks_terms(eta, m, l, _LD(z)), policy)


def ks_coefficients(eta: float, m: float, l: float, count: int) -> np.ndarray:
    """First ``count`` + 1 Kilbas-Saigo coefficients c_0 .. c_count."""
    _check_params(l=l, eta=eta, m=m)
    if not _is_int(count) or count < 0:
        raise DomainViolation(f"count must be a nonnegative integer, got {count!r}")
    return np.fromiter((t for t, _ in _ks_terms(eta, m, l, _LD(1.0))),
                       dtype=float, count=count + 1)


def ml2_tail_sums(eta: float, nu: float, z: float, n_max: int) -> np.ndarray:
    """Tails T[m] = sum_{k=m+1}^K z^k / Gamma(k*eta + nu), m = 0..n_max.

    Requires z >= 0 so every term is positive.  The terms past n_max + 1
    end by the engine's stop rule at the extended-precision epsilon, and
    all are summed backward in extended precision, which keeps the
    sequence strictly decreasing while terms remain nonzero and avoids
    the catastrophic cancellation of forming E(z) minus a partial sum.
    """
    _check_params(z, eta=eta, nu=nu)
    if z < 0:
        raise DomainViolation("tail sums are defined for z >= 0")
    if not _is_int(n_max) or n_max < 0:
        raise DomainViolation(f"n_max must be a nonnegative integer, got {n_max!r}")
    stream, kept = itertools.tee(_ml_terms(eta, nu, _LD(z)))
    used = _converged_sum(itertools.islice(stream, n_max + 2, None), _TAIL_PARAMS)[1]
    terms = [t for t, _ in itertools.islice(kept, n_max + 2 + used)]
    running = np.cumsum(np.array(terms[:0:-1], dtype=_LD))[::-1]
    return running[:n_max + 1].astype(float)


def ks_array(eta: float, m: float, l: float, z: np.ndarray) -> np.ndarray:
    """Vectorized Kilbas-Saigo evaluation over moderate arguments.

    Coefficients are shared across all entries of z, so the cost is one
    Gamma ratio per retained series order.
    """
    z = np.asarray(z, dtype=float)
    _check_params(z, l, eta=eta, m=m)
    return _converged_sum(_ks_terms(eta, m, l, z))[0]


def ml2_array(eta: float, nu: float, z: np.ndarray) -> np.ndarray:
    """Vectorized E[eta, nu] over an array of moderate arguments.

    Shares the per-k Gamma ratio across all entries; double precision is
    adequate here because callers pass arguments with mild cancellation
    (|z| of order a few).  Accumulation order is fixed, so results are
    deterministic.
    """
    z = np.asarray(z, dtype=float)
    _check_params(z, eta=eta, nu=nu)
    return _converged_sum(_ml_terms(eta, nu, z))[0]
