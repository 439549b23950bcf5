"""Gamma-family special functions evaluated by controlled series summation.

Provides log-gamma, the two-parameter Mittag-Leffler function

    E[eta, nu](z) = sum_k z^k / Gamma(k*eta + nu)

and the three-parameter Kilbas-Saigo generalization

    E[eta, m, l](z) = sum_k c_k z^k,
    c_0 = 1,  c_k = prod_{j<k} Gamma(eta*(j*m+l)+1) / Gamma(eta*(j*m+l+1)+1).

Every evaluator runs on one engine: a table of the Gamma ratios between
consecutive terms, computed in blocks of 64, 128, 256, ... entries,
feeds one block generator, and one stop rule ends the sum.  Scalar
arguments are summed in 80-bit extended precision, one numpy pass per
ratio block: the terms, the running sums and the stop come out of a
few whole-array operations, not one Python step per term.  Arrays are
summed in double precision with the ratios shared across entries, row
by row in chunks of 16 rows.  For integer eta the ratio reduces to an
exact rising factorial, which keeps alternating sums (z < 0) accurate
despite cancellation; for non-integer eta it goes through log-gamma.
The term stream owns the e^700 guard: it ends a block before its first
term past it and raises OverflowGuard when the consumer draws again.  A
Gamma argument or a Gamma value past the double range ends the ratio
table the same way, so only a term that a sum reads can raise.

Ratio tables are memoized by their Gamma arguments and step and shared
read-only across calls and threads, bounded at 256 blocks (least
recently used dropped first), so evaluating one set of orders at many
arguments computes each table once.  A block of b entries holds 24 b
bytes (table and key): two passes of the benchmark lattice keep 91
blocks, about 0.7 MB, and 256 blocks of 8192 entries, the largest a sum
within 16 320 terms reaches, about 50 MB.  A memoized table is the one
a fresh computation gives, so every value is the same warm or cold.
All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainViolation, OverflowGuard, ParamViolation, SeriesNotConverged

# a term beyond e^700 cannot contribute to a representable result and
# signals an argument outside the supported range
_LOG_HUGE = 700.0
_LD = np.longdouble
_FIRST_BLOCK = 64
_CHUNK = 16


def _largest_with_log_at_most(bound: float) -> float:
    """The largest double m with math.log(m) <= bound."""
    m = math.exp(bound)
    while math.log(m) > bound:
        m = math.nextafter(m, 0.0)
    while math.log(math.nextafter(m, math.inf)) <= bound:
        m = math.nextafter(m, math.inf)
    return m


# |t| <= _HUGE is math.log(|t|) <= _LOG_HUGE, tested in one comparison
_HUGE = _largest_with_log_at_most(_LOG_HUGE)


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
    log-gamma route otherwise, which keeps the prefix of the table before
    the first entry where a Gamma value or the ratio leaves the double
    range, or where x + step rounds to x while x^-step does not round to
    1 (the arguments increase along a block, so that entry and the ones
    after it are needed only by later terms) and raises OverflowGuard when
    that prefix is empty.  Requires all arguments positive.
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
        ratios = []
        for v in x.tolist():
            # a step lost to rounding reads the ratio, about v^-step, as 1
            if v + step == v and v ** -step != 1.0:
                break
            try:
                ratios.append(math.exp(math.lgamma(v) - math.lgamma(v + step)))
            except OverflowError:
                break
        if not ratios:
            raise OverflowGuard("a Gamma value of the series exceeds the "
                                "floating-point range")
        # a double converts to long double exactly, and astype does it
        # several times faster than np.array(..., dtype=_LD) from a list
        table = np.array(ratios).astype(_LD)
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


class _Block(NamedTuple):
    """The terms t_k of a series for k = start, start + 1, ..., with the
    series index on the leading axis, all within the e^700 guard."""

    start: int
    terms: np.ndarray


def _sizes(terms: np.ndarray) -> np.ndarray:
    """|t| as doubles: an extended-precision term is rounded to double,
    to inf past the double range (_cut silences that overflow)."""
    return np.abs(terms).astype(float, copy=False)


def _cut(start: int, terms: np.ndarray):
    """Yield the _Block of ``terms`` up to its first row with a size past
    _HUGE (a NaN is past it), and raise OverflowGuard for that row when
    the consumer draws again: a term raises only when it is read."""
    n = len(terms)
    # a row within +-_HUGE has sizes within it too; only a block that is
    # not pays for the sizes of every row
    if not (terms.max(initial=0.0) <= _HUGE and terms.min(initial=0.0) >= -_HUGE):
        with np.errstate(over="ignore"):
            ok = _sizes(terms).max(axis=tuple(range(1, terms.ndim)), initial=0.0) <= _HUGE
        n = n if ok.all() else int(ok.argmin())
    if n:
        yield _Block(start, terms[:n])
    if n < len(terms):
        raise OverflowGuard(f"series term at k={start + n} "
                            "exceeds the floating-point range")


def _ratio_block(gamma_arg, step: float, k: int, size: int) -> np.ndarray:
    """The ratios of the terms k .. k + size - 1, or of the prefix of them
    whose Gamma arguments are finite; OverflowGuard if none is."""
    stop = k - 1 + size
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
    return _gamma_ratios(gamma_arg(np.arange(k - 1, stop, dtype=float)).tobytes(), step)


def _blocks(first: float, z, gamma_arg, step: float):
    """Yield the terms of t_0 = first, t_k = t_{k-1} * z * Gamma(x_k) /
    Gamma(x_k + step), k = 1, 2, ..., where x_k = gamma_arg(k - 1), as
    _Blocks, the first starting at t_0.  The stream has no end of its
    own: its consumer stops it.  A block ends before its first term past
    the e^700 guard, and the next draw raises OverflowGuard for it.

    A scalar z runs in extended precision, one block per ratio block:
    one multiply.accumulate over [t_{k-1}, z, r_k, z, r_{k+1}, ...]
    rounds twice per term, as (t_{k-1} * z) * r_k does.  An array z is
    summed in double precision with each ratio rounded once, row by row,
    in chunks of _CHUNK rows, so a short sum computes few rows.
    """
    vector = isinstance(z, np.ndarray)
    term = np.full(z.shape, first) if vector else _LD(first)
    k, size = 1, _FIRST_BLOCK
    while True:
        ratios = _ratio_block(gamma_arg, step, k, size)
        if vector:
            ratios = ratios.astype(float).tolist()
            for i in range(0, len(ratios), _CHUNK):
                rows = np.empty((len(ratios[i:i + _CHUNK]) + 1,) + z.shape)
                rows[0] = term
                # rows past an overflowing one are cut off, so their inf
                # and nan warn nothing
                with np.errstate(over="ignore", invalid="ignore"):
                    for j, r in enumerate(ratios[i:i + _CHUNK], 1):
                        row = rows[j, ...]  # a view also when z is 0-d
                        np.multiply(rows[j - 1], z, out=row)
                        row *= r
                term = rows[-1]
                lead = int(k + i > 1)  # the first chunk also yields t_0
                yield from _cut(k + i - 1 + lead, rows[lead:])
        else:
            acc = np.empty(2 * len(ratios) + 1, dtype=_LD)
            acc[0] = term
            acc[1::2] = z
            acc[2::2] = ratios
            lead = 2 * (k > 1)  # the first block also yields t_0
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply.accumulate(acc, out=acc)
            term = acc[-1]
            yield from _cut(k - 1 + lead // 2, acc[lead::2])
        k += len(ratios)
        size *= 2


def _ml_blocks(eta: float, nu: float, z):
    """Terms z^k / Gamma(k*eta + nu) of E[eta, nu](z)."""
    return _blocks(math.exp(-log_gamma(nu)), z, lambda j: j * eta + nu, eta)


def _ks_blocks(eta: float, m: float, l: float, z):
    """Terms c_k z^k of E[eta, m, l](z)."""
    return _blocks(1.0, z, lambda j: eta * (j * m + l) + 1.0, eta)


def _sum_to_tolerance(blocks, policy: MLSeriesParams = DEFAULT_SERIES_PARAMS):
    """Add the terms of a block stream in order until three in a row are
    small, of size at most rel_tol * |sum| at every entry, or until
    max_terms terms were added.

    Three, because alternating series terms are not monotone and a
    single small term can be a transient.  Returns the sum, the number
    of terms added, whether the tolerance (not max_terms) stopped it and
    the last block read.

    A block of scalar terms is summed in one pass: its running sums
    start from the carried total, and the stop is the first small term
    that closes a run of three, counting the last two terms before the
    block.  An array block is added and tested row by row, as an
    accumulate along its leading axis is 2-3x slower.
    """
    rel_tol, total, used, run = policy.rel_tol, 0.0, 0, b"\0\0"
    for block in blocks:
        n = min(len(block.terms), policy.max_terms - used)
        if block.terms.ndim == 1:
            sums = np.empty(n + 1, dtype=block.terms.dtype)
            sums[0] = total
            sums[1:] = block.terms[:n]
            np.add.accumulate(sums, out=sums)
            bound = np.abs(sums[1:])
            bound *= rel_tol
            run += (_sizes(block.terms[:n]) <= bound).tobytes()
            stop = run.find(b"\1\1\1")
            if stop >= 0:
                return sums[stop + 1], used + stop + 1, True, block
            total, run = sums[n], run[-2:]
        else:
            if used == 0:
                total = np.zeros(block.terms.shape[1:])
            for k, term in enumerate(block.terms[:n]):
                np.add(total, term, out=total)
                small = (np.abs(term) <= rel_tol * np.abs(total)).all()
                run = run[-2:] + (b"\1" if small else b"\0")
                if run == b"\1\1\1":
                    return total, used + k + 1, True, block
        used += n
        if used == policy.max_terms:
            return total, policy.max_terms, False, block


def _converged_sum(blocks, policy: MLSeriesParams = DEFAULT_SERIES_PARAMS):
    """_sum_to_tolerance for the sums that report no convergence flag:
    returns the sum and the number of terms added, and raises
    SeriesNotConverged when max_terms, not the tolerance, ended it."""
    total, used, stopped, _ = _sum_to_tolerance(blocks, policy)
    if not stopped:
        raise SeriesNotConverged(
            f"a series sum did not meet rel_tol {policy.rel_tol!r} within "
            f"{policy.max_terms} terms")
    return total, used


def _series_result(blocks, policy: MLSeriesParams) -> SeriesResult:
    """Sum a scalar block stream; the first omitted term, which may open
    the next block, is the truncation estimate."""
    total, used, stopped, block = _sum_to_tolerance(blocks, policy)
    i = used - block.start
    if i == len(block.terms):
        block, i = next(blocks), 0
    omitted = abs(float(block.terms[i]))
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
    return _series_result(_ml_blocks(eta, nu, _LD(z)), policy)


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
    return _series_result(_ks_blocks(eta, m, l, _LD(z)), policy)


def ks_coefficients(eta: float, m: float, l: float, count: int) -> np.ndarray:
    """First ``count`` + 1 Kilbas-Saigo coefficients c_0 .. c_count."""
    _check_params(l=l, eta=eta, m=m)
    if not _is_int(count) or count < 0:
        raise DomainViolation(f"count must be a nonnegative integer, got {count!r}")
    if count == 0:
        return np.ones(1)  # c_0, the empty product, reads no ratio
    kept = []
    for block in _ks_blocks(eta, m, l, _LD(1.0)):
        n = min(len(block.terms), count + 1 - block.start)
        kept.append(block.terms[:n])
        if block.start + n > count:
            return np.concatenate(kept).astype(float)


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
    kept = []
    used = _converged_sum(_read_from(_ml_blocks(eta, nu, _LD(z)), n_max + 2, kept),
                          _TAIL_PARAMS)[1]
    terms = np.concatenate([b.terms for b in kept])[1:n_max + 2 + used]
    return np.cumsum(terms[::-1])[::-1][:n_max + 1].astype(float)


def _tail_argument(name: str, c: float, x: float, eta: float) -> float:
    """c * x^eta, the argument of a bound's ml2_tail_sums; OverflowGuard
    naming it as ``name`` when it leaves the double range."""
    try:
        z = c * x ** eta
    except OverflowError:  # x ** eta past the double range; c is not negative
        z = math.inf if c else 0.0
    if not math.isfinite(z):
        raise OverflowGuard(f"the series argument {name} = {c!r} * {x!r}^{eta!r} "
                            "exceeds the floating-point range")
    return z


def _read_from(blocks, index: int, kept: list):
    """The blocks of a stream cut to the terms from series index ``index``
    on.  Each block of the stream is appended to ``kept``."""
    for block in blocks:
        kept.append(block)
        cut = max(index - block.start, 0)
        if cut < len(block.terms):
            yield _Block(block.start + cut, block.terms[cut:])


def ks_array(eta: float, m: float, l: float, z: np.ndarray) -> np.ndarray:
    """Vectorized Kilbas-Saigo evaluation over moderate arguments.

    Coefficients are shared across all entries of z, so the cost is one
    Gamma ratio per retained series order.
    """
    z = np.asarray(z, dtype=float)
    _check_params(z, l, eta=eta, m=m)
    return _converged_sum(_ks_blocks(eta, m, l, z))[0]


def ml2_array(eta: float, nu: float, z: np.ndarray) -> np.ndarray:
    """Vectorized E[eta, nu] over an array of moderate arguments.

    Shares the per-k Gamma ratio across all entries; double precision is
    adequate here because callers pass arguments with mild cancellation
    (|z| of order a few).  Accumulation order is fixed, so results are
    deterministic.
    """
    z = np.asarray(z, dtype=float)
    _check_params(z, eta=eta, nu=nu)
    return _converged_sum(_ml_blocks(eta, nu, z))[0]


def _ml2_moments(eta: float, z: np.ndarray) -> np.ndarray:
    """E[eta, eta+1](z) and E[eta, eta+2](z), stacked on the leading axis.

    t_k / (k eta + eta + 1) is a term of E[eta, eta+2] when t_k is one of
    E[eta, eta+1], so one term stream gives both.  The sum adds a block
    whole before it draws the next, so one buffer serves every block.
    """
    buf = np.empty((_CHUNK + 1, 2) + z.shape)

    def moments(block):
        c = len(block.terms)
        f = np.reshape([1.0 / (k * eta + eta + 1.0) for k in range(
            block.start, block.start + c)], (c,) + (1,) * z.ndim)
        terms = buf[:c]
        terms[:, 0] = block.terms
        np.multiply(block.terms, f, out=terms[:, 1])
        return _Block(block.start, terms)

    return _converged_sum(map(moments, _ml_blocks(eta, eta + 1.0, z)))[0]
