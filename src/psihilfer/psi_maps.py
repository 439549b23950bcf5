"""Registry of admissible monotone transform functions.

Every fractional operator in this package is taken with respect to a
strictly increasing C1 transform.  A :class:`PsiMap` bundles the
transform, its first derivative and its inverse over a closed interval.
Built-in kinds cover the identity, power, logarithm and exponential
cases; arbitrary user transforms are supported through ``custom``.  A
custom map samples its transform once, when it is built, on 512 equal
panels in t and keeps the 513 pairs (8 KB, read-only): they start the
Newton inverse and bracket the nodes that it leaves uncertified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainViolation, NonMonotone, raise_on

_MONOTONE_SAMPLES = 64
# every node of a custom inverse is within max(_ROOT_TOL, 1 ulp) of a sign
# change of Psi(t) - u
_ROOT_TOL = 5e-14
# a custom map samples Psi once at the ends of this many equal panels in t;
# the pairs give each inverse its Newton start and each node that fails the
# certificate its bisection bracket
_TABLE_PANELS = 512
# kind -> number of parameters make_psi takes
_KIND_ARITY = {"identity": 0, "power": 1, "log": 0, "exp": 0}


@dataclass(frozen=True)
class PsiMap:
    """A strictly increasing transform with derivative and inverse.

    Instances are immutable and all methods are pure, so a map can be
    shared freely across threads.  ``value``, ``deriv`` and ``inverse``
    accept scalars or numpy arrays.
    """

    kind: str
    domain: tuple[float, float]
    _eval: Callable = field(repr=False, default=None)
    _deriv: Callable = field(repr=False, default=None)
    _inverse: Callable = field(repr=False, default=None)

    def value(self, t):
        return self._eval(t)

    def deriv(self, t):
        return self._deriv(t)

    def inverse(self, u):
        return self._inverse(u)

    def domain_violations(self, *points) -> list[str]:
        """A message for each ``(t, what)`` point outside the domain
        (widened by 1e-9 of its largest end, at least 1e-9)."""
        lo, hi = self.domain
        tol = 1e-9 * max(1.0, abs(lo), abs(hi))
        return [f"{what}={t!r} outside map domain [{lo}, {hi}]"
                for t, what in points if not lo - tol <= t <= hi + tol]


def _check_derivative(deriv_fn, domain):
    # Sample the open interior: the derivative of admissible maps may
    # legitimately vanish at an endpoint (t^rho at t=0 with rho>1).
    lo, hi = domain
    ts = lo + (np.arange(_MONOTONE_SAMPLES) + 0.5) / _MONOTONE_SAMPLES * (hi - lo)
    with np.errstate(all="ignore"):  # an overflow is rejected just below
        dvals = np.asarray(deriv_fn(ts), dtype=float)
    if not np.all(np.isfinite(dvals)) or np.any(dvals <= 0.0):
        raise NonMonotone(
            f"derivative must be positive and finite on ({lo}, {hi}); "
            f"min sampled value {np.min(dvals)!r}"
        )
    return ts


def _check_increasing(ts, vals) -> None:
    # a NaN fails every comparison and an inf can only end a strictly
    # increasing run, so finite ends and rising steps make all values finite
    rising = vals[1:] > vals[:-1]
    if not (rising.all() and math.isfinite(vals[0]) and math.isfinite(vals[-1])):
        bad = ~np.isfinite(vals)
        bad[1:] |= ~rising
        k = int(np.argmax(bad))
        raise NonMonotone("sampled transform values are not strictly increasing "
                          f"and finite: first at t={float(ts[k])!r}, "
                          f"where the value is {float(vals[k])!r}")


def _tabulate(eval_fn, domain):
    """The read-only ``(t, Psi(t))`` table of a custom map: ``_TABLE_PANELS``
    equal panels in t, the interior sampled in one ``eval_fn`` call and the
    two ends as scalars.  Raises :class:`NonMonotone` unless the values are
    finite and strictly increasing."""
    lo, hi = domain
    table_t = np.linspace(lo, hi, _TABLE_PANELS + 1)
    table_u = np.empty_like(table_t)
    with np.errstate(all="ignore"):  # an overflow is rejected just below
        table_u[0], table_u[-1] = eval_fn(lo), eval_fn(hi)
        table_u[1:-1] = eval_fn(table_t[1:-1])
    _check_increasing(table_t, table_u)
    table_t.flags.writeable = table_u.flags.writeable = False
    return table_t, table_u


def _bracketed_inverse(eval_fn, deriv_fn, domain):
    lo, hi = domain
    table_t, table_u = _tabulate(eval_fn, domain)
    f_lo, f_hi = table_u[0], table_u[-1]

    def inverse(u):
        # The three steps of make_custom_psi, each over all targets at once.
        u_arr = np.asarray(u, dtype=float)
        targets = u_arr.ravel()
        # NaN fails both comparisons, so non-finite targets are rejected too
        bad = ~((f_lo - targets <= 0) & (f_hi - targets >= 0))
        if bad.any():
            raise DomainViolation(
                f"inverse target {float(targets[bad][0])!r} outside range "
                f"[{float(f_lo)!r}, {float(f_hi)!r}]")
        # the start: the table read backwards, linear in each panel, so the
        # end targets start on lo and hi
        x = np.interp(targets, table_u, table_t)
        # 1. Newton on the open targets; a step that is not finite or fails
        # to halve the last one is not taken and ends its target, and so
        # does a step of at most _ROOT_TOL / 2, which is taken
        last, open_ = np.full_like(targets, np.inf), np.arange(targets.size)
        while open_.size:
            xo = x[open_]
            dx = _newton_step(eval_fn, deriv_fn, xo, targets[open_])
            new = np.clip(xo - dx, lo, hi)
            step = np.abs(new - xo)
            take = np.isfinite(dx) & (step <= 0.5 * last[open_])
            x[open_[take]] = new[take]
            last[open_] = step
            open_ = open_[take & (step > 0.5 * _ROOT_TOL)]
        # 2. the certificate: Psi(t) - u changes sign at x -+ max(_ROOT_TOL, 1 ulp)
        d = np.maximum(_ROOT_TOL, np.spacing(np.abs(x)))
        resid = np.asarray(eval_fn(np.clip(np.concatenate((x - d, x + d)), lo, hi)),
                           dtype=float) - np.tile(targets, 2)
        fail = ~((resid[:x.size] <= 0) & (resid[x.size:] >= 0))
        if fail.any():
            x[fail] = _bisect_panels(eval_fn, deriv_fn, table_t, table_u, targets[fail])
        out = x.reshape(u_arr.shape)
        return float(out) if out.ndim == 0 else out

    return inverse


def _bisect_panels(eval_fn, deriv_fn, table_t, table_u, t):
    """Step 3 of the inverse: bisect the table panel [T_k, T_k+1] with
    U_k <= u <= U_k+1 of each target u until the bracket is at most
    _ROOT_TOL wide or its ends are adjacent doubles, then take one Newton
    step from its midpoint, clipped into it."""
    k = np.minimum(np.searchsorted(table_u, t, side="right"), _TABLE_PANELS) - 1
    a, b = table_t[k], table_t[k + 1]
    while (wide := (b - a > _ROOT_TOL) & (np.nextafter(a, b) < b)).any():
        mid = 0.5 * (a + b)
        left = np.asarray(eval_fn(mid), dtype=float) - t <= 0
        a, b = np.where(wide & left, mid, a), np.where(wide & ~left, mid, b)
    mid = 0.5 * (a + b)
    newton = mid - _newton_step(eval_fn, deriv_fn, mid, t)
    return np.where(np.isfinite(newton), np.clip(newton, a, b), mid)


def _newton_step(eval_fn, deriv_fn, x, targets):
    with np.errstate(all="ignore"):  # a zero, infinite or NaN deriv_fn
        return ((np.asarray(eval_fn(x), dtype=float) - targets)
                / np.asarray(deriv_fn(x), dtype=float))


def _float(value) -> float:
    """``float(value)``, with an integer beyond the double range taken as
    the infinity of its sign, so that the finiteness rules reject it."""
    try:
        return float(value)
    except OverflowError:
        return np.inf if value > 0 else -np.inf


def _checked_domain(domain) -> tuple[float, float]:
    lo, hi = _float(domain[0]), _float(domain[1])
    if not -np.inf < lo < hi < np.inf:
        raise DomainViolation(f"domain [{lo}, {hi}] is empty or not finite")
    return lo, hi


def make_psi(kind: str, params=(), domain=(0.0, 1.0)) -> PsiMap:
    """Build one of the registered transform kinds.

    Parameters
    ----------
    kind:
        ``identity``, ``power``, ``log`` or ``exp``.
    params:
        ``power`` takes exactly one, its exponent (:func:`psi_from_config`
        passes the config's ``rho`` there); every other kind takes none.
    domain:
        Closed interval ``[a, b]`` with finite ends on which the map is used.

    Raises
    ------
    DomainViolation
        Unknown kind, wrong number of parameters, an empty or non-finite
        domain, ``log`` with a nonpositive left endpoint, or a power
        exponent that is not finite and positive.
    NonMonotone
        Derivative fails the positivity spot check.
    """
    lo, hi = _checked_domain(domain)
    arity = _KIND_ARITY.get(kind)
    if arity is None:
        raise DomainViolation(f"unknown map kind {kind!r}")
    if len(params) != arity:
        raise DomainViolation(
            f"{kind} map takes {arity} parameter(s), got {len(params)}")

    if kind == "identity":
        fns = (lambda t: np.asarray(t, dtype=float) + 0.0,
               lambda t: np.ones_like(np.asarray(t, dtype=float)),
               lambda u: np.asarray(u, dtype=float) + 0.0)
    elif kind == "power":
        rho = _float(params[0])
        if not 0 < rho < np.inf:
            raise DomainViolation("power map needs a finite positive exponent")
        if lo < 0:
            raise DomainViolation("power map requires a nonnegative domain")
        fns = (lambda t, r=rho: np.power(np.asarray(t, dtype=float), r),
               lambda t, r=rho: r * np.power(np.asarray(t, dtype=float), r - 1.0),
               lambda u, r=rho: np.power(np.asarray(u, dtype=float), 1.0 / r))
    elif kind == "log":
        if lo <= 0:
            raise DomainViolation("log map requires domain start > 0")
        fns = (lambda t: np.log(np.asarray(t, dtype=float)),
               lambda t: 1.0 / np.asarray(t, dtype=float),
               lambda u: np.exp(np.asarray(u, dtype=float)))
    else:
        fns = (lambda t: np.exp(np.asarray(t, dtype=float)),
               lambda t: np.exp(np.asarray(t, dtype=float)),
               lambda u: np.log(np.asarray(u, dtype=float)))

    eval_fn, deriv_fn, inverse_fn = fns
    ts = _check_derivative(deriv_fn, (lo, hi))
    _check_increasing(ts, np.asarray(eval_fn(ts), dtype=float))
    return PsiMap(kind=kind, domain=(lo, hi),
                  _eval=eval_fn, _deriv=deriv_fn, _inverse=inverse_fn)


def make_custom_psi(eval_fn, deriv_fn, domain) -> PsiMap:
    """Wrap user callables as a transform map.

    The derivative is spot-checked at 64 interior sample points, and
    ``eval_fn`` is sampled once, here, on 512 equal panels in t: its two
    domain ends as floats and the 511 interior points in one array call.
    The map keeps these 513 ``(t, Psi(t))`` pairs (8 KB, read-only), and
    :class:`NonMonotone` names the first sampled t where the values are
    not finite or not strictly increasing.  Monotonicity between the
    samples is not proven.  ``eval_fn`` and ``deriv_fn`` are evaluated on
    floats and on 1-D numpy arrays.  The inverse runs over all targets at
    once in three steps: Newton steered by ``deriv_fn`` from the table
    read backwards, linear in each panel (one ``eval_fn`` and one
    ``deriv_fn`` call per step), one ``eval_fn`` call that certifies each
    node by a sign change of ``eval_fn(t) - u`` at ``t -+ max(5e-14,
    1 ulp)``, and, only for the nodes that fail it, a bisection of the
    node's table panel to a bracket at most 5e-14 wide (or one ulp where
    doubles are coarser) with one Newton step from its midpoint.  So every
    returned point is within max(5e-14, 1 ulp) of a sign change.  With the
    true derivative a grid of ``t + 0.4 sin t`` then costs 5 or 6
    ``eval_fn`` calls whatever its size, on [0, 1] as on [600, 601],
    counting the two end values ``build_grid`` takes itself, and
    ``t + 0.1 sin t`` inverts 511 targets on [0, 2] in 3 calls.  A wrong derivative only costs
    calls, never accuracy: its Newton steps stop early and the certificate
    sends the nodes to the bisection (40 or 41 calls on [0, 2]).  The
    inverse keeps the input shape and raises :class:`DomainViolation` for
    targets that are not finite or lie outside
    ``[eval_fn(lo), eval_fn(hi)]``.
    """
    lo, hi = _checked_domain(domain)
    _check_derivative(deriv_fn, (lo, hi))  # the table checks the values
    return PsiMap(kind="custom", domain=(lo, hi), _eval=eval_fn, _deriv=deriv_fn,
                  _inverse=_bracketed_inverse(eval_fn, deriv_fn, (lo, hi)))


def psi_from_config(cfg) -> PsiMap:
    """Build a map from its JSON object ``{"kind", "domain", "rho"?}``:
    a string kind, two numbers and, if present, a numeric ``rho`` that
    :func:`make_psi` takes as its one parameter (so only ``power`` accepts
    it, and ``power`` needs it).  Any other key or encoding raises
    :class:`DomainViolation`, as do the rules of :func:`make_psi`."""
    if not isinstance(cfg, dict):
        raise DomainViolation("map config must be a JSON object")
    raise_on([f"unknown map config key {key!r}" for key in cfg
              if key not in ("kind", "domain", "rho")], DomainViolation)
    kind, domain = cfg.get("kind"), cfg.get("domain", ())
    params = (cfg["rho"],) if "rho" in cfg else ()
    if not (isinstance(kind, str) and isinstance(domain, (list, tuple))
            and len(domain) == 2 and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in (*domain, *params))):
        raise DomainViolation("map config needs a string 'kind', a 'domain' "
                              "of two numbers and a numeric 'rho' if any")
    return make_psi(kind, params, (domain[0], domain[1]))


def psi_increment(psi: PsiMap, a: float, t: float) -> float:
    """Increment of the transform between two ordered domain points.

    Returns exactly 0.0 when ``t == a``.
    """
    raise_on(psi.domain_violations((a, "a"), (t, "t")), DomainViolation)
    if t < a:
        raise DomainViolation(f"need a <= t, got a={a!r}, t={t!r}")
    if t == a:
        return 0.0
    return float(psi.value(t) - psi.value(a))
