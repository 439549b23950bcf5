"""Registry of admissible monotone transform functions.

Every fractional operator in this package is taken with respect to a
strictly increasing C1 transform.  A :class:`PsiMap` bundles the
transform, its first derivative and its inverse over a closed interval.
Built-in kinds cover the identity, power, logarithm and exponential
cases; arbitrary user transforms are supported through ``custom``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainViolation, NonMonotone, raise_on

_MONOTONE_SAMPLES = 64
_BRACKET_ATOL = 1e-13
# least distance from an iterate of the custom inverse to the neighbours it
# is probed with: a converged iterate's bracket closes below _BRACKET_ATOL
_CLOSE_STEP = 2.5e-14
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


def _check_monotone(eval_fn, deriv_fn, domain) -> None:
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
    vals = np.asarray(eval_fn(ts), dtype=float)
    if np.any(np.diff(vals) <= 0.0):
        raise NonMonotone("sampled transform values are not strictly increasing")


def _bracketed_inverse(eval_fn, deriv_fn, domain):
    lo, hi = domain
    # adjacent doubles can be more than _BRACKET_ATOL apart only from
    # |t| = 512 on; below that the width test alone ends every bracket
    coarse = np.spacing(max(abs(lo), abs(hi))) > _BRACKET_ATOL

    def still_open(a, b):
        wide = b - a > _BRACKET_ATOL
        return wide & (np.nextafter(a, b) < b) if coarse else wide

    def inverse(u):
        # One safeguarded Newton iteration over all targets (rtsafe, Numerical
        # Recipes 3rd ed. 9.4).  Each step calls eval_fn once on the iterates
        # x and their neighbours x -+ max(|last step| / 2, _CLOSE_STEP), and
        # every probe moves a bracket [a, b] with Psi(a) <= u <= Psi(b): once
        # Newton converges, the neighbours straddle the root and the bracket
        # closes.  A target is done when its bracket is at most
        # _BRACKET_ATOL wide, or its ends are adjacent doubles (|t| >= 512,
        # where one ulp exceeds _BRACKET_ATOL).  A Newton point that is not
        # finite, leaves the bracket, stays put twice or fails rtsafe's
        # halving test gives way to the midpoint, whose neighbours then
        # quarter the bracket, so a wrong deriv_fn costs steps, never
        # accuracy.
        u_arr = np.asarray(u, dtype=float)
        targets = u_arr.ravel()
        f_lo, f_hi = eval_fn(lo), eval_fn(hi)
        # NaN fails both comparisons, so non-finite targets are rejected too
        bad = ~((f_lo - targets <= 0) & (f_hi - targets >= 0))
        if bad.any():
            raise DomainViolation(f"inverse target {targets[bad][0]!r} outside range")
        a, b = np.full_like(targets, lo), np.full_like(targets, hi)
        with np.errstate(all="ignore"):  # a flat map gives 0/0 here
            w = (targets - f_lo) / (f_hi - f_lo)
        # the secant guess; its weights put the end targets on lo and hi
        x = np.clip(np.where(np.isfinite(w), (1.0 - w) * lo + w * hi, lo), lo, hi)
        step = prev_step = b - a  # sizes of the last two steps, as in rtsafe
        spread = np.full_like(targets, _CLOSE_STEP)
        active = still_open(a, b)
        while active.any():
            probes = np.stack((x, np.maximum(x - spread, a), np.minimum(x + spread, b)))
            resid = np.asarray(eval_fn(probes.ravel()), dtype=float).reshape(3, -1) - targets
            left = resid <= 0
            a = np.where(active, np.maximum(a, np.where(left, probes, lo).max(0)), a)
            b = np.where(active, np.minimum(b, np.where(left, hi, probes).min(0)), b)
            # when x and a neighbour both fall on one side of the root, Newton
            # goes on from the neighbour, which is the new end of the bracket
            fx = np.where(x < a, resid[2], np.where(x > b, resid[1], resid[0]))
            x = np.minimum(np.maximum(x, a), b)
            if not (active := still_open(a, b)).any():
                break
            dfx = np.asarray(deriv_fn(x), dtype=float)
            with np.errstate(all="ignore"):  # a zero, infinite or NaN deriv_fn
                newton_step = fx / dfx
                newton = x - newton_step
                size = np.abs(newton_step)
                # a step that rounds to nothing keeps x on an end of its
                # bracket, probed already: it is taken only while the
                # neighbours are wider than _CLOSE_STEP, to draw them in;
                # taken again it would crawl across a flat residual by
                # _CLOSE_STEP a step
                moves = (newton != x) | (spread > _CLOSE_STEP)
                # rtsafe's halving test |2 f| <= |dx_old f'| divided by |f'|;
                # a NaN Newton point fails every comparison and is not taken
                take = (a <= newton) & (newton <= b) & moves & (2.0 * size <= prev_step)
            half = 0.5 * (b - a)
            prev_step, step = step, np.where(take, size, half)
            spread = np.maximum(0.5 * step, _CLOSE_STEP)
            x = np.where(active, np.where(take, newton, a + half), x)
        out = x.reshape(u_arr.shape)
        return float(out) if out.ndim == 0 else out

    return inverse


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
    _check_monotone(eval_fn, deriv_fn, (lo, hi))
    return PsiMap(kind=kind, domain=(lo, hi),
                  _eval=eval_fn, _deriv=deriv_fn, _inverse=inverse_fn)


def make_custom_psi(eval_fn, deriv_fn, domain, inverse_fn=None) -> PsiMap:
    """Wrap user callables as a transform map.

    Monotonicity is spot-checked at 64 interior sample points, not
    proven.  ``eval_fn`` and ``deriv_fn`` are evaluated on floats and on
    1-D numpy arrays.  When ``inverse_fn`` is omitted the inverse is one
    safeguarded Newton iteration over all targets at once, steered by
    ``deriv_fn``: each step calls ``eval_fn`` and ``deriv_fn`` once on an
    array, and a target is done when a bracket at most 1e-13 wide, or one
    whose ends are adjacent doubles, holds its root, so every returned
    point is within 1e-13 of a sign change of ``eval_fn(t) - u``, or
    within one ulp where doubles are coarser (|t| >= 512).  With the
    true derivative a grid of ``t + 0.4 sin t`` on [0, 1] costs 7
    ``eval_fn`` calls whatever its size.  A wrong derivative only costs speed, never accuracy: a step
    whose Newton point is not finite, leaves the bracket, does not halve
    fast enough or rounds to nothing a second time takes the bracket
    midpoint instead (26 to 58 calls on [0, 2] for zero, NaN, infinite,
    negated or badly scaled derivatives).  The
    inverse keeps the input shape and raises :class:`DomainViolation`
    for targets that are not finite or lie outside
    ``[eval_fn(lo), eval_fn(hi)]``.
    """
    lo, hi = _checked_domain(domain)
    _check_monotone(eval_fn, deriv_fn, (lo, hi))
    if inverse_fn is None:
        inverse_fn = _bracketed_inverse(eval_fn, deriv_fn, (lo, hi))
    return PsiMap(kind="custom", domain=(lo, hi),
                  _eval=eval_fn, _deriv=deriv_fn, _inverse=inverse_fn)


def psi_from_config(cfg) -> PsiMap:
    """Build a map from its JSON object ``{"kind", "domain", "rho"?}``:
    a string kind, two numbers and, if present, a numeric ``rho`` that
    :func:`make_psi` takes as its one parameter (so only ``power`` accepts
    it, and ``power`` needs it).  Any other encoding raises
    :class:`DomainViolation`, as do the rules of :func:`make_psi`."""
    if not isinstance(cfg, dict):
        raise DomainViolation("map config must be a JSON object")
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


def roundtrip_error(psi: PsiMap, ts) -> float:
    """Max relative error of inverse(value(t)) over the given points."""
    ts = np.asarray(ts, dtype=float)
    back = np.asarray(psi.inverse(psi.value(ts)), dtype=float)
    scale = np.maximum(1.0, np.abs(ts))
    return float(np.max(np.abs(back - ts) / scale))
