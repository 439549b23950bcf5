"""Fractional integral, composite derivative and weighted-space plumbing.

The integral of order eta with respect to a transform Psi,

    (I h)(t) = 1/Gamma(eta) * integral_a^t Psi'(s) (Psi(t)-Psi(s))^(eta-1) h(s) ds,

is discretized by product integration after substituting u = Psi(s):
the grid is uniform in u, the smooth factor is interpolated linearly on
each panel and the singular kernel is integrated exactly against each
linear piece.  The Abel weights depend only on the node distance, so
evaluation at all nodes is a discrete convolution, run as one FFT
(Hairer, Lubich & Schlichte 1985).  It takes samples of
w = X^(1-zeta) h, X = Psi(t)-Psi(a).  At zeta = 1, w = h (plain samples)
goes through the product rule as it is.  Otherwise the affine part
w0 + s X of w (s the first-panel slope) is integrated in closed form,
the remainder X^(zeta-1) (w - w0 - s X), zero on both ends of the first
panel, by the product rule (Lubich 1985).  X^(zeta-1) times an affine
function of u is integrated exactly, so the left-endpoint singularity
never degrades the order; O(n log n) time, O(n) memory.

The composite derivative of order eta and type nu chains
I^{nu(1-eta)} after d/du after I^{(1-nu)(1-eta)}, where d/du is the
derivative in the transformed variable (identical to (1/Psi') d/dt).

An operator's tables depend on its grid only through n and powers of
the step h, since X = i h at node i: the kernel spectrum is that of the
unit-step kernel times h^eta / Gamma(eta), X^(zeta-1) is i^(zeta-1)
times h^(zeta-1), and so on.  The unit-step (h = 1) tables are memoized
by (n, eta, zeta) and shared read-only across calls and threads, bounded
at 32 entries (least recently used dropped first), so a build on a new
grid of a known size and order is O(n) multiplies, not a kernel, an FFT
and four powers.  An entry holds about 60 KB at n = 1024 and 3.8 MB at
n = 65536 (43 KB and 2.8 MB at zeta = 1), so 32 entries at n = 65536
hold about 120 MB; a Picard solve with its residual check reads three
keys, and each benchmark workload cycles through at most 28.  A memoized
entry is the one a fresh computation gives, so every result is the same
warm or cold.  A power table that is finite on the grid but not at unit
step raises OverflowGuard: i^(zeta-1), i^(1-zeta) and i^zeta need
|zeta - 1| log n and zeta log n below about 709, which only weights
zeta > 1 reach (the kernel's d^(eta+1) already needs (eta + 1) log n
below it).

All operations are pure; tables are immutable after construction and
every sum, the FFT included, runs in a fixed order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (DomainViolation, GridMismatch, GridTooCoarse,
                     OverflowGuard, broken, raise_on)
from .psi_maps import PsiMap, psi_increment
from .special_fn import (_check_params, _ml2_moments, _tail_argument, log_gamma,
                         ml2_tail_sums)

_ZETA_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class OrderParams:
    """Order eta, type nu and the derived weight exponent zeta.

    zeta = eta + nu*(1 - eta); nu = 0 gives zeta = eta and nu = 1 gives
    zeta = 1, matching the two classical derivative conventions.
    """

    eta: float
    nu: float
    zeta: float = field(init=False)

    def __post_init__(self):
        raise_on(self.violations(self.eta, self.nu), DomainViolation)
        object.__setattr__(self, "zeta", self.eta + self.nu * (1.0 - self.eta))

    @staticmethod
    def violations(eta, nu) -> list[str]:
        """The message of each rule eta and nu break (None is unchecked).
        eta = 1 is the classical boundary case: both partial orders of the
        composite derivative vanish and the representation formulas reduce
        to their ordinary-ODE limits."""
        return broken((eta, lambda v: 0.0 < v <= 1.0, "eta must lie in (0,1]"),
                      (nu, lambda v: 0.0 <= v <= 1.0, "nu must lie in [0,1]"))


def _xpow(x: np.ndarray, p: float) -> np.ndarray:
    """x**p; at x = 0 that is 1 for p = 0 and inf for p < 0."""
    with np.errstate(divide="ignore"):
        return np.power(np.asarray(x, dtype=float), p)


@dataclass(frozen=True)
class PsiGrid:
    """Nodes t_i = Psi^{-1}(Psi(a) + i*h), uniform in u = Psi(t)."""

    n: int
    nodes: np.ndarray = field(repr=False)
    h: float

    @property
    def x(self) -> np.ndarray:
        """Transform increments Psi(t_i) - Psi(a) = i*h."""
        return np.arange(self.n + 1) * self.h

    def x_pow(self, p: float) -> np.ndarray:
        return _xpow(self.x, p)


def build_grid(psi: PsiMap, a: float, b: float, n: int) -> PsiGrid:
    """Construct a transform-uniform grid with n panels on [a, b]."""
    if n < 1:
        raise GridTooCoarse("need at least one panel")
    raise_on(psi.domain_violations((a, "a"), (b, "b")), DomainViolation)
    if not a < b:
        raise DomainViolation(f"need a < b, got a={a!r}, b={b!r}")
    u0 = float(psi.value(a))
    u1 = float(psi.value(b))
    h = (u1 - u0) / n
    nodes = np.empty(n + 1)
    nodes[0] = a
    nodes[n] = b
    if n > 1:
        inner_u = u0 + np.arange(1, n) * h
        nodes[1:n] = np.asarray(psi.inverse(inner_u), dtype=float)
    if np.any(np.diff(nodes) <= 0):
        raise DomainViolation("grid nodes are not strictly increasing")
    return PsiGrid(n=n, nodes=nodes, h=h)


@dataclass
class WeightedGridFunction:
    """Samples w_i = (Psi(t_i)-Psi(a))^(1-zeta) * y(t_i) on a grid.

    This is the singularity-free representation: y itself may blow up
    like (Psi(t)-Psi(a))^(zeta-1) at the left endpoint while w stays
    bounded.  w[0] carries the limiting weighted value at t = a.
    """

    grid: PsiGrid
    zeta: float
    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if self.w.shape != (self.grid.n + 1,):
            raise GridMismatch(
                f"expected {self.grid.n + 1} samples, got {self.w.shape}"
            )
        if not np.all(np.isfinite(self.w)):
            raise DomainViolation("weighted samples must be finite")
        # solution spaces use zeta in (0,1]; generic power weights up to
        # any positive exponent are accepted for quadrature tests
        _check_params(zeta=self.zeta)

    def weighted_norm(self) -> float:
        return float(np.max(np.abs(self.w)))

    def to_plain(self) -> np.ndarray:
        """Recover y(t_i).  The t = a entry is NaN when zeta < 1; any other
        entry past the double range raises OverflowGuard."""
        # 0 * inf at t = a for zeta < 1; a finite w times a large X^(zeta-1)
        with np.errstate(over="ignore", invalid="ignore"):
            y = self.w * self.grid.x_pow(self.zeta - 1.0)
        if not np.isfinite(y[1:]).all():
            raise OverflowGuard("the plain values y = X^(zeta-1) w on this grid "
                                "exceed the floating-point range")
        if self.zeta != 1.0:
            y[0] = np.nan if self.zeta < 1.0 else 0.0
        return y


def _abel_kernels(eta: float, n: int, z=None) -> tuple[np.ndarray, np.ndarray]:
    """Distance-indexed weights of the linear-interpolant product rule.

    For a panel ending d steps before the target, cl(d) and cr(d) weight
    the left and right panel values of r^(eta-1) (r in steps); both are
    nonnegative.  Given z[d] = lam X_d^eta, they are exact for the resolvent
    Gamma(eta) r^(eta-1) E[eta,eta](lam r^eta) (Garrappa & Popolizio 2011).
    """
    d = np.arange(n + 1, dtype=float)
    e0 = e1 = 1.0
    if z is not None:
        # the resolvent's moments over [0, d] are Gamma(eta) d^eta E[eta,eta+1](z)
        # and Gamma(eta) d^(eta+1) (E[eta,eta+1] - E[eta,eta+2])(z); a term
        # past e^700 raises OverflowGuard as in every series sum
        e = math.exp(log_gamma(eta + 1.0)) * _ml2_moments(eta, z)
        e0, e1 = e[0], (eta + 1.0) / eta * (e[0] - e[1])
    p0 = np.diff(d ** eta * e0) / eta
    p1 = d[1:] * p0 - np.diff(d ** (eta + 1.0) * e1) / (eta + 1.0)
    return np.maximum(p0 - p1, 0.0), np.maximum(p1, 0.0)


def _kernel_spectrum(eta: float, n: int, z=None) -> tuple[int, np.ndarray, np.ndarray]:
    """The unit-step (h = 1) product rule of _abel_kernels(eta, n, z)
    without its 1/Gamma(eta): the FFT length, the rfft of the merged
    kernel and the node-0 excess.  Entries that are not finite are kept;
    _abel_product_rule raises on them once they are scaled."""
    with np.errstate(all="ignore"):
        cl, cr = _abel_kernels(eta, n, z)
        # each node's weights from the panels on its two sides merge into
        # one kernel; node 0 ends no panel, so the right-end share that the
        # merged kernel gives it is subtracted after the convolution
        kernel = np.zeros(n + 1)
        kernel[:n] += cr
        kernel[1:] += cl
        # padding to > 2n keeps the circular convolution free of
        # wrap-around; lengths 2^a 3^b transform fastest
        p = 1 << (2 * n).bit_length()
        nfft = min(k for k in (p, 3 * p // 4, 9 * p // 16) if k > 2 * n)
        return nfft, np.fft.rfft(kernel, nfft), np.append(cr, 0.0)


def _abel_product_rule(eta: float, h: float, spectrum):
    """Return g -> product-rule sums at every node by one FFT convolution:
    out[j] = h^eta / Gamma(eta) * sum over the panels left of node j of
    cl(d) * g(left end) + cr(d) * g(right end), with the weights of
    _abel_kernels whose _kernel_spectrum is ``spectrum``, and out[0] = 0.
    Raises OverflowGuard when the scaled weights leave the double range."""
    nfft, unit_hat, unit_excess = spectrum
    n = len(unit_excess) - 1
    with np.errstate(all="ignore"):  # h^eta past the double range is inf
        scale = np.power(h, eta) * math.exp(-log_gamma(eta))
        kernel_hat = unit_hat * scale
        excess0 = unit_excess * scale
    if not (np.isfinite(kernel_hat).all() and np.isfinite(excess0).all()):
        raise OverflowGuard(f"the order-{eta!r} weights on this grid "
                            "exceed the floating-point range")

    def apply(g: np.ndarray) -> np.ndarray:
        out = np.fft.irfft(np.fft.rfft(g, nfft) * kernel_hat, nfft)[:n + 1]
        out -= excess0 * g[0]
        out[0] = 0.0
        return out

    return apply


class _UnitTables(NamedTuple):
    """The tables of FracIntegralOperator(grid, eta, zeta) on an n-panel
    grid at unit step h = 1, with X = i, all read-only; the operator
    scales each by a power of its h."""

    spectrum: tuple  # _kernel_spectrum(eta, n), scaled by h^eta / Gamma(eta)
    to_plain: np.ndarray  # i^(zeta-1), 0 at i = 0; scaled by h^(zeta-1)
    to_weighted: np.ndarray  # i^(1-zeta), 0 at i = 0; scaled by h^(1-zeta)
    int_const: np.ndarray | None  # for zeta != 1; scaled by h^eta
    slope_defect: np.ndarray | None  # for zeta != 1; scaled by h^(eta+1)


@functools.lru_cache(maxsize=32)
def _unit_tables(n: int, eta: float, zeta: float) -> _UnitTables:
    """The unit-step tables of an operator, memoized (see the module
    docstring).  A table that is not finite is kept; the operator raises
    on it once it is scaled."""
    spectrum = _kernel_spectrum(eta, n)
    i = np.arange(n + 1, dtype=float)
    int_const = slope_defect = None
    with np.errstate(all="ignore"):
        to_plain = _xpow(i, zeta - 1.0)
        to_plain[0] = 0.0
        to_weighted = _xpow(i, 1.0 - zeta)
        to_weighted[0] = 0.0
        if zeta != 1.0:
            # weighted-form integral of X^(zeta-1), and that of X^zeta minus
            # its product-rule value (the product rule of w - w0 in apply
            # already carries the slope part; this restores it exactly)
            int_const = math.exp(log_gamma(zeta) - log_gamma(zeta + eta)) * i ** eta
            slope_defect = (math.exp(log_gamma(zeta + 1.0) - log_gamma(zeta + 1.0 + eta))
                            * i ** (eta + 1.0)
                            - to_weighted * _abel_product_rule(eta, 1.0, spectrum)(i ** zeta))
    tables = _UnitTables(spectrum, to_plain, to_weighted, int_const, slope_defect)
    for table in (*spectrum[1:], *tables[1:]):
        if table is not None:
            table.flags.writeable = False
    return tables


class FracIntegralOperator:
    """Reusable discretization of the fractional integral on one grid.

    ``apply_weighted`` integrates h = X^(zeta-1) w from the weighted
    samples w.  At ``zeta = 1`` (the default) w = h takes no affine
    split: it and ``apply_plain``, which only such an operator accepts,
    are the bare FFT product rule.  The O(n) tables
    ``to_plain = X^(zeta-1)`` and ``to_weighted = X^(1-zeta)`` are 0 at
    t = a.  The ``apply_*`` methods are deterministic linear maps.  Raises
    :class:`OverflowGuard` when a table leaves the double range.
    """

    def __init__(self, grid: PsiGrid, eta: float, zeta: float = 1.0):
        _check_params(eta=eta, zeta=zeta)
        self.grid = grid
        eta = float(eta)
        self.zeta = z = float(zeta)
        # X = i h, so each table is its unit-step table times a power of h
        unit = _unit_tables(grid.n, eta, z)
        h = grid.h
        self._conv = _abel_product_rule(eta, h, unit.spectrum)
        with np.errstate(all="ignore"):  # a table that is not finite raises below
            self.to_plain = unit.to_plain * np.power(h, z - 1.0)
            self.to_weighted = unit.to_weighted * np.power(h, 1.0 - z)
            tables = [self.to_plain, self.to_weighted]
            if z != 1.0:
                self._int_const = unit.int_const * np.power(h, eta)
                self._slope_defect = unit.slope_defect * np.power(h, eta + 1.0)
                tables += [self._int_const, self._slope_defect]
        if not all(np.isfinite(table).all() for table in tables):
            raise OverflowGuard(f"the order-{eta!r} power tables on this grid "
                                "exceed the floating-point range")

    def apply_plain(self, g: np.ndarray) -> np.ndarray:
        """Integral of finite samples g at every node; exact for g affine in u."""
        if self.zeta != 1.0:
            raise GridMismatch("plain samples need an operator with zeta = 1")
        g = self._samples(g)
        if not np.all(np.isfinite(g)):
            raise DomainViolation(
                "plain samples must be finite; use weighted mode for "
                "functions that are singular at the left endpoint"
            )
        return self._conv(g)

    def apply_weighted(self, w: np.ndarray) -> np.ndarray:
        """Weighted-form integral of weighted samples.

        Input w represents h = (Psi-Psi(a))^(zeta-1) w; the return value
        is (Psi-Psi(a))^(1-zeta) * (I h), which is finite everywhere and
        exactly zero at the left endpoint.
        """
        w = self._samples(w)
        if self.zeta == 1.0:
            # w = h, and the product rule alone is exact on affine samples
            return self._conv(w)
        w0 = w[0]
        slope = (w[1] - w0) / self.grid.h
        # w0 + slope X is integrated in closed form and the product rule
        # of X^(zeta-1) (w - w0 - slope X) is split by linearity, so
        # that no large ramp is rounded in the FFT
        out = (w0 * self._int_const + slope * self._slope_defect
               + self.to_weighted * self._conv(self.to_plain * (w - w0)))
        out[0] = 0.0
        return out

    def _samples(self, g: np.ndarray) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        if g.shape != (self.grid.n + 1,):
            raise GridMismatch(f"expected {self.grid.n + 1} samples")
        return g


def monomial_oracle(psi: PsiMap, eta: float, delta: float, a: float, t) -> float | np.ndarray:
    """Closed form of the integral of (Psi(.)-Psi(a))^(delta-1).

    Equals Gamma(delta)/Gamma(eta+delta) * (Psi(t)-Psi(a))^(eta+delta-1)
    and serves as the primary quadrature oracle.
    """
    _check_params(eta=eta, delta=delta)
    coeff = math.exp(log_gamma(delta) - log_gamma(eta + delta))
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    xs = np.empty(t_arr.size)
    for i, ti in enumerate(np.atleast_1d(t_arr)):
        xs[i] = psi_increment(psi, a, float(ti))
    vals = coeff * _xpow(xs, eta + delta - 1.0)
    return float(vals[0]) if scalar else vals.reshape(t_arr.shape)


def hilfer_derivative(params: OrderParams, y: WeightedGridFunction) -> np.ndarray:
    """Composite fractional derivative of order eta and type nu.

    Returns plain derivative values at the interior nodes t_1 .. t_{n-1}
    (differencing drops the endpoints).  The inner integral is computed
    in weighted mode; its left limit w0 * Gamma(zeta) is exact because
    the inner order and zeta always sum to one.  The u-derivative uses
    central differences with second-order one-sided stencils feeding the
    endpoint values of the outer integral.
    """
    grid = y.grid
    n = grid.n
    if n < 8:
        raise GridTooCoarse("composite derivative needs n >= 8")
    if abs(y.zeta - params.zeta) > _ZETA_MATCH_TOL:
        raise GridMismatch(
            f"samples weighted with zeta={y.zeta!r}, expected {params.zeta!r}"
        )
    beta_in = (1.0 - params.nu) * (1.0 - params.eta)
    beta_out = params.nu * (1.0 - params.eta)

    if beta_in == 0.0:
        v = y.w.copy()  # beta_in = 0 forces zeta = 1, so w is already plain
    else:
        op_in = FracIntegralOperator(grid, beta_in, zeta=params.zeta)
        v = op_in.apply_weighted(y.w) * op_in.to_plain
        v[0] = y.w[0] * math.exp(log_gamma(params.zeta)
                                 - log_gamma(beta_in + params.zeta))

    h = grid.h
    dv = np.empty(n + 1)
    dv[1:n] = (v[2:] - v[:-2]) / (2.0 * h)
    dv[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    dv[n] = (3.0 * v[n] - 4.0 * v[n - 1] + v[n - 2]) / (2.0 * h)

    if beta_out == 0.0:
        out = dv
    else:
        op_out = FracIntegralOperator(grid, beta_out)
        out = op_out.apply_plain(dv)
    return out[1:n]


def gronwall_bound(psi: PsiMap, eta: float, a: float, t: float,
                   v_bound: float, g_bound: float) -> float:
    """A-priori majorant for kernel-weighted integral inequalities.

    For nonnegative data with nondecreasing majorants v, g the solution
    is dominated by v * E[eta, 1](g * Gamma(eta) * (Psi(t)-Psi(a))^eta).
    E[eta, 1] is 1 plus its tail past k = 0, as in the a-priori bound, so a
    sum that does not converge raises :class:`SeriesNotConverged`, and an
    argument past the double range :class:`OverflowGuard`.
    """
    if v_bound < 0 or g_bound < 0:
        raise DomainViolation("majorant values must be nonnegative")
    if v_bound == 0.0:
        return 0.0
    x = psi_increment(psi, a, t)
    try:
        c = g_bound * math.exp(log_gamma(eta)) if g_bound else 0.0
    except OverflowError:  # Gamma(eta) past the double range, g positive
        c = math.inf
    arg = _tail_argument("g*Gamma(eta)*X^eta", c, x, eta)
    return v_bound * (1.0 + ml2_tail_sums(eta, 1.0, arg, 0)[0])
