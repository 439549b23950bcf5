"""Fractional integral, composite derivative and weighted-space plumbing.

The integral of order eta with respect to a transform Psi,

    (I h)(t) = 1/Gamma(eta) * integral_a^t Psi'(s) (Psi(t)-Psi(s))^(eta-1) h(s) ds,

is discretized by product integration after substituting u = Psi(s):
the grid is uniform in u, the smooth factor is interpolated linearly on
each panel and the singular kernel is integrated exactly against each
linear piece.  Two modes exist:

* plain mode expects finite samples of h and uses closed-form Abel
  weights that depend only on the node distance, so evaluation at all
  nodes is a discrete convolution;
* weighted mode expects samples of w(t) = (Psi(t)-Psi(a))^(1-zeta) h(t)
  and folds the full (u-u_a)^(zeta-1) factor into exact panel moments
  (incomplete-Beta integrals) on every panel.  Functions of the form
  (Psi-Psi(a))^(zeta-1) times an affine function of u are integrated
  exactly, so the left-endpoint singularity never degrades the order.

The composite derivative of order eta and type nu chains
I^{nu(1-eta)} after d/du after I^{(1-nu)(1-eta)}, where d/du is the
derivative in the transformed variable (identical to (1/Psi') d/dt).

All operations are pure; weight tables are immutable after
construction and per-node sums accumulate in fixed index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc

from .errors import DomainViolation, GridMismatch, GridTooCoarse
from .psi_maps import PsiMap, psi_increment
from .special_fn import mittag_leffler2, log_gamma

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
        # eta = 1 is admitted as the classical boundary case: both partial
        # orders of the composite derivative collapse to zero and the
        # representation formulas reduce to their ordinary-ODE limits
        if not 0.0 < self.eta <= 1.0:
            raise DomainViolation(f"eta must lie in (0,1], got {self.eta!r}")
        if not 0.0 <= self.nu <= 1.0:
            raise DomainViolation(f"nu must lie in [0,1], got {self.nu!r}")
        object.__setattr__(self, "zeta", self.eta + self.nu * (1.0 - self.eta))


def _xpow(x: np.ndarray, p: float) -> np.ndarray:
    """x**p with the x = 0 entry resolved by the sign of p."""
    x = np.asarray(x, dtype=float)
    if p == 0.0:
        return np.ones_like(x)
    with np.errstate(divide="ignore"):
        out = np.power(x, p)
    if p < 0:
        out[x == 0.0] = np.inf
    return out


@dataclass(frozen=True)
class PsiGrid:
    """Nodes t_i = Psi^{-1}(Psi(a) + i*h), uniform in u = Psi(t)."""

    psi: PsiMap
    a: float
    b: float
    n: int
    nodes: np.ndarray = field(repr=False)
    h: float

    @property
    def x(self) -> np.ndarray:
        """Transform increments Psi(t_i) - Psi(a) = i*h."""
        return np.arange(self.n + 1) * self.h

    def x_pow(self, p: float) -> np.ndarray:
        return _xpow(self.x, p)

    def same_layout(self, other: "PsiGrid") -> bool:
        return (self.psi is other.psi and self.a == other.a
                and self.b == other.b and self.n == other.n)


def build_grid(psi: PsiMap, a: float, b: float, n: int) -> PsiGrid:
    """Construct a transform-uniform grid with n panels on [a, b]."""
    if n < 1:
        raise GridTooCoarse("need at least one panel")
    psi.check_in_domain(a, "a")
    psi.check_in_domain(b, "b")
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
    return PsiGrid(psi=psi, a=a, b=b, n=n, nodes=nodes, h=h)


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
        if not self.zeta > 0.0:
            raise DomainViolation(f"zeta must be positive, got {self.zeta!r}")

    def weighted_norm(self) -> float:
        return float(np.max(np.abs(self.w)))

    def to_plain(self) -> np.ndarray:
        """Recover y(t_i).  The t = a entry is NaN when zeta < 1."""
        if self.zeta == 1.0:
            return self.w.copy()
        y = self.w * self.grid.x_pow(self.zeta - 1.0)
        y[0] = np.nan if self.zeta < 1.0 else 0.0
        return y

    @classmethod
    def from_plain(cls, grid: PsiGrid, zeta: float, y: np.ndarray,
                   w0: float | None = None) -> "WeightedGridFunction":
        """Weight plain samples; w[0] is quadratically extrapolated
        from w[1..3] unless supplied."""
        y = np.asarray(y, dtype=float)
        if zeta == 1.0:
            w = y.copy()
            if w0 is not None:
                w[0] = w0
            return cls(grid, zeta, w)
        w = np.empty(grid.n + 1)
        w[1:] = y[1:] * grid.x_pow(1.0 - zeta)[1:]
        if w0 is None:
            if grid.n < 3:
                raise GridTooCoarse("need n >= 3 to extrapolate w[0]")
            w0 = 3.0 * w[1] - 3.0 * w[2] + w[3]
        w[0] = w0
        return cls(grid, zeta, w)


def weighted_norm(w) -> float:
    """Max absolute weighted sample (the natural solution-space norm)."""
    if isinstance(w, WeightedGridFunction):
        return w.weighted_norm()
    return float(np.max(np.abs(np.asarray(w, dtype=float))))


def _abel_kernels(eta: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distance-indexed weights of the linear-interpolant product rule.

    For a panel ending d steps before the target, cl(d) and cr(d) weight
    the left and right panel values; both are nonnegative.
    """
    d = np.arange(1, n + 1, dtype=float)
    dm = d - 1.0
    p0 = (d ** eta - dm ** eta) / eta
    p1 = d * p0 - (d ** (eta + 1.0) - dm ** (eta + 1.0)) / (eta + 1.0)
    cl = p0 - p1
    cr = p1
    return np.maximum(cl, 0.0), np.maximum(cr, 0.0)


def _abel_convolve(g: np.ndarray, cl: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Product-rule sums at every node: out[j] = sum over the panels left
    of node j of cl(d) * g(left end) + cr(d) * g(right end), out[0] = 0."""
    n = len(cl)
    out = np.zeros(n + 1)
    out[1:] = np.convolve(g, cl)[:n] + np.convolve(g[1:], cr)[:n]
    return out


def _weighted_moment_matrix(eta: float, zeta: float, h: float, n: int) -> np.ndarray:
    """Quadrature matrix C with (C @ w)_j = (j h)^(1-zeta) * (I h)(t_j).

    Row j integrates (u_j - u)^(eta-1) (u - u_0)^(zeta-1) times the
    linear interpolant of w over every panel, using incomplete-Beta
    panel moments, then rescales so the output is already in weighted
    form (finite at every node for any eta, zeta in (0,1]).
    """
    lb0 = log_gamma(zeta) + log_gamma(eta) - log_gamma(zeta + eta)
    b0 = math.exp(lb0)
    b1 = b0 * zeta / (zeta + eta)
    inv_geta = math.exp(-log_gamma(eta))

    # One flat evaluation of the regularized incomplete Beta for every
    # (row, node) pair; rows are the triangular index set i <= j.
    total = n * (n + 3) // 2                  # row j contributes j+1 nodes
    xs = np.empty(total)
    pos = 0
    for j in range(1, n + 1):
        xs[pos:pos + j + 1] = np.arange(j + 1) / j
        pos += j + 1
    ia_flat = betainc(zeta, eta, xs)
    # Parameter-shift recurrence avoids a second transcendental sweep:
    # I_x(zeta+1, eta) = I_x(zeta, eta) - x^zeta (1-x)^eta / (zeta B(zeta, eta))
    with np.errstate(invalid="ignore"):
        ib_flat = ia_flat - np.power(xs, zeta) * np.power(1.0 - xs, eta) / (zeta * b0)

    c = np.zeros((n + 1, n + 1))
    pos = 0
    for j in range(1, n + 1):
        ia = ia_flat[pos:pos + j + 1]
        ib = ib_flat[pos:pos + j + 1]
        pos += j + 1
        m0 = b0 * np.diff(ia)
        mx = b1 * np.diff(ib)
        i_idx = np.arange(j, dtype=float)
        lam = j * mx - i_idx * m0
        lam = np.clip(lam, 0.0, np.maximum(m0, 0.0))
        row = np.zeros(j + 1)
        row[:j] += m0 - lam
        row[1:] += lam
        c[j, :j + 1] = row * ((j * h) ** eta * inv_geta)
    return c


class FracIntegralOperator:
    """Reusable discretization of the fractional integral on one grid.

    Weight tables are built once; ``apply_*`` methods are cheap linear
    maps with fixed-order accumulation, so repeated application inside
    an iteration loop is deterministic and fast.
    """

    def __init__(self, grid: PsiGrid, eta: float, zeta: float | None = None):
        if not eta > 0:
            raise DomainViolation(f"eta must be positive, got {eta!r}")
        self.grid = grid
        self.eta = float(eta)
        self.zeta = None if zeta is None else float(zeta)
        if self.zeta is None:
            cl, cr = _abel_kernels(self.eta, grid.n)
            scale = grid.h ** self.eta * math.exp(-log_gamma(self.eta))
            self._cl = cl * scale
            self._cr = cr * scale
            self._matrix = None
        else:
            if not self.zeta > 0.0:
                raise DomainViolation(f"zeta must be positive, got {zeta!r}")
            self._matrix = _weighted_moment_matrix(self.eta, self.zeta,
                                                   grid.h, grid.n)

    def apply_plain(self, g: np.ndarray) -> np.ndarray:
        """Integral of finite samples g at every node; exact for g affine in u."""
        if self._matrix is not None:
            raise GridMismatch("operator was built in weighted mode")
        g = np.asarray(g, dtype=float)
        if g.shape != (self.grid.n + 1,):
            raise GridMismatch(f"expected {self.grid.n + 1} samples")
        if not np.all(np.isfinite(g)):
            raise DomainViolation(
                "plain samples must be finite; use weighted mode for "
                "functions that are singular at the left endpoint"
            )
        return _abel_convolve(g, self._cl, self._cr)

    def apply_weighted(self, w: np.ndarray) -> np.ndarray:
        """Weighted-form integral of weighted samples.

        Input w represents h = (Psi-Psi(a))^(zeta-1) w; the return value
        is (Psi-Psi(a))^(1-zeta) * (I h), which is finite everywhere and
        exactly zero at the left endpoint.
        """
        if self._matrix is None:
            raise GridMismatch("operator was built in plain mode")
        w = np.asarray(w, dtype=float)
        if w.shape != (self.grid.n + 1,):
            raise GridMismatch(f"expected {self.grid.n + 1} samples")
        # row-wise products with pairwise summation: deterministic
        # regardless of BLAS threading configuration
        return (self._matrix * w).sum(axis=1)


def frac_integral(grid: PsiGrid, eta: float, samples, mode: str = "plain"):
    """Fractional integral of sampled data on a transform-uniform grid.

    mode="plain" takes an array of finite samples and returns the
    integral values at the nodes.  mode="weighted" takes a
    :class:`WeightedGridFunction` and returns one on the same grid with
    the same exponent (the integral preserves the weighted class).
    """
    if mode == "plain":
        op = FracIntegralOperator(grid, eta)
        return op.apply_plain(np.asarray(samples, dtype=float))
    if mode == "weighted":
        if not isinstance(samples, WeightedGridFunction):
            raise GridMismatch("weighted mode needs a WeightedGridFunction")
        if not samples.grid.same_layout(grid):
            raise GridMismatch("samples live on a different grid")
        op = FracIntegralOperator(grid, eta, zeta=samples.zeta)
        return WeightedGridFunction(grid, samples.zeta,
                                    op.apply_weighted(samples.w))
    raise DomainViolation(f"unknown mode {mode!r}")


def monomial_oracle(psi: PsiMap, eta: float, delta: float, a: float, t) -> float | np.ndarray:
    """Closed form of the integral of (Psi(.)-Psi(a))^(delta-1).

    Equals Gamma(delta)/Gamma(eta+delta) * (Psi(t)-Psi(a))^(eta+delta-1)
    and serves as the primary quadrature oracle.
    """
    if not eta > 0:
        raise DomainViolation(f"eta must be positive, got {eta!r}")
    if not delta > 0:
        raise DomainViolation(f"delta must be positive, got {delta!r}")
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
        v_weighted = op_in.apply_weighted(y.w)
        v = np.empty(n + 1)
        v[1:] = v_weighted[1:] * grid.x_pow(params.zeta - 1.0)[1:]
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
    """
    if v_bound < 0 or g_bound < 0:
        raise DomainViolation("majorant values must be nonnegative")
    if v_bound == 0.0:
        return 0.0
    x = psi_increment(psi, a, t)
    arg = g_bound * math.exp(log_gamma(eta)) * x ** eta
    return v_bound * mittag_leffler2(eta, 1.0, arg).value
