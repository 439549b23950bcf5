"""Double-precision reference formulas used when checking outputs.

These are written independently of psihilfer and are only used where
they are accurate to well below the check tolerances: Mittag-Leffler
series for |z| <= 2.5 (no significant cancellation), positive series
for the bound certificates, and the tolerance rule shared by all
tabulated checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import rgamma

REL_TOL = 1e-10
ABS_TOL = 1e-12
SMALL = 1e-2


def within(got: float, ref: float) -> bool:
    """Relative 1e-10, or absolute 1e-12 where |ref| < 1e-2."""
    diff = abs(got - ref)
    return diff <= REL_TOL * abs(ref) or (abs(ref) < SMALL and diff <= ABS_TOL)


def ml_small(eta: float, nu: float, z: np.ndarray) -> np.ndarray:
    """E[eta, nu](z) by direct summation for |z| <= 2.5."""
    z = np.asarray(z, dtype=float)
    if np.max(np.abs(z), initial=0.0) > 2.5:
        raise ValueError("ml_small is only used for |z| <= 2.5")
    total = np.zeros_like(z)
    power = np.ones_like(z)
    k = 0
    while True:
        coef = float(rgamma(k * eta + nu))
        total += power * coef
        # terms fall like 2.5^k / Gamma(k eta + nu); stop well below 1e-17
        if k > 8 and 2.5 ** k * abs(coef) < 1e-20:
            return total
        power = power * z
        k += 1


def positive_tails(eta: float, nu: float, z: float, n_max: int) -> list[float]:
    """T[m] = sum_{k > m} z^k / Gamma(k eta + nu) for z > 0, m = 0..n_max."""
    terms = []
    k = 0
    while True:
        log_t = k * math.log(z) - math.lgamma(k * eta + nu)
        terms.append(math.exp(log_t) if log_t > -745.0 else 0.0)
        if k > n_max + 1 and log_t < -745.0:
            break
        k += 1
    tails = [0.0] * (n_max + 1)
    running = 0.0
    for k in range(len(terms) - 1, 0, -1):
        running += terms[k]
        if k - 1 <= n_max:
            tails[k - 1] = running
    return tails


def ml_positive(eta: float, nu: float, z: float) -> float:
    """E[eta, nu](z) for z >= 0 (all terms positive)."""
    return math.exp(-math.lgamma(nu)) + (positive_tails(eta, nu, z, 0)[0]
                                         if z > 0 else 0.0)


def existence_interval_identity(k_box: float, eta: float, zeta: float,
                                norm_f: float, xi: float) -> float:
    """chi of the existence-interval formula for Psi(t) = t, a = 0."""
    offset = (k_box * math.gamma(eta + zeta) / (math.gamma(zeta) * norm_f)) ** (1.0 / eta)
    return xi if offset >= xi else offset
