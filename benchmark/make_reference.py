#!/usr/bin/env python3
"""Build the reference table for the ``oracle_certify`` workload.

Every value in the table is computed with mpmath, independently of the
psihilfer code under test:

* Mittag-Leffler values E[eta, nu](z) by their power series at a working
  precision of log10(largest term) + 40 digits, re-checked at 30 more
  digits, or by the closed forms exp(z), (exp(z)-1)/z and
  exp(z^2) erfc(-z) where they exist;
* Kilbas-Saigo values E[eta, m, l](z) by their coefficient products at
  the same precision rule;
* ``solve_constant`` nodes from
  w = y_a E[eta, zeta](lam X^eta) + c X^(eta+1-zeta) E[eta, eta+1](lam X^eta);
* ``solve_variable`` nodes from w = y_a / Gamma(zeta) E[eta, m, l](lam X^(eta+mu-1)).

A lattice point whose series would need more than ``MAX_DIGITS`` digits
or ``MAX_TERMS`` terms is left out of the lattice, so the benchmark only
asks for values it can check.

``--record-baseline`` then evaluates the library once on every point and
stores, per point, the failure category of the code as it stands.  The
benchmark reports those points as known defects (ROADMAP item 3) and
treats any other failing point as unexpected.

Usage (from the repository root)::

    python benchmark/make_reference.py                    # mpmath values
    PYTHONPATH=src python benchmark/make_reference.py --record-baseline
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE_PATH = os.path.join(HERE, "reference_table.json")

MAX_DIGITS = 400
MAX_TERMS = 6000
EXTRA_DIGITS = 40
SAMPLED_NODES = 16
GRID_N = 1024

ML_ETAS = (0.3, 0.5, 0.6, 0.9, 1.0)
ML_Z = (-50.0, -40.0, -30.0, -20.0, -15.0, -10.0, -8.0, -6.0, -5.0, -4.0,
        -3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0, 5.0)
KS_ETAS = (0.5, 0.6, 0.9)
# (nu, mu) pairs of the variable-coefficient problem; they fix (m, l)
KS_NU_MU = ((0.0, 0.8), (0.4, 1.5), (1.0, 2.0))
KS_Z = (-10.0, -5.0, -3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 5.0)
SC_ORDERS = ((0.3, 1.0), (0.5, 0.5), (0.6, 0.4), (0.9, 0.0))
SC_LAMBDAS = (-10.0, -6.0, -3.0, -1.0, -0.5, 0.5, 1.0)
SC_PSI = ({"kind": "identity", "domain": [0.0, 1.0]},
          {"kind": "log", "domain": [1.0, math.e]})
SC_Y_A = 1.0
SC_FORCING = 0.5
SV_LAMBDAS = (-5.0, -2.0, -1.0, 0.5, 1.0)
BOUNDS_RHS = ("sin(t)*y^2", "cos(t)*y^2 - y", "sin(t)*y^2 + t")
BOUNDS_ORDERS = ((0.5, 0.4), (0.6, 0.4), (0.9, 0.0))
BOUNDS_Y_A = (0.5, 1.0)


def ks_params(eta: float, nu: float, mu: float) -> tuple[float, float]:
    """(m, l) of the variable-coefficient series, as in linear_forms."""
    zeta = eta + nu * (1.0 - eta)
    return 1.0 + (mu - 1.0) / eta, (mu + zeta - 2.0) / eta


def _ml_log10_terms(eta, nu, z):
    """log10 |k-th term| of the E[eta, nu] series for k = 0, 1, ..."""
    lz = math.log10(abs(z))
    k = 0
    while True:
        yield k * lz - math.lgamma(k * eta + nu) / math.log(10.0)
        k += 1


def _ks_log10_terms(eta, m, l, z):
    lz = math.log10(abs(z))
    log_c = 0.0
    k = 0
    while True:
        yield log_c + k * lz
        a = eta * (k * m + l) + 1.0
        log_c += (math.lgamma(a) - math.lgamma(a + eta)) / math.log(10.0)
        k += 1


def series_digits(log10_terms) -> int | None:
    """Working precision: 40 digits beyond the largest term, or None when
    the series needs more than MAX_DIGITS digits or MAX_TERMS terms."""
    peak = -math.inf
    for k, lt in enumerate(log10_terms):
        peak = max(peak, lt)
        digits = max(30, int(math.ceil(peak)) + EXTRA_DIGITS)
        if k > 10 and lt < -digits - 5:
            return digits if digits <= MAX_DIGITS else None
        if k > MAX_TERMS:
            return None


def _sum_until_small(terms, dps):
    """Sum an iterator of mpmath terms until three in a row are below
    10^-(dps+5)."""
    import mpmath as mp
    eps = mp.mpf(10) ** (-dps - 5)
    total = mp.mpf(0)
    small = 0
    for t in terms:
        total += t
        small = small + 1 if abs(t) <= eps else 0
        if small == 3:
            return total


def ml_mp(eta: float, nu: float, z: float, dps: int):
    import mpmath as mp
    mp.mp.dps = dps
    if z == 0.0:
        return mp.rgamma(nu)
    e, v, x = mp.mpf(eta), mp.mpf(nu), mp.mpf(z)
    if eta == 1.0 and nu == 1.0:
        return mp.exp(x)
    if eta == 1.0 and nu == 2.0:
        return mp.expm1(x) / x
    if eta == 0.5 and nu == 1.0:
        return mp.exp(x * x) * mp.erfc(-x)
    return _sum_until_small((x ** k * mp.rgamma(k * e + v)
                             for k in itertools.count()), dps)


def ks_mp(eta: float, m: float, l: float, z: float, dps: int):
    import mpmath as mp
    mp.mp.dps = dps
    if z == 0.0:
        return mp.mpf(1)
    e, mm, ll, x = mp.mpf(eta), mp.mpf(m), mp.mpf(l), mp.mpf(z)

    def terms():
        c = mp.mpf(1)
        for k in itertools.count():
            yield c * x ** k
            a = e * (k * mm + ll) + 1
            c *= mp.exp(mp.loggamma(a) - mp.loggamma(a + e))

    return _sum_until_small(terms(), dps)


def checked(fn, *args, dps):
    """Evaluate at dps and dps+30 digits; the two must agree to 1e-25."""
    import mpmath as mp
    lo = fn(*args, dps=dps)
    hi = fn(*args, dps=dps + 30)
    mp.mp.dps = dps + 30
    if abs(lo - hi) > mp.mpf("1e-25") * max(abs(hi), mp.mpf("1e-300")):
        raise RuntimeError(f"reference did not settle for {fn.__name__}{args}")
    return float(hi)


def ml_value(eta, nu, z):
    if z == 0.0:
        return checked(ml_mp, eta, nu, z, dps=30)
    digits = series_digits(_ml_log10_terms(eta, nu, z))
    return None if digits is None else checked(ml_mp, eta, nu, z, dps=digits)


def ks_value(eta, m, l, z):
    if z == 0.0:
        return 1.0
    digits = series_digits(_ks_log10_terms(eta, m, l, z))
    return None if digits is None else checked(ks_mp, eta, m, l, z, dps=digits)


def sampled_nodes(n: int) -> list[int]:
    return sorted({round(i * n / (SAMPLED_NODES - 1)) for i in range(SAMPLED_NODES)})


def grid_x(psi_cfg: dict, n: int, idx: list[int]) -> list[float]:
    """X_i = Psi(t_i) - Psi(a) = i*h, computed as the library does."""
    lo, hi = psi_cfg["domain"]
    f = math.log if psi_cfg["kind"] == "log" else float
    h = (f(hi) - f(lo)) / n
    return [i * h for i in idx]


def build_points() -> list[dict]:
    points = []

    for eta in ML_ETAS:
        for nu in (0.76, 1.0, eta + 1.0):
            for z in ML_Z:
                ref = ml_value(eta, nu, z)
                if ref is not None:
                    points.append({"kind": "ml", "eta": eta, "nu": nu, "z": z,
                                   "ref": ref})

    for eta in KS_ETAS:
        for nu, mu in KS_NU_MU:
            m, l = ks_params(eta, nu, mu)
            for z in KS_Z:
                ref = ks_value(eta, m, l, z)
                if ref is not None:
                    points.append({"kind": "ks", "eta": eta, "m": m, "l": l,
                                   "z": z, "ref": ref})

    idx = sampled_nodes(GRID_N)
    for psi_cfg in SC_PSI:
        xs = grid_x(psi_cfg, GRID_N, idx)
        for eta, nu in SC_ORDERS:
            zeta = eta + nu * (1.0 - eta)
            for lam in SC_LAMBDAS:
                ref = []
                for x in xs:
                    z = lam * x ** eta
                    e1 = ml_value(eta, zeta, z)
                    e2 = ml_value(eta, eta + 1.0, z)
                    if e1 is None or e2 is None:
                        ref = None
                        break
                    ref.append(SC_Y_A * e1
                               + SC_FORCING * x ** (eta + 1.0 - zeta) * e2)
                if ref is not None:
                    points.append({"kind": "solve_constant", "psi": psi_cfg,
                                   "eta": eta, "nu": nu, "lam": lam,
                                   "y_a": SC_Y_A, "forcing": SC_FORCING,
                                   "n": GRID_N, "nodes": idx, "ref": ref})

    psi_cfg = SC_PSI[0]
    xs = grid_x(psi_cfg, GRID_N, idx)
    for eta in KS_ETAS:
        for nu, mu in KS_NU_MU:
            zeta = eta + nu * (1.0 - eta)
            m, l = ks_params(eta, nu, mu)
            w0c = SC_Y_A / math.gamma(zeta)
            for lam in SV_LAMBDAS:
                ref = []
                for x in xs:
                    v = ks_value(eta, m, l, lam * x ** (eta + mu - 1.0))
                    if v is None:
                        ref = None
                        break
                    ref.append(w0c * v)
                if ref is not None:
                    points.append({"kind": "solve_variable", "psi": psi_cfg,
                                   "eta": eta, "nu": nu, "mu": mu, "lam": lam,
                                   "y_a": SC_Y_A, "n": GRID_N, "nodes": idx,
                                   "ref": ref})

    for rhs in BOUNDS_RHS:
        for eta, nu in BOUNDS_ORDERS:
            for y_a in BOUNDS_Y_A:
                # checked at run time against formulas evaluated on the
                # printed M and L; no tabulated value is needed
                points.append({"kind": "bounds", "rhs": rhs, "eta": eta,
                               "nu": nu, "y_a": y_a})

    for i, p in enumerate(points):
        p["id"] = i
    return points


def record_baseline(table: dict) -> None:
    import tempfile

    sys.path.insert(0, HERE)
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        for point in table["points"]:
            point["baseline"] = workloads.run_oracle_point(point, workdir).category


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record-baseline", action="store_true",
                    help="add the library's current failure category per point")
    args = ap.parse_args(argv)
    if args.record_baseline:
        with open(TABLE_PATH, encoding="utf-8") as fh:
            table = json.load(fh)
        record_baseline(table)
    else:
        import mpmath
        table = {"generator": "benchmark/make_reference.py",
                 "mpmath": mpmath.__version__,
                 "rule": "series at log10(largest term)+40 digits, "
                         "re-checked at +30 digits; closed forms where known",
                 "points": build_points()}
    with open(TABLE_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    counts = {}
    for p in table["points"]:
        counts[p["kind"]] = counts.get(p["kind"], 0) + 1
    print(json.dumps(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
