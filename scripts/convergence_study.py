#!/usr/bin/env python3
"""Grid-refinement study for the product-integration quadrature.

Prints the endpoint error of the fractional integral against the
monomial closed form, the semigroup defect, and a weighted-mode table:
the error of the weighted integral of X^2 and the gap between the
iterative solver and the closed-form (Mittag-Leffler) solution of the
decay problem, each over a sequence of grid sizes.  Empirical orders
should come out >= 1.

    PYTHONPATH=src python scripts/convergence_study.py --sizes 1024 4096 16384 65536
"""

import argparse
import math

import numpy as np

from psihilfer import (CauchyProblem, FracIntegralOperator, LinearProblem,
                       OrderParams, build_grid, make_psi, monomial_oracle,
                       parse, picard_solve, solve_constant)


def quadrature_table(ns):
    psi = make_psi("identity", (), (0.0, 1.0))
    exact = monomial_oracle(psi, 0.5, 1.5, 0.0, 1.0)
    print("\nfractional integral of t^0.5, order 0.5, value at t=1")
    print(f"{'n':>6} {'rel error':>12} {'ratio':>8}")
    prev = None
    for n in ns:
        grid = build_grid(psi, 0.0, 1.0, n)
        vals = FracIntegralOperator(grid, 0.5).apply_plain(np.sqrt(grid.nodes))
        err = abs(vals[-1] - exact) / exact
        ratio = f"{prev / err:8.2f}" if prev else "       -"
        print(f"{n:>6} {err:12.3e} {ratio}")
        prev = err


def semigroup_table(ns):
    psi = make_psi("identity", (), (0.0, 1.0))
    print("\nsemigroup defect: order 0.3 after 0.4 versus order 0.7, h=sin")
    print(f"{'n':>6} {'rel defect':>12}")
    for n in ns:
        grid = build_grid(psi, 0.0, 1.0, n)
        h = np.sin(grid.nodes)
        chained = FracIntegralOperator(grid, 0.3).apply_plain(
            FracIntegralOperator(grid, 0.4).apply_plain(h))
        direct = FracIntegralOperator(grid, 0.7).apply_plain(h)
        defect = np.max(np.abs(chained - direct)) / np.max(np.abs(direct))
        print(f"{n:>6} {defect:12.3e}")


def _order(prev, err, n_prev, n):
    if prev is None:
        return "       -"
    return f"{math.log(prev / err) / math.log(n / n_prev):8.2f}"


def weighted_table(ns):
    psi = make_psi("identity", (), (0.0, 1.0))
    params = OrderParams(0.6, 0.4)
    eta, zeta = params.eta, params.zeta
    problem = CauchyProblem(psi=psi, params=params, a=0.0, xi=1.0, y_a=1.0,
                            rhs=parse("-1*y"), k_box=1.0)
    print(f"\nweighted mode, eta {eta}, zeta {zeta}: max error of the weighted "
          "integral of X^2,\nand weighted sup gap of the decay solve "
          "(-1*y) against the closed form")
    print(f"{'n':>6} {'X^2 error':>12} {'order':>8} {'decay gap':>12} "
          f"{'order':>8} {'iters':>6}")
    prev_n = prev_q = prev_g = None
    for n in ns:
        grid = build_grid(psi, 0.0, 1.0, n)
        x = grid.x
        out = FracIntegralOperator(grid, eta, zeta).apply_weighted(x ** 2)
        exact = x ** (1.0 - zeta) * monomial_oracle(psi, eta, zeta + 2.0, 0.0, x)
        q_err = np.max(np.abs(out - exact))
        sol, rep = picard_solve(problem, n=n, horizon=1.0)
        ref = solve_constant(LinearProblem(psi=psi, params=params, a=0.0,
                                           b=1.0, y_a=1.0, lam=-1.0), n)
        gap = np.max(np.abs(sol.w - ref.w))
        print(f"{n:>6} {q_err:12.3e} {_order(prev_q, q_err, prev_n, n)} "
              f"{gap:12.3e} {_order(prev_g, gap, prev_n, n)} {rep.iterations:>6}")
        prev_n, prev_q, prev_g = n, q_err, gap


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[128, 256, 512, 1024, 2048])
    args = ap.parse_args()
    quadrature_table(args.sizes)
    semigroup_table(args.sizes)
    weighted_table(args.sizes)


if __name__ == "__main__":
    main()
