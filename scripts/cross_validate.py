#!/usr/bin/env python3
"""Cross-validation sweep: iterative solver against closed forms.

Runs the decay problem over a grid of (eta, nu) pairs and the three
built-in transform kinds, comparing the converged iterate with the
constant-coefficient representation, and reports the a-priori bound at
the final iteration alongside the measured residual.
"""

import argparse
import math

import numpy as np

from psihilfer import (CauchyProblem, LinearProblem, OrderParams,
                       make_psi, parse, picard_solve, solve_constant)

CASES = [("identity", (), (0.0, 1.0)),
         ("power", (2.0,), (0.0, 1.0)),
         ("log", (), (1.0, math.e))]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1024)
    ap.add_argument("--orders", type=float, nargs="+",
                    default=[0.5, 0.6, 0.9])
    args = ap.parse_args()

    header = (f"{'psi':>8} {'eta':>5} {'nu':>5} {'gap':>10} {'iters':>6} "
              f"{'residual':>10} {'last bound':>11}")
    print(header)
    for kind, pr, (a, b) in CASES:
        psi = make_psi(kind, pr, (a, b))
        for eta in args.orders:
            for nu in (0.0, 0.4, 1.0):
                params = OrderParams(eta, nu)
                problem = CauchyProblem(psi=psi, params=params, a=a, xi=b - a,
                                        y_a=1.0, rhs=parse("-1*y"), k_box=1.0)
                sol, rep = picard_solve(problem, n=args.n, horizon=b - a)
                ref = solve_constant(LinearProblem(psi=psi, params=params,
                                                   a=a, b=b, y_a=1.0,
                                                   lam=-1.0), args.n)
                gap = np.max(np.abs(sol.w - ref.w))
                bound = rep.apriori_bounds[-1] if rep.apriori_bounds else float("nan")
                print(f"{kind:>8} {eta:5.2f} {nu:5.2f} {gap:10.2e} "
                      f"{rep.iterations:>6} {rep.residual:10.2e} "
                      f"{bound:11.2e}")


if __name__ == "__main__":
    main()
