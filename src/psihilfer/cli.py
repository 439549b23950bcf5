"""Command-line front end.

Subcommands: solve, linear, frint, ml, bounds, parse-check.  Problem
configuration is a single flat JSON object per file; CSV output uses LF
line endings, '.' decimals and 17 significant digits so identical runs
produce byte-identical files.  Exit codes: 0 success, 2 validation,
3 numerical non-convergence, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import linear_forms, picard, rhs_expr
from .errors import (ConfigParseError, DomainViolation, ExprDomainError,
                     ExprSyntaxError, GridMismatch, GridTooCoarse,
                     NonMonotone, OverflowGuard, ParamViolation,
                     PsiHilferError, ValidationError)
from .frac_ops import FracIntegralOperator, OrderParams, build_grid
from .psi_maps import PsiMap, make_psi, psi_from_config
from .special_fn import MLSeriesParams, kilbas_saigo, mittag_leffler2

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_CONFIG_KEYS = {
    "psi", "eta", "nu", "a", "xi", "y_a", "rhs", "k_box", "k", "n",
    "tol", "max_iter", "L_override", "lambda", "mu", "forcing",
    "output_path", "horizon",
}


@dataclass
class ProblemConfig:
    """Validated contents of a problem configuration file."""

    psi: PsiMap
    params: OrderParams
    a: float
    xi: float
    y_a: float
    rhs: rhs_expr.RhsExpr
    k_box: float
    n: int
    tol: float
    max_iter: int
    L_override: float | None
    lam: float | None
    mu: float | None
    forcing: rhs_expr.RhsExpr | None
    output_path: str
    horizon: float | None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def load_config(path: str) -> ProblemConfig:
    """Load and validate a config file, collecting every violation."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigParseError(f"{path}: expected a single JSON object")

    problems: list[str] = []
    for key in data:
        if key not in _CONFIG_KEYS:
            problems.append(f"unknown config key {key!r}")

    def number(key, required=True, default=None):
        if key not in data:
            if required:
                problems.append(f"missing required key {key!r}")
            return default
        val = data[key]
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            problems.append(f"{key} must be a number")
            return default
        return float(val)

    psi = None
    if "psi" not in data:
        problems.append("missing required key 'psi'")
    else:
        try:
            psi = psi_from_config(data["psi"])
        except (PsiHilferError, TypeError, KeyError) as exc:
            problems.append(f"psi: {exc}")

    eta = number("eta")
    nu = number("nu")
    eta_ok = eta is not None and 0.0 < eta < 1.0
    nu_ok = nu is not None and 0.0 <= nu <= 1.0
    if eta is not None and not eta_ok:
        problems.append("eta must lie in (0,1)")
    if nu is not None and not nu_ok:
        problems.append("nu must lie in [0,1]")
    params = OrderParams(eta, nu) if eta_ok and nu_ok else None

    a = number("a")
    xi = number("xi")
    if xi is not None and xi <= 0:
        problems.append("xi must be positive")
    if psi is not None and a is not None and xi is not None and xi > 0:
        try:
            psi.check_in_domain(a, "a")
            psi.check_in_domain(a + xi, "a+xi")
        except DomainViolation as exc:
            problems.append(str(exc))

    y_a = number("y_a")

    rhs = None
    if "rhs" not in data:
        problems.append("missing required key 'rhs'")
    elif not isinstance(data["rhs"], str):
        problems.append("rhs must be a string expression")
    else:
        try:
            rhs = rhs_expr.parse(data["rhs"])
        except ExprSyntaxError as exc:
            problems.append(f"rhs: {exc}")

    k_box = number("k_box", required="k" not in data)
    if k_box is None and "k" in data:
        k_box = number("k", required=False)
    if k_box is not None and k_box <= 0:
        problems.append("k_box must be positive")

    n_val = data.get("n")
    if n_val is None:
        problems.append("missing required key 'n'")
        n_val = 0
    elif not isinstance(n_val, int) or isinstance(n_val, bool) or n_val < 16:
        problems.append("n must be an integer >= 16")
        n_val = max(int(n_val) if isinstance(n_val, int) else 0, 0)

    tol = number("tol", required=False, default=1e-10)
    if tol is not None and tol <= 0:
        problems.append("tol must be positive")
    max_iter = data.get("max_iter", 200)
    if not isinstance(max_iter, int) or isinstance(max_iter, bool) or max_iter < 1:
        problems.append("max_iter must be a positive integer")
        max_iter = 1

    l_override = number("L_override", required=False)
    if l_override is not None and l_override <= 0:
        problems.append("L_override must be positive")

    lam = number("lambda", required=False)
    mu = number("mu", required=False)
    if mu is not None and eta is not None and not mu > 1.0 - eta:
        problems.append(f"mu must exceed 1-eta = {1.0 - eta}")

    forcing = None
    if "forcing" in data:
        if not isinstance(data["forcing"], str):
            problems.append("forcing must be a string expression")
        else:
            try:
                forcing = rhs_expr.parse(data["forcing"])
                if forcing.uses_y():
                    problems.append("forcing must depend on t only")
            except ExprSyntaxError as exc:
                problems.append(f"forcing: {exc}")

    horizon = number("horizon", required=False)
    if horizon is not None and xi is not None and not 0 < horizon <= xi:
        problems.append("horizon must lie in (0, xi]")

    output_path = data.get("output_path", "solution.csv")
    if not isinstance(output_path, str):
        problems.append("output_path must be a string")
        output_path = "solution.csv"

    if problems:
        raise ValidationError(problems)
    return ProblemConfig(psi=psi, params=params, a=a, xi=xi, y_a=y_a,
                         rhs=rhs, k_box=k_box, n=n_val, tol=tol,
                         max_iter=max_iter, L_override=l_override, lam=lam,
                         mu=mu, forcing=forcing, output_path=output_path,
                         horizon=horizon)


def _emit_solution(path: str, solution) -> None:
    """CSV with header t,w,y.  The unweighted solution is unbounded at
    the left endpoint when zeta < 1, so that y field is left empty."""
    grid = solution.grid
    zeta = solution.zeta
    y = solution.to_plain()
    lines = ["t,w,y"]
    for i in range(grid.n + 1):
        t, wi = grid.nodes[i], solution.w[i]
        if i == 0 and zeta < 1.0:
            lines.append(f"{_fmt(t)},{_fmt(wi)},")
        else:
            lines.append(f"{_fmt(t)},{_fmt(wi)},{_fmt(y[i])}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    problem = picard.CauchyProblem(psi=cfg.psi, params=cfg.params, a=cfg.a,
                                   xi=cfg.xi, y_a=cfg.y_a, rhs=cfg.rhs,
                                   k_box=cfg.k_box)
    solution, report = picard.picard_solve(
        problem, n=cfg.n, tol=cfg.tol, max_iter=cfg.max_iter,
        L_override=cfg.L_override, horizon=cfg.horizon)
    _emit_solution(cfg.output_path, solution)
    side_car = {
        "chi": report.chi,
        "chi_formula": report.chi_formula,
        "iterations": report.iterations,
        "deltas": list(report.weighted_deltas),
        "apriori_bounds": list(report.apriori_bounds),
        "residual": report.residual_norm,
        "M_used": report.M_used,
        "L_used": report.L_used,
        "converged": report.converged,
        "box_exit": report.box_exit,
    }
    with open(cfg.output_path + ".report.json", "w", encoding="utf-8",
              newline="") as fh:
        json.dump(side_car, fh, indent=2, allow_nan=True)
        fh.write("\n")
    if not report.converged:
        _fail("numerical", "iteration did not converge within max_iter")
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_linear(args) -> int:
    cfg = load_config(args.config)
    if cfg.lam is None:
        raise ValidationError(["linear mode requires a 'lambda' entry"])
    mu = cfg.mu if args.mode == "variable" else None
    if args.mode == "variable" and mu is None:
        raise ValidationError(["variable mode requires a 'mu' entry"])
    problem = linear_forms.LinearProblem(
        psi=cfg.psi, params=cfg.params, a=cfg.a, b=cfg.a + cfg.xi,
        y_a=cfg.y_a, lam=cfg.lam, mu=mu,
        forcing=cfg.forcing if args.mode == "constant" else None)
    if args.mode == "constant":
        solution = linear_forms.solve_constant(problem, cfg.n)
    else:
        solution = linear_forms.solve_variable(problem, cfg.n)
    _emit_solution(cfg.output_path, solution)
    return EXIT_OK


def _cmd_frint(args) -> int:
    rows = []
    with open(args.input, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) < 2:
                continue
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                continue  # header or comment line
    if len(rows) < 2:
        raise ValidationError(["input CSV needs at least two numeric rows"])
    if args.psi == "power" and args.rho is None:
        raise ValidationError(["--psi power needs --rho"])
    data = np.array(rows)
    order = np.argsort(data[:, 0])
    ts, hs = data[order, 0], data[order, 1]
    psi = make_psi(args.psi, (args.rho,) if args.psi == "power" else (),
                   (ts[0], ts[-1]))
    grid = build_grid(psi, float(ts[0]), float(ts[-1]), args.n)
    resampled = np.interp(grid.nodes, ts, hs)
    op = FracIntegralOperator(grid, args.eta)
    vals = op.apply_plain(resampled)
    lines = ["t,frint"]
    for t, v in zip(grid.nodes, vals):
        lines.append(f"{_fmt(t)},{_fmt(v)}")
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_ml(args) -> int:
    policy = MLSeriesParams(rel_tol=args.rel_tol, max_terms=args.max_terms)
    if args.family == "two-param":
        if args.eta is None or args.nu is None:
            raise ValidationError(["two-param family needs --eta and --nu"])
        res = mittag_leffler2(args.eta, args.nu, args.z, policy)
    else:
        if args.eta is None or args.m is None or args.l is None:
            raise ValidationError(["kilbas-saigo family needs --eta, --m and --l"])
        res = kilbas_saigo(args.eta, args.m, args.l, args.z, policy)
    print(_fmt(res.value))
    if not res.converged:
        _fail("numerical", "series did not converge within max_terms")
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    problem = picard.CauchyProblem(psi=cfg.psi, params=cfg.params, a=cfg.a,
                                   xi=cfg.xi, y_a=cfg.y_a, rhs=cfg.rhs,
                                   k_box=cfg.k_box)
    p = cfg.params
    scout = build_grid(cfg.psi, cfg.a, cfg.a + cfg.xi, max(cfg.n, 64))
    l_used, m_used = picard.estimate_constants(problem, scout, cfg.L_override)
    if args.norm_f is not None:
        norm_f = args.norm_f
        source = "user-norm-f"
    else:
        norm_f = m_used
        source = "measured-M"
    chi = picard.existence_interval(problem, norm_f)
    out = [
        f"zeta = {_fmt(p.zeta)}",
        f"chi = {_fmt(chi)}",
        f"chi_source = {source}",
        f"norm_f = {_fmt(norm_f)}",
        f"L_used = {_fmt(l_used)}",
    ]
    if l_used > 0:
        seq = picard.apriori_error_bound_sequence(norm_f, l_used, args.n_iter,
                                                  p, cfg.psi, cfg.a, chi)
        for mth, val in enumerate(seq):
            out.append(f"apriori[{mth}] = {_fmt(val)}")
        z_a = cfg.y_a + 0.1 if args.z_a is None else args.z_a
        delta = abs(z_a - cfg.y_a)
        cd = picard.continuous_dependence_bound(cfg.y_a, z_a, l_used,
                                                p, cfg.psi, cfg.a, chi)
        out.append(f"continuous_dependence(|dy_a|={_fmt(delta)}) = {_fmt(cd)}")
    print("\n".join(out))
    return EXIT_OK


def _cmd_parse_check(args) -> int:
    expr = rhs_expr.parse(args.expr)

    def dump(node, indent=0):
        pad = "  " * indent
        if isinstance(node, rhs_expr.Num):
            return [f"{pad}num {node.value!r}"]
        if isinstance(node, rhs_expr.Var):
            return [f"{pad}var {node.name}"]
        if isinstance(node, rhs_expr.Neg):
            return [f"{pad}neg"] + dump(node.child, indent + 1)
        if isinstance(node, rhs_expr.Bin):
            return ([f"{pad}op {node.op}"] + dump(node.left, indent + 1)
                    + dump(node.right, indent + 1))
        return ([f"{pad}call {node.name}"]
                + [line for a in node.args for line in dump(a, indent + 1)])

    print(expr.to_string())
    print("\n".join(dump(expr.root)))
    return EXIT_OK


def _fail(category: str, message: str, extra: dict | None = None) -> None:
    payload = {"category": category, "message": message}
    if extra:
        payload.update(extra)
    print(json.dumps(payload), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psihilfer",
        description="Fractional Cauchy problems: iterative solver, "
                    "closed forms and bound calculators.")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="reserved concurrency hint; accumulation order is fixed, so "
             "results are identical for any value")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the successive-approximation solver")
    p_solve.add_argument("config")
    p_solve.set_defaults(func=_cmd_solve)

    p_lin = sub.add_parser("linear", help="evaluate a closed-form linear solution")
    p_lin.add_argument("config")
    p_lin.add_argument("--mode", choices=("constant", "variable"),
                       default="constant")
    p_lin.set_defaults(func=_cmd_linear)

    p_fr = sub.add_parser("frint", help="fractional integral of tabulated data")
    p_fr.add_argument("--input", required=True)
    p_fr.add_argument("--output", required=True)
    p_fr.add_argument("--eta", type=float, required=True)
    p_fr.add_argument("--psi", default="identity",
                      choices=("identity", "power", "log", "exp"))
    p_fr.add_argument("--rho", type=float, default=None)
    p_fr.add_argument("--n", type=int, default=1024)
    p_fr.set_defaults(func=_cmd_frint)

    p_ml = sub.add_parser("ml", help="evaluate a Mittag-Leffler family member")
    p_ml.add_argument("--family", choices=("two-param", "kilbas-saigo"),
                      default="two-param")
    p_ml.add_argument("--eta", type=float)
    p_ml.add_argument("--nu", type=float)
    p_ml.add_argument("--m", type=float)
    p_ml.add_argument("--l", type=float)
    p_ml.add_argument("--z", type=float, required=True)
    p_ml.add_argument("--rel-tol", type=float, default=1e-12)
    p_ml.add_argument("--max-terms", type=int, default=10_000)
    p_ml.set_defaults(func=_cmd_ml)

    p_b = sub.add_parser("bounds", help="print existence and error bounds")
    p_b.add_argument("config")
    p_b.add_argument("--norm-f", type=float, default=None,
                     help="weighted sup of f; measured from the initial "
                          "iterate when omitted")
    p_b.add_argument("--n-iter", type=int, default=20)
    p_b.add_argument("--z-a", type=float, default=None,
                     help="perturbed initial datum for the dependence bound "
                          "(default y_a + 0.1)")
    p_b.set_defaults(func=_cmd_bounds)

    p_pc = sub.add_parser("parse-check", help="validate an expression and "
                                              "pretty-print its tree")
    p_pc.add_argument("expr")
    p_pc.set_defaults(func=_cmd_parse_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        _fail("validation", "configuration is invalid",
              {"violations": exc.violations})
        return EXIT_VALIDATION
    except (ConfigParseError, ExprSyntaxError, DomainViolation, NonMonotone,
            ParamViolation, GridMismatch, GridTooCoarse) as exc:
        _fail("validation", str(exc))
        return EXIT_VALIDATION
    except (OverflowGuard, ExprDomainError) as exc:
        _fail("numerical", str(exc))
        return EXIT_NUMERICAL
    except OSError as exc:
        _fail("io", str(exc))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
