"""Command-line front end.

Subcommands: solve, linear, frint, ml, bounds, parse-check.  Problem
configuration is a single flat JSON object per file; CSV output uses LF
line endings, '.' decimals and 17 significant digits so identical runs
produce byte-identical files.  Exit codes: 0 success, 2 validation,
3 numerical (non-convergence, series overflow, an undefined expression
value), 4 I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys

import numpy as np

from . import linear_forms, picard, rhs_expr
from .errors import (ConfigParseError, ExprDomainError, ExprSyntaxError,
                     OverflowGuard, PsiHilferError, SeriesNotConverged,
                     ValidationError)
from .frac_ops import FracIntegralOperator, OrderParams, build_grid
from .psi_maps import _KIND_ARITY, make_psi, psi_from_config
from .special_fn import (DEFAULT_SERIES_PARAMS, MLSeriesParams, kilbas_saigo,
                         mittag_leffler2)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# the keys a config must hold for solve and bounds, and for linear; the
# rest of _CONFIG_KEYS are optional
SOLVE_KEYS = ("psi", "eta", "nu", "a", "xi", "y_a", "rhs", "k_box", "n")
LINEAR_KEYS = ("psi", "eta", "nu", "a", "xi", "y_a", "n", "lambda")
_CONFIG_KEYS = (*SOLVE_KEYS, "tol", "max_iter", "L_override", "lambda", "mu",
                "forcing", "output_path", "horizon")


@dataclasses.dataclass
class ProblemConfig:
    """A validated config: its subcommand's problem and solve settings."""

    problem: picard.CauchyProblem | linear_forms.LinearProblem
    n: int
    tol: float
    max_iter: int
    L_override: float | None
    horizon: float | None
    output_path: str


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def load_config(path: str, required=SOLVE_KEYS) -> ProblemConfig:
    """Load and validate a config file, collecting every violation.

    ``required`` names the keys the config must hold: ``SOLVE_KEYS``
    (the default) or ``LINEAR_KEYS``.  The loader checks the format
    (keys, JSON types, integers, finite numbers); each range rule is
    reported by the library object that enforces it, and ``n`` by the
    solver of the subcommand the keys belong to.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigParseError(f"{path}: expected a single JSON object")

    problems = [f"unknown config key {key!r}" for key in data
                if key not in _CONFIG_KEYS]
    problems += [f"missing required key {key!r}" for key in required
                 if key not in data]

    def number(key, default=None, integer=False):
        if key not in data:
            return default
        val = data[key]
        if isinstance(val, bool) or not isinstance(
                val, int if integer else (int, float)):
            problems.append(f"{key} must be {'an integer' if integer else 'a number'}")
        elif not abs(val) <= sys.float_info.max:  # NaN, Infinity, 1e400
            problems.append(f"{key} must be finite")
        else:
            return val if integer else float(val)
        return None

    def expression(key):
        if key not in data:
            return None
        if not isinstance(data[key], str):
            problems.append(f"{key} must be a string expression")
            return None
        try:
            return rhs_expr.parse(data[key])
        except ExprSyntaxError as exc:
            problems.append(f"{key}: {exc}")
            return None

    psi = None
    if "psi" in data:
        try:
            psi = psi_from_config(data["psi"])
        except PsiHilferError as exc:
            problems.append(f"psi: {exc}")
    eta, nu, a, xi, y_a, k_box, lam, mu, l_override, horizon = (
        number(key) for key in ("eta", "nu", "a", "xi", "y_a", "k_box",
                                "lambda", "mu", "L_override", "horizon"))
    tol = number("tol", 1e-10)
    n, max_iter = number("n", integer=True), number("max_iter", 200, integer=True)
    rhs, forcing = expression("rhs"), expression("forcing")
    output_path = data.get("output_path", "solution.csv")
    if not isinstance(output_path, str):
        problems.append("output_path must be a string")

    problems += OrderParams.violations(eta, nu)
    problems += picard.CauchyProblem.violations(psi, a, xi, k_box)
    problems += linear_forms.LinearProblem.violations(eta, mu, forcing)
    linear = required == LINEAR_KEYS
    problems += (linear_forms.solve_violations(n) if linear
                 else picard.solve_violations(n=n))
    problems += picard.solve_violations(tol=tol, max_iter=max_iter,
                                        L_override=l_override,
                                        horizon=horizon, xi=xi)
    if problems:
        raise ValidationError(problems)
    params = OrderParams(eta, nu)
    if linear:
        problem = linear_forms.LinearProblem(psi=psi, params=params, a=a,
                                             b=a + xi, y_a=y_a, lam=lam,
                                             mu=mu, forcing=forcing)
    else:
        problem = picard.CauchyProblem(psi=psi, params=params, a=a, xi=xi,
                                       y_a=y_a, rhs=rhs, k_box=k_box)
    return ProblemConfig(problem, n, tol, max_iter, l_override, horizon,
                         output_path)


def _write_csv(path: str, header: str, columns, blank_corner=False) -> None:
    """Write equal-length columns as CSV under ``header``: one ``%.17g``
    pass over all fields, LF endings, one ``write``.  ``blank_corner``
    leaves the last field of the first row empty."""
    values = np.column_stack(columns)
    rows, width = values.shape
    field = "%.17g"
    row = "\n" + ",".join([field] * width)
    fields = values.ravel().tolist()
    first = row
    if blank_corner:
        first = row.removesuffix(field)
        del fields[width - 1]
    text = (header + first + row * (rows - 1) + "\n") % tuple(fields)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _emit_solution(path: str, solution) -> None:
    """CSV with header t,w,y.  The unweighted solution is unbounded at
    the left endpoint when zeta < 1, so that y field is left empty."""
    _write_csv(path, "t,w,y",
               (solution.grid.nodes, solution.w, solution.to_plain()),
               blank_corner=solution.zeta < 1.0)


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    solution, report = picard.picard_solve(
        cfg.problem, n=cfg.n, tol=cfg.tol, max_iter=cfg.max_iter,
        L_override=cfg.L_override, horizon=cfg.horizon)
    _emit_solution(cfg.output_path, solution)
    with open(cfg.output_path + ".report.json", "w", encoding="utf-8",
              newline="") as fh:
        fh.write(json.dumps(vars(report), indent=2, allow_nan=True) + "\n")
    if not report.converged:
        _fail("numerical", "iteration did not converge within max_iter")
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_linear(args) -> int:
    cfg = load_config(args.config, LINEAR_KEYS)
    solve = (linear_forms.solve_constant if cfg.problem.mu is None
             else linear_forms.solve_variable)
    _emit_solution(cfg.output_path, solve(cfg.problem, cfg.n))
    return EXIT_OK


def _cmd_frint(args) -> int:
    rows = []
    with open(args.input, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split(",")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except (ValueError, IndexError):
                if lineno > 1:  # only the first line may be a header
                    raise ValidationError(
                        [f"input line {lineno} is not a numeric t,h row"]
                    ) from None
    if len(rows) < 2:
        raise ValidationError(["input CSV needs at least two numeric rows"])
    data = np.array(rows)
    order = np.argsort(data[:, 0])
    ts, hs = data[order, 0], data[order, 1]
    # np.interp needs strictly increasing sample points
    repeated = ts[1:][ts[1:] == ts[:-1]]
    if repeated.size:
        raise ValidationError([f"input repeats t = {_fmt(repeated[0])}"])
    psi = make_psi(args.psi, () if args.rho is None else (args.rho,),
                   (ts[0], ts[-1]))
    grid = build_grid(psi, float(ts[0]), float(ts[-1]), args.n)
    resampled = np.interp(grid.nodes, ts, hs)
    op = FracIntegralOperator(grid, args.eta)
    _write_csv(args.output, "t,frint", (grid.nodes, op.apply_plain(resampled)))
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
    problem = cfg.problem
    p = problem.params
    l_used, m_used = picard.estimate_constants(problem, cfg.n, cfg.L_override)
    norm_f, source = ((m_used, "measured-M") if args.norm_f is None
                      else (args.norm_f, "user-norm-f"))
    chi = picard.existence_interval(problem, norm_f)
    out = [
        f"zeta = {_fmt(p.zeta)}",
        f"chi = {_fmt(chi)}",
        f"chi_source = {source}",
        f"norm_f = {_fmt(norm_f)}",
        f"L_used = {_fmt(l_used)}",
    ]
    seq = picard.apriori_error_bound_sequence(norm_f, l_used, args.n_iter, p,
                                              problem.psi, problem.a, chi)
    out += [f"apriori[{mth}] = {_fmt(val)}" for mth, val in enumerate(seq)]
    z_a = problem.y_a + 0.1 if args.z_a is None else args.z_a
    if z_a == problem.y_a and args.z_a is None:
        raise PsiHilferError(f"the default --z-a = y_a + 0.1 rounds to y_a = "
                             f"{_fmt(z_a)}; give --z-a")
    cd = picard.continuous_dependence_bound(problem.y_a, z_a, l_used, p,
                                            problem.psi, problem.a, chi)
    out.append(f"continuous_dependence(|dy_a|={_fmt(abs(z_a - problem.y_a))})"
               f" = {_fmt(cd)}")
    print("\n".join(out))
    return EXIT_OK


def _cmd_parse_check(args) -> int:
    expr = rhs_expr.parse(args.expr)
    print(expr.to_string())
    print("\n".join(expr.tree_lines()))
    return EXIT_OK


def _fail(category: str, message: str, extra: dict | None = None) -> None:
    payload = {"category": category, "message": message}
    if extra:
        payload.update(extra)
    print(json.dumps(payload), file=sys.stderr)


class _ArgumentParser(argparse.ArgumentParser):
    """Sends a malformed command line down the JSON failure path, and reads
    a signed number in exponent notation (``-1e-3``) as a value, not a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise PsiHilferError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call (and thread): ``parse_args`` fills a fresh namespace and never
    changes the parser, so callers must not change it either."""
    parser = _ArgumentParser(
        prog="psihilfer",
        description="Fractional Cauchy problems: iterative solver, "
                    "closed forms and bound calculators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the successive-approximation solver")
    p_solve.add_argument("config")
    p_solve.set_defaults(func=_cmd_solve)

    p_lin = sub.add_parser("linear", help="evaluate a closed-form linear "
                                          "solution: the Kilbas-Saigo series "
                                          "when the config sets mu, else the "
                                          "Mittag-Leffler formula")
    p_lin.add_argument("config")
    p_lin.set_defaults(func=_cmd_linear)

    p_fr = sub.add_parser("frint", help="fractional integral of tabulated data")
    p_fr.add_argument("--input", required=True)
    p_fr.add_argument("--output", required=True)
    p_fr.add_argument("--eta", type=float, required=True)
    p_fr.add_argument("--psi", default="identity", choices=tuple(_KIND_ARITY))
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
    series = DEFAULT_SERIES_PARAMS
    p_ml.add_argument("--rel-tol", type=float, default=series.rel_tol)
    p_ml.add_argument("--max-terms", type=int, default=series.max_terms)
    p_ml.set_defaults(func=_cmd_ml)

    p_b = sub.add_parser("bounds", help="print existence and error bounds")
    p_b.add_argument("config")
    p_b.add_argument("--norm-f", type=float, default=None,
                     help="weighted sup of f; measured from the initial "
                          "iterate when omitted")
    p_b.add_argument("--n-iter", type=int, default=20)
    p_b.add_argument("--z-a", type=float, default=None,
                     help="perturbed initial datum for the dependence bound "
                          "(default y_a + 0.1, refused if it rounds to y_a)")
    p_b.set_defaults(func=_cmd_bounds)

    p_pc = sub.add_parser("parse-check", allow_abbrev=False,
                          help="validate an expression and pretty-print its tree")
    p_pc.add_argument("expr")
    # every word but -h and --help (unabbreviated) is the expression: "-y*2"
    p_pc._negative_number_matcher = re.compile("^-")
    p_pc.set_defaults(func=_cmd_parse_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        _fail("validation", "configuration is invalid",
              {"violations": exc.violations})
        return EXIT_VALIDATION
    except (OverflowGuard, ExprDomainError, SeriesNotConverged) as exc:
        _fail("numerical", str(exc))
        return EXIT_NUMERICAL
    except PsiHilferError as exc:
        _fail("validation", str(exc))
        return EXIT_VALIDATION
    except OSError as exc:
        _fail("io", str(exc))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
