import concurrent.futures
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from psihilfer import (CauchyProblem, FracIntegralOperator, LinearProblem,
                       OrderParams, PsiHilferError, SolveReport,
                       WeightedGridFunction,
                       apriori_error_bound_sequence, build_grid, make_psi,
                       parse, picard_solve, solve_constant, solve_variable)
from psihilfer.cli import (EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                           LINEAR_KEYS, SOLVE_KEYS, _emit_solution,
                           build_parser, load_config, main)
from psihilfer.errors import ValidationError
from psihilfer.psi_maps import _KIND_ARITY

BASE_CONFIG = {
    "psi": {"kind": "identity", "domain": [0.0, 2.0]},
    "eta": 0.5,
    "nu": 0.5,
    "a": 0.0,
    "xi": 1.0,
    "y_a": 1.0,
    "rhs": "-1*y",
    "k_box": 1.0,
    "n": 512,
}


def _write_config(path, **overrides):
    cfg = dict(BASE_CONFIG)
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return str(path)


def test_load_minimal_config(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.json"))
    # psi maps built twice hold different callables, so compare the rest
    assert cfg.problem == _cauchy(psi=cfg.problem.psi)
    assert cfg.problem.psi.domain == (0.0, 2.0)
    assert cfg.problem.params.zeta == 0.75
    assert cfg.n == 512
    assert cfg.tol == 1e-10 and cfg.max_iter == 200


def test_load_rejects_bad_eta(tmp_path):
    with pytest.raises(ValidationError) as exc_info:
        load_config(_write_config(tmp_path / "c.json", eta=1.5))
    assert any("eta must lie in (0,1]" in v for v in exc_info.value.violations)


def test_load_rejects_small_mu(tmp_path):
    with pytest.raises(ValidationError) as exc_info:
        load_config(_write_config(tmp_path / "c.json", mu=0.2))
    assert any("mu must exceed 1-eta = 0.5" in v for v in exc_info.value.violations)


def test_load_collects_all_violations(tmp_path):
    with pytest.raises(ValidationError) as exc_info:
        load_config(_write_config(tmp_path / "c.json", eta=2.0, xi=-1.0,
                                  rhs="1 +", n=4))
    joined = "\n".join(exc_info.value.violations)
    assert "eta" in joined and "xi" in joined and "rhs" in joined and "n" in joined
    assert len(exc_info.value.violations) >= 4


def test_load_reports_eta_and_nu_together(tmp_path):
    with pytest.raises(ValidationError) as exc_info:
        load_config(_write_config(tmp_path / "c.json", eta=1.5, nu=2.0))
    joined = "\n".join(exc_info.value.violations)
    assert "eta must lie in (0,1]" in joined
    assert "nu must lie in [0,1]" in joined


def test_load_rejects_unknown_key(tmp_path):
    with pytest.raises(ValidationError) as exc_info:
        load_config(_write_config(tmp_path / "c.json", typo_key=1))
    assert any("typo_key" in v for v in exc_info.value.violations)


def test_k_is_not_an_alias_of_k_box(tmp_path):
    with pytest.raises(ValidationError) as exc_info:
        load_config(_write_config(tmp_path / "c.json", k=2.0))
    assert "unknown config key 'k'" in exc_info.value.violations


IDENT = make_psi("identity", (), (0.0, 2.0))


def _cauchy(**changes):
    args = dict(psi=IDENT, params=OrderParams(0.5, 0.5), a=0.0, xi=1.0,
                y_a=1.0, rhs=parse("-1*y"), k_box=1.0)
    return CauchyProblem(**dict(args, **changes))


def _linear(**changes):
    args = dict(psi=IDENT, params=OrderParams(0.5, 0.5), a=0.0, b=1.0,
                y_a=1.0, lam=-1.0)
    return LinearProblem(**dict(args, **changes))


# rule -> (config changes that break only it, required keys, the library
# call that raises for the same value)
OWNER_RULES = {
    "eta": ({"eta": 1.5}, SOLVE_KEYS, lambda: OrderParams(1.5, 0.5)),
    "nu": ({"nu": 2.0}, SOLVE_KEYS, lambda: OrderParams(0.5, 2.0)),
    "xi": ({"xi": -1.0}, SOLVE_KEYS, lambda: _cauchy(xi=-1.0)),
    "k_box": ({"k_box": 0.0}, SOLVE_KEYS, lambda: _cauchy(k_box=0.0)),
    "psi-domain": ({"a": 1.5}, SOLVE_KEYS, lambda: _cauchy(a=1.5)),
    "solve-n": ({"n": 8}, SOLVE_KEYS, lambda: picard_solve(_cauchy(), n=8)),
    "linear-n": ({"n": 4, "lambda": -1.0}, LINEAR_KEYS,
                 lambda: solve_constant(_linear(), 4)),
    "tol": ({"tol": 0.0}, SOLVE_KEYS, lambda: picard_solve(_cauchy(), 16, tol=0.0)),
    "max_iter": ({"max_iter": 0}, SOLVE_KEYS,
                 lambda: picard_solve(_cauchy(), 16, max_iter=0)),
    "horizon": ({"horizon": 1.5}, SOLVE_KEYS,
                lambda: picard_solve(_cauchy(), 16, horizon=1.5)),
    "L_override": ({"L_override": -1.0}, SOLVE_KEYS,
                   lambda: picard_solve(_cauchy(), 16, L_override=-1.0)),
    "mu": ({"mu": 0.2}, SOLVE_KEYS, lambda: _linear(mu=0.2)),
    "forcing": ({"forcing": "y"}, SOLVE_KEYS, lambda: _linear(forcing=parse("y"))),
    "mu-with-forcing": ({"mu": 1.2, "forcing": "t"}, SOLVE_KEYS,
                        lambda: _linear(mu=1.2, forcing=parse("t"))),
}


@pytest.mark.parametrize("rule", sorted(OWNER_RULES))
def test_config_reports_the_library_message(tmp_path, rule):
    changes, required, owner_call = OWNER_RULES[rule]
    path = _write_config(tmp_path / "c.json", **changes)
    with pytest.raises(ValidationError) as exc_info:
        load_config(path, required)
    with pytest.raises(PsiHilferError) as owner:
        owner_call()
    assert exc_info.value.violations == [str(owner.value)]


def test_solve_writes_csv_and_report(tmp_path):
    out = tmp_path / "sol.csv"
    cfg = _write_config(tmp_path / "c.json", output_path=str(out),
                        horizon=1.0, n=256)
    assert main(["solve", cfg]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "t,w,y"
    assert len(lines) == 258
    # zeta < 1: the y field at t = a stays empty
    first = lines[1].split(",")
    assert first[2] == ""
    text = (tmp_path / "sol.csv.report.json").read_text()
    report = json.loads(text)
    assert report["converged"] is True
    assert report["iterations"] >= 1
    # the file is the library's report, as a deep copy would serialise it
    loaded = load_config(cfg)
    _, library = picard_solve(loaded.problem, n=loaded.n, tol=loaded.tol,
                              max_iter=loaded.max_iter,
                              L_override=loaded.L_override,
                              horizon=loaded.horizon)
    assert text == json.dumps(dataclasses.asdict(library), indent=2,
                              allow_nan=True) + "\n"
    # the fields of SolveReport and the keys README lists, in that order
    keys = [f.name for f in dataclasses.fields(SolveReport)]
    assert list(report) == keys
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("`<output>.report.json`", 1)[1].split(". ", 1)[0]
    assert re.findall(r"`(\w+)`", sentence) == keys


def test_solve_and_bounds_take_xi_when_the_box_offset_overflows(tmp_path,
                                                                capsys):
    # (k G(eta+zeta) / (G(zeta) M))^(1/eta) leaves the double range at eta 0.01
    out = tmp_path / "o.csv"
    cfg = _write_config(tmp_path / "c.json", eta=0.01, rhs="1e-5*y", n=64,
                        output_path=str(out))
    assert main(["bounds", cfg]) == EXIT_OK
    assert "\nchi = 1\n" in capsys.readouterr().out
    assert main(["solve", cfg]) == EXIT_OK
    report = json.loads((tmp_path / "o.csv.report.json").read_text())
    assert report["chi"] == report["chi_formula"] == 1.0


def test_solve_reports_the_l_override(tmp_path):
    out = tmp_path / "sol.csv"
    cfg = _write_config(tmp_path / "c.json", output_path=str(out),
                        horizon=1.0, n=64, L_override=2.0)
    assert main(["solve", cfg]) == EXIT_OK
    report = json.loads((tmp_path / "sol.csv.report.json").read_text())
    assert report["L_used"] == 2.0


def test_solve_determinism_across_runs_and_threads(tmp_path):
    # every call shares one parser; concurrent solves, a zeta < 1 and a
    # zeta = 1 problem with distinct output paths, write the bytes of a
    # sequential run
    orders = ({"eta": 0.5, "nu": 0.5}, {"eta": 0.6, "nu": 1.0})

    def solve(run, order):
        out = tmp_path / f"sol{run}.csv"
        cfg = _write_config(tmp_path / f"c{run}.json", output_path=str(out),
                            horizon=1.0, n=256, **orders[order])
        code = main(["solve", cfg])
        report = tmp_path / f"sol{run}.csv.report.json"
        return code, out.read_bytes(), report.read_bytes()

    expected = [solve(f"seq{order}", order) for order in range(len(orders))]
    assert all(code == EXIT_OK for code, _, _ in expected)
    jobs = [(f"thr{job}", job % len(orders)) for job in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda job: solve(*job), jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for (_, order), result in zip(jobs, results):
        assert result == expected[order]


def test_shared_parser_does_not_carry_values_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    cfg = _write_config(tmp_path / "c.json")
    assert main(["bounds", cfg]) == EXIT_OK
    default = capsys.readouterr().out
    assert main(["bounds", cfg, "--z-a", "-0.25"]) == EXIT_OK
    assert capsys.readouterr().out != default
    assert main(["bounds", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == default
    # the default perturbation is y_a + 0.1
    assert out.splitlines()[-1].startswith(
        f"continuous_dependence(|dy_a|={abs(1.0 + 0.1 - 1.0):.17g}) = ")
    assert build_parser().parse_args(["bounds", cfg]).z_a is None

    ml = ["ml", "--eta", "1", "--nu", "1", "--z", "1"]
    assert main(ml) == EXIT_OK
    tight = capsys.readouterr().out
    assert main([*ml, "--rel-tol", "1e-6"]) == EXIT_OK
    assert capsys.readouterr().out != tight
    assert main(ml) == EXIT_OK
    assert capsys.readouterr().out == tight
    assert build_parser().parse_args(ml).rel_tol == 1e-12


def _per_row_csv(header, columns, blank_corner=False):
    """The retired writer: one f"{v:.17g}" per field, joined by ',' per
    row, LF endings; blank_corner empties the first row's last field."""
    rows = [",".join(f"{v:.17g}" for v in row)
            for row in zip(*(np.asarray(c, dtype=float).tolist() for c in columns))]
    if blank_corner:
        rows[0] = rows[0].rpartition(",")[0] + ","
    return ("\n".join([header, *rows]) + "\n").encode()


@pytest.mark.parametrize("command, changes", [
    ("solve", {"eta": 0.6, "nu": 0.4}),
    ("solve", {"eta": 0.6, "nu": 1.0}),
    ("linear", {"eta": 0.6, "nu": 0.4}),
    ("linear", {"eta": 0.6, "nu": 1.0, "mu": 1.2}),
], ids=["solve-zeta<1", "solve-zeta=1", "linear-constant", "linear-variable"])
def test_solution_csv_matches_the_per_row_writer(tmp_path, command, changes):
    out = tmp_path / "sol.csv"
    cfg_path = _write_config(tmp_path / "c.json", output_path=str(out),
                             horizon=1.0, n=128, **{"lambda": -1.0}, **changes)
    assert main([command, cfg_path]) == EXIT_OK
    if command == "solve":
        cfg = load_config(cfg_path)
        solution, _ = picard_solve(cfg.problem, n=cfg.n, tol=cfg.tol,
                                   max_iter=cfg.max_iter, horizon=cfg.horizon)
    else:
        cfg = load_config(cfg_path, LINEAR_KEYS)
        solve = solve_constant if cfg.problem.mu is None else solve_variable
        solution = solve(cfg.problem, cfg.n)
    assert out.read_bytes() == _per_row_csv(
        "t,w,y", (solution.grid.nodes, solution.w, solution.to_plain()),
        blank_corner=solution.zeta < 1.0)


def test_frint_csv_matches_the_per_row_writer(tmp_path):
    src = tmp_path / "h.csv"
    ts = np.linspace(0.0, 1.0, 37)
    hs = np.sin(7.0 * ts)
    src.write_text("t,h\n" + "".join(
        f"{t!r},{h!r}\n" for t, h in zip(ts.tolist(), hs.tolist())))
    out = tmp_path / "out.csv"
    assert main(["frint", "--input", str(src), "--output", str(out),
                 "--eta", "0.3", "--n", "100"]) == EXIT_OK
    grid = build_grid(make_psi("identity", (), (0.0, 1.0)), 0.0, 1.0, 100)
    vals = FracIntegralOperator(grid, 0.3).apply_plain(
        np.interp(grid.nodes, ts, hs))
    assert out.read_bytes() == _per_row_csv("t,frint", (grid.nodes, vals))


@pytest.mark.parametrize("zeta", [0.5, 1.0])
def test_csv_writer_keeps_signed_zero_subnormals_and_extremes(tmp_path, zeta):
    grid = build_grid(IDENT, 0.0, 2.0, 3)
    w = [-0.0, 5e-324, 0.1, 1.7976931348623157e308]
    solution = WeightedGridFunction(grid, zeta, w)
    out = tmp_path / "sol.csv"
    _emit_solution(str(out), solution)
    text = out.read_bytes()
    assert text == _per_row_csv(
        "t,w,y", (grid.nodes, w, solution.to_plain()), blank_corner=zeta < 1.0)
    assert text.split(b"\n")[1].split(b",")[1] == b"-0"
    assert b"4.9406564584124654e-324" in text and b"1.7976931348623157e+308" in text


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
def test_solve_accepts_eta_one(tmp_path, nu):
    # eta = 1 is the classical ODE y' = -y, y(0) = 1, for every type nu
    out = tmp_path / "sol.csv"
    cfg = _write_config(tmp_path / "c.json", eta=1.0, nu=nu, horizon=1.0,
                        n=256, output_path=str(out))
    assert main(["solve", cfg]) == EXIT_OK
    t, w = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(0, 1), unpack=True)
    assert t[-1] == 1.0
    assert np.max(np.abs(w - np.exp(-t))) < 1e-6


def test_solve_zero_start_writes_nothing_to_stderr(tmp_path, capsys):
    # y_a = 0 with zeta < 1 puts 0 * inf at t = a if the plain
    # reconstruction weights node 0
    out = tmp_path / "sol.csv"
    cfg = _write_config(tmp_path / "c.json", eta=0.6, nu=0.4, y_a=0.0,
                        rhs="-1*y + 1", output_path=str(out), horizon=1.0)
    assert main(["solve", cfg]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[1].endswith(",")


def test_linear_constant_and_cross_validation(tmp_path):
    out_s = tmp_path / "picard.csv"
    out_l = tmp_path / "linear.csv"
    cfg_s = _write_config(tmp_path / "cs.json", eta=0.6, nu=0.4,
                          output_path=str(out_s), horizon=1.0, n=512,
                          **{"lambda": -1.0})
    cfg_l = _write_config(tmp_path / "cl.json", eta=0.6, nu=0.4,
                          output_path=str(out_l), n=512, **{"lambda": -1.0})
    assert main(["solve", cfg_s]) == EXIT_OK
    assert main(["linear", cfg_l]) == EXIT_OK

    def w_column(path):
        rows = path.read_text().splitlines()[1:]
        return np.array([float(r.split(",")[1]) for r in rows])

    gap = np.max(np.abs(w_column(out_s) - w_column(out_l)))
    assert gap <= 5e-3


def test_linear_variable_mode(tmp_path):
    # a config with mu runs the variable-coefficient solve
    out = tmp_path / "var.csv"
    cfg_path = _write_config(tmp_path / "c.json", eta=0.6, nu=0.4, mu=1.2,
                             output_path=str(out), n=128, **{"lambda": -1.0})
    assert main(["linear", cfg_path]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "t,w,y"
    cfg = load_config(cfg_path, LINEAR_KEYS)
    assert cfg.problem.mu == 1.2
    w = solve_variable(cfg.problem, cfg.n).w
    assert [line.split(",")[1] for line in lines[1:]] == [f"{v:.17g}" for v in w]


@pytest.mark.parametrize("mu", [None, 1.2])
def test_linear_accepts_the_panel_counts_of_its_solvers(tmp_path, mu):
    # solve_constant and solve_variable take n >= 8; picard_solve n >= 16
    out = tmp_path / "lin.csv"
    extra = {} if mu is None else {"mu": mu}
    cfg_path = _write_config(tmp_path / "c.json", n=8, output_path=str(out),
                             **{"lambda": -1.0}, **extra)
    assert main(["linear", cfg_path]) == EXIT_OK
    problem = _linear(mu=mu)
    solve = solve_constant if mu is None else solve_variable
    w = solve(problem, 8).w
    lines = out.read_text().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == [f"{v:.17g}" for v in w]


def test_linear_with_mu_and_forcing_exits_2(tmp_path, capsys):
    out = tmp_path / "var.csv"
    cfg = _write_config(tmp_path / "c.json", eta=0.6, nu=0.4, mu=1.2,
                        forcing="sin(t)", output_path=str(out), n=128,
                        **{"lambda": -1.0})
    assert main(["linear", cfg]) == EXIT_VALIDATION
    (line,) = capsys.readouterr().err.splitlines()
    payload = json.loads(line)
    assert payload["category"] == "validation"
    assert ("the variable-coefficient mode is homogeneous; drop the forcing"
            in payload["violations"])
    assert not out.exists()


def test_linear_needs_only_the_keys_it_reads(tmp_path):
    # rhs and k_box are read by solve and bounds only
    lean = {k: v for k, v in BASE_CONFIG.items() if k not in ("rhs", "k_box")}
    out_lean, out_full = tmp_path / "lean.csv", tmp_path / "full.csv"
    cfg_lean = tmp_path / "lean.json"
    cfg_lean.write_text(json.dumps(dict(lean, output_path=str(out_lean),
                                        **{"lambda": -1.0})))
    cfg_full = _write_config(tmp_path / "full.json", output_path=str(out_full),
                             **{"lambda": -1.0})
    assert main(["linear", str(cfg_lean)]) == EXIT_OK
    assert main(["linear", cfg_full]) == EXIT_OK
    assert out_lean.read_bytes() == out_full.read_bytes()


def test_linear_reports_missing_lambda_with_other_violations(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", eta=1.5)
    assert main(["linear", cfg]) == EXIT_VALIDATION
    (line,) = capsys.readouterr().err.splitlines()
    violations = json.loads(line)["violations"]
    assert "missing required key 'lambda'" in violations
    assert "eta must lie in (0,1], got 1.5" in violations


@pytest.mark.parametrize("command", ["solve", "bounds"])
def test_solve_and_bounds_require_rhs_and_k_box(tmp_path, capsys, command):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({k: v for k, v in BASE_CONFIG.items()
                                if k not in ("rhs", "k_box")}))
    assert main([command, str(path)]) == EXIT_VALIDATION
    violations = json.loads(capsys.readouterr().err)["violations"]
    assert violations == ["missing required key 'rhs'",
                          "missing required key 'k_box'"]


def _raw_config(tmp_path, key, text):
    # raw JSON text, so non-JSON-native values such as 1e400 stay literal
    body = json.dumps({k: v for k, v in BASE_CONFIG.items() if k != key})
    path = tmp_path / "c.json"
    path.write_text('{"' + key + '": ' + text + ", " + body[1:])
    return str(path)


def _frint_input(tmp_path, rows):
    path = tmp_path / "h.csv"
    path.write_text("t,h\n" + "".join(f"{t},{h}\n" for t, h in rows))
    return ["frint", "--input", str(path), "--output",
            str(tmp_path / "o.csv"), "--eta", "0.5", "--n", "64"]


# case -> (argv built in a temporary directory, text the error must name)
MALFORMED = {
    "psi-string": (lambda d: ["solve", _raw_config(d, "psi", '"identity"')],
                   "JSON object"),
    "rho-string": (lambda d: ["solve", _raw_config(
        d, "psi", '{"kind": "power", "rho": "x", "domain": [0, 2]}')], "'rho'"),
    "domain-string": (lambda d: ["solve", _raw_config(
        d, "psi", '{"kind": "identity", "domain": [0, "a"]}')], "'domain'"),
    "domain-overflow": (lambda d: ["solve", _raw_config(
        d, "psi", '{"kind": "identity", "domain": [0, 1e400]}')], "not finite"),
    "domain-int-overflow": (lambda d: ["solve", _raw_config(
        d, "psi", '{"kind": "identity", "domain": [0, 1' + "0" * 400 + ']}')],
        "domain [0.0, inf] is empty or not finite"),
    "rho-int-overflow": (lambda d: ["solve", _raw_config(
        d, "psi", '{"kind": "power", "rho": 1' + "0" * 400 + ', "domain": [0, 2]}')],
        "power map needs a finite positive exponent"),
    "domain-overflows-exp": (lambda d: ["solve", _raw_config(
        d, "psi", '{"kind": "exp", "domain": [0, 1000]}')], "positive and finite"),
    "psi-unknown-key": (lambda d: ["solve", _raw_config(
        d, "psi", '{"kind": "power", "params": [1.5], "domain": [0, 2]}')],
        "unknown map config key 'params'"),
    "rho-on-identity": (lambda d: ["solve", _raw_config(
        d, "psi", '{"kind": "identity", "rho": 2.0, "domain": [0, 2]}')],
        "identity map takes 0 parameter"),
    "frint-rho-on-identity": (lambda d: [
        *_frint_input(d, [(0, 0), (0.5, 0.25), (1, 1)]), "--rho", "3"],
        "identity map takes 0 parameter"),
    "frint-repeated-t": (lambda d: _frint_input(
        d, [(0, 0), (0.5, 0.25), (0.5, 0.75), (1, 1)]),
        "input repeats t = 0.5"),
    "ml-z-nan": (lambda d: ["ml", "--eta", "1", "--nu", "1", "--z", "nan"],
                 "z must be finite"),
    "bounds-norm-f-nan": (lambda d: [
        "bounds", _write_config(d / "c.json"), "--norm-f", "nan"], "norm_f"),
    "bounds-norm-f-inf": (lambda d: [
        "bounds", _write_config(d / "c.json"), "--norm-f", "inf"], "norm_f"),
    "ml-rel-tol-nan": (lambda d: ["ml", "--eta", "1", "--nu", "1", "--z", "1",
                                  "--rel-tol", "nan"], "rel_tol"),
    "ml-rel-tol-inf": (lambda d: ["ml", "--eta", "1", "--nu", "1", "--z", "1",
                                  "--rel-tol", "inf"],
                       "rel_tol must be finite and positive"),
    "ml-eta-inf": (lambda d: ["ml", "--eta", "inf", "--nu", "1", "--z", "1"],
                   "eta must be finite and positive, got inf"),
    "ml-nu-inf": (lambda d: ["ml", "--eta", "1", "--nu", "inf", "--z", "1"],
                  "nu must be finite and positive, got inf"),
    "ml-ks-l-nan": (lambda d: ["ml", "--family", "kilbas-saigo", "--eta", "0.5",
                               "--m", "1", "--l", "nan", "--z", "1"],
                    "l must be finite, got nan"),
    "frint-eta-inf": (lambda d: [
        *_frint_input(d, [(0, 0), (0.5, 0.25), (1, 1)]), "--eta", "inf"],
        "eta must be finite and positive, got inf"),
    "usage-missing-z": (lambda d: ["ml", "--eta", "1", "--nu", "1"],
                        "the following arguments are required: --z"),
    "usage-unknown-flag": (lambda d: ["ml", "--eta", "1", "--nu", "1",
                                      "--z", "1", "--bogus"],
                           "unrecognized arguments: --bogus"),
    "usage-eta-not-a-number": (lambda d: ["ml", "--eta", "x", "--nu", "1",
                                          "--z", "1"],
                               "argument --eta: invalid float value: 'x'"),
    "bounds-z-a-nan": (lambda d: [
        "bounds", _write_config(d / "c.json"), "--z-a", "nan"],
        "z_a must be finite"),
    "parse-check-overflow": (lambda d: ["parse-check", "y + 1e400"],
                             "number 1e400 overflows (at offset 4)"),
    "rhs-overflow": (lambda d: ["solve", _write_config(d / "c.json",
                                                       rhs="1e400*y")],
                     "rhs: number 1e400 overflows (at offset 0)"),
    # nesting that recursed past the interpreter's limit in the parser
    # (parentheses) or in the evaluator (a long sum, unary minuses)
    # a word that starts with "-" is the expression, not an abbreviated flag
    "parse-check-double-dash-h": (lambda d: ["parse-check", "--h"],
                                  "unknown identifier 'h' (at offset 2)"),
    "parse-check-deep-parentheses": (lambda d: [
        "parse-check", "(" * 250 + "y" + ")" * 250],
        "expression nests deeper than 200 levels (at offset 200)"),
    "rhs-deep-sum": (lambda d: ["solve", _write_config(
        d / "c.json", rhs="-0.001*y" + "+0*y" * 600)],
        "rhs: expression nests deeper than 200 levels (at offset 1604)"),
    "rhs-deep-unary-minus": (lambda d: ["solve", _write_config(
        d / "c.json", rhs="-" * 600 + "y")],
        "rhs: expression nests deeper than 200 levels (at offset 200)"),
    # y_a + 0.1 == y_a: the default perturbation would bound nothing
    "bounds-default-z-a-rounds-to-y_a": (lambda d: ["bounds", _write_config(
        d / "c.json", y_a=1e17, k_box=1e18, n=64)], "give --z-a"),
    "config-y_a-nan": (lambda d: ["solve", _write_config(d / "c.json",
                                                         y_a=math.nan)],
                       "y_a must be finite"),
    "config-y_a-infinity": (lambda d: ["solve", _write_config(
        d / "c.json", y_a=math.inf)], "y_a must be finite"),
    "config-lambda-nan": (lambda d: ["linear", _write_config(
        d / "c.json", **{"lambda": math.nan})], "lambda must be finite"),
    "config-k_box-infinity": (lambda d: ["solve", _write_config(
        d / "c.json", k_box=math.inf)], "k_box must be finite"),
    "config-tol-infinity": (lambda d: ["solve", _write_config(
        d / "c.json", tol=math.inf)], "tol must be finite"),
    "config-xi-overflow": (lambda d: ["solve", _raw_config(d, "xi", "1e400")],
                           "xi must be finite"),
    "config-horizon-beyond-xi": (lambda d: ["solve", _write_config(
        d / "c.json", horizon=1.5)], "horizon must lie in (0, xi], got 1.5"),
    # M ~ 1e300 shrinks the existence interval below the spacing of doubles
    "solve-collapsed-interval": (lambda d: ["solve", _write_config(
        d / "c.json", y_a=1e300, output_path=str(d / "o.csv"))],
        "the solve interval [a, a + chi] is empty: chi = 0.0"),
    "bounds-n-iter-negative": (lambda d: [
        "bounds", _write_config(d / "c.json"), "--norm-f", "0", "--n-iter", "-5"],
        "n_max must be a nonnegative integer"),
    "frint-psi-unknown": (lambda d: [
        *_frint_input(d, [(0, 0), (0.5, 0.25), (1, 1)]), "--psi", "cosh"],
        "argument --psi: invalid choice: 'cosh'"),
    "frint-one-row": (lambda d: _frint_input(d, [(0, 0)]),
                      "input CSV needs at least two numeric rows"),
    "config-not-json": (lambda d: ["solve", _text_file(d / "c.json", "{eta: 1")],
                        "not valid JSON"),
    "config-array": (lambda d: ["solve", _text_file(d / "c.json", "[1, 2]")],
                     "expected a single JSON object"),
    "config-eta-string": (lambda d: ["solve", _write_config(d / "c.json", eta="0.6")],
                          "eta must be a number"),
    "config-rhs-number": (lambda d: ["solve", _write_config(d / "c.json", rhs=3)],
                          "rhs must be a string expression"),
    "config-output_path-number": (lambda d: ["solve", _write_config(
        d / "c.json", output_path=5)], "output_path must be a string"),
    "ml-two-param-without-nu": (lambda d: [
        "ml", "--family", "two-param", "--eta", "0.5", "--z", "1"],
        "two-param family needs --eta and --nu"),
    "ml-kilbas-saigo-without-l": (lambda d: [
        "ml", "--family", "kilbas-saigo", "--eta", "0.5", "--m", "1", "--z", "1"],
        "kilbas-saigo family needs --eta, --m and --l"),
}


def _text_file(path, text):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_with_one_json_line(tmp_path, capsys, case):
    argv, names = MALFORMED[case]
    assert main(argv(tmp_path)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert captured.err == line + "\n"
    assert json.loads(line)["category"] == "validation"
    assert names in line
    assert captured.out == ""
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("argv, flag", [
    (["ml", "--eta", "1", "--nu", "1", "--z", "-1e-3"], "--z"),
    (["ml", "--family", "kilbas-saigo", "--eta", "0.5", "--m", "1",
      "--l", "-2.5e-1", "--z", "0.5"], "--l"),
    (["bounds", "c.json", "--z-a", "-2.5e-1"], "--z-a"),
])
def test_signed_exponent_flag_values(tmp_path, capsys, monkeypatch, argv, flag):
    # "--z -1e-3" must read as "--z=-1e-3", not as two flags
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path / "c.json")
    i = argv.index(flag)
    assert main([*argv[:i], f"{flag}={argv[i + 1]}", *argv[i + 2:]]) == EXIT_OK
    expected = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv, value", [
    (["ml", "--eta", "64", "--nu", "1e100", "--z", "1"], "0"),
    (["ml", "--family", "kilbas-saigo", "--eta", "64", "--m", "1e100",
      "--l", "0", "--z", "1"], "1"),
])
def test_rising_factorial_past_the_extended_range_is_silent(capsys, argv, value):
    # a rising factorial that overflows is a Gamma ratio that underflows
    # to 0; RuntimeWarnings are errors under the test configuration
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == value + "\n"
    assert captured.err == ""


def test_ml_subcommand_prints_e(capsys):
    assert main(["ml", "--family", "two-param", "--eta", "1", "--nu", "1",
                 "--z", "1"]) == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - math.e) < 1e-12


def test_ml_kilbas_saigo_family(capsys):
    assert main(["ml", "--family", "kilbas-saigo", "--eta", "0.5", "--m", "1",
                 "--l", "0", "--z", "0.5"]) == EXIT_OK
    val = float(capsys.readouterr().out.strip())
    assert val > 1.0


def test_bounds_subcommand_chi(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json")
    assert main(["bounds", cfg, "--norm-f", "1.0"]) == EXIT_OK
    out = capsys.readouterr().out
    values = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
    assert abs(float(values["chi"]) - 0.5471099038066192) < 1e-6
    assert float(values["zeta"]) == 0.75
    apriori = [float(v) for k, v in values.items() if k.startswith("apriori")]
    assert all(b > a for a, b in zip(apriori[1:], apriori))


def test_long_bounds_and_solve_outlast_the_series_term_count(tmp_path, capsys):
    # 10 000 a-priori tails and a 10 000-step solve: the bound series still
    # converge, and only max_iter ends the solve, after its outputs
    out = tmp_path / "o.csv"
    cfg = _write_config(tmp_path / "c.json", eta=0.6, nu=0.4, n=16, tol=1e-300,
                        max_iter=10_000, horizon=1.0, output_path=str(out))
    assert main(["bounds", cfg, "--n-iter", "10000"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("apriori[") for line in lines) == 10_001
    assert main(["solve", cfg]) == EXIT_NUMERICAL
    assert "did not converge within max_iter" in capsys.readouterr().err
    assert out.exists() and (tmp_path / "o.csv.report.json").exists()


@pytest.mark.parametrize("n", [16, 32, 64, 512])
@pytest.mark.parametrize("rhs, eta, nu", [("sin(t)*y^2", 0.6, 0.4),
                                          ("-1*y", 0.5, 0.5),
                                          ("-1*y", 0.5, 1.0)])
def test_bounds_matches_solve_constants(tmp_path, capsys, rhs, eta, nu, n):
    # bounds and an n-panel solve measure L and M on the same scout grid
    cfg_path = _write_config(tmp_path / "c.json", rhs=rhs, eta=eta, nu=nu, n=n)
    assert main(["bounds", cfg_path]) == EXIT_OK
    out = capsys.readouterr().out
    values = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
    cfg = load_config(cfg_path)
    _, report = picard_solve(cfg.problem, n=n, max_iter=1)
    assert float(values["chi"]) == report.chi_formula
    assert float(values["L_used"]) == report.L_used
    assert float(values["norm_f"]) == report.M_used


def test_bounds_uses_an_explicit_z_a_as_given(tmp_path, capsys):
    # only the default y_a + 0.1 is refused when it rounds to y_a
    cfg_path = _write_config(tmp_path / "c.json", y_a=1e17, k_box=1e18, n=64)
    assert main(["bounds", cfg_path, "--z-a", "1e17"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "continuous_dependence(|dy_a|=0) = 0"


def test_bounds_with_a_y_free_rhs_prints_the_l0_limits(tmp_path, capsys):
    # L = 0: the a-priori bounds are M G(zeta) X^eta / G(eta+zeta), 0, ...
    # and the dependence bound is 2 |dy_a| / G(zeta)
    cfg_path = _write_config(tmp_path / "c.json", rhs="sin(t)")
    assert main(["bounds", cfg_path, "--z-a", "1.5"]) == EXIT_OK
    values = dict(line.split(" = ")
                  for line in capsys.readouterr().out.splitlines())
    assert float(values["L_used"]) == 0.0
    problem = load_config(cfg_path).problem
    expected = apriori_error_bound_sequence(
        float(values["norm_f"]), 0.0, 20, problem.params, IDENT, 0.0,
        float(values["chi"]))
    assert expected[0] > 0.0 and not expected[1:].any()
    assert [values[f"apriori[{m}]"] for m in range(21)] == [
        f"{v:.17g}" for v in expected]
    dependence = float(values["continuous_dependence(|dy_a|=0.5)"])
    assert math.isclose(dependence, 2.0 * 0.5 / math.gamma(0.75), rel_tol=1e-14)


def test_parse_check_pretty_prints(capsys):
    assert main(["parse-check", "sin(t)*y + t^2"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "((sin(t) * y) + (t ^ 2.0))",
        "op +",
        "  op *",
        "    call sin",
        "      var t",
        "    var y",
        "  op ^",
        "    var t",
        "    num 2.0",
    ]


@pytest.mark.parametrize("expr, printed", [
    ("-y*2", ["((-y) * 2.0)", "op *", "  neg", "    var y", "  num 2.0"]),
    ("-1*y", ["((-1.0) * y)", "op *", "  neg", "    num 1.0", "  var y"]),
])
def test_parse_check_takes_an_expression_with_a_leading_minus(
        capsys, expr, printed):
    assert main(["parse-check", expr]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == printed


def test_parse_check_syntax_error_exit_code(capsys):
    assert main(["parse-check", "1 + * 2"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["category"] == "validation"


def test_invalid_config_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", eta=1.5)
    assert main(["solve", cfg]) == EXIT_VALIDATION
    payload = json.loads(capsys.readouterr().err)
    assert payload["category"] == "validation"
    assert any("eta" in v for v in payload["violations"])


def test_missing_config_exit_code(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "absent.json")]) == EXIT_IO
    payload = json.loads(capsys.readouterr().err)
    assert payload["category"] == "io"


def test_nonconverged_solve_exit_code(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    cfg = _write_config(tmp_path / "c.json", output_path=str(out),
                        horizon=1.0, n=256, max_iter=2)
    assert main(["solve", cfg]) == EXIT_NUMERICAL
    # outputs are still written: the last iterate is useful
    assert out.exists()
    payload = json.loads(capsys.readouterr().err)
    assert payload["category"] == "numerical"


def test_frint_subcommand(tmp_path):
    src = tmp_path / "h.csv"
    ts = np.linspace(0.0, 1.0, 200)
    src.write_text("t,h\n" + "\n".join(f"{t},{t**1.5}" for t in ts) + "\n")
    out = tmp_path / "out.csv"
    assert main(["frint", "--input", str(src), "--output", str(out),
                 "--eta", "0.5", "--n", "256"]) == EXIT_OK
    rows = out.read_text().splitlines()
    assert rows[0] == "t,frint"
    t_last, v_last = map(float, rows[-1].split(","))
    assert t_last == 1.0
    # I^{0.5} t^{1.5} = Gamma(2.5)/Gamma(3) t^2
    expected = math.gamma(2.5) / math.gamma(3.0)
    assert abs(v_last - expected) < 1e-3


def test_frint_skips_blank_lines(tmp_path):
    outputs = []
    for name, text in (("plain", "t,h\n0,0\n0.5,0.25\n1,1\n"),
                       ("blank", "t,h\n\n0,0\n  \n0.5,0.25\n1,1\n\n")):
        src, out = tmp_path / f"{name}.csv", tmp_path / f"{name}-out.csv"
        src.write_text(text)
        assert main(["frint", "--input", str(src), "--output", str(out),
                     "--eta", "0.5", "--n", "16"]) == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_frint_rejects_malformed_row(tmp_path, capsys):
    # only a first line that does not parse is a header
    src = tmp_path / "h.csv"
    src.write_text("t,h\n0,0\n0.25,0.125\n0.5,abc\n0.75,0.375\n1,0.5\n")
    out = tmp_path / "o.csv"
    rc = main(["frint", "--input", str(src), "--output", str(out),
               "--eta", "0.5", "--n", "64"])
    assert rc == EXIT_VALIDATION
    (line,) = capsys.readouterr().err.splitlines()
    payload = json.loads(line)
    assert payload["category"] == "validation"
    assert any("line 4" in v for v in payload["violations"])
    assert not out.exists()


def test_frint_help_lists_every_psi_kind(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["frint", "--help"])
    assert exc_info.value.code == 0
    assert "--psi {" + ",".join(_KIND_ARITY) + "}" in capsys.readouterr().out


def test_frint_power_requires_rho(tmp_path, capsys):
    src = tmp_path / "h.csv"
    src.write_text("0.0,0.0\n0.5,0.25\n1.0,1.0\n")
    rc = main(["frint", "--input", str(src), "--output",
               str(tmp_path / "o.csv"), "--eta", "0.5", "--psi", "power"])
    assert rc == EXIT_VALIDATION


def test_ml_nonconvergence_exit_code(capsys):
    rc = main(["ml", "--family", "two-param", "--eta", "0.5", "--nu", "1",
               "--z", "30", "--max-terms", "5"])
    assert rc == EXIT_NUMERICAL


def test_ml_overflow_exit_code(capsys):
    rc = main(["ml", "--family", "two-param", "--eta", "0.2", "--nu", "1",
               "--z", "1e9"])
    assert rc == EXIT_NUMERICAL
    payload = json.loads(capsys.readouterr().err)
    assert payload["category"] == "numerical"


def test_unconverged_series_exits_3_with_one_json_line(tmp_path, capsys):
    # E[1e-3, 1](0.9999) needs far more than the 10 000 terms of the series
    out = tmp_path / "o.csv"
    cfg = _write_config(tmp_path / "c.json", eta=0.001, nu=0.0, n=64,
                        output_path=str(out), **{"lambda": 0.9999})
    assert main(["linear", cfg]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert captured.err == line + "\n"
    assert json.loads(line)["category"] == "numerical"
    assert "within 10000 terms" in line
    assert captured.out == ""
    assert not out.exists()


# orders that are finite but too large for doubles: the weights, scale or
# Gamma values of the order overflow
OVERFLOWING_ORDERS = {
    "frint-eta-400": lambda d: [*_frint_input(d, [(0, 0), (0.5, 0.25), (1, 1)]),
                                "--eta", "400", "--n", "8"],
    "frint-eta-1e308": lambda d: [*_frint_input(d, [(0, 0), (0.5, 0.25), (1, 1)]),
                                  "--eta", "1e308", "--n", "8"],
    "ml-eta-1e308": lambda d: ["ml", "--eta", "1e308", "--nu", "1", "--z", "1"],
    "ml-nu-1e308": lambda d: ["ml", "--eta", "0.5", "--nu", "1e308", "--z", "1"],
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_ORDERS))
def test_overflowing_order_exits_3_with_one_json_line(tmp_path, capsys, case):
    assert main(OVERFLOWING_ORDERS[case](tmp_path)) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert captured.err == line + "\n"
    assert json.loads(line)["category"] == "numerical"
    assert "floating-point range" in line
    assert captured.out == ""
    assert not (tmp_path / "o.csv").exists()


# an identity Psi on [0, 1e300]: its increments reach 1e300
HUGE_DOMAIN = {"psi": {"kind": "identity", "domain": [0.0, 1e300]}, "n": 16}
# f = y^3 - t is about -t along y0, so the composite X^(1-zeta) f that
# bounds M reaches 1e270 * 1e300 at the last node
HUGE_COMPOSITE = {**HUGE_DOMAIN, "eta": 0.1, "nu": 0.0, "xi": 1e300,
                  "y_a": 1e-200, "rhs": "y^3 - t", "L_override": 1.9e6}

# finite inputs whose trust box, iterate, bound M, operator tables or
# bound scale leaves the double range (eta 0.6, nu 0.4, rhs -1*y, n 64
# unless overridden)
HUGE_INPUTS = {
    "solve-composite": ("solve", HUGE_COMPOSITE, "bound M of f"),
    "bounds-composite": ("bounds", HUGE_COMPOSITE, "bound M of f"),
    # X^(eta+1) of the slope-defect table at X = 1e279
    "solve-power-tables": ("solve", {**HUGE_DOMAIN, "eta": 0.999999,
                                     "nu": 0.4, "xi": 1e300, "rhs": "y",
                                     "horizon": 1e279}, "power tables"),
    "solve-y_a": ("solve", {"y_a": 1.7e308}, "trust box"),
    "bounds-y_a": ("bounds", {"y_a": 1.7e308}, "trust box"),
    "solve-k_box": ("solve", {"k_box": 1.7e308}, "trust box"),
    "bounds-k_box": ("bounds", {"k_box": 1.7e308}, "trust box"),
    "solve-y_a-nu-1": ("solve", {"y_a": 1.7e308, "nu": 1.0, "horizon": 1.0},
                       "iteration 1 exceeds"),
    "bounds-L_override": ("bounds", {"L_override": 1.7e308},
                          "M*Gamma(zeta)/L exceeds"),
    # L X^eta = 1e30 * 1e300, the argument of the a-priori bound's series
    "solve-tail-argument": ("solve", {**HUGE_DOMAIN, "eta": 1.0, "nu": 1.0,
                                      "xi": 1e300, "horizon": 1e300, "rhs": "0*y",
                                      "L_override": 1e30}, "L*X^eta"),
    # the solution stays below 1e306, but the resolvent moments of the
    # forcing weights, up to n^(eta+1) E[eta,eta+1](lambda), do not
    "linear-forcing-lambda": ("linear", {"lambda": 51.0, "forcing": "1+t",
                                         "n": 1024}, "weights on this grid"),
    # y_a times the series E[eta,zeta](lambda X^eta), or the Kilbas-Saigo
    # series of the variable-coefficient mode, at X up to xi = 1
    "linear-y_a": ("linear", {"y_a": 1.7e308, "lambda": 1.0},
                   "closed-form solution"),
    "linear-y_a-mu": ("linear", {"y_a": 1.7e308, "lambda": 1.0, "mu": 1.2},
                      "closed-form solution"),
    # w stays below 1.1e308, but X^(zeta-1) is about 1e4 at the first
    # node of an exp Psi over [0, 7e-7], so each plain value y overflows
    "linear-plain-values": ("linear", {"psi": {"kind": "exp", "domain": [0.0, 700.0]},
                                       "eta": 0.1, "xi": 7e-7, "y_a": 1.7e308,
                                       "lambda": 1.0}, "plain values"),
}


@pytest.mark.parametrize("case", sorted(HUGE_INPUTS))
def test_huge_finite_input_exits_3_with_one_json_line(tmp_path, capsys, case):
    command, overrides, names = HUGE_INPUTS[case]
    settings = {"eta": 0.6, "nu": 0.4, "n": 64, **overrides}
    cfg = _write_config(tmp_path / "c.json", output_path=str(tmp_path / "o.csv"),
                        **settings)
    assert main([command, cfg]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert captured.err == line + "\n"
    assert json.loads(line)["category"] == "numerical"
    assert names in line and "floating-point range" in line
    assert captured.out == ""
    assert not (tmp_path / "o.csv").exists()
