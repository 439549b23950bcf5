"""Seeded inputs, timed calls and output checks of the three workloads.

Each workload yields requests in passes.  A pass is a seed-shuffled walk
over a fixed design, so every run sees the same mix of problem classes
in a different order with different continuous draws; this keeps
medians comparable from seed to seed.  The first request of the
``decay_cli`` and ``custom_psi_nonlinear`` streams is a fixed corner of
their parameter box, the one with the largest discretization error, so
``weighted_err.max`` measures the same worst case in every run.

Nothing here times anything: the worker times :meth:`call` only;
:meth:`prepare` (building a request's inputs) and :meth:`check`
(comparing its outputs with the reference) run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import psihilfer
from psihilfer import cli
import refmath

WORKLOADS = ("decay_cli", "custom_psi_nonlinear", "oracle_certify")
ORDERS = tuple((eta, nu) for eta in (0.3, 0.5, 0.6, 0.9) for nu in (0.0, 0.4, 1.0))
HERE = os.path.dirname(os.path.abspath(__file__))
TABLE_PATH = os.path.join(HERE, "reference_table.json")


@dataclass
class Outcome:
    """Result of checking one request.

    ``category`` is ``ok`` or a failure: ``raised``, ``non_finite``,
    ``non_converged`` (reported honestly by the library) or
    ``out_of_tolerance`` (missed the reference); ``err`` is the weighted
    sup-norm error of a grid solution (None for scalars).
    """

    category: str
    err: float | None = None
    label: str = ""
    false_converged: bool = False
    bytes_written: int = 0
    detail: str = ""


@dataclass
class Request:
    index: int
    label: str
    params: dict
    inputs: dict = field(default_factory=dict)


def _rng(seed: int, workload: str, pass_no: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), pass_no])


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x, dtype=float))))


# --------------------------------------------------------------------------
# decay_cli: `psihilfer solve` on D y = -L y through cli.main, n = 1024

DECAY_N = 1024
DECAY_L = (0.5, 2.0)
# each Psi has X(a + horizon) = 1, so |lambda| X^eta <= 2 on the whole grid
DECAY_PSI = {
    "identity": ({"kind": "identity", "domain": [0.0, 2.0]}, 0.0, 1.0),
    "power": ({"kind": "power", "rho": 2.0, "domain": [0.0, 2.0]}, 0.0, 1.0),
    "log": ({"kind": "log", "domain": [1.0, math.e ** 2]}, 1.0, math.e - 1.0),
}
# 4x the weighted error against the closed form measured at L = 2 (the
# worst L) for each (eta, nu) at n = 1024
DECAY_TOL = {
    (0.3, 0.0): 2.6e-2, (0.3, 0.4): 1.2e-2, (0.3, 1.0): 3.0e-2,
    (0.5, 0.0): 2.7e-3, (0.5, 0.4): 1.6e-3, (0.5, 1.0): 2.3e-3,
    (0.6, 0.0): 5.6e-4, (0.6, 0.4): 3.7e-4, (0.6, 1.0): 4.8e-4,
    (0.9, 0.0): 1.4e-6, (0.9, 0.4): 1.3e-6, (0.9, 1.0): 2.1e-6,
}
DECAY_CORNER = {"eta": 0.3, "nu": 1.0, "psi": "identity", "L": 2.0}


def _latin(rng, pass_no: int, stride: int, lo: float, hi: float) -> np.ndarray:
    """One draw per class of ORDERS from equal bins of [lo, hi].

    Class k gets bin (k * stride + pass_no) mod K in pass ``pass_no``:
    every pass uses each bin once and every class walks through all
    bins, the same way for every seed; the seed places the draw inside
    its bin.  This keeps the cost mix of a run independent of the seed.
    """
    count = len(ORDERS)
    bins = (np.arange(count) * stride + pass_no) % count
    return lo + (bins + rng.random(count)) * (hi - lo) / count


class DecayCli:
    name = "decay_cli"
    pass_size = 1 + len(ORDERS)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def params(self):
        yield DECAY_CORNER
        pass_no = 0
        while True:
            rng = _rng(self.seed, self.name, pass_no)
            lams = _latin(rng, pass_no, 5, *DECAY_L)
            kinds = rng.permutation(np.arange(len(ORDERS)) % len(DECAY_PSI))
            names = list(DECAY_PSI)
            for k in rng.permutation(len(ORDERS)):
                eta, nu = ORDERS[k]
                yield {"eta": eta, "nu": nu, "psi": names[kinds[k]],
                       "L": float(lams[k])}
            pass_no += 1

    def config(self, p: dict, out: str) -> dict:
        psi_cfg, a, horizon = DECAY_PSI[p["psi"]]
        return {"psi": psi_cfg, "eta": p["eta"], "nu": p["nu"], "a": a,
                "xi": horizon, "y_a": 1.0, "rhs": f"-{p['L']!r}*y",
                "k_box": 1.0, "n": DECAY_N, "horizon": horizon,
                "output_path": out}

    def prepare(self, index: int, p: dict) -> Request:
        out = os.path.join(self.workdir, "decay.csv")
        cfg_path = os.path.join(self.workdir, "decay.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(self.config(p, out), fh)
        label = f"eta={p['eta']},nu={p['nu']},psi={p['psi']}"
        return Request(index, label, p, {"argv": ["solve", cfg_path], "out": out})

    def warmup(self) -> None:
        p = dict(DECAY_CORNER)
        out = os.path.join(self.workdir, "warmup.csv")
        cfg = dict(self.config(p, out), n=64)
        path = os.path.join(self.workdir, "warmup.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        cli.main(["solve", path])

    @staticmethod
    def call(req: Request):
        return cli.main(req.inputs["argv"])

    def check(self, req: Request, code) -> Outcome:
        p = req.params
        out = req.inputs["out"]
        if code not in (cli.EXIT_OK, cli.EXIT_NUMERICAL):
            return Outcome("raised", label=req.label, detail=f"exit {code}")
        written = os.path.getsize(out) + os.path.getsize(out + ".report.json")
        if code == cli.EXIT_NUMERICAL:
            return Outcome("non_converged", label=req.label, bytes_written=written)
        data = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(0, 1))
        t, w = data[:, 0], data[:, 1]
        if not _finite(w):
            return Outcome("non_finite", label=req.label, bytes_written=written)
        psi_cfg, a, _ = DECAY_PSI[p["psi"]]
        if p["psi"] == "identity":
            x = t - a
        elif p["psi"] == "power":
            x = t ** 2
        else:
            x = np.log(t) - math.log(a)
        zeta = p["eta"] + p["nu"] * (1.0 - p["eta"])
        ref = refmath.ml_small(p["eta"], zeta, -p["L"] * np.maximum(x, 0.0) ** p["eta"])
        err = float(np.max(np.abs(w - ref)))
        ok = err <= DECAY_TOL[(p["eta"], p["nu"])]
        return Outcome("ok" if ok else "out_of_tolerance", err, req.label,
                       bytes_written=written)


# --------------------------------------------------------------------------
# custom_psi_nonlinear: picard_solve with Psi(t) = t + s sin t (bisection
# inverse) and a manufactured nonlinear right-hand side, n = 512

CUSTOM_N = 512
CUSTOM_DOMAIN = (0.0, 2.0)
CUSTOM_RANGES = {"s": (0.1, 0.4), "p": (1.0, 2.0), "c": (0.5, 1.5), "kappa": (0.5, 3.0)}
# 5x the largest weighted error over the corners of the (s, p, c, kappa)
# box for each (eta, nu) at n = 512
CUSTOM_TOL = {
    (0.3, 0.0): 4.5e-7, (0.3, 0.4): 3.1e-6, (0.3, 1.0): 3.2e-4,
    (0.5, 0.0): 1.5e-7, (0.5, 0.4): 2.2e-5, (0.5, 1.0): 7.6e-4,
    (0.6, 0.0): 1.9e-5, (0.6, 0.4): 6.8e-5, (0.6, 1.0): 1.1e-3,
    (0.9, 0.0): 3.4e-4, (0.9, 0.4): 3.4e-4, (0.9, 1.0): 3.2e-3,
}
CUSTOM_CORNER = {"eta": 0.9, "nu": 1.0, "s": 0.4, "p": 1.0, "c": 1.5, "kappa": 0.5}


def custom_rhs_text(p: dict) -> str:
    """f = c G(p+1)/G(p+1-eta) X^(p-eta) + kappa sin(y - c X^p), X = t + s sin t.

    With y_a = 0 the solution is y = c X^p, i.e. w* = c X^(p+1-zeta).
    """
    amp = p["c"] * math.gamma(p["p"] + 1.0) / math.gamma(p["p"] + 1.0 - p["eta"])
    x = f"(t + {p['s']!r}*sin(t))"
    return (f"{amp!r}*{x}^{p['p'] - p['eta']!r}"
            f" + {p['kappa']!r}*sin(y - {p['c']!r}*{x}^{p['p']!r})")


def custom_problem(p: dict) -> psihilfer.CauchyProblem:
    s = p["s"]
    # written in the style of the built-in maps: scalar or array in, no
    # inverse supplied, so grids are built by bisection
    psi = psihilfer.make_custom_psi(
        lambda t: np.asarray(t, dtype=float) + s * np.sin(t),
        lambda t: 1.0 + s * np.cos(np.asarray(t, dtype=float)),
        CUSTOM_DOMAIN)
    return psihilfer.CauchyProblem(
        psi=psi, params=psihilfer.OrderParams(p["eta"], p["nu"]), a=0.0,
        xi=1.0, y_a=0.0, rhs=psihilfer.parse(custom_rhs_text(p)), k_box=1.0)


class CustomPsiNonlinear:
    name = "custom_psi_nonlinear"
    pass_size = 1 + len(ORDERS)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def params(self):
        yield CUSTOM_CORNER
        pass_no = 0
        while True:
            rng = _rng(self.seed, self.name, pass_no)
            draws = {key: _latin(rng, pass_no, stride, *CUSTOM_RANGES[key])
                     for key, stride in zip(CUSTOM_RANGES, (1, 5, 7, 11))}
            for k in rng.permutation(len(ORDERS)):
                eta, nu = ORDERS[k]
                p = {"eta": eta, "nu": nu}
                p.update({key: float(v[k]) for key, v in draws.items()})
                yield p
            pass_no += 1

    def prepare(self, index: int, p: dict, n: int = CUSTOM_N) -> Request:
        return Request(index, f"eta={p['eta']},nu={p['nu']}", p,
                       {"problem": custom_problem(p), "n": n})

    def warmup(self) -> None:
        psihilfer.picard_solve(custom_problem(CUSTOM_CORNER), n=32)

    @staticmethod
    def call(req: Request):
        return psihilfer.picard_solve(req.inputs["problem"], n=req.inputs["n"])

    @staticmethod
    def error(req: Request, solution) -> float:
        p = req.params
        zeta = p["eta"] + p["nu"] * (1.0 - p["eta"])
        t = solution.grid.nodes
        x = t + p["s"] * np.sin(t)
        return float(np.max(np.abs(solution.w - p["c"] * x ** (p["p"] + 1.0 - zeta))))

    def check(self, req: Request, result) -> Outcome:
        solution, report = result
        if not _finite(solution.w):
            return Outcome("non_finite", label=req.label)
        if not report.converged:
            return Outcome("non_converged", label=req.label)
        err = self.error(req, solution)
        ok = err <= CUSTOM_TOL[(req.params["eta"], req.params["nu"])]
        return Outcome("ok" if ok else "out_of_tolerance", err, req.label)


# --------------------------------------------------------------------------
# oracle_certify: closed forms and certificates on the tabulated lattice

# solve_constant integrates the forcing against E[eta, eta](lam r^eta) with
# the series factor sampled at panel midpoints, an O(|lam|) quadrature
# error.  Per-unit-|lam| weighted error measured at |lam| <= 1 (where the
# series is exact in doubles) at n = 1024; the check allows 4x this times
# |lam|, on top of the 1e-10 rule.
FORCING_QUADRATURE = {0.3: 7.0e-3, 0.5: 2.3e-4, 0.6: 4.1e-5, 0.9: 1.8e-7}


def load_table() -> dict:
    with open(TABLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def point_label(point: dict) -> str:
    keys = [k for k in ("eta", "nu", "m", "l", "mu", "lam", "z", "y_a", "rhs")
            if k in point]
    inner = ",".join(f"{k}={point[k]:.6g}" if isinstance(point[k], float)
                     else f"{k}={point[k]}" for k in keys)
    return f"{point['id']}:{point['kind']}({inner})"


def _bounds_config(point: dict) -> dict:
    return {"psi": {"kind": "identity", "domain": [0.0, 2.0]},
            "eta": point["eta"], "nu": point["nu"], "a": 0.0, "xi": 1.0,
            "y_a": point["y_a"], "rhs": point["rhs"], "k_box": 1.0, "n": 64}


def _linear_problem(point: dict) -> psihilfer.LinearProblem:
    lo, hi = point["psi"]["domain"]
    psi = psihilfer.psi_from_config(point["psi"])
    forcing = point.get("forcing")
    return psihilfer.LinearProblem(
        psi=psi, params=psihilfer.OrderParams(point["eta"], point["nu"]),
        a=lo, b=hi, y_a=point["y_a"], lam=point["lam"], mu=point.get("mu"),
        forcing=None if forcing is None else psihilfer.parse(repr(forcing)))


def prepare_point(point: dict, index: int, workdir: str) -> Request:
    kind = point["kind"]
    inputs = {}
    if kind in ("solve_constant", "solve_variable"):
        inputs["problem"] = _linear_problem(point)
    elif kind == "bounds":
        path = os.path.join(workdir, f"bounds_{point['id']}.json")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_bounds_config(point), fh)
        inputs["argv"] = ["bounds", path]
    return Request(index, point_label(point), point, inputs)


def call_point(req: Request):
    p = req.params
    kind = p["kind"]
    if kind == "ml":
        return psihilfer.mittag_leffler2(p["eta"], p["nu"], p["z"])
    if kind == "ks":
        return psihilfer.kilbas_saigo(p["eta"], p["m"], p["l"], p["z"])
    if kind == "solve_constant":
        return psihilfer.solve_constant(req.inputs["problem"], p["n"])
    if kind == "solve_variable":
        return psihilfer.solve_variable(req.inputs["problem"], p["n"])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(req.inputs["argv"])
    return code, buf.getvalue()


def _check_bounds(req: Request, code: int, text: str) -> Outcome:
    written = len(text.encode())
    if code != cli.EXIT_OK:
        return Outcome("raised", label=req.label, detail=f"exit {code}",
                       bytes_written=written)
    vals = dict(line.partition(" = ")[::2] for line in text.splitlines())
    try:
        return _compare_bounds(req, vals, written)
    except (KeyError, ValueError) as exc:
        return Outcome("out_of_tolerance", label=req.label, bytes_written=written,
                       detail=f"unexpected bounds output: {exc!r}")


def _compare_bounds(req: Request, vals: dict, written: int) -> Outcome:
    """chi, the a-priori sequence and the dependence bound, recomputed from
    the printed M (norm_f) and L_used."""
    p = req.params
    eta = p["eta"]
    zeta = eta + p["nu"] * (1.0 - eta)
    norm_f = float(vals["norm_f"])
    l_used = float(vals["L_used"])
    chi = float(vals["chi"])
    got = [chi] + [float(vals[f"apriori[{m}]"]) for m in range(21)]
    if not _finite(got):
        return Outcome("non_finite", label=req.label, bytes_written=written)
    z = l_used * chi ** eta
    tails = refmath.positive_tails(eta, zeta, z, 20)
    scale = norm_f * math.gamma(zeta) / l_used
    ref = ([refmath.existence_interval_identity(1.0, eta, zeta, norm_f, 1.0)]
           + [scale * t for t in tails])
    (cd_key,) = [k for k in vals if k.startswith("continuous_dependence")]
    delta = float(cd_key.split("=")[1].rstrip(")"))
    gz = math.gamma(zeta)
    got.append(float(vals[cd_key]))
    ref.append((1.0 + gz * refmath.ml_positive(eta, zeta, z)) * delta / gz)
    ok = all(abs(g - r) <= refmath.REL_TOL * abs(r) for g, r in zip(got, ref))
    return Outcome("ok" if ok else "out_of_tolerance", label=req.label,
                   bytes_written=written)


def check_point(req: Request, result) -> Outcome:
    p = req.params
    kind = p["kind"]
    if kind in ("ml", "ks"):
        if not math.isfinite(result.value):
            return Outcome("non_finite", label=req.label)
        if not result.converged:
            return Outcome("non_converged", label=req.label)
        if refmath.within(result.value, p["ref"]):
            return Outcome("ok", label=req.label)
        return Outcome("out_of_tolerance", label=req.label, false_converged=True,
                       detail=f"got {result.value!r}, ref {p['ref']!r}")
    if kind == "bounds":
        return _check_bounds(req, *result)
    w = np.asarray(result.w)[p["nodes"]]
    ref = np.asarray(p["ref"])
    if not _finite(w):
        return Outcome("non_finite", label=req.label)
    err = float(np.max(np.abs(w - ref)))
    if kind == "solve_constant":
        quad = 4.0 * FORCING_QUADRATURE[p["eta"]] * abs(p["lam"])
        ok = all(abs(g - r) <= quad or refmath.within(g, r) for g, r in zip(w, ref))
    else:
        ok = all(refmath.within(g, r) for g, r in zip(w, ref))
    return Outcome("ok" if ok else "out_of_tolerance", err, req.label)


def run_oracle_point(point: dict, workdir: str) -> Outcome:
    """Prepare, call and check one lattice point (used to record baselines)."""
    req = prepare_point(point, 0, workdir)
    try:
        result = call_point(req)
    except Exception as exc:  # noqa: BLE001 - a raising library call is a result
        return Outcome("raised", label=req.label, detail=type(exc).__name__)
    return check_point(req, result)


class OracleCertify:
    name = "oracle_certify"

    def __init__(self, seed: int, workdir: str, table: dict | None = None):
        self.seed = seed
        self.workdir = workdir
        self.points = (table or load_table())["points"]
        self.pass_size = len(self.points)

    def params(self):
        pass_no = 0
        while True:
            rng = _rng(self.seed, self.name, pass_no)
            for k in rng.permutation(len(self.points)):
                yield self.points[k]
            pass_no += 1

    def prepare(self, index: int, point: dict) -> Request:
        return prepare_point(point, index, self.workdir)

    def warmup(self) -> None:
        psihilfer.mittag_leffler2(0.5, 1.0, 1.0)
        sc = next(p for p in self.points if p["kind"] == "solve_constant")
        psihilfer.solve_constant(_linear_problem(sc), 16)

    call = staticmethod(call_point)
    check = staticmethod(check_point)


WORKLOAD_CLASSES = {cls.name: cls for cls in (DecayCli, CustomPsiNonlinear, OracleCertify)}
