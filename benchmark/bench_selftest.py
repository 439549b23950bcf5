"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmark/bench_selftest.py -q
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import make_reference  # noqa: E402
import workloads  # noqa: E402


def _inputs(workload: str, seed: int, count: int, workdir: str) -> bytes:
    """Serialized inputs of the first ``count`` requests of a stream."""
    cls = workloads.WORKLOAD_CLASSES[workload]
    wl = cls(seed, workdir)
    parts = []
    for index, params in enumerate(wl.params()):
        if index >= count:
            break
        req = wl.prepare(index, params)
        if workload == "decay_cli":
            with open(req.inputs["argv"][1], "rb") as fh:
                parts.append(fh.read())
        elif workload == "custom_psi_nonlinear":
            parts.append(json.dumps(params, sort_keys=True).encode())
            parts.append(req.inputs["problem"].rhs.to_string().encode())
        else:
            parts.append(str(params["id"]).encode())
    return b"\n".join(parts)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    count = 30
    first = _inputs(workload, 7, count, str(tmp_path))
    again = _inputs(workload, 7, count, str(tmp_path))
    other = _inputs(workload, 8, count, str(tmp_path))
    assert first == again
    assert first != other


@pytest.mark.parametrize("params", [
    workloads.CUSTOM_CORNER,
    {"eta": 0.5, "nu": 0.4, "s": 0.25, "p": 1.5, "c": 1.0, "kappa": 2.0},
    {"eta": 0.6, "nu": 1.0, "s": 0.1, "p": 1.0, "c": 0.5, "kappa": 0.5},
])
def test_manufactured_rhs_error_falls_under_refinement(params):
    # cases whose error is set by the grid, well above the 1e-10 iteration
    # tolerance (short existence intervals stop at that floor instead)
    wl = workloads.CustomPsiNonlinear(0, ".")
    errs = []
    for n in (256, 512):
        req = wl.prepare(0, params, n=n)
        solution, report = wl.call(req)
        assert report.converged
        errs.append(wl.error(req, solution))
    assert errs[1] < errs[0]


def test_table_points_match_fresh_mpmath():
    table = workloads.load_table()
    ml = next(p for p in table["points"] if p["kind"] == "ml"
              and (p["eta"], p["nu"], p["z"]) == (0.6, 0.76, -10.0))
    ks = next(p for p in table["points"] if p["kind"] == "ks" and p["z"] == -5.0)
    sc = next(p for p in table["points"] if p["kind"] == "solve_constant")

    assert make_reference.ml_value(ml["eta"], ml["nu"], ml["z"]) == pytest.approx(
        ml["ref"], rel=1e-14)
    assert make_reference.ks_value(ks["eta"], ks["m"], ks["l"], ks["z"]) == pytest.approx(
        ks["ref"], rel=1e-14)
    x = make_reference.grid_x(sc["psi"], sc["n"], sc["nodes"])[-1]
    zeta = sc["eta"] + sc["nu"] * (1.0 - sc["eta"])
    z = sc["lam"] * x ** sc["eta"]
    node = (sc["y_a"] * make_reference.ml_value(sc["eta"], zeta, z)
            + sc["forcing"] * x ** (sc["eta"] + 1.0 - zeta)
            * make_reference.ml_value(sc["eta"], sc["eta"] + 1.0, z))
    assert node == pytest.approx(sc["ref"][-1], rel=1e-14)


def test_layer_self_times_sum_to_root_span(tmp_path):
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    wl = workloads.DecayCli(3, str(tmp_path))
    req = wl.prepare(0, dict(workloads.DECAY_CORNER))
    with open(req.inputs["argv"][1]) as fh:
        cfg = json.load(fh)
    cfg["n"] = 256
    with open(req.inputs["argv"][1], "w") as fh:
        json.dump(cfg, fh)
    tracer.begin(0)
    assert wl.call(req) == 0
    tracer.end()

    own = tracer.self_times()
    root = tracer.spans[0]
    assert root[2] == "request" and root[1] == -1
    assert len(tracer.spans) > 10
    assert all(v >= -1e-9 for v in own.values())
    assert math.isclose(sum(own.values()), root[4] - root[3], rel_tol=1e-9)
    _, by_layer = tracing.layer_metrics(tracer, 1)
    assert max(by_layer, key=by_layer.get) == "frac_ops"
    assert np.isclose(sum(by_layer.values()), root[4] - root[3], rtol=1e-9)
