#!/usr/bin/env python3
"""psihilfer benchmark: one seeded workload in a closed loop.

Run from the repository root:

    python3 benchmark/run.py --workload decay_cli --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py for the inputs and the reason for each):

* ``decay_cli``             ``psihilfer solve`` on D y = -L y, n = 1024
* ``custom_psi_nonlinear``  ``picard_solve`` with a bisection-inverted Psi
* ``oracle_certify``        Mittag-Leffler / Kilbas-Saigo values, closed-form
                            solves and ``psihilfer bounds`` on a tabulated lattice

One request follows another in a single fresh worker process with the
BLAS/OpenMP thread pools set to one thread.  Set-up
time is the median over several fresh processes.  Every output is
checked against an independent reference outside the timed region.
Times in the metrics are wall times scaled to a nominal host speed,
sampled with a fixed NumPy kernel between requests (hostspeed.py); the
raw wall-clock figures are printed on the ``# wall_clock`` line.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
request twice, untraced and then traced, and prints the per-layer
metrics (spans around each layer's public functions; the library is not
edited) and the tracing overhead.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it start with
``#`` and carry the environment, failure accounting and layer table.
``failed`` counts requests that went wrong at a point where the code was
right when the reference table was made (a regression; ``correct`` is
false then).  Wrong outputs at the lattice points the table records as
known defects (ROADMAP item 3) are not hidden: they lower
``passed_frac`` and are listed on the ``# failing_points`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

from tracing import LAYERS, SHOULD_MOVE  # noqa: E402  (imports no numpy)

WORKLOADS = ("decay_cli", "custom_psi_nonlinear", "oracle_certify")
SETUP_PROBES = 4
# the whole benchmark must end within 180 s; each worker gets what is
# left of this budget (a set-up probe at most PROBE_TIMEOUT_S of it)
DEADLINE_S = 170
PROBE_TIMEOUT_S = 30
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
FAILURES = ("raised", "non_finite", "non_converged", "out_of_tolerance")


def _fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def _l3_bytes() -> int | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            mult = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1], 1)
            return int(size.rstrip("KMG")) * mult
    except OSError:
        return None
    return None


def _worker(mode, args, env, workdir, deadline, limit=None):
    timeout = deadline - time.monotonic()
    if limit is not None:
        timeout = min(timeout, limit)
    if timeout <= 0:
        raise RuntimeError(f"no time left for the {mode} worker")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _is_known(outcome, known):
    """True if the request's lattice point has a failure recorded in the
    reference table for the code as it stood (ROADMAP item 3)."""
    return known.get(outcome["label"].split(":", 1)[0], "ok") != "ok"


def _accounting(outcomes, known):
    """Failure counts by category, failing lattice points, unexpected ones
    (label -> reason) and the number of requests that failed unexpectedly."""
    counts = {c: 0 for c in FAILURES}
    failing = {}
    unexpected = {}
    unexpected_requests = 0
    for o in outcomes:
        if o["category"] == "ok":
            continue
        counts[o["category"]] += 1
        failing.setdefault(o["label"], o["category"])
        if not _is_known(o, known):
            unexpected[o["label"]] = f"{o['category']} {o['detail']}".strip()
            unexpected_requests += 1
    return counts, failing, unexpected, unexpected_requests


def _known_defects(workload):
    """Lattice point id -> failure category recorded for the code as it
    stood when the reference table was made (ROADMAP item 3)."""
    if workload != "oracle_certify":
        return {}
    with open(os.path.join(HERE, "reference_table.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    return {str(p["id"]): p.get("baseline", "ok") for p in table["points"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "psihilfer", "__init__.py")):
        return _fail(f"no psihilfer sources under {src}; run from the repository root")
    if not os.path.isfile(os.path.join(HERE, "reference_table.json")):
        return _fail("benchmark/reference_table.json is missing")

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    # one BLAS/OpenMP thread, well under the nproc cap: on a few shared
    # cores a second BLAS thread made requests slower and their times
    # noisier (it waits on a core the host gives to someone else)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"

    out_root = os.path.join(root, ".bench_out")
    workdir = os.path.join(out_root, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        probes = [_worker("setup", args, env, workdir, deadline, PROBE_TIMEOUT_S)
                  for _ in range(SETUP_PROBES)]
        mode = "trace" if args.trace else "run"
        res = _worker(mode, args, env, workdir, deadline)
        spans = None
        if args.trace:
            spans = os.path.join(out_root, f"spans-{args.workload}-s{args.seed}.jsonl")
            shutil.move(res["spans_path"], spans)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probes.append(res)
    setups = [p["setup_adjusted_s"] for p in probes]
    raw_setups = [p["setup_s"] for p in probes]

    import numpy
    import scipy

    lat = res["adjusted"]
    raw = res["latencies"]
    outcomes = res["outcomes"]
    attempted = len(outcomes)
    known = _known_defects(args.workload)
    counts, failing, unexpected, failed = _accounting(outcomes, known)
    wrong = sum(counts.values())
    # the worst error over the points without a recorded defect: it guards
    # the accuracy of the solves that are right, and a defect's error (up
    # to 1e157) neither drowns it nor makes fixing the defect look worse
    errs = [o["err"] for o in outcomes
            if o["err"] is not None and not _is_known(o, known)]

    env_info = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": nproc,
        "thread_caps": {v: env[v] for v in THREAD_VARS},
        "l3_bytes": _l3_bytes(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }
    print("# env " + json.dumps(env_info))
    print("# failures " + json.dumps({
        "attempted": attempted, "wrong": wrong,
        "failed_frac": wrong / attempted, **counts,
        "false_converged": sum(o["false_converged"] for o in outcomes),
        "known_defect": wrong - failed, "unexpected": failed,
        "unexpected_points": len(unexpected)}))
    if failing:
        print("# failing_points " + json.dumps(failing))
    if unexpected:
        print("# unexpected_failures " + json.dumps(unexpected))
    p90 = (_percentile(lat, 0.9) if len(lat) >= 100
           else f"omitted: {len(lat)} samples < 100")
    print("# latency " + json.dumps({"samples": len(lat), "p50_s": statistics.median(lat),
                                     "p90_s": p90, "setup_samples_s": setups}))
    print("# wall_clock " + json.dumps({
        "p50_s": statistics.median(raw), "throughput_per_s": len(raw) / sum(raw),
        "setup_s": statistics.median(raw_setups), "setup_samples_s": raw_setups,
        "wall_over_nominal": sum(raw) / sum(lat)}))

    if args.trace:
        layer_self = res["layer_self_s"]
        total = sum(layer_self.values())
        for layer in LAYERS + ("bench",):
            s = layer_self.get(layer, 0.0)
            note = SHOULD_MOVE.get(layer, "benchmark glue inside the timed call")
            print(f"# layer {layer:<13} self {s:10.4f} s {100.0 * s / total:5.1f} %"
                  f"  should move: {note}")
        print("# l3_vs_operator " + json.dumps({
            "l3_bytes_measured": env_info["l3_bytes"],
            "operator_bytes_computed": res["layer_metrics"]["frac_ops.operator_bytes_computed"][0],
            "operator_builds": res["layer_metrics"]["frac_ops.operator_build.calls"][0]}))
        print(f"# spans written to {os.path.relpath(spans, root)}")
        metrics = {name: {"value": float(v), "unit": u}
                   for name, (v, u) in res["layer_metrics"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "latency_s.p50": {"value": statistics.median(lat), "unit": "s"},
            "throughput_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "passed_frac": {"value": 1.0 - wrong / attempted, "unit": "ratio"},
            # no checked grid solution at all means every request failed;
            # report the largest finite double rather than drop the metric
            "weighted_err.max": {"value": max(errs, default=1.7976931348623157e308),
                                 "unit": "1"},
        }
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
