"""One fresh process of the benchmark: set-up probe, timed run or traced run.

Started by run.py with the thread caps already in the environment and
``src`` on PYTHONPATH.  Prints one JSON object as its last stdout line.

Set-up time runs from before ``import psihilfer`` to the end of one
small warm-up call, including building the workload's first pass of
inputs; loading the oracle reference table is excluded.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

SETUP_SAMPLES = 5  # host-speed samples taken right after set-up


def _timed_call(workload, req, tracer=None):
    """Time one call; check its output outside the timed region."""
    from workloads import Outcome

    if tracer is not None:
        tracer.begin(req.index)
    t0 = time.perf_counter()
    try:
        result = workload.call(req)
        error = None
    except Exception as exc:  # noqa: BLE001 - a raising call is a failed request
        error = exc
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.end()
    if error is not None:
        return latency, Outcome("raised", label=req.label,
                                detail=f"{type(error).__name__}: {error}"), t0
    return latency, workload.check(req, result), t0


def _timed_loop(workload, seconds, host, tracer=None):
    """Run requests until ``seconds`` have passed, sampling the host's
    speed between them.

    Returns two lists of (latency_s, Outcome, start): untraced and
    traced.  With a tracer every request runs twice back to back, first
    with the wrappers idle and then recording, so both timings see the
    same machine state; without one the traced list stays empty.
    """
    plain, traced = [], []
    start = time.perf_counter()
    for index, params in enumerate(workload.params()):
        if plain and time.perf_counter() - start >= seconds:
            break
        req = workload.prepare(index, params)
        host.maybe_sample()
        plain.append(_timed_call(workload, req))
        if tracer is not None:
            traced.append(_timed_call(workload, req, tracer))
    host.sample()
    return plain, traced


def _summary(results, host):
    return {"latencies": [lat for lat, _, _ in results],
            "adjusted": [lat * host.factor(t0) for lat, _, t0 in results],
            "outcomes": [{"category": o.category, "err": o.err, "label": o.label,
                          "false_converged": o.false_converged,
                          "detail": o.detail} for _, o, _ in results]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    table = None
    excluded = 0.0
    if args.workload == "oracle_certify":
        t0 = time.perf_counter()
        with open(os.path.join(here, "reference_table.json"), encoding="utf-8") as fh:
            table = json.load(fh)
        excluded = time.perf_counter() - t0

    import workloads  # imports numpy and psihilfer

    cls = workloads.WORKLOAD_CLASSES[args.workload]
    workload = (cls(args.seed, args.workdir, table) if table is not None
                else cls(args.seed, args.workdir))
    # building one pass of inputs is part of set-up; the timed loop
    # regenerates the same requests from the seed
    first_pass = []
    for index, params in enumerate(workload.params()):
        first_pass.append(workload.prepare(index, params))
        if len(first_pass) >= workload.pass_size:
            break
    workload.warmup()
    setup_s = time.perf_counter() - T_START - excluded

    from hostspeed import HostSpeed

    host = HostSpeed()
    for _ in range(SETUP_SAMPLES):
        host.sample()
    out = {"setup_s": setup_s, "setup_adjusted_s": setup_s * host.run_factor()}

    if args.mode == "run":
        out.update(_summary(_timed_loop(workload, args.seconds, host)[0], host))
    elif args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        untraced, traced = _timed_loop(workload, args.seconds, host, tracer)
        for _, outcome, _ in traced:
            tracer.counters["cli.bytes_written"] += outcome.bytes_written
            tracer.counters["special_fn.series.false_converged"] += outcome.false_converged
        metrics, by_layer = tracing.layer_metrics(tracer, len(traced))
        overhead = (statistics.median(lat for lat, _, _ in traced)
                    / statistics.median(lat for lat, _, _ in untraced) - 1.0)
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        trace_path = os.path.join(args.workdir, "spans.jsonl")
        tracer.dump(trace_path)
        out.update(_summary(traced, host))
        out.update({"layer_metrics": metrics, "layer_self_s": by_layer,
                    "spans_path": trace_path})
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
