"""Spans and counters recorded around psihilfer's public entry points.

The library is not edited: :func:`install` replaces each traced function
with a wrapper wherever callers look it up, i.e. in every psihilfer
module namespace that holds it, and each traced method on its class.
Spans are recorded only inside a request (between :meth:`Tracer.begin`
and :meth:`Tracer.end`), kept in memory and written out by
:meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module, attribute, span name).  Module-level functions are patched in
# every psihilfer module that imported them; methods are patched once on
# their class.
TRACED_FUNCTIONS = (
    ("frac_ops", "build_grid", "frac_ops.build_grid"),
    ("frac_ops", "hilfer_derivative", "frac_ops.hilfer_derivative"),
    ("rhs_expr", "lipschitz_estimate", "rhs_expr.lipschitz"),
    ("picard", "picard_solve", "picard.solve"),
    ("picard", "picard_step", "picard.step"),
    ("picard", "residual_check", "picard.residual_check"),
    ("picard", "existence_interval", "picard.existence_interval"),
    ("picard", "apriori_error_bound_sequence", "picard.apriori"),
    ("special_fn", "mittag_leffler2", "special_fn.series"),
    ("special_fn", "kilbas_saigo", "special_fn.series"),
    ("special_fn", "ml2_tail_sums", "special_fn.tail_sums"),
    ("special_fn", "ml2_array", "special_fn.array"),
    ("special_fn", "ks_array", "special_fn.array"),
    ("linear_forms", "solve_constant", "linear_forms.solve"),
    ("linear_forms", "solve_variable", "linear_forms.solve"),
    ("cli", "main", "cli.main"),
)
TRACED_METHODS = (
    ("psi_maps", "PsiMap", "inverse", "psi_maps.inverse"),
    ("rhs_expr", "RhsExpr", "eval_many", "rhs_expr.eval_many"),
    ("frac_ops", "FracIntegralOperator", "__init__", "frac_ops.operator_build"),
    ("frac_ops", "FracIntegralOperator", "apply_weighted", "frac_ops.apply"),
    ("frac_ops", "FracIntegralOperator", "apply_plain", "frac_ops.apply"),
)
MODULES = ("psi_maps", "special_fn", "frac_ops", "rhs_expr", "picard",
           "linear_forms", "cli")

# span name -> layer; "request" is the root span around one timed call
SPAN_LAYER = {name: name.split(".")[0] for _, _, name in TRACED_FUNCTIONS}
SPAN_LAYER.update({name: name.split(".")[0] for *_, name in TRACED_METHODS})
SPAN_LAYER["request"] = "bench"
LAYERS = ("psi_maps", "frac_ops", "rhs_expr", "picard", "special_fn",
          "linear_forms", "cli")

# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "psi_maps.inverse.self_s": ("psi_maps.inverse",),
    "frac_ops.build_grid.self_s": ("frac_ops.build_grid",),
    "frac_ops.operator_build.self_s": ("frac_ops.operator_build",),
    "frac_ops.apply.self_s": ("frac_ops.apply",),
    "frac_ops.hilfer_derivative.self_s": ("frac_ops.hilfer_derivative",),
    "rhs_expr.eval_many.self_s": ("rhs_expr.eval_many",),
    "rhs_expr.lipschitz.self_s": ("rhs_expr.lipschitz",),
    "picard.self_s": ("picard.solve", "picard.existence_interval",
                      "picard.apriori"),
    "picard.step.self_s": ("picard.step",),
    "picard.residual_check.self_s": ("picard.residual_check",),
    "special_fn.series.self_s": ("special_fn.series",),
    "special_fn.tail_sums.self_s": ("special_fn.tail_sums",),
    "special_fn.array.self_s": ("special_fn.array",),
    "linear_forms.solve.self_s": ("linear_forms.solve",),
    "cli.self_s": ("cli.main",),
}

# layer -> the end-to-end metrics (and workloads) its per-layer metrics
# should move; printed in the layer table of a traced run
SHOULD_MOVE = {
    "psi_maps": "latency_s.p50 on custom_psi_nonlinear; nothing on decay_cli "
                "(closed-form inverses)",
    "frac_ops": "latency_s.p50, throughput_per_s and peak_rss_mb on decay_cli; "
                "a smaller share on custom_psi_nonlinear; none on oracle_certify",
    "rhs_expr": "latency_s.p50 on custom_psi_nonlinear and on the bounds "
                "requests of oracle_certify",
    "picard": "latency_s.p50 and passed_frac on decay_cli and custom_psi_nonlinear",
    "special_fn": "latency_s.p50 and passed_frac on oracle_certify",
    "linear_forms": "latency_s.p50 and weighted_err.max on oracle_certify",
    "cli": "latency_s.p50 on decay_cli once frac_ops is fast",
}


class Tracer:
    """In-memory span recorder with per-boundary counters."""

    def __init__(self):
        self.spans: list[list] = []      # [id, parent, name, start, end, request]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._request = -1

    def begin(self, request: int) -> None:
        self._request = request
        self._open("request")

    def end(self) -> None:
        self._close(self._stack[-1])

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), None,
                           self._request])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError("span stack out of order")

    def wrap(self, fn, name: str, count=None):
        """Wrapper recording a span named ``name`` around ``fn``.

        ``count(counters, args, kwargs, result)`` updates counters after
        the call.  Outside a request the original runs unrecorded.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            self.counters[name + ".calls"] += 1
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result
        return traced

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        own = {s[0]: s[4] - s[3] for s in self.spans}
        for sid, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= self.spans[sid][4] - self.spans[sid][3]
        return own

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, req in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "request": req}) + "\n")


def _len(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 1


def _count_inverse(c, args, kwargs, result):
    c["psi_maps.inverse.points"] += _len(args[1] if len(args) > 1 else kwargs["u"])


def _count_eval_many(c, args, kwargs, result):
    c["rhs_expr.eval_many.points"] += _len(result)


def _count_operator(c, args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    zeta = args[3] if len(args) > 3 else kwargs.get("zeta")
    if zeta is not None:
        # dense weighted matrix of (n+1)^2 doubles; computed, not measured
        c["frac_ops.operator_bytes_computed"] += 8 * (grid.n + 1) ** 2


def _count_series(c, args, kwargs, result):
    c["special_fn.series.terms"] += result.terms_used


def _count_solve(c, args, kwargs, result):
    report = result[1]
    c["picard.iterations"] += report.iterations
    c["picard.converged"] += 1 if report.converged else 0


COUNTERS = {
    "psi_maps.inverse": _count_inverse,
    "rhs_expr.eval_many": _count_eval_many,
    "frac_ops.operator_build": _count_operator,
    "special_fn.series": _count_series,
    "picard.solve": _count_solve,
}


def install(tracer: Tracer) -> None:
    """Patch every traced entry point of the imported psihilfer package."""
    import importlib

    import psihilfer

    mods = {m: importlib.import_module(f"psihilfer.{m}") for m in MODULES}
    namespaces = [psihilfer] + list(mods.values())
    for mod_name, attr, span in TRACED_FUNCTIONS:
        original = getattr(mods[mod_name], attr)
        wrapper = tracer.wrap(original, span, COUNTERS.get(span))
        for ns in namespaces:
            if ns.__dict__.get(attr) is original:
                setattr(ns, attr, wrapper)
    for mod_name, cls_name, attr, span in TRACED_METHODS:
        cls = getattr(mods[mod_name], cls_name)
        setattr(cls, attr, tracer.wrap(cls.__dict__[attr], span,
                                       COUNTERS.get(span)))


def layer_metrics(tracer: Tracer, requests: int) -> tuple[dict, dict]:
    """Per-layer metrics and the self time per layer (for the summary)."""
    own = tracer.self_times()
    by_span: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    for sid, _, name, *_ in tracer.spans:
        by_span[name] += own[sid]
        by_layer[SPAN_LAYER[name]] += own[sid]
    c = tracer.counters
    metrics = {
        "psi_maps.inverse.calls": (c["psi_maps.inverse.calls"], "count"),
        "psi_maps.inverse.points": (c["psi_maps.inverse.points"], "count"),
        "frac_ops.operator_build.calls": (c["frac_ops.operator_build.calls"], "count"),
        "frac_ops.apply.calls": (c["frac_ops.apply.calls"], "count"),
        "frac_ops.operator_bytes_computed": (c["frac_ops.operator_bytes_computed"], "B"),
        "rhs_expr.eval_many.calls": (c["rhs_expr.eval_many.calls"], "count"),
        "rhs_expr.eval_many.points": (c["rhs_expr.eval_many.points"], "count"),
        "picard.iterations": (c["picard.iterations"], "count"),
        "picard.converged_ratio": (
            c["picard.converged"] / c["picard.solve.calls"]
            if c["picard.solve.calls"] else 1.0, "ratio"),
        "special_fn.series.calls": (c["special_fn.series.calls"], "count"),
        "special_fn.series.terms": (c["special_fn.series.terms"], "count"),
        "special_fn.series.false_converged": (c["special_fn.series.false_converged"], "count"),
        "linear_forms.solve.calls": (c["linear_forms.solve.calls"], "count"),
        "cli.bytes_written": (c["cli.bytes_written"], "B"),
        "trace.requests": (requests, "count"),
    }
    for metric, spans in SELF_TIME_METRICS.items():
        metrics[metric] = (sum(by_span[s] for s in spans), "s")
    return metrics, dict(by_layer)
