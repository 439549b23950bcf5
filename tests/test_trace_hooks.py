"""The benchmark's tracer patches psihilfer entry points by name; every
name it lists must exist, or a traced run fails with a KeyError."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = _load_tracing()
    for mod, attr, _ in tracing.TRACED_FUNCTIONS:
        module = importlib.import_module(f"psihilfer.{mod}")
        assert callable(getattr(module, attr, None)), f"psihilfer.{mod}.{attr}"


def test_traced_methods_are_defined_on_their_class():
    tracing = _load_tracing()
    for mod, cls, attr, _ in tracing.TRACED_METHODS:
        klass = getattr(importlib.import_module(f"psihilfer.{mod}"), cls)
        assert attr in klass.__dict__, f"psihilfer.{mod}.{cls}.{attr}"
