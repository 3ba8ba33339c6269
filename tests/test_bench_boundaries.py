"""The benchmark tracer patches each name where its caller looks it up, so a
refactor that drops such an import breaks the traced benchmark run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_boundaries_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracer.BOUNDARIES
               if not callable(getattr(module, attr, None))]
    assert missing == []
