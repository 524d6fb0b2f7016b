"""The benchmark's tracer (perfbench/tracer.py) names functions of the
program by module and attribute path; a rename under src/ must fail here,
not only in the benchmark's own self-test."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = load_tracer()
    for prefix, module_name, path, _ in tracer.TARGETS:
        importlib.import_module(module_name)
        assert callable(tracer._resolve(module_name, path)), prefix
