"""The benchmark's tracer wraps hyptor functions by module and name.

`benchmarks/run.py --trace 1` looks each of them up with getattr, so a
renamed or moved function breaks the traced run.  The tracer is loaded
from its file, which the test leaves unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("hyptor_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracing = _load_tracing()
    assert tracing.TRACED
    for _, module_name, attr in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)

