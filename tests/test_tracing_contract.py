"""The benchmark's tracer wraps hyptor functions by module and name.

`benchmarks/run.py --trace 1` looks each of them up with getattr, so a
renamed or moved function breaks the traced run.  It does so right
after importing hyptor.cli, reading each module from sys.modules: a
module that the CLI imports only inside a function is not there yet.
The tracer is loaded from its file, which the tests leave unchanged.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
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


def test_every_traced_function_resolves_after_importing_the_cli():
    # the lookup Tracer.install makes, in a fresh interpreter that has
    # imported hyptor.cli and nothing else of the package
    rows = [[module_name, attr] for _, module_name, attr in _load_tracing().TRACED]
    code = (
        "import json, sys\n"
        "import hyptor.cli\n"
        "rows = json.loads(sys.argv[1])\n"
        "print(json.dumps([row for row in rows if not callable(getattr(sys.modules[row[0]], row[1], None))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(rows)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
