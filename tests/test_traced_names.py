"""The benchmark tracer wraps package functions by name; each must exist.

`perfbench/tracer.py` is loaded by path, as the benchmark runs it, so a
change that removes or renames a traced function fails here rather than
in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_is_a_package_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module, name in tracer.TRACED:
        target = getattr(importlib.import_module(f"sqfpairs.{module}"), name, None)
        assert callable(target), f"perfbench traces sqfpairs.{module}.{name}, which is missing"
