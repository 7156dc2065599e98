"""The benchmark's tracer wraps trendlab functions by name (bench/tracer.py).

bench/tests is a separate suite, so this check keeps an API rename or deletion
from silently breaking `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_is_a_trendlab_callable():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    missing = [f"{mod}.{fn}" for mod, fns in tracer.TRACED.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"trendlab.{mod}"), fn, None))]
    assert tracer.FUNCTION_NAMES and not missing, missing
