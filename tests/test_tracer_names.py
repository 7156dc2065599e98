"""The benchmark reaches into trendlab by name: its tracer wraps functions
(bench/tracer.py) and its reference model calls private helpers (bench/models.py).

bench/tests is a separate suite, so these checks keep an API rename or deletion
from silently breaking `bench/run.py`.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_is_a_trendlab_callable():
    tracer = load_bench_module("tracer")
    missing = [f"{mod}.{fn}" for mod, fns in tracer.TRACED.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"trendlab.{mod}"), fn, None))]
    assert tracer.FUNCTION_NAMES and not missing, missing


def test_the_bench_reference_model_builds():
    """models.py imports sharpe_oracle._kernel_products and
    market_model.stationary_covariance inside its functions."""
    models = load_bench_module("models")
    params = models.mode_profile_model()
    corr = models.stationary_correlation(params)
    assert corr.shape == (10, 10) and np.isfinite(corr).all()
    assert np.isfinite(params.trend_cov).all()
