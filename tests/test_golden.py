"""The numbers recorded in bench/reference.json, checked in the test suite.

bench/golden.py re-runs the desk flow (simulate -> backtest -> eigenrisk ->
mix) and the daily-roll eigenmode flow at a small fixed size and compares
every number they print with the recording, at the bound it states.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def golden():
    sys.path.insert(0, str(BENCH))  # golden.py imports its neighbours workloads and models
    spec = importlib.util.spec_from_file_location("bench_golden", BENCH / "golden.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(BENCH))
        for name in ("workloads", "models"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("section", ["desk", "eigenmode"])
def test_recorded_numbers_agree(golden, section, tmp_path):
    assert golden.check(section, tmp_path / "golden") == []
