"""The benchmark's own tests: smoke runs, error counting, tracer, contract.

Run with `python3 -m pytest bench/tests -q` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, op_stats, union_length  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

run.locate_program()

# End-to-end metrics each workload reports by name, beside the generic ones.
SPECIFIC = {
    "desk_pipeline": ["simulate_s", "backtest_s", "eigenrisk_s", "book_days_per_s"],
    "eigenmode_daily": ["book_days_per_s"],
    "herding_transition": ["agent_steps_per_s"],
    "oracle_report": ["oracle_models_per_s"],
}


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_cmd(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = bench_cmd("--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, last_line = proc.stdout.splitlines()
    last, report = json.loads(last_line), json.loads(report_line)

    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 2
    listed = spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in last["metrics"].items()}

    e2e = report["end_to_end"]
    for name in ["setup_s", "wall_s", "peak_rss_mb", *SPECIFIC[workload]]:
        assert e2e[name]["value"] > 0 and e2e[name]["unit"] and e2e[name]["samples"] >= 1
    assert report["error_rate"] == {"value": 0.0, "unit": "ratio", "failed": 0,
                                    "attempted": last["attempted"]}
    env = report["environment"]
    for key in ("git_sha", "nproc", "python", "numpy", "blas", "blas_threads",
                "TRENDLAB_THREADS"):
        assert key in env
    assert env["seed"] == 3
    if trace:
        layer = report["per_layer"]
        assert layer["trace.spans"]["value"] > 0
        assert layer["trace.unaccounted_s"]["value"] < 0.05 * layer["trace.wall_s"]["value"]


def test_counts_repeat_exactly_between_runs():
    lines = [json.loads(bench_cmd("--workload", "desk_pipeline", "--seed", "4", "--seconds",
                                  "0.1", "--trace", "1", "--scale", "smoke").stdout
                        .splitlines()[-1])["metrics"] for _ in range(2)]
    counts = {k for k, m in lines[0].items() if m["unit"] in ("count", "ratio", "bytes")
              and not k.startswith(("backtest.run.concurrency", "cli.pool_speedup"))}
    assert counts
    assert {k: lines[0][k] for k in counts} == {k: lines[1][k] for k in counts}


def smoke_args(workload):
    return run.parse_args(["--workload", workload, "--seed", "5", "--seconds", "0.1",
                           "--scale", "smoke"])


def lower_mix_sharpe(index, opdir, result):
    if index == 0:
        path = opdir / "bt" / "summary.json"
        summary = json.loads(path.read_text())
        summary["mix"]["sharpe"] = min(summary["sharpes"].values()) - 1.0
        path.write_text(json.dumps(summary))


def flip_trajectory_byte(index, opdir, result):
    if index == 1:
        path = opdir / "trajectory.csv"
        data = bytearray(path.read_bytes())
        data[-2] = ord("7") if data[-2] != ord("7") else ord("3")
        path.write_bytes(bytes(data))


@pytest.mark.parametrize("workload,corrupt,op", [
    ("desk_pipeline", lower_mix_sharpe, 0),
    ("herding_transition", flip_trajectory_byte, 1),
])
def test_corrupted_output_counts_in_error_rate(workload, corrupt, op):
    report, last = run.run_workload(smoke_args(workload), corrupt=corrupt)
    assert not last["correct"]
    assert last["failed"] == 1
    assert report["error_rate"]["value"] == pytest.approx(1 / last["attempted"])
    assert report["failures"] and all(f.startswith(f"op {op}: ") for f in report["failures"])


def test_missing_sources_fail_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench_cmd("--workload", "oracle_report", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_matches_code():
    doc = spec()
    # eigenmode_daily runs by name but is left out of BENCHMARK.json (see README)
    assert [w["name"] for w in doc["workloads"]] == [
        name for name in WORKLOADS if name != "eigenmode_daily"]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        run.per_layer_spec()
    assert len(doc["per_layer"]) <= 128


def test_tracer_wraps_every_binding_and_restores():
    from trendlab import backtest, estimation, symmat

    originals = (symmat.eigendecompose, backtest.eigendecompose, estimation.CLEANERS["rie"])
    tracer = Tracer()
    tracer.install()
    try:
        assert symmat.eigendecompose is not originals[0]
        assert backtest.eigendecompose is symmat.eigendecompose
        assert estimation.CLEANERS["rie"] is estimation.rie_clean
        assert estimation.CLEANERS["rie"].__wrapped__ is originals[2]
        import numpy as np

        estimation.rie_clean(np.eye(3), 0.1)
    finally:
        tracer.uninstall()
    assert (symmat.eigendecompose, backtest.eigendecompose,
            estimation.CLEANERS["rie"]) == originals
    assert [s.name for s in tracer.spans] == ["symmat.eigendecompose", "estimation.rie_clean"]
    child, parent = tracer.spans
    assert child.parent == parent.sid


def test_self_times_and_command_accounting():
    main, pool = 1, 2
    spans = [
        Span(1, "command.backtest", 0.0, 10.0, None, 1, main),
        Span(2, "cli.ingest_csv", 0.0, 1.0, 1, 1, main),
        Span(3, "backtest.run", 1.0, 8.0, None, 1, pool),
        Span(4, "backtest.run", 2.0, 9.0, None, 1, pool + 1),
        Span(5, "symmat.inverse", 2.0, 5.0, 3, 1, pool),
    ]
    stats = op_stats(spans, main)
    assert stats["functions"]["backtest.run"] == {"calls": 2, "s": 14.0, "self_s": 11.0}
    assert stats["commands"]["backtest"] == {"s": 10.0, "self_s": 1.0}
    assert stats["roots_s"] == 10.0
    assert union_length([(0, 2), (1, 3), (5, 6)], 0.5, 10) == 3.5


def test_golden_compare_flags_drift():
    recorded = json.loads(golden.REFERENCE.read_text())
    assert golden.compare(recorded, recorded) == []
    drifted = {k: list(v) for k, v in recorded.items()}
    drifted["desk.sharpes"][0] *= 1 + 1e-5
    assert golden.compare(drifted, recorded) == [
        f"desk.sharpes[0]: {drifted['desk.sharpes'][0]!r} vs recorded "
        f"{recorded['desk.sharpes'][0]!r}"]
    better_mix = {**recorded, "desk.mix_sharpe": [recorded["desk.mix_sharpe"][0] + 1.0]}
    assert golden.compare(better_mix, recorded) == []
