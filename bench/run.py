#!/usr/bin/env python3
"""trendlab benchmark: four closed-loop workloads, one client, one process.

    python3 bench/run.py --workload desk_pipeline --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each run times the set-up (import plus building inputs, repeated in child
processes), then issues operations back to back until --seconds have passed
(at least two), checks every operation's output, re-checks numbers recorded
in reference.json, and prints a human-readable table, a JSON report line and,
last, one JSON line {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, measured untraced; with
--trace 1 they are the per-layer ones from a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import FUNCTION_NAMES, Tracer, op_stats, union_length
from workloads import WORKLOADS, OpResult, bytes_under

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
MIN_OPS = 2
CHILD_TIMEOUT_S = 170

END_TO_END = [  # (name, unit): the metrics of the last line with --trace 0
    ("wall_s", "s"), ("work_per_s", "1/s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
]
CLI_COMMANDS = ["simulate", "backtest", "eigenrisk", "mix", "agents", "oracle"]


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in BENCHMARK.json order."""
    spec = []
    for fn in FUNCTION_NAMES:
        spec += [(f"{fn}.calls", "count", "lower"), (f"{fn}.s", "s", "lower"),
                 (f"{fn}.self_s", "s", "lower")]
    for cmd in CLI_COMMANDS:
        spec += [(f"cli.{cmd}.s", "s", "lower"), (f"cli.{cmd}.self_s", "s", "lower")]
    spec += [
        ("cli.bytes_written", "bytes", "lower"),
        ("estimation.passes_per_panel", "ratio", "lower"),
        ("estimation.passes_per_panel.panels", "count", "higher"),
        ("symmat.eigendecompose.per_book_day", "ratio", "lower"),
        ("symmat.eigendecompose.per_book_day.book_days", "count", "higher"),
        ("sharpe_oracle.tensors_per_model", "ratio", "lower"),
        ("sharpe_oracle.tensors_per_model.models", "count", "higher"),
        ("herding.steps_past_fixed_point", "ratio", "lower"),
        ("herding.steps_past_fixed_point.steps", "count", "higher"),
        ("backtest.run.concurrency", "ratio", "higher"),
        ("backtest.run.concurrency.wall_s", "s", "lower"),
        ("cli.pool_speedup", "ratio", "higher"),
        ("cli.pool_speedup.single_thread_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.unaccounted_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return spec


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="trendlab benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["reference", "smoke"], default="reference",
                        help="smoke: tiny sizes for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def locate_program() -> None:
    """Put the checkout's src/ first on sys.path; exit 2 if it is missing."""
    if not (SRC / "trendlab" / "__init__.py").is_file():
        print(f"error: no trendlab sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def child(argv: list, timeout: float = CHILD_TIMEOUT_S) -> str:
    """Run this script in a child process and return its stdout."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *argv], capture_output=True,
                          text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def timed_setup(workload, seed: int):
    start = time.perf_counter()
    state = workload.setup(seed)
    return time.perf_counter() - start, state


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "trendlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
        "TRENDLAB_THREADS": os.environ.get("TRENDLAB_THREADS"),
        "seed": seed,
    }


def fixed_point_observer(tracer: Tracer, waste: dict):
    """Counts herding steps simulated after each rep's counts first repeat.

    The update depends only on the previous step's counts, so from the first
    step whose counts equal the step before, every later step repeats too.
    """
    import numpy as np

    def observe(result) -> None:
        counts = result.counts  # (reps, steps + 1, strategies)
        steps = counts.shape[1] - 1
        same = (counts[:, 1:] == counts[:, :-1]).all(axis=2)
        first = np.where(same.any(axis=1), same.argmax(axis=1) + 1, steps)
        wasted, total = waste.get(tracer.op, (0, 0))
        waste[tracer.op] = (wasted + int((steps - first).sum()), total + counts.shape[0] * steps)

    return observe


def measure(workload, state, workdir: Path, seconds: float, tracer: Tracer | None = None,
            corrupt=None) -> list:
    """Closed loop: operations back to back until `seconds` have passed.

    In a traced run operations alternate untraced (the overhead baseline)
    and traced, starting untraced.  Every operation's output is
    checked and must be byte-identical to the first one that passed.  `corrupt(i,
    opdir, result)`, used by the benchmark's tests, may damage an output
    before it is checked.
    """
    opdir = workdir / "op"
    ops, first_digest, first_index = [], None, None
    start = time.perf_counter()
    while True:
        index = len(ops)
        traced = tracer is not None and index % 2 == 1
        if opdir.exists():
            shutil.rmtree(opdir)
        opdir.mkdir()
        if traced:
            tracer.op = index
            tracer.install()
        began = time.perf_counter()
        try:
            result = workload.operation(state, opdir, tracer if traced else None)
        except Exception as exc:  # count the failure and keep the loop running
            result = OpResult(failures=[f"{type(exc).__name__}: {exc}"])
        result.wall = time.perf_counter() - began
        if traced:
            tracer.uninstall()
        result.traced = traced
        if corrupt is not None:
            corrupt(index, opdir, result)
        if not result.failures:
            try:
                result.failures += workload.check(state, opdir, result)
                digest = workload.digest(state, opdir, result)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                result.failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
            if not result.failures and first_digest is None:
                first_digest, first_index = digest, index
            elif not result.failures and digest != first_digest:
                result.failures.append(f"output differs from operation {first_index}")
        result.bytes_written = bytes_under(opdir)
        ops.append(result)
        if len(ops) >= MIN_OPS and time.perf_counter() - start >= seconds:
            break
    return ops


def median_metric(values: list, unit: str) -> dict:
    """Median with its sample count; counts keep an observed (whole) value."""
    middle = statistics.median_low if unit in ("count", "bytes") else statistics.median
    return {"value": middle(values), "unit": unit, "samples": len(values)}


def end_to_end_metrics(workload, state, ops: list, setup_samples: list, peak_mb: float) -> dict:
    untraced = [op for op in ops if not op.traced]
    timed = [op for op in untraced if not op.failures] or untraced
    metrics = {"setup_s": median_metric(setup_samples, "s"),
               "wall_s": median_metric([op.wall for op in timed], "s")}
    for name, (unit, values) in workload.end_to_end(state, timed).items():
        metrics[name] = median_metric(values, unit)
    metrics["work_per_s"] = {**metrics[workload.rate], "unit": "1/s"}
    metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB", "samples": 1}
    return metrics


def per_layer_metrics(workload, state, ops: list, tracer: Tracer, waste: dict,
                      single_thread_s: float | None) -> dict:
    """Per-operation medians over the traced operations, plus ratios."""
    traced = [i for i, op in enumerate(ops) if op.traced]
    by_op = {i: [] for i in traced}
    for span in tracer.spans:
        by_op[span.op].append(span)
    main = threading.get_ident()
    stats = {i: op_stats(by_op[i], main) for i in traced}
    counts = workload.work_counts(state)
    per_op: dict[str, list] = {}

    def put(name, value):
        per_op.setdefault(name, []).append(value)

    for i in traced:
        functions, commands = stats[i]["functions"], stats[i]["commands"]
        for fn in FUNCTION_NAMES:
            for key in ("calls", "s", "self_s"):
                put(f"{fn}.{key}", functions[fn][key])
        for cmd in CLI_COMMANDS:
            entry = commands.get(cmd, {"s": 0.0, "self_s": 0.0})
            put(f"cli.{cmd}.s", entry["s"])
            put(f"cli.{cmd}.self_s", entry["self_s"])
        put("cli.bytes_written", ops[i].bytes_written)

        days, panels = counts["panel_days"], counts["panels"]
        passes = functions["estimation.update_daily"]["calls"] / days if days else 0.0
        put("estimation.passes_per_panel", passes / panels if panels else 0.0)
        put("estimation.passes_per_panel.panels", panels)
        book_days = functions["backtest.run"]["calls"] * days
        eig = functions["symmat.eigendecompose"]["calls"]
        put("symmat.eigendecompose.per_book_day", eig / book_days if book_days else 0.0)
        put("symmat.eigendecompose.per_book_day.book_days", book_days)
        models = counts["models"]
        tensors = functions["sharpe_oracle.pnl_moment_tensors"]["calls"]
        put("sharpe_oracle.tensors_per_model", tensors / models if models else 0.0)
        put("sharpe_oracle.tensors_per_model.models", models)
        wasted, steps = waste.get(i, (0, 0))
        put("herding.steps_past_fixed_point", wasted / steps if steps else 0.0)
        put("herding.steps_past_fixed_point.steps", steps)

        runs = [s for s in by_op[i] if s.name == "backtest.run"]
        window = [s for s in by_op[i] if s.name == "command.backtest"]
        if window:
            lo, hi = window[0].start, window[0].end
            busy = sum(s.duration for s in runs if lo <= s.start and s.end <= hi)
            denominator = hi - lo
        else:
            busy = sum(s.duration for s in runs)
            denominator = union_length([(s.start, s.end) for s in runs], float("-inf"),
                                       float("inf"))
        put("backtest.run.concurrency", busy / denominator if denominator else 0.0)
        put("backtest.run.concurrency.wall_s", denominator)

        put("trace.wall_s", ops[i].wall)
        put("trace.unaccounted_s", ops[i].wall - stats[i]["roots_s"])
        put("trace.spans", len(by_op[i]))

    metrics = {}
    units = {name: unit for name, unit, _ in per_layer_spec()}
    for name, values in per_op.items():
        metrics[name] = median_metric(values, units[name])
    untraced = [op.wall for op in ops if not op.traced and not op.failures]
    metrics["trace.untraced_wall_s"] = median_metric(untraced, "s")
    metrics["trace.overhead_s"] = {
        "value": metrics["trace.wall_s"]["value"] - metrics["trace.untraced_wall_s"]["value"],
        "unit": "s", "samples": len(traced)}
    if single_thread_s is not None:
        backtest_s = statistics.median(op.times["backtest"] for op in ops
                                       if not op.traced and "backtest" in op.times)
        metrics["cli.pool_speedup"] = {"value": single_thread_s / backtest_s, "unit": "ratio",
                                       "samples": 1}
        metrics["cli.pool_speedup.single_thread_s"] = {"value": single_thread_s, "unit": "s",
                                                       "samples": 1}
    else:
        metrics["cli.pool_speedup"] = {"value": 0.0, "unit": "ratio", "samples": 0}
        metrics["cli.pool_speedup.single_thread_s"] = {"value": 0.0, "unit": "s", "samples": 0}
    return metrics


def run_workload(args, corrupt=None) -> tuple[dict, dict]:
    """One workload run; returns (report, last line).  See `measure` for `corrupt`."""
    workload = WORKLOADS[args.workload](args.scale)
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s, state = timed_setup(workload, args.seed)
        setup_argv = ["--setup-only", "--workload", workload.name, "--seed", str(args.seed),
                      "--seconds", "1", "--scale", args.scale]
        setup_samples = [setup_s] + [json.loads(child(setup_argv).splitlines()[-1])["setup_s"]
                                     for _ in range(SETUP_REPEATS - 1)]

        tracer = waste = None
        if args.trace:
            tracer, waste = Tracer(), {}
            tracer.observe("herding.run", fixed_point_observer(tracer, waste))
        ops = measure(workload, state, workdir, args.seconds, tracer, corrupt)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        extra_failures = []
        single_thread_s = None
        if args.trace and hasattr(workload, "single_thread_backtest"):
            single_thread_s, failures = workload.single_thread_backtest(state, workdir / "op")
            extra_failures += failures
        if workload.golden is not None:
            import golden

            extra_failures += golden.check(workload.golden, workdir / "golden")

        attempted = len(ops)
        failed = attempted if extra_failures else sum(1 for op in ops if op.failures)
        report = {
            "workload": workload.name, "scale": args.scale,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "environment": environment(args.seed),
            "end_to_end": end_to_end_metrics(workload, state, ops, setup_samples, peak_mb),
            "error_rate": {"value": failed / attempted, "unit": "ratio",
                           "failed": failed, "attempted": attempted},
            "failures": [f"op {i}: {msg}" for i, op in enumerate(ops) for msg in op.failures]
                        + extra_failures,
        }
        if args.trace:
            report["per_layer"] = per_layer_metrics(workload, state, ops, tracer, waste,
                                                    single_thread_s)
            trace_dir = WORK / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace_file = trace_dir / f"{workload.name}-seed{args.seed}.tsv.gz"
            tracer.write(trace_file)
            report["trace_file"] = str(trace_file.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    chosen = report["per_layer"] if args.trace else report["end_to_end"]
    names = ([n for n, _, _ in per_layer_spec()] if args.trace else [n for n, _ in END_TO_END])
    last = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": chosen[n]["value"], "unit": chosen[n]["unit"]}
                        for n in names}}
    return report, last


def print_table(report: dict) -> None:
    print(f"== {report['workload']}  seed {report['seed']}  scale {report['scale']}  "
          f"trace {report['trace']}")
    rows = dict(report["end_to_end"])
    rows["error_rate"] = report["error_rate"]
    if report["trace"]:
        rows.update(report["per_layer"])
    for name, m in rows.items():
        extra = (f"failed {m['failed']} / attempted {m['attempted']}" if "attempted" in m
                 else f"n={m['samples']}")
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']:<12} {extra}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def run_all(args) -> int:
    """Every workload in its own child process; a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        lines = child(argv, timeout=args.seconds + 10 * CHILD_TIMEOUT_S).splitlines()
        report, last = json.loads(lines[-2]), json.loads(lines[-1])
        print_table(report)
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    locate_program()
    if args.setup_only:
        workload = WORKLOADS[args.workload](args.scale)
        setup_s, _ = timed_setup(workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.workload == "all":
        return run_all(args)
    report, last = run_workload(args)
    print_table(report)
    print(json.dumps(report))
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
