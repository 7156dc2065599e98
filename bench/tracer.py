"""Span tracing of trendlab's public functions, installed from outside.

`Tracer.install` replaces each listed function, in every trendlab namespace
that binds it (module attributes and dict entries such as
`estimation.CLEANERS`), with a wrapper that records a span: name, start,
end, parent span and operation id.  Parent stacks are thread-local, because
the CLI runs `backtest.run` on a thread pool.  Spans stay in memory until
`write` is called at the end of a run; `op_stats` derives per-operation
counts, inclusive times and self times from them.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Public functions wrapped in a traced run, by layer (module of src/trendlab).
TRACED = {
    "market_model": ["simulate"],
    "signals": ["update"],
    "estimation": ["update_daily", "roll_week", "rie_clean"],
    "symmat": ["eigendecompose", "inverse", "inv_sqrt"],
    "portfolios": ["risk_parity", "naive_markowitz", "agnostic_risk_parity",
                   "trend_on_risk_parity", "equally_weighted"],
    "backtest": ["run", "pipeline_estimates", "realized_risk", "strategy_correlations",
                 "optimal_mix", "sweep_mix_curve"],
    "herding": ["run", "transition_curve"],
    "sharpe_oracle": ["pnl_moment_tensors", "brute_force_optimal", "approx_optimal",
                      "squared_sharpe", "stationarity_residual"],
    "cli": ["ingest_csv", "export_panel"],
}

FUNCTION_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int  # operation id
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped functions and `span()` blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []  # (container, key, original, setter)
        self._observers: dict = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> tuple:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _exit(self, name: str, sid: int, parent, start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(Span(sid, name, start, end, parent, self.op, threading.get_ident()))

    @contextmanager
    def span(self, name: str):
        opened = self._enter()
        try:
            yield
        finally:
            self._exit(name, *opened)

    def observe(self, name: str, callback) -> None:
        """Call `callback(result)` with every value the named function returns."""
        self._observers[name] = callback

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            opened = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, *opened)
            observer = tracer._observers.get(name)
            if observer is not None:
                observer(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every function of TRACED wherever a trendlab module binds it."""
        import trendlab.cli  # noqa: F401  (loads every layer module)

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "trendlab" or name.startswith("trendlab.")]
        for mod_name, fns in TRACED.items():
            owner = sys.modules[f"trendlab.{mod_name}"]
            for fn_name in fns:
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapper, setattr)
                        elif isinstance(value, dict):
                            for key, item in list(value.items()):
                                if item is original:
                                    self._patch(value, key, original, wrapper,
                                                dict.__setitem__)

    def _patch(self, container, key, original, wrapper, setter) -> None:
        setter(container, key, wrapper)
        self._patches.append((container, key, original, setter))

    def uninstall(self) -> None:
        for container, key, original, setter in reversed(self._patches):
            setter(container, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        """All spans as gzip TSV, start/end relative to the first span."""
        origin = min((s.start for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart_s\tend_s\tparent\top\tthread\n")
            for s in sorted(self.spans, key=lambda s: s.sid):
                out.write(f"{s.sid}\t{s.name}\t{s.start - origin:.9f}\t{s.end - origin:.9f}\t"
                          f"{s.parent or 0}\t{s.op}\t{s.thread}\n")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def op_stats(spans: list[Span], main_thread: int) -> dict:
    """Counts, inclusive and self times of one operation's spans.

    Returns {"functions": {name: {"calls", "s", "self_s"}}, "commands":
    {cmd: {"s", "self_s"}}, "roots_s": ...}.  A span's self time is its
    duration minus the durations of its direct children (same thread, so
    they never overlap).  A CLI command's self time is its duration minus
    the union of the library spans inside it, pool threads included, so it
    is the formatting and writing time outside library code.  `roots_s`
    sums the main-thread spans that have no parent.
    """
    children_s: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            children_s[s.parent] = children_s.get(s.parent, 0.0) + s.duration
    functions = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in FUNCTION_NAMES}
    commands: dict[str, dict] = {}
    roots_s = 0.0
    for s in spans:
        if s.parent is None and s.thread == main_thread:
            roots_s += s.duration
        if s.name.startswith("command."):
            cmd = s.name.split(".", 1)[1]
            inside = [(c.start, c.end) for c in spans
                      if not c.name.startswith("command.")
                      and (c.parent == s.sid or (c.parent is None and c.thread != main_thread))]
            entry = commands.setdefault(cmd, {"s": 0.0, "self_s": 0.0})
            entry["s"] += s.duration
            entry["self_s"] += s.duration - union_length(inside, s.start, s.end)
            continue
        entry = functions[s.name]
        entry["calls"] += 1
        entry["s"] += s.duration
        entry["self_s"] += s.duration - children_s.get(s.sid, 0.0)
    return {"functions": functions, "commands": commands, "roots_s": roots_s}
