"""Command-line front end.

Subcommands: simulate, backtest, eigenrisk, oracle, agents, mix.  Every option
is one row of OPTIONS, which builds the command's flags.  A --config JSON file
may give any option under its flag's long name with "_" in place of "-";
flags win over the file.  The simulate keys noise_cov and trend_cov (full
matrices) exist only in the config file.  Flag and config values go through
the row's validator before any command runs.  Every command writes its
artifacts plus a manifest.json into --outdir, which is made with the first
file, so a run that fails before it leaves no directory; outputs are
byte-identical for a fixed (config, seed).

Every CSV goes through one writer (_write_csv) and is read back through one
reader (_read_table): a header, then rows whose leading text columns (date,
asset, t) are followed by numbers, printed with 12 significant digits, or at
full precision in an exported panel.  The writer formats a block of rows per
`%` template; the reader parses in one pass with one vectorized check, and
re-reads row by row only to name a bad line.  Input files are read as UTF-8,
and a header may not repeat a column name.

Exit codes: 0 success, 2 config error, 3 data error (a malformed panel, or one
that leaves fewer than two days after the warm-up), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, backtest, estimation, herding, market_model, sharpe_oracle
from .errors import DegenerateResult, IngestError, InsufficientData, TrendlabError
from .market_model import ASSET_CLASSES, ModelParams, ReturnsPanel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(TrendlabError):
    """Bad command-line or config-file value."""


_G12 = "%.12g"  # report numbers: 12 significant digits, for stable diffs


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(_G12 % obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    return obj


def _atomic_write(path: Path, parts) -> None:
    """Write the text parts whole, through a .tmp file; a part that raises takes the
    .tmp file and any directory made for it along, so a failed run leaves none."""
    made = [p for p in (path.parent, *path.parent.parents) if not p.exists()]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            f.writelines(parts)
    except BaseException:
        tmp.unlink(missing_ok=True)
        for directory in made:  # innermost first
            directory.rmdir()
        raise
    os.replace(tmp, path)


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, [json.dumps(_jsonify(payload), sort_keys=True, indent=2) + "\n"])


# ---------------------------------------------------------------------------
# the one table format: a header line, then one line of plain values per row
# ---------------------------------------------------------------------------

_BLOCK_CELLS = 4096  # cells formatted by one `%` call


def _write_csv(path: Path, header: list, values, labels=None, number: str = _G12,
               keys=None) -> None:
    """A 2-D float array, each row after its label (a date, an asset name, t) if any,
    every cell printed with `number`; with `keys`, one `label,key,value` line per key.
    Each block of rows goes through one `%` template: labels and keys hold no "%"."""
    values = np.asarray(values, dtype=float)
    if keys is not None:
        parts = ["", *(f",{key},{number}\n" for key in keys)]
    else:
        parts = ["", ("" if labels is None else ",") + ",".join([number] * values.shape[1]) + "\n"]
    if labels is None:
        labels = [""] * len(values)
    step = max(1, _BLOCK_CELLS // values.shape[1])
    blocks = ("".join(str(label).join(parts) for label in labels[i:i + step])
              % tuple(values[i:i + step].ravel().tolist()) for i in range(0, len(values), step))
    _atomic_write(path, itertools.chain([",".join(header) + "\n"], blocks))


def _fast_rows(lines: list, width: int) -> tuple:
    """(dates, values) in one pass and one vectorized check, or a ValueError on
    any row the row-by-row rules might reject."""
    dates, flat = [], []
    for line in lines:
        day, _, rest = line.partition(",")
        cells = rest.split(",")
        if len(cells) != width:
            raise ValueError("ragged row")
        dates.append(datetime.date.fromisoformat(day).isoformat())
        flat.extend(map(float, cells))
    values = np.array(flat).reshape(len(dates), width)
    order = np.array(dates)
    if not np.isfinite(values).all() or not (order[1:] > order[:-1]).all():
        raise ValueError("a row breaks a rule")
    return dates, values


def _read_table(path, what: str) -> tuple:
    """Read a UTF-8 `date,<name>...` CSV: (names, dates, days x names array).  Each
    row is an ISO date, strictly increasing, then one finite number per name."""
    path = Path(path)
    if not path.exists():
        raise IngestError(f"{what} file {path} does not exist")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:  # exc.object holds the file's bytes
        raise IngestError(f"{what} file is not UTF-8 text ({exc.reason} at byte {exc.start})",
                          line=exc.object.count(b"\n", 0, exc.start) + 1)
    header = lines[0].split(",") if lines else []
    if not header or header[0] != "date" or len(header) < 2:
        raise IngestError(f"{what} header must be 'date,<name>...'", line=1)
    names, rows, dates = header[1:], [], []
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise IngestError(f"{what} header repeats the column {repeated[0]!r}", line=1)
    if len(lines) < 2:
        raise IngestError(f"{what} file has no data rows", line=2)
    try:
        return names, *_fast_rows(lines[1:], len(names))
    except ValueError:  # a row breaks a rule: re-read row by row to name the first one
        pass
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise IngestError(f"expected {len(header)} cells, found {len(cells)}", line=lineno)
        try:
            date = datetime.date.fromisoformat(cells[0])
        except ValueError:
            raise IngestError(f"unparseable date {cells[0]!r}", line=lineno)
        if dates and date.isoformat() <= dates[-1]:
            raise IngestError(f"dates must be strictly increasing at {date}", line=lineno)
        dates.append(date.isoformat())
        values = []
        for cell in cells[1:]:
            cell = cell.strip()
            if not cell:
                raise IngestError("missing value", line=lineno)
            try:
                value = float(cell)
            except ValueError:
                raise IngestError(f"unparseable number {cell!r}", line=lineno)
            if not np.isfinite(value):
                raise IngestError(f"non-finite value {cell!r}", line=lineno)
            values.append(value)
        rows.append(values)
    return names, dates, np.array(rows)


# ---------------------------------------------------------------------------
# panel io
# ---------------------------------------------------------------------------

def _sidecar(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def export_panel(panel: ReturnsPanel, path: Path) -> None:
    """Panel to CSV (full float precision, so re-ingestion is bit-exact)."""
    path = Path(path)
    header = ["date"] + [f"asset_{j + 1}" for j in range(panel.n_assets)]
    _write_csv(path, header, panel.returns, labels=panel.calendar(), number="%r")
    _write_json(_sidecar(path), {"asset_classes": list(panel.asset_classes), "seed": panel.seed})


def ingest_csv(path) -> ReturnsPanel:
    """Read a returns panel (the table format) and its sidecar of asset classes and seed."""
    path = Path(path)
    names, dates, returns = _read_table(path, "panel")
    meta_path = _sidecar(path)
    if not meta_path.exists():
        raise IngestError(f"missing sidecar {meta_path.name} with asset classes")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        classes = meta["asset_classes"]
        if not isinstance(classes, list) or any(c not in ASSET_CLASSES for c in classes):
            raise ValueError(f"asset_classes {classes!r} is not a list of {ASSET_CLASSES}")
        seed = _SEED("seed", meta.get("seed", 0))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, ConfigError) as exc:
        raise IngestError(f"bad sidecar {meta_path.name}: {exc}")
    if len(classes) != len(names):
        raise IngestError(f"sidecar lists {len(classes)} classes for {len(names)} assets")
    return ReturnsPanel(returns=returns, asset_classes=classes, seed=seed, dates=dates)


# ---------------------------------------------------------------------------
# option validators: (name, flag text or config JSON value) -> typed value
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Number:
    """An int or a finite float in the interval `bounds`, written like "(0, 0.5]"."""

    kind: type
    bounds: str = "(-inf, inf)"

    def __call__(self, name: str, value):
        try:
            out = self.kind(value)
            valid = (not isinstance(value, bool) and math.isfinite(out)
                     and (not isinstance(value, float) or out == value))
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            what = "an integer" if self.kind is int else "a finite number"
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        low, high = (float(x) for x in self.bounds[1:-1].split(","))
        if not ((out > low if self.bounds[0] == "(" else out >= low)
                and (out < high if self.bounds[-1] == ")" else out <= high)):
            raise ConfigError(f"{name} must be in {self.bounds}, got {out}")
        return out


_REAL = Number(float)
_COUNT = Number(int, "[1, inf)")
_RATE = Number(float, "(0, 1)")
_SEED = Number(int, "[0, inf)")  # --seed, its config key and the panel sidecar's seed


def _text(name: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _existing_file(name: str, value) -> str:
    if not Path(_text(name, value)).is_file():
        raise ConfigError(f"{name} file {value!r} does not exist")
    return value


def _choice(*allowed: str) -> Callable:
    def check(name: str, value) -> str:
        if value not in allowed:
            raise ConfigError(f"{name} must be one of {', '.join(allowed)}, got {value!r}")
        return value
    return check


def _names(name: str, value) -> tuple:
    """Comma list; blank items are dropped."""
    return tuple(s.strip() for s in _text(name, value).split(",") if s.strip())


def _strategies(name: str, value) -> list:
    names = list(_names(name, value))
    if not names or len(set(names)) < len(names) or set(names) - set(backtest.STRATEGY_KINDS):
        raise ConfigError(f"{name} must list distinct names from "
                          f"{','.join(backtest.STRATEGY_KINDS)}, got {value!r}")
    return names


def _floats(name: str, value) -> tuple:
    """A number, a list of numbers, or a comma list of them."""
    if isinstance(value, str):
        value = _names(name, value)
    elif not isinstance(value, list):
        value = [value]
    return tuple(_REAL(name, x) for x in value)


def _matrix(name: str, value) -> np.ndarray:
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a matrix of numbers, got {value!r}")


def _grid(name: str, value) -> np.ndarray:
    """start:step:stop coupling grid: start and each step after it up to stop, so stop
    itself only when step divides stop - start."""
    parts = _text(name, value).split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name} must look like start:step:stop, got {value!r}")
    start, step, stop = (_REAL(name, x) for x in parts)
    if not 0.0 <= start <= stop or step <= 0:
        raise ConfigError(f"{name} {value!r} needs 0 <= start <= stop and step > 0")
    count = int(round((stop - start) / step))
    grid = start + step * np.arange(count + 1)
    return grid[grid <= stop + 1e-12]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _build_model(opts: dict) -> ModelParams:
    n = opts["n"]
    drift = np.array(opts["drift"])
    if drift.shape == (1,):
        drift = np.full(n, drift[0])
    if drift.shape != (n,):
        raise ConfigError(f"drift needs 1 or {n} values")

    noise_cov = opts["noise_cov"]
    if noise_cov is None:
        rho = opts["noise_corr"]
        if not -1.0 / max(n - 1, 1) < rho < 1.0:
            raise ConfigError(f"noise-corr {rho} is outside the valid equicorrelation range")
        noise_cov = np.full((n, n), rho)
        np.fill_diagonal(noise_cov, 1.0)

    trend_cov = opts["trend_cov"]
    if trend_cov is None:
        structure, scale = opts["trend_structure"], opts["trend_scale"]
        if structure == "none":
            trend_cov = np.zeros((n, n))
        elif structure == "identity":
            trend_cov = scale * np.eye(n)
        elif structure == "market":
            trend_cov = scale * np.full((n, n), 1.0 / n)
        else:  # proportional
            trend_cov = scale * noise_cov

    try:
        return ModelParams(
            n=n, drift=drift, noise_cov=noise_cov, trend_cov=trend_cov,
            trend_amp=opts["trend_amp"], trend_decay=opts["trend_decay"],
            asset_classes=opts["classes"] or ("stock",) * n,
        )
    except TrendlabError as exc:
        raise ConfigError(str(exc))


def _strategy_config(kind: str, opts: dict) -> backtest.StrategyConfig:
    try:
        return backtest.StrategyConfig(
            kind=kind, signal_rate=opts["eta"], cov_rate=opts["eta_cov"],
            var_rate=opts["eta_var"], cleaner=opts["cleaner"], warmup=opts["warmup"],
        )
    except TrendlabError as exc:
        raise ConfigError(str(exc))


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int
    outdir: Path
    options: dict   # validated value of every option the command takes
    supplied: dict  # the options as given, recorded in manifest.json


def _manifest(cfg: RunConfig) -> dict:
    body = {"command": cfg.command, "seed": cfg.seed, "options": _jsonify(cfg.supplied)}
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    return {
        **body,
        "config_hash": digest,
        "versions": {
            "trendlab": __version__,
            "numpy": np.__version__,
            "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        },
    }


def _cmd_simulate(cfg: RunConfig) -> None:
    panel = market_model.simulate(_build_model(cfg.options), cfg.options["T"], cfg.seed)
    export_panel(panel, cfg.outdir / "panel.csv")


def _run_strategies(cfg: RunConfig) -> tuple:
    """The panel, the book names, one backtest per book and the final (corr, vols),
    all from one estimator pass."""
    panel = ingest_csv(cfg.options["panel"])
    names = cfg.options["strategy"]
    configs = [_strategy_config(name, cfg.options) for name in names]
    return panel, names, *backtest.run_with_estimates(panel, configs)


def _cmd_backtest(cfg: RunConfig) -> None:
    panel, names, results, corr, vols = _run_strategies(cfg)

    dates = panel.calendar()
    warmup = max(r.warmup for r in results)
    _write_csv(cfg.outdir / "pnl.csv", ["date"] + list(names),
               np.column_stack([r.pnl[warmup:] for r in results]), labels=dates[warmup:])
    assets = [f"asset_{j + 1}" for j in range(panel.n_assets)]
    for name, result in zip(names, results):  # one `date,asset,position` line per asset-day
        _write_csv(cfg.outdir / f"positions_{name}.csv", ["date", "asset", "position"],
                   result.positions[result.warmup:], labels=dates[result.warmup:], keys=assets)

    sharpes = {}
    for name, result in zip(names, results):
        try:
            sharpes[name] = result.sharpe
        except DegenerateResult:  # zero-variance P&L: no Sharpe ratio, left out of the mix
            sharpes[name] = None
    live = [name for name in names if sharpes[name] is not None]
    live_results = [results[names.index(name)] for name in live]
    summary = {"sharpes": sharpes, "correlations": None, "mix": None}
    if len(live) >= 2:
        summary["correlations"] = {"labels": live,
                                   "matrix": backtest.strategy_correlations(live_results)}
        mix = backtest.optimal_mix(live_results)
        summary["mix"] = {"weights": dict(zip(live, mix.weights)), "sharpe": mix.sharpe}
    _write_json(cfg.outdir / "summary.json", summary)

    _write_eigenrisk(cfg, panel, names, results, corr, vols)


def _write_eigenrisk(cfg: RunConfig, panel, names, results, corr, vols) -> None:
    profiles = [backtest.realized_risk(r, corr, panel) for r in results]
    _write_csv(cfg.outdir / "eigenrisk.csv", ["eigenvalue"] + list(names),
               np.column_stack([profiles[0].eigenvalues] + [p.risks for p in profiles]))
    assets = [f"asset_{j + 1}" for j in range(panel.n_assets)]
    _write_csv(cfg.outdir / "correlation.csv", assets, corr)
    _write_csv(cfg.outdir / "volatilities.csv", ["asset", "volatility"], vols[:, None], labels=assets)


def _cmd_eigenrisk(cfg: RunConfig) -> None:
    _write_eigenrisk(cfg, *_run_strategies(cfg))


# Models per oracle stack: one sampler pass, one model check, one moment build
# and one stacked solve each.  Each stacked call has a fixed cost of a few ms and
# the n <= 3 arrays are small, so one stack holds a typical run (the benchmark's
# 300 models); the kernel pass holds no (models, t) array.  The cap bounds what
# a stack holds at once, its models and its (models, n^2, n^2) exact solve:
# `--n 3 --t 2000 --models 20000` peaked at 103.1-103.6 MB RSS in chunks of 32
# models, 104.7-104.8 MB in stacks of 1024 and 122.2 MB in one stack (five seeds,
# 2-vCPU x86_64 VM, numpy 2.4).
_STACK_MODELS = 1024


def _oracle_reports(models: ModelParams, rate: float, t: int) -> list:
    """One oracle.json entry per model of a stack, from one moment build."""
    mm = sharpe_oracle.pnl_moment_tensors(models, rate, t)
    exact = sharpe_oracle.brute_force_optimal(mm)
    s2_exact = sharpe_oracle.squared_sharpe(mm, exact)
    columns = {
        "sharpe2_exact": s2_exact,
        "residual_exact": sharpe_oracle.stationarity_residual(mm, exact),
    }
    for form in ("simple", "sandwich"):
        w = sharpe_oracle.approx_optimal(mm, form=form)
        s2 = sharpe_oracle.squared_sharpe(mm, w)
        columns[f"residual_{form}"] = sharpe_oracle.stationarity_residual(mm, w)
        columns[f"sharpe2_{form}"] = s2
        columns[f"ratio_{form}"] = np.divide(s2, s2_exact, out=np.full_like(s2, np.nan),
                                             where=s2_exact > 0)
    reports = []
    for i, row in enumerate(zip(models.noise_cov, models.trend_cov, models.drift)):
        entry = {"model_hash": hashlib.sha256(b"".join(a.tobytes() for a in row)).hexdigest()[:16]}
        entry.update((name, float(values[i])) for name, values in columns.items())
        reports.append(entry)
    return reports


def _cmd_oracle(cfg: RunConfig) -> None:
    n, t, rate = cfg.options["n"], cfg.options["t"], cfg.options["eta"]
    rng = np.random.default_rng(cfg.seed)
    total, reports = cfg.options["models"], []
    for start in range(0, total, _STACK_MODELS):
        # a stack's models and arrays are freed before the next stack is sampled
        reports += _oracle_reports(sharpe_oracle.sample_weak_trend_model(
            rng, n, rate=rate, t=t, count=min(_STACK_MODELS, total - start)), rate, t)
    _write_json(cfg.outdir / "oracle.json", {"n": n, "t": t, "eta": rate, "models": reports})


def _cmd_agents(cfg: RunConfig) -> None:
    opts = cfg.options
    params = herding.AgentSimParams(agents=opts["A"], strategies=opts["N"], coupling=opts["j"],
                                    steps=opts["T"], reps=opts["M"], seed=cfg.seed)
    # one representative repetition: the first of M draws from the seed's first
    # SeedSequence child, so it is the same repetition whatever M is
    result = herding.run(replace(params, reps=1))
    fractions = result.counts[0] / result.agents
    header = ["t"] + [f"S{k + 1}" for k in range(params.strategies)]
    _write_csv(cfg.outdir / "trajectory.csv", header, fractions, labels=range(len(fractions)))

    curve = herding.transition_curve(params, opts["jgrid"])
    _write_csv(cfg.outdir / "transition.csv", ["j", "max_interest", "stderr"],
               np.column_stack([curve.couplings, curve.max_fraction, curve.stderr]))


def _cmd_mix(cfg: RunConfig) -> None:
    names, _, data = _read_table(cfg.options["pnl"], "pnl")
    if len(names) < 2:
        raise IngestError("pnl file needs at least two strategy columns", line=1)
    if len(data) < 2:
        raise IngestError("pnl file needs at least two rows")
    pair = cfg.options["pair"] or names[:2]
    if len(pair) != 2 or pair[0] == pair[1]:
        raise ConfigError("pair must name exactly two different strategies")
    for name in pair:
        if name not in names:
            raise ConfigError(f"strategy {name!r} not present in pnl file")
    results = [
        backtest.BacktestResult(pnl=data[:, names.index(name)], positions=None,
                                warmup=0, strategy=name)
        for name in pair
    ]
    grid, sharpes = backtest.sweep_mix_curve(results, step=cfg.options["grid"])
    _write_csv(cfg.outdir / "mixcurve.csv", [f"weight_{pair[1]}", "sharpe"],
               np.column_stack([grid, sharpes]))


_COMMANDS = {
    "simulate": (_cmd_simulate, "generate a synthetic returns panel"),
    "backtest": (_cmd_backtest, "run strategies over a panel"),
    "eigenrisk": (_cmd_eigenrisk, "per-eigenmode realized risk of strategies"),
    "oracle": (_cmd_oracle, "analytic optimality report on random models"),
    "agents": (_cmd_agents, "interacting-agents herding simulation"),
    "mix": (_cmd_mix, "two-strategy Sharpe mixing curve from a pnl.csv"),
}


def run_command(cfg: RunConfig) -> None:
    """Run the command on validated options and write the manifest."""
    if cfg.command not in _COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    _COMMANDS[cfg.command][0](cfg)
    _write_json(cfg.outdir / "manifest.json", _manifest(cfg))


# ---------------------------------------------------------------------------
# option table and argument parsing
# ---------------------------------------------------------------------------

REQUIRED = object()  # default of an option that must be given


@dataclass(frozen=True)
class Option:
    """A --name flag (unless config-only) and config key; the default is written as a
    user would give it and goes through `check`, None leaves the option unset."""

    name: str
    commands: tuple
    check: Callable
    default: object
    help: str
    flag: bool = True

    @property
    def key(self) -> str:
        return self.name.replace("-", "_")


_BOOKS = ("backtest", "eigenrisk")
_STRATEGY_HELP = "comma list from " + ",".join(backtest.STRATEGY_KINDS)

OPTIONS = (
    Option("n", ("simulate",), _COUNT, REQUIRED, "asset count"),
    Option("T", ("simulate",), _COUNT, 1000, "number of days"),
    Option("drift", ("simulate",), _floats, 0.0, "per-day drift, scalar or comma list"),
    Option("noise-corr", ("simulate",), _REAL, 0.3, "equicorrelation of the noise"),
    Option("noise_cov", ("simulate",), _matrix, None, "noise covariance matrix", flag=False),
    Option("trend-structure", ("simulate",), _choice("none", "identity", "market", "proportional"),
           "identity", "trend covariance: none, identity, market or proportional"),
    Option("trend-scale", ("simulate",), _REAL, 1.0, "scale of the trend covariance"),
    Option("trend_cov", ("simulate",), _matrix, None, "trend covariance matrix", flag=False),
    Option("trend-amp", ("simulate",), _REAL, 0.05, "trend amplitude"),
    Option("trend-decay", ("simulate",), _RATE, 0.02, "trend decay rate per day"),
    Option("classes", ("simulate",), _names, None, "comma list of stock/bond/fx labels"),
    Option("panel", _BOOKS, _existing_file, REQUIRED, "panel CSV (with .meta.json sidecar)"),
    Option("strategy", ("backtest",), _strategies, "arp,nm,ew,rp,torp", _STRATEGY_HELP),
    Option("strategy", ("eigenrisk",), _strategies, "arp,nm,ew", _STRATEGY_HELP),
    Option("eta", _BOOKS + ("oracle",), _RATE, 0.01, "signal EMA rate"),
    Option("eta-cov", _BOOKS, _RATE, estimation.DEFAULT_COV_RATE, "weekly covariance EMA rate"),
    Option("eta-var", _BOOKS, _RATE, estimation.DEFAULT_VAR_RATE, "daily variance EMA rate"),
    Option("cleaner", _BOOKS, _choice(*estimation.CLEANERS), "rie",
           "correlation cleaner: " + ", ".join(estimation.CLEANERS)),
    Option("warmup", _BOOKS, _COUNT, None, "override the warm-up day count"),
    Option("n", ("oracle",), Number(int, f"[1, {sharpe_oracle.EXACT_MAX_ASSETS}]"), 2,
           f"asset count (<= {sharpe_oracle.EXACT_MAX_ASSETS})"),
    Option("t", ("oracle",), Number(int, "[3, inf)"), 500, "evaluation time"),
    Option("models", ("oracle",), _COUNT, 20, "number of random models"),
    Option("A", ("agents",), _COUNT, 1000, "agent count"),
    Option("N", ("agents",), _COUNT, 50, "strategy count"),
    Option("T", ("agents",), _COUNT, 50, "steps per run"),
    Option("M", ("agents",), _COUNT, 100, "repetitions"),
    Option("j", ("agents",), Number(float, "[0, inf)"), 1.5, "coupling for trajectory.csv"),
    Option("jgrid", ("agents",), _grid, "0:0.5:4", "start:step:stop coupling grid for transition.csv"),
    Option("pnl", ("mix",), _existing_file, REQUIRED, "pnl.csv produced by the backtest command"),
    Option("pair", ("mix",), _names, None, "two strategy names, comma separated (default: the first two)"),
    Option("grid", ("mix",), Number(float, "(0, 0.5]"), 0.01, "mixing weight grid step"),
    Option("seed", tuple(_COMMANDS), _SEED, 0, "random seed (default 0)"),
    Option("outdir", tuple(_COMMANDS), _text, None, "output directory (default out/<command>)"),
)


def _options(command: str) -> list:
    return [opt for opt in OPTIONS if command in opt.commands]


@functools.cache  # a parser is a reference cycle: one per call grows a long-lived process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trendlab",
                                     description="Trend-following portfolio lab")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for opt in _options(command):
            if opt.flag:
                sub.add_argument(f"--{opt.name}", dest=opt.key, help=opt.help)
        sub.add_argument("--config", help="JSON file of option values, keyed like the long flags")
    return parser


_RUN_KEYS = ("seed", "outdir")  # recorded beside the options in the manifest, not in them


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Validate every option of the command; a flag wins over the config file."""
    config = {}
    if args.config:
        try:
            config = json.loads(Path(_existing_file("config", args.config)).read_text(encoding="utf-8"))
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise ConfigError(f"config file is not valid UTF-8 JSON: {exc}")
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config") and v is not None}
    values = {}
    supplied = dict(config)
    for opt in _options(args.command):
        if opt.key in flags:
            raw = flags[opt.key]
        elif config.get(opt.key) is not None:
            raw = config[opt.key]
        elif opt.default is REQUIRED:
            raise ConfigError(f"--{opt.name} is required for {args.command}")
        else:
            raw = opt.default
        values[opt.key] = None if raw is None else opt.check(opt.name, raw)
        if opt.key in flags and opt.key not in _RUN_KEYS:
            # numeric flags are recorded as numbers, the others as the text given
            supplied[opt.key] = values[opt.key] if isinstance(opt.check, Number) else raw
    for key in _RUN_KEYS:
        if key not in flags:  # a config value that a flag overrode stays, as supplied
            supplied.pop(key, None)
    return RunConfig(command=args.command, seed=values.pop("seed"),
                     outdir=Path(values.pop("outdir") or f"out/{args.command}"),
                     options=values, supplied=supplied)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the problem
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        run_command(_resolve(args))
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IngestError, InsufficientData) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrendlabError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
