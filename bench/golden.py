"""Numbers recorded from the program, checked again on every benchmark run.

The desk_pipeline and eigenmode_daily flows are re-run at a small fixed size
with fixed seeds (independent of the workload seed), and every number they
print is compared with `reference.json`, recorded with this file:

    python3 bench/golden.py --record

A number passes when |new - recorded| <= RTOL * |recorded| + ATOL.  The mix
Sharpe ratio is checked one-sided (new >= recorded - bound), since a better
optimizer may only raise it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-12
REFERENCE = Path(__file__).with_name("reference.json")

DESK_SEED = 11
DESK_CLASSES = "stock,stock,stock,bond,bond,fx"
EIGENMODE_SEED = 12
ONE_SIDED = {"desk.mix_sharpe"}


def _floats(rows) -> list:
    return [float(x) for row in rows for x in row]


def desk_numbers(workdir: Path) -> dict:
    """simulate -> backtest -> eigenrisk -> mix on a 6-asset, 700-day panel."""
    from trendlab import cli

    from workloads import read_csv

    if workdir.exists():
        shutil.rmtree(workdir)
    panel = str(workdir / "sim" / "panel.csv")
    est = ["--eta-cov", "0.02", "--warmup", "200", "--seed", str(DESK_SEED)]
    commands = [
        ["simulate", "--n", "6", "--T", "700", "--trend-amp", "0.1", "--classes", DESK_CLASSES,
         "--seed", str(DESK_SEED), "--outdir", str(workdir / "sim")],
        ["backtest", "--panel", panel, "--strategy", "arp,nm,ew,rp,torp", *est,
         "--outdir", str(workdir / "bt")],
        ["eigenrisk", "--panel", panel, "--strategy", "arp,nm,ew", *est,
         "--outdir", str(workdir / "er")],
        ["mix", "--pnl", str(workdir / "bt" / "pnl.csv"), "--pair", "arp,torp", "--grid", "0.05",
         "--outdir", str(workdir / "mix")],
    ]
    for argv in commands:
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"golden {argv[0]} exited {code}")
    summary = json.loads((workdir / "bt" / "summary.json").read_text())
    out = {
        "desk.sharpes": [summary["sharpes"][k] for k in sorted(summary["sharpes"])],
        "desk.mix_sharpe": [summary["mix"]["sharpe"]],
        "desk.strategy_correlations": _floats(summary["correlations"]["matrix"]),
        "desk.pnl": _floats(r[1:] for r in read_csv(workdir / "bt" / "pnl.csv")[1]),
        "desk.mixcurve": _floats(read_csv(workdir / "mix" / "mixcurve.csv")[1]),
    }
    for cmd in ("bt", "er"):
        out[f"desk.{cmd}.eigenrisk"] = _floats(read_csv(workdir / cmd / "eigenrisk.csv")[1])
        out[f"desk.{cmd}.correlation"] = _floats(read_csv(workdir / cmd / "correlation.csv")[1])
        out[f"desk.{cmd}.volatilities"] = _floats(
            r[1:] for r in read_csv(workdir / cmd / "volatilities.csv")[1])
    shutil.rmtree(workdir)
    return out


def eigenmode_numbers() -> dict:
    """ARP, NM, EW with a daily roll on the n=10 reference model, 500 days."""
    from trendlab import backtest, market_model

    from models import mode_profile_model, stationary_correlation

    model = mode_profile_model(n=10, signal_rate=0.005)
    corr = stationary_correlation(model)
    panel = market_model.simulate(model, 500, EIGENMODE_SEED)
    out = {}
    for kind in ("arp", "nm", "ew"):
        cfg = backtest.StrategyConfig(kind=kind, signal_rate=0.02, cov_rate=0.02, week_len=1)
        run = backtest.run(panel, cfg)
        profile = backtest.realized_risk(run, corr, panel)
        out[f"eigenmode.{kind}.sharpe"] = [run.sharpe]
        out[f"eigenmode.{kind}.pnl"] = run.active_pnl.tolist()
        out[f"eigenmode.{kind}.risks"] = profile.risks.tolist()
    return out


def compare(actual: dict, recorded: dict) -> list:
    """Failure messages for every number outside the stated bound."""
    failures = []
    for key, expected in recorded.items():
        got = actual.get(key)
        if got is None or len(got) != len(expected):
            failures.append(f"{key}: shape changed")
            continue
        for i, (a, b) in enumerate(zip(got, expected)):
            bound = RTOL * abs(b) + ATOL
            bad = a < b - bound if key in ONE_SIDED else abs(a - b) > bound
            if bad:
                failures.append(f"{key}[{i}]: {a!r} vs recorded {b!r}")
                break
    return failures


def check(section: str, workdir: Path) -> list:
    """Re-run one section ('desk' or 'eigenmode') and compare it."""
    recorded = json.loads(REFERENCE.read_text())
    wanted = {k: v for k, v in recorded.items() if k.startswith(section + ".")}
    actual = desk_numbers(workdir) if section == "desk" else eigenmode_numbers()
    return compare(actual, wanted)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    actual = {**desk_numbers(root / ".bench_work" / "golden-record"), **eigenmode_numbers()}
    if args.record:
        lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(actual.items())]
        REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"recorded {sum(len(v) for v in actual.values())} numbers in {REFERENCE.name}")
        return 0
    failures = compare(actual, json.loads(REFERENCE.read_text()))
    print("\n".join(failures) or "all recorded numbers agree")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
