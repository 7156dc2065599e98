import argparse
import datetime
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import reference_calendar, reference_csv_text, reference_read_table
from trendlab import cli, herding, market_model
from trendlab.errors import IngestError
from trendlab.market_model import ReturnsPanel
from trendlab.symmat import eigendecompose

FAST_BT = ["--eta", "0.05", "--eta-cov", "0.05", "--eta-var", "0.05", "--warmup", "60"]


def write_panel(tmp_path, rows, classes=("stock", "bond"), name="panel.csv"):
    path = tmp_path / name
    header = "date," + ",".join(f"asset_{i+1}" for i in range(len(classes)))
    path.write_text("\n".join([header] + rows) + "\n")
    (tmp_path / f"{name[:-4]}.meta.json").write_text(
        json.dumps({"asset_classes": list(classes), "seed": 0}))
    return path


def read_rows(path):
    return path.read_text().splitlines()


# numpy and every stdlib module that src/ names; importing the CLI after them may add
# only trendlab's own modules, so a new dependency shows up here as a failing test
PRELOADED = ("numpy", "__future__", "argparse", "dataclasses", "datetime", "functools", "hashlib",
             "itertools", "json", "math", "os", "pathlib", "threading", "typing")


def test_importing_the_cli_loads_only_trendlab_modules():
    code = (f"import sys, {', '.join(PRELOADED)}\n"
            "before = set(sys.modules)\n"
            "import trendlab.cli\n"
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    added = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=env, check=True).stdout.split()
    assert "trendlab.cli" in added
    assert [name for name in added if name.split(".")[0] != "trendlab"] == []


def test_ingest_well_formed(tmp_path):
    path = write_panel(tmp_path, ["2020-01-01,0.1,-0.2",
                                  "2020-01-02,0.0,0.3",
                                  "2020-01-03,-0.1,0.05"])
    panel = cli.ingest_csv(path)
    assert panel.returns.shape == (3, 2)
    assert panel.asset_classes == ("stock", "bond")


@pytest.mark.parametrize("rows,line", [
    (["2020-01-01,0.1,-0.2", "2020-01-02,0.0"], 3),            # ragged row
    (["2020-01-01,0.1,-0.2", "not-a-date,0.0,0.1"], 3),        # bad date
    (["2020-01-02,0.1,-0.2", "2020-01-01,0.0,0.1"], 3),        # dates go backwards
    (["2020-01-01,0.1,-0.2", "2020-01-02,,0.1"], 3),           # missing cell
    (["2020-01-01,0.1,-0.2", "2020-01-02,nan,0.1"], 3),        # NaN
])
def test_ingest_rejects_bad_rows(tmp_path, rows, line):
    path = write_panel(tmp_path, rows)
    with pytest.raises(IngestError) as err:
        cli.ingest_csv(path)
    assert err.value.line == line


def test_ingest_requires_sidecar(tmp_path):
    path = tmp_path / "solo.csv"
    path.write_text("date,asset_1\n2020-01-01,0.1\n")
    with pytest.raises(IngestError):
        cli.ingest_csv(path)


def test_export_ingest_roundtrip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    extremes = [5e-324, -0.0, 1.7976931348623157e308, 1 / 3, -1e-300]
    panels = [
        ReturnsPanel(returns=rng.standard_normal((37, 3)) * 0.0123,
                     asset_classes=("stock", "bond", "fx"), seed=9),
        ReturnsPanel(returns=np.array([extremes, extremes[::-1]]),
                     asset_classes=("stock",) * len(extremes), seed=9),
    ]
    for panel in panels:
        path = tmp_path / "roundtrip.csv"
        cli.export_panel(panel, path)
        back = cli.ingest_csv(path)
        assert back.returns.tobytes() == panel.returns.tobytes()  # -0.0 keeps its sign
        assert back.asset_classes == panel.asset_classes
        assert back.seed == 9


def test_backtest_keeps_the_panel_dates(tmp_path):
    rng = np.random.default_rng(3)
    start = datetime.date(2015, 6, 1)
    dates = [(start + datetime.timedelta(days=t)).isoformat() for t in range(150)]
    path = write_panel(tmp_path, [f"{d},{float(a)!r},{float(b)!r}"
                                  for d, (a, b) in zip(dates, 0.01 * rng.standard_normal((150, 2)))])
    assert cli.ingest_csv(path).dates == tuple(dates)
    out = tmp_path / "bt"
    assert run_cli("backtest", "--panel", str(path), "--strategy", "ew,nm", *FAST_BT,
                   "--outdir", str(out)) == 0
    assert [row.split(",")[0] for row in read_rows(out / "pnl.csv")[1:]] == dates[60:]
    for book in ("ew", "nm"):
        rows = read_rows(out / f"positions_{book}.csv")[1:]
        assert [row.split(",")[0] for row in rows[::2]] == dates[60:]
    cli.export_panel(cli.ingest_csv(path), tmp_path / "again.csv")
    assert read_rows(tmp_path / "again.csv")[1:] == read_rows(path)[1:]


def run_cli(*argv):
    return cli.main(list(argv))


def test_simulate_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = run_cli("simulate", "--n", "5", "--T", "1000", "--seed", "7",
                       "--outdir", str(out))
        assert code == 0
    for name in ("panel.csv", "panel.meta.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_backtest_command_writes_artifacts(tmp_path):
    src = tmp_path / "sim"
    assert run_cli("simulate", "--n", "3", "--T", "400", "--seed", "1",
                   "--trend-amp", "0.1", "--outdir", str(src)) == 0
    out = tmp_path / "bt"
    assert run_cli("backtest", "--panel", str(src / "panel.csv"),
                   "--strategy", "arp,nm,ew,rp,torp", *FAST_BT,
                   "--outdir", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary["sharpes"]) == ["arp", "ew", "nm", "rp", "torp"]
    assert len(summary["mix"]["weights"]) == 5
    assert len(summary["correlations"]["matrix"]) == 5
    pnl_rows = read_rows(out / "pnl.csv")
    assert pnl_rows[0] == "date,arp,nm,ew,rp,torp"
    assert len(pnl_rows) == 1 + 400 - 60
    risk_rows = read_rows(out / "eigenrisk.csv")
    assert risk_rows[0] == "eigenvalue,arp,nm,ew,rp,torp"
    assert len(risk_rows) == 4
    positions = read_rows(out / "positions_arp.csv")
    assert positions[0] == "date,asset,position"
    assert len(positions) == 1 + (400 - 60) * 3
    assert (out / "manifest.json").exists()


def test_eigenrisk_command(tmp_path):
    src = tmp_path / "sim"
    assert run_cli("simulate", "--n", "2", "--T", "300", "--seed", "2",
                   "--outdir", str(src)) == 0
    out = tmp_path / "er"
    assert run_cli("eigenrisk", "--panel", str(src / "panel.csv"),
                   "--strategy", "ew,nm", *FAST_BT, "--outdir", str(out)) == 0
    rows = read_rows(out / "eigenrisk.csv")
    assert rows[0] == "eigenvalue,ew,nm"
    assert len(rows) == 3
    corr_rows = read_rows(out / "correlation.csv")
    assert corr_rows[0] == "asset_1,asset_2" and len(corr_rows) == 3
    vol_rows = read_rows(out / "volatilities.csv")
    assert vol_rows[0] == "asset,volatility" and len(vol_rows) == 3


def test_oracle_command(tmp_path):
    out = tmp_path / "oracle"
    assert run_cli("oracle", "--n", "2", "--t", "50", "--models", "3",
                   "--seed", "5", "--outdir", str(out)) == 0
    report = json.loads((out / "oracle.json").read_text())
    assert report["n"] == 2 and report["t"] == 50
    assert len(report["models"]) == 3
    for entry in report["models"]:
        assert entry["residual_simple"] < 1.0
        assert 0.0 < entry["ratio_simple"] <= 1.0 + 1e-9


def test_agents_command_grid_rows(tmp_path):
    out = tmp_path / "agents"
    assert run_cli("agents", "--A", "60", "--N", "8", "--T", "10", "--M", "4",
                   "--jgrid", "0:0.25:4", "--seed", "3", "--outdir", str(out)) == 0
    transition = read_rows(out / "transition.csv")
    assert transition[0] == "j,max_interest,stderr"
    assert len(transition) == 1 + 17
    trajectory = read_rows(out / "trajectory.csv")
    assert trajectory[0] == "t," + ",".join(f"S{k+1}" for k in range(8))
    assert len(trajectory) == 1 + 11


@pytest.mark.parametrize("structure", ["none", "market", "proportional"])
def test_simulate_builds_the_model_its_flags_describe(tmp_path, monkeypatch, structure):
    models = []
    real_simulate = market_model.simulate

    def recorded(model, days, seed):
        models.append(model)
        return real_simulate(model, days, seed)

    monkeypatch.setattr(market_model, "simulate", recorded)
    assert run_cli("simulate", "--n", "2", "--T", "5", "--drift", "0.1,0.2", "--noise-corr", "0.2",
                   "--trend-structure", structure, "--trend-scale", "0.5",
                   "--outdir", str(tmp_path / "sim")) == 0
    [model] = models
    noise_cov = np.array([[1.0, 0.2], [0.2, 1.0]])
    assert np.array_equal(model.drift, [0.1, 0.2])
    assert np.array_equal(model.noise_cov, noise_cov)
    want = {"none": np.zeros((2, 2)), "market": 0.5 * np.ones((2, 2)) / 2,
            "proportional": 0.5 * noise_cov}[structure]
    assert np.array_equal(model.trend_cov, want)


def test_agents_command_simulates_one_repetition_for_the_trajectory(tmp_path, monkeypatch):
    reps = []
    real_run = herding.run

    def recorded(params):
        reps.append(params.reps)
        return real_run(params)

    monkeypatch.setattr(herding, "run", recorded)
    argv = ["agents", "--A", "60", "--N", "8", "--T", "10", "--jgrid", "0:2:4", "--seed", "3"]
    assert run_cli(*argv, "--M", "4", "--outdir", str(tmp_path / "m4")) == 0
    # the trajectory's one repetition; the transition curve does not call run
    assert reps == [1]
    # repetition 0 draws from the seed's first SeedSequence child whatever M is
    assert run_cli(*argv, "--M", "1", "--outdir", str(tmp_path / "m1")) == 0
    assert ((tmp_path / "m4" / "trajectory.csv").read_bytes()
            == (tmp_path / "m1" / "trajectory.csv").read_bytes())


def test_mix_command(tmp_path):
    rng = np.random.default_rng(4)
    pnl = tmp_path / "pnl.csv"
    day = datetime.date(2000, 1, 3)
    rows = ["date,a,b"] + [f"{day + datetime.timedelta(days=i)},{x},{y}"
                           for i, (x, y) in enumerate(rng.standard_normal((300, 2)) + 0.02)]
    pnl.write_text("\n".join(rows) + "\n")
    out = tmp_path / "mix"
    assert run_cli("mix", "--pnl", str(pnl), "--pair", "a,b", "--grid", "0.01",
                   "--outdir", str(out)) == 0
    curve = read_rows(out / "mixcurve.csv")
    assert curve[0] == "weight_b,sharpe"
    assert len(curve) == 1 + 101


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n": 4, "T": 50, "trend_amp": 0.2}))
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(config), "--n", "2",
                   "--outdir", str(out)) == 0
    header = read_rows(out / "panel.csv")[0]
    assert header == "date,asset_1,asset_2"  # flag wins over the config file
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["options"]["T"] == 50    # config value survives


def last_error(capsys):
    return capsys.readouterr().err.strip().splitlines()[-1]


def test_exit_codes(tmp_path, capsys):
    # config error: missing required input
    assert run_cli("backtest", "--outdir", str(tmp_path / "x")) == 2
    assert last_error(capsys).startswith("error: config:")
    # config error: input file does not exist
    assert run_cli("backtest", "--panel", str(tmp_path / "nope.csv"),
                   "--outdir", str(tmp_path / "x")) == 2
    # config error: bad strategy name
    src = tmp_path / "sim"
    assert run_cli("simulate", "--n", "2", "--T", "120", "--outdir", str(src)) == 0
    assert run_cli("backtest", "--panel", str(src / "panel.csv"),
                   "--strategy", "arp,bogus", *FAST_BT,
                   "--outdir", str(tmp_path / "x")) == 2
    # data error: malformed panel
    bad = write_panel(tmp_path, ["2020-01-01,0.1,-0.2", "2020-01-02,0.0"], name="bad.csv")
    assert run_cli("backtest", "--panel", str(bad), *FAST_BT,
                   "--outdir", str(tmp_path / "x")) == 3
    assert last_error(capsys).startswith("error: data:")
    # numerical failure: zero-variance series cannot be mixed
    flat = tmp_path / "flat.csv"
    flat.write_text("date,a,b\n" + "\n".join(
        f"2020-{m:02d}-{d:02d},1.0,{0.1 * ((m * 31 + d) % 7 - 3)}"
        for m in range(1, 4) for d in range(1, 29)) + "\n")
    assert run_cli("mix", "--pnl", str(flat), "--pair", "a,b",
                   "--outdir", str(tmp_path / "x")) == 4
    assert last_error(capsys).startswith("error: numeric:")
    # argparse-level failure
    assert run_cli("unknown-command") == 2


def significant_digits(token):
    return len(token.lstrip("-").replace(".", "").split("e")[0].lstrip("0"))


def test_twelve_digit_report_floats(tmp_path):
    out = tmp_path / "oracle"
    assert run_cli("oracle", "--n", "1", "--t", "30", "--models", "1",
                   "--outdir", str(out)) == 0
    text = (out / "oracle.json").read_text()
    for token in text.replace(",", " ").replace("}", " ").split():
        if "." in token and token.replace(".", "").replace("-", "").replace("e", "").isdigit():
            assert significant_digits(token) <= 12
    # every numeric cell of every report CSV, in its shortest 12-digit form
    src = tmp_path / "sim"
    assert run_cli("simulate", "--n", "3", "--T", "200", "--seed", "8", "--outdir", str(src)) == 0
    panel = str(src / "panel.csv")
    commands = {
        "bt": ["backtest", "--panel", panel, *FAST_BT],
        "er": ["eigenrisk", "--panel", panel, "--strategy", "arp,nm,ew", *FAST_BT],
        "ag": ["agents", "--A", "60", "--N", "7", "--T", "10", "--M", "4", "--jgrid", "0:0.7:3"],
        "mix": ["mix", "--pnl", str(tmp_path / "bt" / "pnl.csv"), "--pair", "arp,torp"],
    }
    checked = []
    for name, argv in commands.items():
        assert run_cli(*argv, "--seed", "8", "--outdir", str(tmp_path / name)) == 0
        for path in (tmp_path / name).glob("*.csv"):
            for row in read_rows(path)[1:]:
                for cell in row.split(","):
                    try:
                        value = float(cell)
                    except ValueError:  # a date or an asset name
                        continue
                    assert significant_digits(cell) <= 12 and cell == "%.12g" % value, (path, cell)
                    checked.append(path.relative_to(tmp_path))
    # backtest: pnl, eigenrisk, correlation, volatilities, five positions; eigenrisk:
    # three; agents: trajectory, transition; mix: mixcurve
    assert len(set(checked)) == 15 and len(checked) > 3000


def config_file(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return str(path)


def names_option(line, option):
    return line.startswith((f"error: config: {option} ", f"error: config: --{option} "))


@pytest.mark.parametrize("argv,config,option", [
    (["simulate"], None, "n"),
    (["simulate", "--n", "2"], {"seed": "abc"}, "seed"),
    (["simulate", "--n", "2", "--seed", "-1"], None, "seed"),
    (["oracle", "--seed", "-1"], None, "seed"),
    (["agents", "--seed", "-1"], None, "seed"),
    (["simulate", "--n", "2"], {"noise_cov": "x"}, "noise_cov"),
    (["simulate", "--n", "2"], {"drift": [1, "a"]}, "drift"),
    (["simulate", "--n", "2"], {"outdir": 5}, "outdir"),
    (["agents", "--j", "-1"], None, "j"),
    (["agents", "--jgrid=-1:1:1"], None, "jgrid"),
    (["agents", "--A", "5", "--N", "2", "--T", "2", "--M", "2", "--jgrid", "0:1e-320:4"], None,
     "jgrid"),
    (["agents", "--A", "5", "--N", "2", "--T", "2", "--M", "2", "--jgrid", "0:1e-15:4"], None,
     "jgrid"),
    (["oracle", "--t", "2"], None, "t"),
    (["simulate", "--n", "2", "--drift", "0.1,0.2,0.3"], None, "drift"),
    (["simulate", "--n", "2", "--noise-corr", "1"], None, "noise-corr"),
    (["simulate", "--n", "2", "--trend-structure", "bogus"], None, "trend-structure"),
    (["agents", "--jgrid", "1:2"], None, "jgrid"),
    (["simulate", "--n", "2"], [{"n": 2}], "config"),
    (["simulate", "--n", "2", "--T", "10", "--outdir", "taken"], None, "outdir"),
    (["simulate", "--n", "2", "--T", "10", "--outdir", "taken/sub"], None, "outdir"),
    (["simulate", "--n", "2", "--T", "50"], {"nosie_corr": 0.9}, "nosie_corr"),
    (["simulate", "--n", "2", "--T", "50"], {"jgrid": "0:1:2"}, "jgrid"),
    (["backtest"], {"eta-cov": 0.01}, "eta-cov"),
    (["agents", "--A", "1000", "--N", "50", "--T", "5", "--M", "4", "--j", "1e308",
      "--jgrid", "0:1:2"], None, "j"),
    (["agents", "--A", "5", "--N", "4", "--T", "2", "--M", "2", "--jgrid", "0:1e308:1e308"],
     None, "jgrid"),
    (["agents", "--A", "5", "--N", "2", "--T", "2", "--M", "2", "--jgrid", "0:1e308:1.5e308"],
     None, "jgrid"),
    (["agents", "--A", "5", "--N", "2", "--T", "2", "--M", "2", "--jgrid", "0:1e-300:1"],
     None, "jgrid"),
    (["agents", "--A", "5", "--N", "2", "--T", "2", "--M", "2", "--outdir", ""], None, "outdir"),
    (["agents", "--A", "5", "--N", "2", "--T", "2", "--M", "2"], {"outdir": ""}, "outdir"),
    (["simulate", "--n", "3", "--T", "10", "--classes", ""], None, "classes"),
    (["simulate", "--n", "3", "--T", "10"], {"classes": ""}, "classes"),
    (["mix", "--pnl", "taken", "--pair", ""], None, "pair"),
    (["mix", "--pnl", "taken", "--pair", ","], None, "pair"),
], ids=["no-n", "seed-abc", "simulate-seed", "oracle-seed", "agents-seed", "noise_cov",
        "drift", "outdir", "j", "jgrid", "jgrid-infinite", "jgrid-unallocatable", "oracle-t",
        "drift-count", "noise-corr", "trend-structure", "jgrid-two-parts", "config-list",
        "outdir-file", "outdir-under-file", "config-typo", "config-other-command",
        "config-dashed-key", "j-overflow", "jgrid-overflow", "jgrid-point-overflow",
        "jgrid-past-numpy-size", "outdir-empty", "outdir-empty-in-config", "classes-empty",
        "classes-empty-in-config", "pair-empty", "pair-only-comma"])
def test_malformed_input_is_a_config_error(tmp_path, capsys, monkeypatch, argv, config, option):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")  # a file, not a directory, for the outdir cases
    if config is not None:
        argv = argv + ["--config", config_file(tmp_path, config)]
    if option != "outdir":
        argv = argv + ["--outdir", str(tmp_path / "out")]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert names_option(err.strip().splitlines()[-1], option)
    assert not (tmp_path / "out").exists()
    assert (tmp_path / "taken").is_file()


NUMERIC_OPTIONS = [(command, opt) for opt in cli.OPTIONS if isinstance(opt.check, cli.Number)
                   for command in opt.commands]


@pytest.mark.parametrize("command,opt", NUMERIC_OPTIONS,
                         ids=[f"{command}-{opt.name}" for command, opt in NUMERIC_OPTIONS])
def test_flag_and_config_share_the_validator(tmp_path, capsys, command, opt):
    existing = str(write_panel(tmp_path, ["2020-01-01,0.1,-0.2"]))
    required = {"simulate": ["n", "2"], "backtest": ["panel", existing],
                "eigenrisk": ["panel", existing], "mix": ["pnl", existing]}.get(command)
    base = [command] if required is None or required[0] == opt.key else [command, f"--{required[0]}", required[1]]
    base += ["--outdir", str(tmp_path / "out")]
    number = opt.check
    low, high = (float(x) for x in number.bounds[1:-1].split(","))
    bad_values = ["abc"] + [number.kind(edge) for edge in (low - 1, high + 1) if np.isfinite(edge)]
    for bad in bad_values:
        assert run_cli(*base, f"--{opt.name}={bad}") == 2
        assert names_option(last_error(capsys), opt.name)
        assert run_cli(*base, "--config", config_file(tmp_path, {opt.key: bad})) == 2
        assert names_option(last_error(capsys), opt.name)


def test_manifest_records_flag_options_as_supplied(tmp_path):
    src = tmp_path / "sim"
    assert run_cli("simulate", "--n", "2", "--T", "120", "--outdir", str(src)) == 0
    panel = str(src / "panel.csv")
    out = tmp_path / "bt"
    assert run_cli("backtest", "--panel", panel, "--strategy", "ew,nm", *FAST_BT,
                   "--outdir", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    options = {"panel": panel, "strategy": "ew,nm", "eta": 0.05, "eta_cov": 0.05,
               "eta_var": 0.05, "warmup": 60}
    assert manifest["options"] == options
    body = {"command": "backtest", "seed": 0, "options": options}
    assert manifest["config_hash"] == hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    """A parser is a reference cycle, so one per call would grow a long-lived process."""
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    base = ["oracle", "--n", "1", "--t", "3"]
    assert cli.main(base + ["--models", "2", "--outdir", str(tmp_path / "a")]) == 0
    assert cli.main(base + ["--outdir", str(tmp_path / "b")]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    # the first call's --models does not carry over into the second
    assert len(json.loads((tmp_path / "b" / "oracle.json").read_text())["models"]) == 20


def test_oracle_runs_at_the_smallest_t(tmp_path):
    # at t=2 the trend amplitude of a random model cannot be sized, so t starts at 3
    assert run_cli("oracle", "--n", "2", "--t", "3", "--models", "2",
                   "--outdir", str(tmp_path / "oracle")) == 0


def test_oracle_runs_at_desk_sizes(tmp_path):
    """--n has no upper cap; the exact weights are the maximum, so no ratio passes 1."""
    out = tmp_path / "oracle"
    assert run_cli("oracle", "--n", "16", "--t", "200", "--models", "5", "--outdir", str(out)) == 0
    models = json.loads((out / "oracle.json").read_text())["models"]
    assert len(models) == 5
    for model in models:
        assert model["residual_exact"] < 1e-9
        assert max(model["ratio_simple"], model["ratio_sandwich"]) <= 1.0 + 1e-12
    assert run_cli("oracle", "--n", "0", "--outdir", str(tmp_path / "none")) == 2
    assert not (tmp_path / "none").exists()


@pytest.mark.parametrize("fault", ["oversized-shape", "memory"])
def test_an_unallocatable_command_is_a_config_error(tmp_path, capsys, monkeypatch, fault):
    days = str(10**20)  # numpy rejects the shape before it allocates anything
    if fault == "memory":
        def unallocatable(model, n_days, seed):
            raise MemoryError

        monkeypatch.setattr(market_model, "simulate", unallocatable)
        days = "5"
    out = tmp_path / "sim"
    assert run_cli("simulate", "--n", "2", "--T", days, "--outdir", str(out)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("error: config: simulate: ")
    assert not out.exists()


def test_any_other_value_error_of_a_command_propagates(tmp_path, monkeypatch):
    def broken(model, n_days, seed):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(market_model, "simulate", broken)
    with pytest.raises(ValueError, match="broadcast"):
        run_cli("simulate", "--n", "2", "--T", "5", "--outdir", str(tmp_path / "sim"))


def test_backtest_reports_zero_variance_books_as_null(tmp_path):
    src = tmp_path / "sim"
    assert run_cli("simulate", "--n", "3", "--T", "300", "--seed", "1",
                   "--outdir", str(src)) == 0
    panel = str(src / "panel.csv")
    for books, live in (("zero,ew,nm", ["ew", "nm"]), ("zero,ew", ["ew"]), ("zero", [])):
        out = tmp_path / books
        assert run_cli("backtest", "--panel", panel, "--strategy", books, *FAST_BT,
                       "--outdir", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sharpes"]["zero"] is None
        assert sorted(k for k, v in summary["sharpes"].items() if v is not None) == live
        if len(live) < 2:
            assert summary["correlations"] is None and summary["mix"] is None
        else:
            assert summary["correlations"]["labels"] == live
            assert len(summary["correlations"]["matrix"]) == len(live)
            assert sorted(summary["mix"]["weights"]) == live
        assert read_rows(out / "pnl.csv")[0] == "date," + books


def test_panel_shorter_than_warmup_is_a_data_error(tmp_path, capsys):
    src = tmp_path / "sim"
    assert run_cli("simulate", "--n", "2", "--T", "1", "--outdir", str(src)) == 0
    for command in ("backtest", "eigenrisk"):
        assert run_cli(command, "--panel", str(src / "panel.csv"),
                       "--outdir", str(tmp_path / command)) == 3
        assert last_error(capsys).startswith("error: data: panel of 1 days")
    # one active day has no realized risk: warm-up T - 1 is short too, T - 2 is not
    assert run_cli("simulate", "--n", "2", "--T", "120", "--outdir", str(src)) == 0
    for command in ("backtest", "eigenrisk"):
        out = tmp_path / f"{command}-119"
        assert run_cli(command, "--panel", str(src / "panel.csv"), "--warmup", "119",
                       "--outdir", str(out)) == 3
        assert last_error(capsys).startswith("error: data: panel of 120 days")
        assert not out.exists()
        out = tmp_path / f"{command}-118"
        assert run_cli(command, "--panel", str(src / "panel.csv"), "--warmup", "118",
                       "--outdir", str(out)) == 0
        assert np.isfinite(read_matrix(out / "eigenrisk.csv", skip_cols=0)).all()


def write_pnl(path, rows):
    path.write_text("\n".join(["date,a,b"] + rows) + "\n")
    return path


MALFORMED_PNL_ROWS = {
    "not-a-date": (4, "not-a-date,0.1,0.2", "unparseable date"),
    "impossible-date": (4, "2000-02-30,0.1,0.2", "unparseable date"),
    "basic-format-date": (4, "20000211,0.1,0.2", "unparseable date"),
    "week-date": (4, "2000-W06-5,0.1,0.2", "unparseable date"),
    "out-of-order": (4, "2000-01-01,0.1,0.2", "strictly increasing"),
    "nan": (4, "2000-02-11,nan,0.2", "non-finite"),
    "inf": (4, "2000-02-11,0.1,-inf", "non-finite"),
    "blank": (4, "2000-02-11,,0.2", "missing value"),
}


@pytest.mark.parametrize("case", MALFORMED_PNL_ROWS)
def test_mix_rejects_malformed_pnl_rows(tmp_path, capsys, case):
    rng = np.random.default_rng(9)
    day = datetime.date(2000, 2, 7)
    rows = [f"{day + datetime.timedelta(days=i)},{x},{y}"
            for i, (x, y) in enumerate(rng.standard_normal((8, 2)))]
    args = ("--pair", "a,b", "--grid", "0.5")
    good = write_pnl(tmp_path / "good.csv", rows)
    assert run_cli("mix", "--pnl", str(good), *args, "--outdir", str(tmp_path / "good")) == 0
    index, row, message = MALFORMED_PNL_ROWS[case]
    rows[index] = row
    bad = write_pnl(tmp_path / "bad.csv", rows)
    out = tmp_path / "bad"
    assert run_cli("mix", "--pnl", str(bad), *args, "--outdir", str(out)) == 3
    error = last_error(capsys)
    assert error.startswith(f"error: data: line {index + 2}:") and message in error
    assert not (out / "mixcurve.csv").exists()


def seeded_panel(tmp_path, seed):
    rng = np.random.default_rng(seed)
    day = datetime.date(2001, 3, 1)
    returns = (0.01 * rng.standard_normal((80, 3))).tolist()
    return write_panel(tmp_path, [f"{day + datetime.timedelta(days=i)}," + ",".join(map(repr, row))
                                  for i, row in enumerate(returns)], classes=("stock", "bond", "fx"))


BAD_SIDECAR_CLASSES = {
    "unknown-label": ["stock", "bond", "FX"],
    "string": "sbf",
    "non-string": ["stock", "bond", 5],
}


@pytest.mark.parametrize("case", BAD_SIDECAR_CLASSES)
def test_ingest_rejects_sidecar_classes_outside_the_asset_classes(tmp_path, capsys, case):
    path = seeded_panel(tmp_path, 11)
    assert cli.ingest_csv(path).asset_classes == ("stock", "bond", "fx")
    (tmp_path / "panel.meta.json").write_text(
        json.dumps({"asset_classes": BAD_SIDECAR_CLASSES[case], "seed": 0}))
    with pytest.raises(IngestError, match="panel.meta.json"):
        cli.ingest_csv(path)
    assert run_cli("backtest", "--panel", str(path), "--strategy", "rp", *FAST_BT,
                   "--outdir", str(tmp_path / "bt")) == 3
    error = last_error(capsys)
    assert error.startswith("error: data:") and "panel.meta.json" in error


@pytest.mark.parametrize("case", ["directory", "too-few-classes"])
def test_a_bad_sidecar_is_a_data_error(tmp_path, capsys, case):
    path = seeded_panel(tmp_path, 12)
    meta = tmp_path / "panel.meta.json"
    if case == "directory":
        meta.unlink()
        meta.mkdir()
        message = "missing sidecar panel.meta.json with asset classes"
    else:
        meta.write_text(json.dumps({"asset_classes": ["stock", "bond"], "seed": 0}))
        message = "sidecar lists 2 classes for 3 assets"
    with pytest.raises(IngestError, match=message):
        cli.ingest_csv(path)
    out = tmp_path / "bt"
    assert run_cli("backtest", "--panel", str(path), "--strategy", "rp", *FAST_BT,
                   "--outdir", str(out)) == 3
    assert last_error(capsys) == f"error: data: {message}"
    assert not out.exists()


def read_matrix(path, skip_cols=1):
    return np.array([[float(x) for x in row.split(",")[skip_cols:]] for row in read_rows(path)[1:]])


def test_flat_asset_keeps_the_eigenmode_risks_finite(tmp_path):
    rng = np.random.default_rng(21)
    returns = 0.01 * rng.standard_normal((400, 4))
    returns[:, 2] = 0.0
    path = tmp_path / "panel.csv"
    cli.export_panel(ReturnsPanel(returns=returns, asset_classes=("stock",) * 4, seed=21), path)
    books, warmup = ("nm", "rp"), 63
    for command in ("backtest", "eigenrisk"):
        assert run_cli(command, "--panel", str(path), "--strategy", ",".join(books),
                       "--warmup", str(warmup), "--outdir", str(tmp_path / command)) == 0
    out = tmp_path / "backtest"
    risks = read_matrix(out / "eigenrisk.csv", skip_cols=0)
    assert risks.shape == (4, 3) and np.isfinite(risks).all()
    assert (out / "eigenrisk.csv").read_bytes() == (tmp_path / "eigenrisk" / "eigenrisk.csv").read_bytes()
    # the per-mode contributions, in the realized_risk convention (a zero-vol
    # asset stays in raw units), sum to each book's P&L
    rets = returns[warmup:]
    vols = rets.std(axis=0, ddof=1)
    assert vols[2] == 0.0
    vols[2] = 1.0
    vecs = eigendecompose(read_matrix(out / "correlation.csv", skip_cols=0)).eigenvectors
    pnl = read_matrix(out / "pnl.csv")
    for b, book in enumerate(books):
        pos = read_matrix(out / f"positions_{book}.csv", skip_cols=2).reshape(-1, 4)
        per_mode = ((pos * vols) @ vecs) * ((rets / vols) @ vecs)
        assert np.abs(per_mode.sum(axis=1) - pnl[:, b]).max() < 1e-12
        assert np.allclose(per_mode.std(axis=0, ddof=1), risks[:, 1 + b], rtol=1e-8, atol=1e-14)


SIDECAR_SEEDS = {  # sidecar value -> the seed it gives, None where --seed rejects it
    "float": (3.7, None),
    "bool": (True, None),
    "negative": (-5, None),
    "text": ("12", 12),
    "missing": (..., 0),
}


@pytest.mark.parametrize("case", SIDECAR_SEEDS)
def test_sidecar_seed_follows_the_seed_option(tmp_path, capsys, case):
    value, seed = SIDECAR_SEEDS[case]
    path = seeded_panel(tmp_path, 17)
    meta = {"asset_classes": ["stock", "bond", "fx"]}
    if value is not ...:
        meta["seed"] = value
    (tmp_path / "panel.meta.json").write_text(json.dumps(meta))
    # the config file takes the same value to the same verdict
    config = config_file(tmp_path, {} if value is ... else {"seed": value})
    code = run_cli("simulate", "--n", "1", "--T", "5", "--config", config,
                   "--outdir", str(tmp_path / "sim"))
    if seed is None:
        assert code == 2 and names_option(last_error(capsys), "seed")
        with pytest.raises(IngestError, match="panel.meta.json"):
            cli.ingest_csv(path)
        assert run_cli("backtest", "--panel", str(path), "--strategy", "ew", *FAST_BT,
                       "--outdir", str(tmp_path / "bt")) == 3
        error = last_error(capsys)
        assert error.startswith("error: data:") and "panel.meta.json" in error
    else:
        assert code == 0
        assert json.loads((tmp_path / "sim" / "manifest.json").read_text())["seed"] == seed
        assert cli.ingest_csv(path).seed == seed


@pytest.mark.parametrize("case", ["panel", "pnl", "config"])
def test_non_utf8_input_exits_with_its_error_code(tmp_path, capsys, case):
    panel = seeded_panel(tmp_path, 19)
    assert run_cli("backtest", "--panel", str(panel), "--strategy", "ew,nm", *FAST_BT,
                   "--outdir", str(tmp_path / "bt")) == 0
    pnl = tmp_path / "bt" / "pnl.csv"
    config = tmp_path / "cfg.json"
    if case == "config":
        config.write_bytes(b'{"pair": "ew,nm", "outdir": "caf\xe9"}\n')
    else:
        config.write_bytes(b'{"pair": "ew,nm"}\n')
        target = {"panel": panel, "pnl": pnl}[case]
        lines = target.read_bytes().split(b"\n")
        lines[4] = lines[4].replace(b",", b",\xe9", 1)
        target.write_bytes(b"\n".join(lines))
    if case == "panel":
        code = run_cli("backtest", "--panel", str(panel), "--outdir", str(tmp_path / "out"))
    else:
        code = run_cli("mix", "--pnl", str(pnl), "--config", str(config),
                       "--outdir", str(tmp_path / "out"))
    error = last_error(capsys)
    if case == "config":
        assert code == 2 and error.startswith("error: config:")
    else:
        assert code == 3 and error.startswith("error: data: line 5:") and "UTF-8" in error
    assert not list((tmp_path / "out").glob("*.csv"))


def seeded_pnl_rows(seed, days=50):
    rng = np.random.default_rng(seed)
    day = datetime.date(2000, 2, 7)
    return [f"{day + datetime.timedelta(days=i)},{x!r},{y!r}"
            for i, (x, y) in enumerate(rng.standard_normal((days, 2)).tolist())]


def test_repeated_column_names_are_a_data_error(tmp_path, capsys):
    pnl = tmp_path / "pnl.csv"
    pnl.write_text("\n".join(["date,a,a"] + seeded_pnl_rows(31)) + "\n")
    out = tmp_path / "mix"
    assert run_cli("mix", "--pnl", str(pnl), "--grid", "0.5", "--outdir", str(out)) == 3
    error = last_error(capsys)
    assert error.startswith("error: data: line 1:") and "'a'" in error
    assert not out.exists()
    panel = seeded_panel(tmp_path, 31)
    lines = panel.read_text().splitlines()
    panel.write_text("\n".join(["date,asset_1,asset_2,asset_1"] + lines[1:]) + "\n")
    with pytest.raises(IngestError, match="'asset_1'") as err:
        cli.ingest_csv(panel)
    assert err.value.line == 1


def test_mix_pair_must_name_two_different_strategies(tmp_path, capsys):
    pnl = write_pnl(tmp_path / "pnl.csv", seeded_pnl_rows(32))
    out = tmp_path / "mix"
    assert run_cli("mix", "--pnl", str(pnl), "--pair", "a,a", "--outdir", str(out)) == 2
    assert last_error(capsys).startswith("error: config: pair")
    assert not out.exists()
    assert run_cli("mix", "--pnl", str(pnl), "--pair", "a,bogus", "--outdir", str(out)) == 2
    assert last_error(capsys) == "error: config: strategy 'bogus' not present in pnl file"
    assert not out.exists()
    assert run_cli("mix", "--pnl", str(pnl), "--pair", "b,a", "--outdir", str(out)) == 0


@pytest.mark.parametrize("pair", [(), ("--pair", "a,b")], ids=["default", "named"])
def test_mix_on_one_strategy_column_is_a_data_error(tmp_path, capsys, pair):
    pnl = tmp_path / "pnl.csv"
    pnl.write_text("\n".join(["date,a"] + [row.rsplit(",", 1)[0] for row in seeded_pnl_rows(33)])
                   + "\n")
    out = tmp_path / "mix"
    assert run_cli("mix", "--pnl", str(pnl), *pair, "--outdir", str(out)) == 3
    assert last_error(capsys) == "error: data: line 1: pnl file needs at least two strategy columns"
    assert not out.exists()


def test_failed_run_leaves_no_output_directory(tmp_path, capsys):
    panel = tmp_path / "solo.csv"
    panel.write_text("date,asset_1\n2020-01-01,0.1\n")  # no sidecar
    out = tmp_path / "deep" / "bt"
    assert run_cli("backtest", "--panel", str(panel), "--outdir", str(out)) == 3
    assert "sidecar" in last_error(capsys)
    assert not (tmp_path / "deep").exists()
    assert run_cli("simulate", "--n", "2", "--T", "30", "--outdir", str(out)) == 0
    assert (out / "manifest.json").exists()  # a run that writes makes the nested directory


@pytest.mark.parametrize("what", ["panel", "pnl"])
def test_header_only_file_has_no_data_rows(tmp_path, capsys, what):
    path = write_panel(tmp_path, []) if what == "panel" else write_pnl(tmp_path / "pnl.csv", [])
    assert path.read_text().count("\n") == 1
    with pytest.raises(IngestError, match="no data rows") as err:
        cli._read_table(path, what)
    assert err.value.line == 2
    argv = ["backtest", "--panel"] if what == "panel" else ["mix", "--pnl"]
    out = tmp_path / "out"
    assert run_cli(*argv, str(path), "--outdir", str(out)) == 3
    assert last_error(capsys) == f"error: data: line 2: {what} file has no data rows"
    assert not out.exists()


def read_outcome(read, path):
    """(names, dates, value bytes) of a read, or the message and line it raised."""
    try:
        names, dates, values = read(path, "pnl")
    except IngestError as exc:
        return str(exc), exc.line
    return names, dates, values.shape, values.tobytes()


def dated_rows(days, width, seed):
    rng = np.random.default_rng(seed)
    start = datetime.date(2000, 1, 3)
    return [f"{start + datetime.timedelta(days=i)}," + ",".join(map(repr, row))
            for i, row in enumerate(rng.standard_normal((days, width)).tolist())]


def test_bulk_reader_equals_the_per_cell_reader(tmp_path):
    files = {}
    panel = ReturnsPanel(returns=0.01 * np.random.default_rng(41).standard_normal((300, 4)),
                         asset_classes=("stock",) * 4)
    cli.export_panel(panel, tmp_path / "panel.csv")
    files["exported-panel"] = tmp_path / "panel.csv"
    cli._write_csv(tmp_path / "report.csv", ["date", "a", "b"],
                   np.random.default_rng(42).standard_normal((500, 2)), labels=reference_calendar(500))
    files["report"] = tmp_path / "report.csv"
    files["odd-cells"] = write_pnl(tmp_path / "odd.csv", [
        "2020-01-02, 0.1 ,+1e-3", "2020-01-03,-0.0,1E5", "2020-01-06,1_0,\t7 "])
    good = dated_rows(4000, 2, 43)
    bad_rows = {case: (row, "date" in message or "increasing" in message)
                for case, (_, row, message) in MALFORMED_PNL_ROWS.items()}
    bad_rows.update({"short": ("2000-02-11,0.1", False), "long": ("2000-02-11,0.1,0.2,0.3", False),
                     "text": ("2000-02-11,0.1,abc", False), "repeat": (None, False)})
    # lines and cells that a bulk parser could skip, cut at a comment or unquote
    bad_rows.update({"blank": ("", True), "spaces": ("  \t ", True), "comment": ("# 0.1,0.2", True),
                     "quoted": ('2000-02-11,"0.1",0.2', False),
                     "trailing-comma": ("2000-02-11,0.1,0.2,", False),
                     "comment-cell": ("2000-02-11,0.1,0.2#x", False)})
    expected = {}
    for case, (row, keep_date) in bad_rows.items():
        for index in (3, 3000):
            rows = list(good)
            if row is None:  # the date of the row before
                rows[index] = rows[index - 1].split(",")[0] + "," + rows[index].split(",", 1)[1]
            else:
                rows[index] = row if keep_date else good[index].split(",")[0] + "," + row.split(",", 1)[1]
            files[f"{case}-{index}"] = write_pnl(tmp_path / f"{case}-{index}.csv", rows)
            expected[f"{case}-{index}"] = index + 2
    # a short row and a long one whose cells add up to a rectangle
    rows = list(good)
    rows[5], rows[6] = rows[5] + ",0.5", rows[6].rsplit(",", 1)[0]
    files["ragged-pair"] = write_pnl(tmp_path / "ragged.csv", rows)
    expected["ragged-pair"] = 7
    for name, path in files.items():
        outcome = read_outcome(cli._read_table, path)
        assert outcome == read_outcome(reference_read_table, path), name
        if name in expected:
            assert outcome[1] == expected[name], name
        else:
            assert len(outcome) == 4, name


def test_bulk_writer_equals_the_per_row_writer(tmp_path):
    rng = np.random.default_rng(44)
    extremes = [5e-324, -0.0, 1.7976931348623157e308, 1 / 3, -1e-300]
    for width in (1, 3, 16):
        step = cli._BLOCK_CELLS // width
        assets = [f"asset_{j + 1}" for j in range(width)]
        for days in (step - 1, step, step + 1):
            values = rng.standard_normal((days, width)) * 10.0 ** rng.integers(-9, 9, (days, width))
            values.flat[:len(extremes)] = extremes[:values.size]
            dates = reference_calendar(days)
            for number in ("%.12g", "%r"):
                cases = {
                    "plain": (assets, values.tolist(), {}),
                    "labels": (["date"] + assets, [(d, *row) for d, row in zip(dates, values.tolist())],
                               {"labels": dates}),
                    "keys": (["date", "asset", "position"],
                             [(d, a, x) for d, row in zip(dates, values.tolist())
                              for a, x in zip(assets, row)], {"labels": dates, "keys": assets}),
                }
                for name, (header, rows, kwargs) in cases.items():
                    path = tmp_path / f"{name}.csv"
                    cli._write_csv(path, header, values, number=number, **kwargs)
                    want = reference_csv_text(header, rows, number).encode()
                    assert path.read_bytes() == want, (width, days, number, name)


@pytest.mark.parametrize("n_days", [*range(1, 13), 4000, 30000])
def test_weekday_calendar_equals_the_day_by_day_loop(n_days):
    panel = ReturnsPanel(returns=np.zeros((n_days, 1)), asset_classes=("stock",))
    calendar = panel.calendar()
    assert calendar == reference_calendar(n_days)
    assert all(type(day) is str for day in calendar)


def test_failed_write_leaves_nothing_behind(tmp_path):
    def parts():
        yield "date,a\n"
        yield "2020-01-02,0.1\n"
        raise RuntimeError("formatting failed")

    target = tmp_path / "deep" / "er" / "table.csv"
    with pytest.raises(RuntimeError, match="formatting failed"):
        cli._atomic_write(target, parts())
    assert list(tmp_path.iterdir()) == []  # no .tmp file and no directory made for it
    target.parent.mkdir(parents=True)
    target.write_text("old\n")
    with pytest.raises(RuntimeError, match="formatting failed"):
        cli._atomic_write(target, parts())
    assert [p.name for p in target.parent.iterdir()] == ["table.csv"]
    assert target.read_text() == "old\n"
