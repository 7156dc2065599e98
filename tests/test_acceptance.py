"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Monte-Carlo checks use frozen seeds; stated runtime budgets are
asserted alongside the numerical tolerances.
"""

import datetime
import json
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from helpers import (
    market_trend_model,
    mode_profile_model,
    rand_spd,
    stationary_correlation,
)
from trendlab import backtest as bt
from trendlab import cli, estimation, herding, portfolios as pf, sharpe_oracle as so
from trendlab import symmat
from trendlab.market_model import ModelParams, simulate, stationary_covariance
from trendlab.symmat import System


def report(num, name, ok, detail):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_oracle_consistency():
    start = time.time()
    rng = np.random.default_rng(2024)
    rate, t = 0.01, 500
    worst_residual, worst_ratio, models = 0.0, 1.0, 0
    for n in (1, 2, 3):
        for _ in range(7):
            model = so.sample_weak_trend_model(rng, n, rate=rate, t=t)
            mm = so.pnl_moment_tensors(model, rate, t)
            closed = so.approx_optimal(mm, form="simple")
            exact = so.brute_force_optimal(mm)
            worst_residual = max(worst_residual, so.stationarity_residual(mm, closed))
            ratio = so.squared_sharpe(mm, closed) / so.squared_sharpe(mm, exact)
            worst_ratio = min(worst_ratio, ratio)
            models += 1
    elapsed = time.time() - start
    ok = models >= 20 and worst_residual < 0.05 and worst_ratio >= 0.9 and elapsed < 60
    report(1, "oracle consistency", ok,
           f"{models} models, worst residual {worst_residual:.4f}, "
           f"worst ratio {worst_ratio:.4f}, {elapsed:.1f}s")


def test_criterion_2_moment_correctness():
    start = time.time()
    rng = np.random.default_rng(7)
    rate, t, draws = 0.05, 12, 1_000_000
    worst_z = 0.0
    for _ in range(5):
        model = ModelParams(n=2, drift=rng.uniform(-0.1, 0.1, size=2),
                            noise_cov=rand_spd(rng, 2), trend_cov=rand_spd(rng, 2, 0.5),
                            trend_amp=rng.uniform(0.3, 0.6), trend_decay=rng.uniform(0.05, 0.2))
        w = rng.standard_normal((2, 2))
        mean, var = so.moments(so.pnl_moment_tensors(model, rate, t), w)

        noise_chol = np.linalg.cholesky(model.noise_cov)
        shock_chol = np.linalg.cholesky(model.trend_cov)
        keep_s, keep_a = 1.0 - rate, 1.0 - model.trend_decay
        sig = np.zeros((draws, 2))
        trend = np.zeros((draws, 2))
        r = None
        for step in range(1, t + 1):
            eps = rng.standard_normal((draws, 2)) @ noise_chol.T
            r = model.drift + eps + model.trend_amp * trend
            if step < t:
                sig = keep_s * sig + r
                trend = keep_a * trend + rng.standard_normal((draws, 2)) @ shock_chol.T
        pnl = np.einsum("ri,ij,rj->r", r, w, sig)
        mc_mean, mc_var = pnl.mean(), pnl.var(ddof=1)
        se_mean = pnl.std(ddof=1) / np.sqrt(draws)
        m4 = ((pnl - mc_mean) ** 4).mean()
        se_var = np.sqrt((m4 - mc_var**2) / draws)
        worst_z = max(worst_z, abs(mean - mc_mean) / se_mean, abs(var - mc_var) / se_var)
    elapsed = time.time() - start
    ok = worst_z < 3.0 and elapsed < 120
    report(2, "moment correctness", ok, f"worst |z| {worst_z:.2f} over 5 models, {elapsed:.1f}s")


def test_criterion_3_portfolio_identities():
    rng = np.random.default_rng(5)
    n = 6
    eye = np.eye(n)
    ones = np.ones(n)
    classes = ("stock",) * n
    worst_nm, worst_cos = 0.0, 1.0
    for _ in range(100):
        s = rng.standard_normal(n)
        nm = pf.naive_markowitz(System(eye, 0.0), s)
        arp = pf.agnostic_risk_parity(eye, ones, s, ridge=0.0)
        worst_nm = max(worst_nm, float(np.abs(nm - arp).max()))
        rp = pf.risk_parity(System(eye, 0.0), ones, classes)
        torp = pf.trend_on_risk_parity(System(eye, 0.0), ones, s, classes)
        cos = abs(rp @ torp) / (np.linalg.norm(rp) * np.linalg.norm(torp))
        worst_cos = min(worst_cos, cos)
    ok = worst_nm < 1e-12 and abs(worst_cos - 1.0) < 1e-10
    report(3, "portfolio identities", ok,
           f"max |NM-ARP| {worst_nm:.2e}, worst |cos(RP,ToRP)| deviation {abs(worst_cos-1):.2e}")


def test_criterion_4_eigenmode_risk_profile():
    start = time.time()
    rate = 0.005
    params = mode_profile_model(n=10, signal_rate=rate)
    panel = simulate(params, 50_000, 12)
    corr = stationary_correlation(params)
    kinds = ("arp", "nm", "ew")
    configs = [bt.StrategyConfig(kind=kind, signal_rate=rate, cov_rate=1 / 3750.0, week_len=1)
               for kind in kinds]
    profiles = {kind: bt.realized_risk(result, corr, panel)
                for kind, result in zip(kinds, bt.run_with_estimates(panel, configs)[0])}

    arp = profiles["arp"].risks / profiles["arp"].risks.mean()
    flat_ok = arp.min() > 0.75 and arp.max() < 1.25
    rho_nm, p_nm = spearmanr(profiles["nm"].eigenvalues, profiles["nm"].risks)
    rho_ew, p_ew = spearmanr(profiles["ew"].eigenvalues, profiles["ew"].risks)
    nm_ok = rho_nm < 0 and p_nm / 2 < 0.05
    ew_ok = rho_ew > 0 and p_ew / 2 < 0.05
    elapsed = time.time() - start
    ok = flat_ok and nm_ok and ew_ok and elapsed < 300
    report(4, "eigenmode risk profile", ok,
           f"ARP range [{arp.min():.2f},{arp.max():.2f}], "
           f"NM rho {rho_nm:+.2f} p {p_nm/2:.1e}, EW rho {rho_ew:+.2f} p {p_ew/2:.1e}, "
           f"{elapsed:.0f}s")


def test_criterion_5_strategy_ordering():
    start = time.time()
    params = market_trend_model()
    wins = 0
    for seed in range(20):
        panel = simulate(params, 6000, 100 + seed)
        torp, nm = bt.run_with_estimates(panel, [bt.StrategyConfig(kind=kind, cov_rate=0.01)
                                                 for kind in ("torp", "nm")])[0]
        wins += torp.sharpe > nm.sharpe
    elapsed = time.time() - start
    ok = wins >= 19
    report(5, "strategy ordering", ok, f"ToRP beat NM on {wins}/20 seeds, {elapsed:.0f}s")


def test_criterion_6_generator_fidelity():
    start = time.time()
    noise = np.array([[1.0, 0.35, 0.1], [0.35, 1.2, -0.2], [0.1, -0.2, 0.8]])
    trend = np.array([[0.4, 0.1, 0.0], [0.1, 0.3, 0.05], [0.0, 0.05, 0.5]])
    params = ModelParams(n=3, drift=np.array([0.01, -0.005, 0.02]),
                         noise_cov=noise, trend_cov=trend,
                         trend_amp=0.25, trend_decay=0.05)
    panel = simulate(params, 50_000, 321)
    x = panel.returns[params.burn_in():]
    x = x - x.mean(axis=0)
    blocks, worst_z = 50, 0.0
    for lag in (0, 1, 5, 20):
        prods = np.einsum("ti,tj->tij", x[lag:], x[: len(x) - lag])
        usable = (len(prods) // blocks) * blocks
        block_means = prods[:usable].reshape(blocks, -1, 3, 3).mean(axis=1)
        est = block_means.mean(axis=0)
        se = block_means.std(axis=0, ddof=1) / np.sqrt(blocks)
        z = np.abs(est - stationary_covariance(params, lag)) / se
        worst_z = max(worst_z, float(z.max()))
    elapsed = time.time() - start
    ok = worst_z < 3.0
    report(6, "generator fidelity", ok,
           f"worst |z| {worst_z:.2f} over lags 0,1,5,20, {elapsed:.0f}s")


def test_criterion_7_herding_transition():
    start = time.time()
    base = herding.AgentSimParams(agents=1000, strategies=50, coupling=0.0,
                                  steps=50, reps=100, seed=7)
    result = herding.run(base)
    n_inv = 1.0 / 50
    se0 = np.sqrt(n_inv * (1 - n_inv) / (1000 * 100))
    uniform_ok = np.abs(result.mean_fraction[0] - n_inv).max() < 3 * se0
    counts_ok = (result.counts.sum(axis=2) == 1000).all()
    sum_ok = np.abs(result.mean_fraction.sum(axis=1) - 1.0).max() < 1e-12

    grid = np.arange(0.0, 4.5, 0.5)
    curve = herding.transition_curve(base, grid)
    low_ok = n_inv <= curve.max_fraction[0] < n_inv + 0.02
    high_ok = curve.max_fraction[-1] > 0.9
    monotone_ok = all(
        curve.max_fraction[i + 1] >= curve.max_fraction[i]
        - 2 * (curve.stderr[i] + curve.stderr[i + 1])
        for i in range(len(grid) - 1)
    )
    elapsed = time.time() - start
    ok = uniform_ok and counts_ok and sum_ok and low_ok and high_ok and monotone_ok and elapsed < 300
    report(7, "herding transition", ok,
           f"I(0) uniform {uniform_ok}, exact counts {counts_ok}, "
           f"max at j=0 {curve.max_fraction[0]:.3f}, at j=4 {curve.max_fraction[-1]:.3f}, "
           f"monotone {monotone_ok}, {elapsed:.0f}s")


def test_criterion_8_numerics():
    start = time.time()
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 51))
        m = rand_spd(rng, dim)
        ridge = 0.0
        inv = symmat.inverse(m, ridge)
        root = symmat.inv_sqrt(m, ridge)
        worst = max(worst,
                    float(np.abs(inv @ m - np.eye(dim)).max()),
                    float(np.abs(root @ m @ root - np.eye(dim)).max()))
    products_ok = worst < 1e-8

    contracted = 0
    n, t_eff = 40, 120
    for _ in range(100):
        x = rng.standard_normal((t_eff, n))
        x = x - x.mean(axis=0)
        s = x.T @ x / t_eff
        d = 1 / np.sqrt(np.diag(s))
        corr = s * np.outer(d, d)
        np.fill_diagonal(corr, 1.0)
        cleaned = estimation.rie_clean(corr, n / t_eff)
        raw = np.linalg.eigvalsh(corr)
        new = np.linalg.eigvalsh(cleaned)
        contracted += (new.max() - new.min()) < (raw.max() - raw.min())
    elapsed = time.time() - start
    ok = products_ok and contracted == 100
    report(8, "numerics", ok,
           f"worst inverse defect {worst:.2e} over 1000 matrices, "
           f"RIE contraction {contracted}/100, {elapsed:.0f}s")


def test_criterion_9_pipeline_determinism(tmp_path):
    start = time.time()
    fast = ["--eta", "0.05", "--eta-cov", "0.05", "--eta-var", "0.05", "--warmup", "60"]
    sim_dir = tmp_path / "panel_src"
    assert cli.main(["simulate", "--n", "2", "--T", "240", "--seed", "3",
                     "--trend-amp", "0.1", "--outdir", str(sim_dir)]) == 0
    panel = str(sim_dir / "panel.csv")

    rng = np.random.default_rng(1)
    pnl_path = tmp_path / "pnl_src.csv"
    day = datetime.date(2000, 1, 3)
    rows = ["date,a,b"] + [
        f"{day + datetime.timedelta(days=i)},{float(x)!r},{float(y)!r}"
        for i, (x, y) in enumerate(rng.standard_normal((250, 2)) + 0.03)
    ]
    pnl_path.write_text("\n".join(rows) + "\n")

    commands = {
        "simulate": ["simulate", "--n", "3", "--T", "120", "--seed", "11"],
        "backtest": ["backtest", "--panel", panel, "--strategy", "ew,nm", *fast, "--seed", "4"],
        "eigenrisk": ["eigenrisk", "--panel", panel, "--strategy", "ew,nm", *fast],
        "oracle": ["oracle", "--n", "2", "--t", "40", "--models", "2", "--seed", "5"],
        "agents": ["agents", "--A", "50", "--N", "8", "--T", "10", "--M", "4",
                   "--jgrid", "0:1:3", "--seed", "6"],
        "mix": ["mix", "--pnl", str(pnl_path), "--pair", "a,b", "--grid", "0.05"],
    }
    mismatches = []
    for name, argv in commands.items():
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        assert cli.main(argv + ["--outdir", str(out_a)]) == 0
        assert cli.main(argv + ["--outdir", str(out_b)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        if files_a != files_b:
            mismatches.append(f"{name}: file sets differ")
            continue
        for fname in files_a:
            if (out_a / fname).read_bytes() != (out_b / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    elapsed = time.time() - start
    ok = not mismatches
    report(9, "pipeline determinism", ok,
           f"{len(commands)} commands byte-identical, {elapsed:.0f}s"
           if ok else f"mismatches: {mismatches}")
