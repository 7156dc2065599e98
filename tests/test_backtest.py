import dataclasses
import itertools
import math

import numpy as np
import pytest

from helpers import market_trend_model, rand_spd
from trendlab import backtest as bt
from trendlab import estimation, portfolios, signals, symmat
from trendlab import sharpe_oracle as so
from trendlab.errors import (DegenerateResult, DegenerateVariance, DegenerateVolatility,
                             InsufficientData, InvalidInput, NotPositiveDefinite, TrendlabError,
                             ZeroTargetVector)
from trendlab.market_model import ModelParams, ReturnsPanel, simulate

FAST = dict(signal_rate=0.05, cov_rate=0.05, var_rate=0.05)


def white_panel(seed, days, n, drift=0.0, sigma=1.0):
    rng = np.random.default_rng(seed)
    returns = drift + sigma * rng.standard_normal((days, n))
    return ReturnsPanel(returns=returns, asset_classes=("stock",) * n, seed=seed)


def sharpe_of(pnl):
    """Annualized Sharpe ratio of one P&L series, as BacktestResult.sharpe defines it."""
    return float(pnl.mean()) / float(pnl.std(ddof=1)) * math.sqrt(bt.TRADING_DAYS)


def test_constant_book_on_drifted_noise_recovers_analytic_sharpe():
    params = ModelParams(n=1, drift=np.array([0.05]), noise_cov=np.array([[1.0]]),
                         trend_cov=np.zeros((1, 1)), trend_amp=0.0, trend_decay=0.5)
    panel = simulate(params, 100_000, 0)
    res = bt.run(panel, bt.StrategyConfig(kind="ew", warmup=100, **FAST))
    want = 0.05 * np.sqrt(252)
    se = np.sqrt((1.0 + 0.5 * 0.05**2) / len(res.active_pnl)) * np.sqrt(252)
    assert abs(res.sharpe - want) < 3 * se


def test_zero_strategy_has_undefined_sharpe():
    res = bt.run(white_panel(1, 400, 2), bt.StrategyConfig(kind="zero", warmup=50, **FAST))
    assert np.array_equal(res.pnl, np.zeros(400))
    with pytest.raises(DegenerateResult):
        res.sharpe


def test_every_book_is_a_position_array():
    rng = np.random.default_rng(4)
    k, w, n = 2, 3, 4
    corr = np.stack([np.corrcoef(rng.standard_normal((30, n)), rowvar=False)
                     for _ in range(k)])[:, None]
    vols = rng.uniform(0.5, 2.0, size=(k, w, n))
    sig = rng.standard_normal((k, w, n))
    classes = ("stock", "bond", "stock", "fx")
    for kind, (reads, book) in bt._BOOKS.items():
        pos = book(bt._Segment(corr, sig, vols, classes))
        assert type(pos) is np.ndarray and pos.shape == (k, w, n), kind
        if not reads:  # the pass hands a book that reads nothing corr = None
            assert np.array_equal(book(bt._Segment(None, sig, vols, classes)), pos), kind


def test_panel_must_clear_warmup():
    with pytest.raises(InsufficientData):
        bt.run(white_panel(2, 100, 2), bt.StrategyConfig(kind="ew", warmup=100, **FAST))


def test_strict_causality():
    panel = white_panel(3, 300, 3)
    bumped = panel.returns.copy()
    day = 200
    bumped[day] += 5.0
    cfg = bt.StrategyConfig(kind="nm", warmup=60, **FAST)
    a = bt.run(panel, cfg)
    b = bt.run(ReturnsPanel(returns=bumped, asset_classes=panel.asset_classes), cfg)
    assert np.array_equal(a.positions[: day + 1], b.positions[: day + 1])
    assert not np.array_equal(a.positions[day + 1:], b.positions[day + 1:])


@pytest.mark.parametrize("kind", ["rp", "nm", "arp", "torp", "ew"])
def test_doubling_returns_doubles_pnl(kind):
    panel = white_panel(4, 400, 3, drift=0.01)
    cfg = bt.StrategyConfig(kind=kind, warmup=60, **FAST)
    a = bt.run(panel, cfg)
    b = bt.run(ReturnsPanel(returns=2.0 * panel.returns,
                            asset_classes=panel.asset_classes), cfg)
    scale = np.abs(a.pnl).max()
    assert np.abs(b.pnl - 2.0 * a.pnl).max() < 1e-8 * max(scale, 1.0)
    assert b.sharpe == pytest.approx(a.sharpe, rel=1e-8)


def test_backtest_positions_match_portfolio_constructors():
    """The engine must place exactly the book the constructors define."""
    panel = white_panel(5, 200, 3)
    cfg = bt.StrategyConfig(kind="arp", warmup=50, **FAST)
    res = bt.run(panel, cfg)
    positions, _, _ = reference_run(
        panel, cfg, lambda cfg, corr, vols, sig, classes:
        portfolios.finish(portfolios.agnostic_risk_parity(corr, vols, sig)))
    assert np.abs(positions[50:] - res.positions[50:]).max() < 1e-12


def test_trend_on_market_mode_beats_markowitz():
    params = market_trend_model()
    wins = 0
    for seed in range(3):
        panel = simulate(params, 4000, 100 + seed)
        sh = {}
        for kind in ("torp", "nm"):
            sh[kind] = bt.run(panel, bt.StrategyConfig(kind=kind, cov_rate=0.01)).sharpe
        wins += sh["torp"] > sh["nm"]
    assert wins >= 2


def test_realized_risk_decomposition_is_exact():
    panel = white_panel(7, 400, 3)
    res = bt.run(panel, bt.StrategyConfig(kind="nm", warmup=60, **FAST))
    corr = np.corrcoef(panel.returns[60:], rowvar=False)
    profile = bt.realized_risk(res, corr, panel)
    assert profile.eigenvalues.shape == profile.risks.shape == (3,)
    assert (profile.risks >= 0).all()
    # per-mode contributions sum back to the total P&L
    from trendlab.symmat import eigendecompose
    pairs = eigendecompose(corr)
    rets = panel.returns[60:]
    vols = rets.std(axis=0, ddof=1)
    per_mode = (((res.positions[60:] * vols) @ pairs.eigenvectors)
                * ((rets / vols) @ pairs.eigenvectors))
    assert np.abs(per_mode.sum(axis=1) - res.pnl[60:]).max() < 1e-10


def test_realized_risk_static_book_closed_form():
    rng = np.random.default_rng(8)
    cov = rand_spd(rng, 4)
    panel = ReturnsPanel(returns=rng.standard_normal((5000, 4)) @ np.linalg.cholesky(cov).T,
                         asset_classes=("stock",) * 4)
    res = bt.run(panel, bt.StrategyConfig(kind="ew", warmup=200, **FAST))
    d = 1 / np.sqrt(np.diag(cov))
    corr = cov * np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    profile = bt.realized_risk(res, corr, panel)
    from trendlab.symmat import eigendecompose
    pairs = eigendecompose(corr)
    ones = np.ones(4)
    want = np.abs(pairs.eigenvectors.T @ ones) * np.sqrt(pairs.eigenvalues)
    got = profile.risks / profile.risks.mean()
    assert np.abs(got - want / want.mean()).max() < 0.15


def test_strategy_correlations():
    rng = np.random.default_rng(9)
    a = rng.standard_normal(10_000)
    same = bt.strategy_correlations(np.column_stack([a, a]))
    assert np.allclose(same, np.ones((2, 2)))
    b = rng.standard_normal(10_000)
    corr = bt.strategy_correlations(np.column_stack([a, b]))
    assert abs(corr[0, 1]) < 0.03
    with pytest.raises(DegenerateResult):
        bt.strategy_correlations(np.column_stack([a, np.zeros(10_000)]))


def test_mix_layer_gives_the_same_bits_for_any_layout():
    rng = np.random.default_rng(21)
    # a column selection is column-major
    strided = (rng.standard_normal((3000, 4)) + 0.01)[:, [0, 2, 3]]
    packed = np.ascontiguousarray(strided)
    assert np.array_equal(bt.strategy_correlations(strided), bt.strategy_correlations(packed))
    mixes = bt.optimal_mix(strided), bt.optimal_mix(packed)
    assert np.array_equal(mixes[0].weights, mixes[1].weights)
    assert mixes[0].sharpe == mixes[1].sharpe
    assert np.array_equal(bt.sweep_mix_curve(strided[:, :2])[1],
                          bt.sweep_mix_curve(packed[:, :2])[1])


def grid_oracle(x, step=0.01):
    """Exhaustive simplex-grid search over two or three series, the reference for optimal_mix."""
    x = x / x.std(axis=0, ddof=1)
    k = round(1.0 / step)
    best = -np.inf
    for head in itertools.product(range(k + 1), repeat=x.shape[1] - 1):
        if sum(head) <= k:
            mix = x @ (np.array([k - sum(head), *head]) / k)
            best = max(best, mix.mean() / mix.std(ddof=1) * np.sqrt(252))
    return best


def reference_mix(x, seed=0, starts=16, iters=400):
    """The multi-start projected gradient ascent that optimal_mix replaced.

    Runs on unit-vol columns x from every vertex, the uniform point and
    `starts` Dirichlet draws, and returns the Sharpe ratio the old optimizer
    reported, its tie-break toward the uniform split included.
    """
    def project(v):  # Euclidean projection onto {w >= 0, sum w = 1}
        u = np.sort(v)[::-1]
        css = np.cumsum(u) - 1.0
        rho = np.nonzero(u - css / np.arange(1, len(v) + 1) > 0)[0][-1]
        return np.clip(v - css[rho] / (rho + 1.0), 0.0, None)

    m = x.shape[1]
    rng = np.random.default_rng(seed)
    uniform = np.full(m, 1.0 / m)
    candidates = [uniform, *np.eye(m), *(rng.dirichlet(np.ones(m)) for _ in range(starts))]
    mu, cov = x.mean(axis=0), np.cov(x, rowvar=False, ddof=1)
    best = -np.inf
    for w in candidates:
        step, s_prev = 0.5, bt._mix_sharpe(x, w)
        for _ in range(iters):
            denom = float(w @ cov @ w)
            if denom <= 0.0:
                break
            grad = mu / np.sqrt(denom) - float(mu @ w) * (cov @ w) / denom**1.5
            w_new = project(w + step * grad)
            s_new = bt._mix_sharpe(x, w_new)
            if s_new < s_prev:
                step *= 0.5
                if step < 1e-12:
                    break
                continue
            if s_new - s_prev < 1e-14:
                w = w_new
                break
            w, s_prev = w_new, s_new
        best = max(best, bt._mix_sharpe(x, w))
    at_uniform = bt._mix_sharpe(x, uniform)
    return at_uniform if at_uniform >= best - 1e-12 else best


def test_optimal_mix_identical_series_ties_to_even_split():
    rng = np.random.default_rng(10)
    pnl = rng.standard_normal(5000) + 0.03
    mix = bt.optimal_mix(np.column_stack([pnl, pnl]))
    assert np.allclose(mix.weights, [0.5, 0.5])
    assert mix.sharpe == pytest.approx(sharpe_of(pnl), rel=1e-12)


def test_optimal_mix_dominates_components_and_grid():
    rng = np.random.default_rng(11)
    good = rng.standard_normal(20_000) + 0.0629   # sharpe ~ 1
    noise = rng.standard_normal(20_000)
    third = 0.5 * good + rng.standard_normal(20_000) + 0.03
    for books in ([good, noise], [good, noise, third]):
        x = np.column_stack(books)
        mix = bt.optimal_mix(x)
        assert mix.sharpe >= max(sharpe_of(book) for book in books) - 1e-9
        assert mix.sharpe >= grid_oracle(x) - 1e-6
        assert mix.sharpe >= 1.0 - 0.25  # close to the good component's level


def test_optimal_mix_equal_uncorrelated_components():
    rng = np.random.default_rng(12)
    mu = 0.5  # large mean so the in-sample optimum sits on the population one
    a = rng.standard_normal(200_000) + mu
    b = rng.standard_normal(200_000) + mu
    mix = bt.optimal_mix(np.column_stack([a, b]))
    assert np.abs(mix.weights - 0.5).max() < 0.01
    # exact in-sample optimum of two series: w proportional to inv(cov) mean
    x = np.column_stack([a, b])
    x = x / x.std(axis=0, ddof=1)
    exact = np.linalg.solve(np.cov(x, rowvar=False, ddof=1), x.mean(axis=0))
    exact = exact / exact.sum()
    assert np.abs(mix.weights - exact).max() < 1e-3
    assert mix.sharpe == pytest.approx(np.sqrt(2) * mu * np.sqrt(252), rel=0.05)
    with pytest.raises(InvalidInput):
        bt.optimal_mix(a[:, None])
    with pytest.raises(InvalidInput):  # too few columns is checked before variance
        bt.optimal_mix(np.zeros((10, 1)))
    with pytest.raises(DegenerateResult):
        bt.optimal_mix(np.column_stack([a, np.full(200_000, 1.0)]))


def test_exact_mix_is_never_below_the_gradient_ascent():
    rng = np.random.default_rng(20)
    for trial in range(24):
        m = 2 + trial % 4
        pnl = rng.standard_normal((400, m)) @ rng.standard_normal((m, m))
        pnl += rng.normal(0.0, 0.1, m) - (0.2 if trial % 6 == 1 else 0.0)  # some all negative
        if trial % 3 == 0:
            pnl[:, -1] = pnl[:, 0]  # a duplicate book
        mix = bt.optimal_mix(pnl)
        want = reference_mix(pnl / pnl.std(axis=0, ddof=1), seed=trial)
        assert mix.sharpe >= want - 1e-12 * abs(want), trial
        assert (mix.weights >= 0.0).all() and mix.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_optimal_mix_weights_are_stable_to_pnl_rounding():
    panel = simulate(market_trend_model(n=6, amp=0.1), 700, 11)
    results = bt.run_with_estimates(panel, [bt.StrategyConfig(kind=kind, cov_rate=0.02, warmup=200)
                                            for kind in ("arp", "nm", "ew", "rp", "torp")])[0]
    pnl = np.column_stack([r.active_pnl for r in results])
    base = bt.optimal_mix(pnl)
    assert (base.weights > 0.0).sum() >= 2  # an interior optimum, not a single book
    for draw in range(3):
        rng = np.random.default_rng(draw)
        moved = bt.optimal_mix(pnl * (1.0 + 1e-15 * rng.standard_normal(pnl.shape)))
        assert (np.abs(moved.weights - base.weights) <= 1e-9 * base.weights).all(), draw


def test_mix_invariant_to_component_rescaling():
    rng = np.random.default_rng(15)
    a = rng.standard_normal(20_000) + 0.02
    b = rng.standard_normal(20_000) + 0.04
    base = bt.optimal_mix(np.column_stack([a, b]))
    other = bt.optimal_mix(np.column_stack([137.0 * a, b]))  # same book traded at another size
    assert base.sharpe == pytest.approx(other.sharpe, rel=1e-12)
    assert np.abs(base.weights - other.weights).max() < 1e-12


def test_sweep_mix_curve():
    rng = np.random.default_rng(13)
    a = 0.5 * rng.standard_normal(30_000) + 0.02
    b = 2.0 * rng.standard_normal(30_000) + 0.01
    pair = np.column_stack([a, b])
    grid, sharpes = bt.sweep_mix_curve(pair, step=0.01)
    assert len(grid) == 101 and grid[0] == 0.0 and grid[-1] == 1.0
    assert sharpes[0] == pytest.approx(sharpe_of(a), rel=1e-12)
    assert sharpes[-1] == pytest.approx(sharpe_of(b), rel=1e-12)
    assert np.abs(np.diff(sharpes)).max() < 0.1
    mix = bt.optimal_mix(pair)
    assert mix.sharpe >= sharpes.max() - 1e-9
    assert abs(mix.weights[1] - grid[np.argmax(sharpes)]) <= 0.01 + 1e-9
    # a step that does not divide 1 keeps its last multiple below 1, then adds 1
    for step, want in ((0.3, [0.0, 0.3, 0.6, 0.9, 1.0]),
                       (0.07, [0.07 * k for k in range(15)] + [1.0])):  # 0.98 kept
        grid, sharpes = bt.sweep_mix_curve(pair, step=step)
        assert len(grid) == len(want) and grid[-1] == 1.0
        assert np.allclose(grid, want, rtol=0.0, atol=1e-12)
        assert sharpes[-1] == pytest.approx(sharpe_of(b), rel=1e-12)
    with pytest.raises(InvalidInput):
        bt.sweep_mix_curve(np.column_stack([a, b, a]))
    for step in (0.0, 0.6, "0.1", True):
        with pytest.raises(InvalidInput):
            bt.sweep_mix_curve(pair, step=step)
    with pytest.raises(DegenerateResult):
        bt.sweep_mix_curve(np.column_stack([a, np.zeros_like(a)]))


def test_estimate_correlation_shape():
    panel = white_panel(14, 300, 3)
    corr = bt.pipeline_estimates(panel, bt.StrategyConfig(kind="ew", **FAST))[0]
    assert np.abs(np.diag(corr) - 1.0).max() < 1e-10
    assert np.array_equal(corr, corr.T)


def test_strategy_config_validation():
    with pytest.raises(InvalidInput):
        bt.StrategyConfig(kind="bogus")
    with pytest.raises(InvalidInput):
        bt.StrategyConfig(kind="ew", cleaner="magic")
    with pytest.raises(InvalidInput):
        bt.StrategyConfig(kind="ew", warmup=2, week_len=5)
    for bad in (dict(warmup=50.5), dict(warmup=True, week_len=1), dict(week_len=True),
                dict(week_len=5.0), dict(week_len="5")):
        with pytest.raises(InvalidInput):
            bt.StrategyConfig(kind="ew", **bad)
    assert bt.StrategyConfig(kind="ew", week_len=np.int64(5), warmup=np.int32(50)).warmup_days() == 50
    assert bt.StrategyConfig(kind="ew").warmup_days() == 7500
    assert bt.StrategyConfig(kind="ew", signal_rate=0.01, cov_rate=0.01).warmup_days() == 1000


@pytest.mark.parametrize("bad", [
    dict(signal_rate=0.0), dict(signal_rate=1.0), dict(cov_rate=0.0), dict(cov_rate=2.0, warmup=50),
    dict(var_rate=0.0), dict(var_rate=-0.1), dict(var_rate=1.0), dict(signal_rate="0.01"),
    dict(cov_rate=True, warmup=50),
], ids=str)
def test_strategy_config_rejects_bad_rates(bad):
    with pytest.raises(InvalidInput):
        bt.StrategyConfig(kind="arp", **bad)


def reference_book(cfg, corr, vols, sig, classes, ridge=None):
    """One day's positions by the eigen-inverse formulas the constructors used
    before they moved to LU solves on a symmat.System, so the engine is not compared
    with itself."""
    if cfg.kind == "zero":
        return np.zeros(len(vols))
    if cfg.kind in ("ew", "arp") and vols.min() <= 0.0:
        raise DegenerateVolatility(f"non-positive volatility {vols.min():.3e}")
    held = portfolios.class_target(classes)
    if cfg.kind in ("rp", "torp") and not held.any():
        raise ZeroTargetVector("all-FX universe has no risk-parity target")
    target = vols * held
    cov = corr * np.outer(vols, vols)
    if cfg.kind == "ew":
        raw = 1.0 / vols
    elif cfg.kind == "arp":
        raw = (symmat.inv_sqrt(corr, ridge) @ (sig / vols)) / vols
    else:
        inv = symmat.inverse(cov, ridge)
        raw = {"nm": inv @ sig, "rp": inv @ target,
               "torp": float(target @ inv @ sig) * (inv @ target)}[cfg.kind]
    gross = np.abs(raw).sum()
    return raw / gross if gross > 0.0 else raw


def listed_book(cfg, corr, vols, sig, classes):
    """reference_book, exact on days when some assets are flat (zero vol).

    A flat asset's covariance row is exactly zero, so the ridge-shifted inverse
    holds it at zero and trades the listed assets at the full universe's
    ridge.  The per-day eigen-inverse misses that book by about 1e-8.
    """
    listed = vols > 0.0
    if cfg.kind not in ("nm", "rp", "torp") or listed.all() or not listed.any():
        return reference_book(cfg, corr, vols, sig, classes)
    ridge = symmat.DEFAULT_RIDGE_SCALE * float(vols @ vols) / len(vols)
    positions = np.zeros(len(vols))
    positions[listed] = reference_book(
        cfg, corr[np.ix_(listed, listed)], vols[listed], sig[listed],
        tuple(c for c, keep in zip(classes, listed) if keep), ridge)
    return positions


def reference_run(panel, cfg, book=reference_book):
    """Per-day engine: positions, P&L and the final (corr, vols) of the estimators,
    which take one day (and one week) at a time, the one-day case of the path functions."""
    n_days, n = panel.returns.shape
    warmup, week = cfg.warmup_days(), cfg.week_len
    sig, variances, cov = np.zeros(n), None, None
    ratio = estimation.default_sample_ratio(n, cfg.cov_rate)
    clean = estimation.CLEANERS[cfg.cleaner]
    positions, pnl, corr = np.zeros((n_days, n)), np.zeros(n_days), None
    for t in range(1, n_days + 1):
        r = panel.returns[t - 1]
        if t > warmup:
            positions[t - 1] = book(cfg, corr, np.sqrt(variances), sig, panel.asset_classes)
            pnl[t - 1] = r @ positions[t - 1]
        sig = signals.update(sig, r[None], cfg.signal_rate)[1]
        variances = estimation.update_daily(variances, r[None], cfg.var_rate)[1]
        if t % week == 0:
            weekly = panel.returns[t - week:t].sum(axis=0)
            cov = estimation.roll_week(cov, weekly[None], cfg.cov_rate)[1]
            corr = clean(estimation.correlation(cov), ratio)
    return positions, pnl, (clean(estimation.correlation(cov), ratio), np.sqrt(variances))


def factor_panel(seed, days, classes):
    """Correlated returns: one common factor plus idiosyncratic noise."""
    rng = np.random.default_rng(seed)
    n = len(classes)
    returns = 0.6 * rng.standard_normal((days, 1)) + rng.standard_normal((days, n))
    returns *= np.linspace(0.5, 2.0, n)
    return ReturnsPanel(returns=returns + 0.02, asset_classes=classes, seed=seed)


EQUIVALENCE_BOUND = 1e-10  # times max |position| of the per-day engine
ENGINE_CLASSES = ("stock", "stock", "bond", "fx")


@pytest.mark.parametrize("cleaner", ["rie", "clip", "none"])
@pytest.mark.parametrize("week_len", [1, 5])
def test_blocked_engine_matches_per_day_constructors(cleaner, week_len):
    panel = factor_panel(16, 240, ENGINE_CLASSES)
    configs = [bt.StrategyConfig(kind=kind, cleaner=cleaner, week_len=week_len, warmup=63, **FAST)
               for kind in bt.STRATEGY_KINDS]
    for cfg, res in zip(configs, bt.run_with_estimates(panel, configs)[0]):
        positions, pnl, _ = reference_run(panel, cfg)
        bound = EQUIVALENCE_BOUND * np.abs(positions).max()
        assert np.abs(res.positions - positions).max() <= bound, cfg.kind
        assert np.abs(res.pnl - pnl).max() <= bound, cfg.kind
        assert res.warmup == 63 and res.strategy == cfg.kind
    corr, vols = bt.pipeline_estimates(panel, configs[0])
    _, _, (want_corr, want_vols) = reference_run(panel, configs[0])
    assert np.array_equal(corr, want_corr) and np.array_equal(vols, want_vols)


@pytest.mark.parametrize("week_len", [1, 5, 7])
def test_chunked_engine_matches_per_day_constructors(week_len):
    """Several chunks, a ragged first block after warm-up and a ragged last block."""
    panel = factor_panel(25, 2 * bt._CHUNK_DAYS + 45, ENGINE_CLASSES)
    configs = [bt.StrategyConfig(kind=kind, week_len=week_len, warmup=66, **FAST)
               for kind in bt.STRATEGY_KINDS]
    for cfg, res in zip(configs, bt.run_with_estimates(panel, configs)[0]):
        positions, pnl, _ = reference_run(panel, cfg)
        bound = EQUIVALENCE_BOUND * np.abs(positions).max()
        assert np.abs(res.positions - positions).max() <= bound, cfg
        assert np.abs(res.pnl - pnl).max() <= bound, cfg
    corr, vols = bt.pipeline_estimates(panel, configs[0])
    _, _, (want_corr, want_vols) = reference_run(panel, configs[0])
    assert np.array_equal(corr, want_corr) and np.array_equal(vols, want_vols)


def counted_cleans(monkeypatch):
    """The stack size of every call of the rie cleaner, appended as it happens."""
    clean = estimation.CLEANERS["rie"]
    stacks = []
    monkeypatch.setitem(estimation.CLEANERS, "rie",
                        lambda corr, ratio: stacks.append(len(corr)) or clean(corr, ratio))
    return stacks


@pytest.mark.parametrize("days", [4000, 4003])  # the desk panel's size, and a ragged last block
def test_estimator_pass_cleans_each_needed_roll_once_per_chunk(monkeypatch, days):
    week, warmup = 5, 20  # every roll but three needed
    panel = white_panel(24, days, 16)
    stacks = counted_cleans(monkeypatch)
    bt.run_with_estimates(panel, [bt.StrategyConfig(kind=kind, warmup=warmup, **FAST)
                                  for kind in bt.STRATEGY_KINDS])
    assert 1 <= len(stacks) <= math.ceil(days / bt._CHUNK_DAYS) + 1
    assert max(stacks) <= bt._CHUNK_DAYS // week + 2  # chunking bounds every stack
    assert sum(stacks) == sum(1 for day in range(week, days + 1, week) if day + week > warmup)
    stacks.clear()
    bt.pipeline_estimates(panel, bt.StrategyConfig(kind="ew", warmup=warmup, **FAST))
    assert stacks == [1]  # no book reads a correlation: only the last roll is cleaned
    stacks.clear()
    monkeypatch.setitem(bt._BOOKS, "signal", (False, lambda seg: seg.signals))
    bt.run(panel, bt.StrategyConfig(kind="signal", warmup=warmup, **FAST))
    assert stacks == [1]  # a row that reads nothing is not cleaned for, whatever its kind


def test_pipeline_estimates_on_panels_of_at_most_a_week(monkeypatch):
    """Shorter than a week there is no roll; at exactly a week its one roll is cleaned."""
    cfg = bt.StrategyConfig(kind="ew", warmup=5, **FAST)
    with pytest.raises(DegenerateVariance):
        bt.pipeline_estimates(white_panel(28, 3, 4), cfg)
    stacks = counted_cleans(monkeypatch)
    panel = white_panel(28, 5, 4)
    corr, vols = bt.pipeline_estimates(panel, cfg)
    assert stacks == [1]
    _, _, (want_corr, want_vols) = reference_run(panel, cfg)
    assert np.array_equal(corr, want_corr) and np.array_equal(vols, want_vols)


def late_listing_panel():
    panel = factor_panel(17, 240, ENGINE_CLASSES)
    panel.returns[:100, 1] = 0.0
    return panel


@pytest.mark.parametrize("panel", [
    late_listing_panel(),
    ReturnsPanel(returns=np.zeros((120, 3)), asset_classes=("stock",) * 3),
    factor_panel(18, 120, ("fx",) * 3),
], ids=["late-listing", "all-zero", "all-fx"])
@pytest.mark.parametrize("kind", bt.STRATEGY_KINDS)
def test_blocked_engine_fails_like_per_day_constructors(panel, kind):
    cfg = bt.StrategyConfig(kind=kind, warmup=63, **FAST)
    try:
        positions, pnl, _ = reference_run(panel, cfg, listed_book)
    except TrendlabError as exc:
        with pytest.raises(type(exc)):
            bt.run(panel, cfg)
        return
    res = bt.run(panel, cfg)
    bound = EQUIVALENCE_BOUND * np.abs(positions).max()
    assert np.abs(res.positions - positions).max() <= bound
    assert np.abs(res.pnl - pnl).max() <= bound


ALL_FX_PANEL = factor_panel(18, 120, ("fx",) * 3)
ZERO_FX_PANEL = ReturnsPanel(returns=np.zeros((120, 3)), asset_classes=("fx",) * 3)


@pytest.mark.parametrize("panel,kinds,error", [
    (ALL_FX_PANEL, ("nm", "ew", "torp"), ZeroTargetVector),
    (ALL_FX_PANEL, ("arp", "nm", "ew"), None),
    (late_listing_panel(), ("nm", "arp"), DegenerateVolatility),
    (ZERO_FX_PANEL, ("rp", "nm"), ZeroTargetVector),
    (ZERO_FX_PANEL, ("nm", "rp"), NotPositiveDefinite),
    (ZERO_FX_PANEL, ("zero", "ew", "nm"), DegenerateVolatility),
], ids=["all-fx-torp", "all-fx-no-rp-book", "late-listing-arp", "zero-fx-rp-first",
        "zero-fx-nm-first", "zero-fx-ew-first"])
def test_a_pass_of_several_books_fails_like_its_first_failing_book(panel, kinds, error):
    """The first book in config order whose one-book run fails decides the pass's error,
    though RP's class-target check and NM's positive-definite check share one system."""
    configs = [bt.StrategyConfig(kind=kind, warmup=63, **FAST) for kind in kinds]
    failures = []
    for cfg in configs:
        try:
            bt.run(panel, cfg)
        except TrendlabError as exc:
            failures.append(type(exc))
    assert (failures[0] if failures else None) is error
    if error is not None:
        with pytest.raises(error):
            bt.run_with_estimates(panel, configs)
        return
    for cfg, res in zip(configs, bt.run_with_estimates(panel, configs)[0]):
        assert np.array_equal(res.positions, bt.run(panel, cfg).positions), cfg.kind


def counted_linalg(monkeypatch, name):
    """The days of every matrix stack passed to np.linalg.<name>, one entry per call."""
    original = getattr(np.linalg, name)
    days = []
    monkeypatch.setattr(np.linalg, name, lambda a, *args: days.append(math.prod(a.shape[:-2]))
                        or original(a, *args))
    return days


def test_books_of_a_segment_share_one_checked_system(monkeypatch):
    """NM, RP and ToRP solve against one Cholesky-tested covariance per segment, and
    RP's system is solved once for both RP and ToRP; ARP, EW and zero test none."""
    panel = factor_panel(29, 2 * bt._CHUNK_DAYS + 45, ENGINE_CLASSES)
    warmup = 66
    cholesky, solves = counted_linalg(monkeypatch, "cholesky"), counted_linalg(monkeypatch, "solve")
    for kinds, systems in ((("nm", "rp", "torp"), 2), (("torp", "nm"), 2), (("rp", "torp"), 1),
                           (("nm",), 1), (("arp", "ew", "zero"), 0)):
        cholesky.clear()
        solves.clear()
        configs = [bt.StrategyConfig(kind=kind, warmup=warmup, **FAST) for kind in kinds]
        bt.run_with_estimates(panel, configs)
        # every active day's covariance is tested once, in one call per segment
        assert sum(cholesky) == (panel.n_days - warmup if systems else 0), kinds
        assert len(solves) == systems * len(cholesky), kinds
        assert sum(solves) == systems * sum(cholesky), kinds


def test_run_with_estimates_equals_one_run_per_config():
    panel = factor_panel(19, 300, ENGINE_CLASSES)
    configs = [bt.StrategyConfig(kind=kind, warmup=63, **FAST)
               for kind in ("nm", "ew", "arp", "torp", "rp", "zero", "nm")]
    for cfg, res in zip(configs, bt.run_with_estimates(panel, configs)[0]):
        one = bt.run(panel, cfg)
        assert np.array_equal(res.positions, one.positions)
        assert np.array_equal(res.pnl, one.pnl)
        assert (res.warmup, res.strategy) == (one.warmup, one.strategy)


def test_books_of_one_call_share_one_setting(monkeypatch):
    """Books that differ only in kind share the call's one pass; any other knob, the
    warm-up included, raises before a pass runs."""
    passes = []
    estimator_pass = bt._estimator_pass
    monkeypatch.setattr(bt, "_estimator_pass", lambda panel, setting, books:
                        passes.append(len(books)) or estimator_pass(panel, setting, books))
    panel = factor_panel(27, 240, ENGINE_CLASSES)
    base = bt.StrategyConfig(kind="nm", warmup=20, **FAST)
    bt.run_with_estimates(panel, [base, dataclasses.replace(base, kind="ew")])
    assert passes == [2]
    passes.clear()
    others = [dict(signal_rate=0.1), dict(cov_rate=0.1), dict(var_rate=0.1),
              dict(cleaner="clip"), dict(week_len=4), dict(warmup=40)]
    for knob in others:
        with pytest.raises(InvalidInput, match="'nm' and 'ew'"):
            bt.run_with_estimates(panel, [base, dataclasses.replace(base, kind="ew", **knob)])
    assert passes == []
    default = dataclasses.replace(base, warmup=None)  # the same warm-up, spelled out or not
    bt.run_with_estimates(panel, [default, dataclasses.replace(default, warmup=200)])
    assert passes == [2]


GATE_DAYS, GATE_BATCH = 300_000, 1000


@pytest.mark.parametrize("model,weights", [
    (ModelParams(2, np.array([0.02, -0.01]), np.array([[1.0, 0.3], [0.3, 0.8]]),
                 np.array([[0.5, 0.1], [0.1, 0.4]]), 0.4, 0.1),
     np.array([[1.0, -0.3], [0.2, 0.7]])),
    (ModelParams(3, np.array([0.1, -0.08, 0.06]),
                 np.array([[1.0, 0.2, -0.1], [0.2, 0.9, 0.3], [-0.1, 0.3, 1.1]]),
                 np.array([[0.4, 0.1, 0.0], [0.1, 0.3, 0.05], [0.0, 0.05, 0.5]]), 0.2, 0.1),
     np.array([[0.8, -0.2, 0.1], [0.3, 0.6, -0.2], [-0.1, 0.2, 0.9]])),
], ids=["trend", "trend-and-drift"])
def test_engine_pnl_has_the_oracle_stationary_moments(monkeypatch, model, weights):
    """The generator, the signal path and the engine's P&L line keep the oracle's day
    convention: a fixed weight matrix traded through the engine (positions W s,
    unnormalized) earns, past warm-up, the oracle's stationary P&L mean and variance.
    Batches of 1000 days, 50 signal lifetimes, give the standard errors.  One-day-late
    positions put the mean at z = -7.2 (trend) and -4.6 (trend-and-drift); against an
    oracle without the drift, trend-and-drift's mean sits at z = 11."""
    monkeypatch.setitem(bt._BOOKS, "fixed", (False, lambda seg: seg.signals @ weights.T))
    cfg = bt.StrategyConfig(kind="fixed", signal_rate=0.05, cov_rate=0.05, warmup=2000)
    pnl = bt.run(simulate(model, GATE_DAYS, 1), cfg).active_pnl
    mean, variance = so.moments(so.pnl_moment_tensors(model, cfg.signal_rate, None), weights)
    for x, want in ((pnl, mean), ((pnl - mean) ** 2, variance)):
        batches = x[: len(x) // GATE_BATCH * GATE_BATCH].reshape(-1, GATE_BATCH).mean(axis=1)
        z = (batches.mean() - want) / (batches.std(ddof=1) / np.sqrt(len(batches)))
        assert abs(z) < 3, z
