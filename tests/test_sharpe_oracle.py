import collections
import hashlib

import numpy as np
import pytest

from helpers import rand_spd
from trendlab import cli
from trendlab import portfolios as pf
from trendlab import sharpe_oracle as so
from trendlab.errors import DegenerateForm, InvalidInput, TooEarly
from trendlab.market_model import ModelParams


def strong_model(rng, n):
    """Model with sizable trend and drift, outside any approximation regime."""
    return ModelParams(n=n, drift=rng.uniform(-0.1, 0.1, size=n),
                       noise_cov=rand_spd(rng, n), trend_cov=rand_spd(rng, n, 0.5),
                       trend_amp=rng.uniform(0.3, 0.7), trend_decay=rng.uniform(0.05, 0.2))


def geometric_kernels(rate, amp, decay, t):
    """Independent closed forms for the equal-time kernel products."""
    p, q = 1.0 - rate, 1.0 - decay

    def geo(x, terms):
        return x * (1.0 - x**terms) / (1.0 - x)

    e = t - 2
    ss = (1.0 - p ** (2 * (t - 1))) / (1.0 - p * p)
    aa = amp * amp * (1.0 - q ** (2 * (t - 1))) / (1.0 - q * q)
    mass = (1.0 - p ** (t - 1)) / rate
    saas = amp * amp / (p - q) ** 2 * (geo(p * p, e) - 2 * geo(p * q, e) + geo(q * q, e))
    saa = amp * amp / (p - q) * (geo(p * q, e) - geo(q * q, e))
    return ss, aa, saas, saa, mass


def test_kernels_vanish_without_trend():
    kv = so.compute_kernels(0.01, 0.0, 0.02, 100)
    assert kv.noise_trend == kv.trend_noise == kv.trend_trend == kv.trend_cross == 0.0
    assert kv.g_trend_left == kv.g_trend_right == 0.0
    assert kv.trend_gain == 0.0


def test_kernels_first_step():
    kv = so.compute_kernels(0.37, 0.8, 0.02, 2)
    assert kv.noise_noise == 1.0
    assert kv.signal_mass == 1.0
    assert kv.g_drift_right == 1.0


def test_kernels_match_geometric_closed_forms():
    rate, amp, decay, t = 0.01, 0.8, 0.02, 500
    kv = so.compute_kernels(rate, amp, decay, t)
    ss, aa, saas, saa, mass = geometric_kernels(rate, amp, decay, t)
    assert kv.noise_noise == pytest.approx(ss, rel=1e-10)
    assert kv.noise_trend == pytest.approx(saas, rel=1e-10)
    assert kv.trend_noise == pytest.approx(ss * aa, rel=1e-10)
    assert kv.trend_trend == pytest.approx(saas * aa, rel=1e-10)
    assert kv.trend_cross == pytest.approx(saa * saa, rel=1e-10)
    assert kv.signal_mass == pytest.approx(mass, rel=1e-10)
    assert kv.trend_gain == pytest.approx(saa / ss, rel=1e-10)
    assert kv.drift_gain == pytest.approx(mass / ss, rel=1e-10)


def test_kernels_too_early():
    with pytest.raises(TooEarly):
        so.compute_kernels(0.01, 0.5, 0.02, 1)


def test_moments_pure_noise():
    rng = np.random.default_rng(0)
    n, t, rate = 3, 50, 0.02
    model = ModelParams(n=n, drift=np.zeros(n), noise_cov=rand_spd(rng, n),
                        trend_cov=np.zeros((n, n)), trend_amp=0.0, trend_decay=0.5)
    w = rng.standard_normal((n, n))
    mean, var = so.moments(so.pnl_moment_tensors(model, rate, t), w)
    assert mean == 0.0
    kv = so.compute_kernels(rate, 0.0, 0.5, t)
    ce = model.noise_cov
    want = kv.noise_noise * sum(
        w[j1, k1] * w[j2, k2] * ce[j1, j2] * ce[k1, k2]
        for j1 in range(n) for k1 in range(n) for j2 in range(n) for k2 in range(n)
    )
    assert var == pytest.approx(want, rel=1e-12)


def test_moments_homogeneity():
    rng = np.random.default_rng(1)
    model = strong_model(rng, 2)
    w = rng.standard_normal((2, 2))
    mm = so.pnl_moment_tensors(model, 0.05, 30)
    mean1, var1 = so.moments(mm, w)
    mean2, var2 = so.moments(mm, 2.5 * w)
    assert mean2 == pytest.approx(2.5 * mean1, rel=1e-12)
    assert var2 == pytest.approx(2.5**2 * var1, rel=1e-12)


def test_moments_single_asset_drift_closed_form():
    m, t, rate = 0.3, 8, 0.1
    model = ModelParams(n=1, drift=np.array([m]), noise_cov=np.array([[1.0]]),
                        trend_cov=np.zeros((1, 1)), trend_amp=0.0, trend_decay=0.5)
    w = np.array([[0.7]])
    mean, var = so.moments(so.pnl_moment_tensors(model, rate, t), w)
    mass = (1.0 - (1.0 - rate) ** (t - 1)) / rate
    assert mean == pytest.approx(m * m * mass * 0.7, rel=1e-12)

    # Monte-Carlo oracle for both moments
    rng = np.random.default_rng(2)
    draws = 1_000_000
    sig = np.zeros(draws)
    for step in range(1, t + 1):
        r = m + rng.standard_normal(draws)
        if step < t:
            sig = (1.0 - rate) * sig + r
    pnl = 0.7 * r * sig
    se_mean = pnl.std(ddof=1) / np.sqrt(draws)
    mc_var = pnl.var(ddof=1)
    m4 = ((pnl - pnl.mean()) ** 4).mean()
    se_var = np.sqrt((m4 - mc_var**2) / draws)
    assert abs(mean - pnl.mean()) < 3 * se_mean
    assert abs(var - mc_var) < 3 * se_var


def test_driftless_limit_recovers_reduced_formulas():
    rng = np.random.default_rng(3)
    n, t, rate = 2, 40, 0.03
    base = strong_model(rng, n)
    model = ModelParams(n=n, drift=np.zeros(n), noise_cov=base.noise_cov,
                        trend_cov=base.trend_cov, trend_amp=base.trend_amp,
                        trend_decay=base.trend_decay)
    kv = so.compute_kernels(rate, model.trend_amp, model.trend_decay, t)
    ce, cx = model.noise_cov, model.trend_cov
    saa = kv.trend_gain * kv.noise_noise
    mean_matrix = saa * cx
    var_tensor = (
        kv.noise_noise * np.einsum("ac,bd->abcd", ce, ce)
        + kv.noise_trend * np.einsum("ac,bd->abcd", ce, cx)
        + kv.trend_noise * np.einsum("ac,bd->abcd", cx, ce)
        + kv.trend_trend * np.einsum("ac,bd->abcd", cx, cx)
        + kv.trend_cross * np.einsum("ad,bc->abcd", cx, cx)
    )
    w = rng.standard_normal((n, n))
    mean, var = so.moments(so.pnl_moment_tensors(model, rate, t), w)
    assert mean == pytest.approx(float(np.sum(w * mean_matrix)), rel=1e-12)
    want_var = float(np.einsum("ab,abcd,cd->", w, var_tensor, w))
    assert var == pytest.approx(want_var, rel=1e-12)


def test_variance_form_is_psd():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        model = strong_model(rng, n)
        vf = so.pnl_moment_tensors(model, 0.02, 60).var_form()
        vals = np.linalg.eigvalsh(0.5 * (vf + vf.T))
        assert vals.min() > -1e-10 * max(1.0, vals.max())


def test_single_asset_residual_is_zero():
    rng = np.random.default_rng(5)
    mm = so.pnl_moment_tensors(strong_model(rng, 1), 0.05, 25)
    for _ in range(5):
        w = np.array([[rng.uniform(0.1, 5.0)]])
        assert so.stationarity_residual(mm, w) < 1e-12


def test_brute_force_is_stationary_and_beats_probes():
    rng = np.random.default_rng(6)
    model = strong_model(rng, 2)
    t, rate = 50, 0.02
    mm = so.pnl_moment_tensors(model, rate, t)
    best = so.brute_force_optimal(mm)
    assert so.stationarity_residual(mm, best) < 1e-6
    s2_best = so.squared_sharpe(mm, best)
    vf = mm.var_form()
    mean_flat = mm.mean_matrix.reshape(-1)
    probes = rng.standard_normal((10_000, 4))
    means = probes @ mean_flat
    variances = np.einsum("pi,ij,pj->p", probes, vf, probes)
    assert (means**2 / variances).max() <= s2_best * (1.0 + 1e-9)


def test_proportional_trend_reduces_to_markowitz_weights():
    rng = np.random.default_rng(7)
    ce = rand_spd(rng, 2)
    model = ModelParams(n=2, drift=np.zeros(2), noise_cov=ce, trend_cov=0.3 * ce,
                        trend_amp=0.4, trend_decay=0.1)
    best = so.brute_force_optimal(so.pnl_moment_tensors(model, 0.02, 60))
    wm = pf.WeightMatrix(weights=best, trend_gain=1.0, drift_gain=0.0)
    for _ in range(5):
        s = rng.standard_normal(2)
        pos = pf.positions_from_matrix(wm, s).positions
        nm = pf.naive_markowitz(ce, s, ridge=0.0, normalize=False).positions
        cos = (pos @ nm) / (np.linalg.norm(pos) * np.linalg.norm(nm))
        assert abs(abs(cos) - 1.0) < 1e-8


def test_weak_trend_closed_forms_are_near_optimal():
    rng = np.random.default_rng(8)
    t, rate = 500, 0.01
    mm = so.pnl_moment_tensors(so.sample_weak_trend_model(rng, 2, rate=rate, t=t), rate, t)
    s2_best = so.squared_sharpe(mm, so.brute_force_optimal(mm))
    for form in ("simple", "sandwich"):
        w = so.approx_optimal(mm, form=form)
        assert so.stationarity_residual(mm, w) < 0.05
        assert so.squared_sharpe(mm, w) >= 0.9 * s2_best


def test_squared_sharpe_scale_invariant():
    rng = np.random.default_rng(9)
    mm = so.pnl_moment_tensors(strong_model(rng, 2), 0.02, 40)
    w = rng.standard_normal((2, 2))
    base = so.squared_sharpe(mm, w)
    for c in (1e-6, 3.0, 1e6):
        assert so.squared_sharpe(mm, c * w) == pytest.approx(base, rel=1e-12)


def test_validation_errors():
    rng = np.random.default_rng(10)
    model = strong_model(rng, 2)
    with pytest.raises(TooEarly):
        so.pnl_moment_tensors(model, 0.02, 1)
    mm = so.pnl_moment_tensors(model, 0.02, 10)
    with pytest.raises(InvalidInput):
        so.moments(mm, np.eye(3))
    with pytest.raises(InvalidInput):
        so.stationarity_residual(mm, np.eye(3))
    with pytest.raises(DegenerateForm):
        so.stationarity_residual(mm, np.zeros((2, 2)))
    big = strong_model(rng, 4)
    with pytest.raises(InvalidInput):
        so.brute_force_optimal(so.pnl_moment_tensors(big, 0.02, 10))
    with pytest.raises(InvalidInput):
        so.approx_optimal(mm, form="other")


def test_weak_trend_sampler_respects_caps():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        model = so.sample_weak_trend_model(rng, n)
        noise_norm = np.linalg.norm(model.noise_cov, 2)
        assert np.linalg.norm(model.trend_cov, 2) <= 0.05 * noise_norm + 1e-12
        drift_outer = np.outer(model.drift, model.drift)
        assert np.linalg.norm(drift_outer, 2) <= 0.05 * noise_norm


def reference_approx(model, rate, t, form):
    """The closed-form weights read from their own compute_kernels call."""
    kv = so.compute_kernels(rate, model.trend_amp, model.trend_decay, t)
    ce, cx = model.noise_cov, model.trend_cov
    m = np.outer(model.drift, model.drift)
    core = kv.trend_gain * cx + kv.drift_gain * m
    if form == "simple":
        left = right = np.linalg.inv(ce)
    else:
        left = np.linalg.inv(ce + kv.g_trend_left * cx + m)
        right = np.linalg.inv(ce + kv.g_trend_right * cx + kv.g_drift_right * m)
    return left @ core @ right


def reference_oracle_entry(model, rate, t):
    """One oracle.json entry with every quantity from its own fresh moment build."""
    def fresh():
        return so.pnl_moment_tensors(model, rate, t)

    exact = so.brute_force_optimal(fresh())
    s2_exact = so.squared_sharpe(fresh(), exact)
    entry = {
        "model_hash": hashlib.sha256(model.noise_cov.tobytes() + model.trend_cov.tobytes()
                                     + model.drift.tobytes()).hexdigest()[:16],
        "sharpe2_exact": s2_exact,
        "residual_exact": so.stationarity_residual(fresh(), exact),
    }
    for form in ("simple", "sandwich"):
        w = reference_approx(model, rate, t, form)
        s2 = so.squared_sharpe(fresh(), w)
        entry[f"residual_{form}"] = so.stationarity_residual(fresh(), w)
        entry[f"sharpe2_{form}"] = s2
        entry[f"ratio_{form}"] = s2 / s2_exact
    return entry


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_report_equals_the_per_call_reference(tmp_path, monkeypatch, n):
    written = {}
    write_json = cli._write_json

    def capture(path, payload):
        written[path.name] = payload
        write_json(path, payload)

    monkeypatch.setattr(cli, "_write_json", capture)
    rate, t, models, seed = 0.02, 80, 4, 13
    assert cli.main(["oracle", "--n", str(n), "--t", str(t), "--eta", str(rate),
                     "--models", str(models), "--seed", str(seed),
                     "--outdir", str(tmp_path / "oracle")]) == 0
    rng = np.random.default_rng(seed)
    want = [reference_oracle_entry(so.sample_weak_trend_model(rng, n, rate=rate, t=t), rate, t)
            for _ in range(models)]
    assert written["oracle.json"]["models"] == want


def test_oracle_command_builds_the_moments_once_per_model(tmp_path, monkeypatch):
    calls = collections.Counter()
    for name in ("pnl_moment_tensors", "_kernel_products"):
        def counted(*args, _name=name, _real=getattr(so, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(so, name, counted)
    assert cli.main(["oracle", "--n", "2", "--t", "50", "--models", "3",
                     "--outdir", str(tmp_path / "oracle")]) == 0
    # the second kernel pass per model is the sampler's own amplitude sizing
    assert calls == {"pnl_moment_tensors": 3, "_kernel_products": 6}
