import collections
import hashlib
import warnings

import numpy as np
import pytest

from helpers import (model_row, rand_spd, reference_oracle_payload, reference_var_tensor,
                     stack_models)
from trendlab import cli
from trendlab import portfolios as pf
from trendlab import sharpe_oracle as so
from trendlab.errors import DegenerateForm, InvalidInput, InvalidModel, TooEarly
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
    k = so._kernel_products(0.01, 0.0, 0.02, 100)
    assert k["trend_trend"] == k["sig_trend_sq"] == k["sig_trend_trend"] == 0.0
    assert kv.g_trend_left == kv.g_trend_right == kv.trend_mean == 0.0
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
    assert kv.g_trend_left == pytest.approx(aa, rel=1e-10)
    assert kv.g_trend_right == pytest.approx(saas / ss, rel=1e-10)
    assert kv.trend_mean == pytest.approx(saa, rel=1e-10)
    assert kv.g_drift_right == pytest.approx(mass * mass / ss, rel=1e-10)
    assert kv.signal_mass == pytest.approx(mass, rel=1e-10)
    assert kv.trend_gain == pytest.approx(saa / ss, rel=1e-10)
    assert kv.drift_gain == pytest.approx(mass / ss, rel=1e-10)


def convolved_kernel_products(rate, amp, decay, t):
    """Reference: the kernel products with the signal-on-trend kernel by direct
    O(t^2) convolution of the two geometric sequences."""
    p, q = 1.0 - rate, 1.0 - decay
    ages = np.arange(t - 1, dtype=float)
    sig, trend = p**ages, amp * q**ages
    conv = np.concatenate(([0.0], np.convolve(sig, trend)[: t - 2]))
    return {
        "sig_sig": float(sig @ sig),
        "trend_trend": float(trend @ trend),
        "sig_trend_sq": float(conv @ conv),
        "sig_trend_trend": float(conv @ trend),
        "signal_mass": float(sig.sum()),
    }


CRITERION_4_AMP = float(np.sqrt(0.02 * (1.0 - (1.0 - 0.004) ** 2)))  # helpers.mode_profile_model


@pytest.mark.parametrize("rate, amp, decay, t", [
    (0.01, 0.8, 0.02, 500),            # rate < decay
    (0.05, 0.8, 0.02, 500),            # rate > decay
    (0.02, 0.8, 0.02, 500),            # rate == decay: geometric_kernels divides by p - q
    (0.3, 0.6, 1.0, 200),              # decay 1: the trend kernel is one spike
    (0.3, 0.6, 0.1, 2),
    (0.3, 0.6, 0.1, 3),
    (0.005, CRITERION_4_AMP, 0.004, 30_000),
    (0.02, 0.8, 0.02 * (1 + 1e-9), 500),  # decay a hair above rate
    (0.02, 0.8, 0.02 * (1 - 1e-6), 500),  # and a hair below
    (0.02, 0.8, 1e-6, 500),               # a trend kernel that barely decays
    (0.02, 0.8, 0.03, 4096),
])
def test_kernel_products_equal_the_direct_convolution(rate, amp, decay, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = so._kernel_products(rate, amp, decay, t)
    want = convolved_kernel_products(rate, amp, decay, t)
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert abs(got[name] - value) <= 1e-12 * abs(value), name


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
    k = so._kernel_products(rate, model.trend_amp, model.trend_decay, t)
    ss, aa, saas, saa = k["sig_sig"], k["trend_trend"], k["sig_trend_sq"], k["sig_trend_trend"]
    ce, cx = model.noise_cov, model.trend_cov
    mean_matrix = saa * cx
    var_tensor = (
        ss * np.einsum("ac,bd->abcd", ce, ce)
        + saas * np.einsum("ac,bd->abcd", ce, cx)
        + ss * aa * np.einsum("ac,bd->abcd", cx, ce)
        + saas * aa * np.einsum("ac,bd->abcd", cx, cx)
        + saa * saa * np.einsum("ad,bc->abcd", cx, cx)
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
    for _ in range(5):
        s = rng.standard_normal(2)
        pos = best @ s
        nm = pf.naive_markowitz(ce, s, ridge=0.0, normalize=False)
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_forms_equal_the_inverse_route(n):
    """The two-solve sandwich against the explicit-inverse products it replaced."""
    rng = np.random.default_rng(40 + n)
    rate, t = 0.02, 500
    for _ in range(50):
        model = so.sample_weak_trend_model(rng, n, rate=rate, t=t)
        mm = so.pnl_moment_tensors(model, rate, t)
        kv = mm.kernels
        omega = pf.optimal_weight_matrix(model.noise_cov, model.trend_cov,
                                         np.outer(model.drift, model.drift),
                                         kv.trend_gain, kv.drift_gain, ridge=0.0)
        assert np.array_equal(so.approx_optimal(mm, form="simple"), omega)
        for form in ("simple", "sandwich"):
            w = so.approx_optimal(mm, form=form)
            want = reference_approx(model, rate, t, form)
            assert np.abs(w - want).max() <= 1e-13 * np.abs(want).max()
            assert so.squared_sharpe(mm, w) == pytest.approx(so.squared_sharpe(mm, want),
                                                             rel=1e-12)


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
        w = so.approx_optimal(fresh(), form=form)
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


def test_oracle_command_builds_the_moments_once_per_chunk(tmp_path, monkeypatch):
    """A chunk is the models of one stack: up to cli._STACK_MODELS of them."""
    calls = collections.Counter()

    def count(name):
        real = getattr(so, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(so, name, counted)

    count("pnl_moment_tensors")
    monkeypatch.setattr(cli, "_STACK_MODELS", 3)
    so._unit_kernel_products.cache_clear()
    assert cli.main(["oracle", "--n", "2", "--t", "50", "--models", "4",
                     "--outdir", str(tmp_path / "oracle")]) == 0
    # a full stack and a one-model stack, each with one kernel pass: the
    # moments reuse the pass that sized the sampler's amplitudes
    assert calls == {"pnl_moment_tensors": 2}
    assert so._unit_kernel_products.cache_info().misses == 2


@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["chunk-1", "chunk", "chunk+1"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_json_equals_the_per_model_loop(tmp_path, monkeypatch, n, extra):
    """Model counts one below, at and one above the stack size, so the last stack
    is ragged."""
    t, rate, seed, stack = 500, 0.02, 17, 4
    monkeypatch.setattr(cli, "_STACK_MODELS", stack)
    models = stack + extra
    out = tmp_path / "oracle"
    assert cli.main(["oracle", "--n", str(n), "--t", str(t), "--eta", str(rate),
                     "--models", str(models), "--seed", str(seed), "--outdir", str(out)]) == 0
    reference = tmp_path / "reference.json"
    cli._write_json(reference, reference_oracle_payload(n, t, rate, models, seed))
    assert (out / "oracle.json").read_bytes() == reference.read_bytes()


def stack_of_models(rng, n, rate, t):
    """A stack of weak-trend models from one sampler call and strong models beside them."""
    weak = so.sample_weak_trend_model(rng, n, rate=rate, t=t, count=3)
    return stack_models([model_row(weak, i) for i in range(3)]
                        + [strong_model(rng, n) for _ in range(2)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_model_of_a_stack_gets_its_one_model_result(n):
    rng = np.random.default_rng(60 + n)
    rate, t = 0.02, 80
    models = stack_of_models(rng, n, rate, t)
    mm = so.pnl_moment_tensors(models, rate, t)
    assert mm.mean_matrix.shape == mm.left.shape == mm.right.shape == (5, n, n)
    assert mm.model.drift.shape == (5, n)
    assert mm.var_form().shape == (5, n * n, n * n)
    # C-ordered weights, a whole-stack matrix, and the sandwich solve's transposed result
    random_w = rng.standard_normal((5, n, n))
    shared_w = rng.standard_normal((n, n))
    approx = {form: so.approx_optimal(mm, form) for form in ("simple", "sandwich")}
    exact = so.brute_force_optimal(mm)
    for i in range(5):
        one = so.pnl_moment_tensors(model_row(models, i), rate, t)
        assert np.array_equal(mm.mean_matrix[i], one.mean_matrix)
        for name in ("left", "right"):
            assert np.array_equal(getattr(mm, name)[i], getattr(one, name)), name
        assert np.array_equal(mm.model.drift[i], one.model.drift)
        assert np.array_equal(mm.var_form()[i], one.var_form())
        for name, value in vars(one.kernels).items():
            assert getattr(mm.kernels, name)[i] == value, name
        assert np.array_equal(exact[i], so.brute_force_optimal(one))
        for form, w in approx.items():
            assert np.array_equal(w[i], so.approx_optimal(one, form))
        for stacked, w in ((random_w, random_w[i]), (shared_w, shared_w), (exact, exact[i]),
                           (approx["simple"], approx["simple"][i]),
                           (approx["sandwich"], approx["sandwich"][i])):
            assert [x[i] for x in so.moments(mm, stacked)] == list(so.moments(one, w))
            assert so.squared_sharpe(mm, stacked)[i] == so.squared_sharpe(one, w)
            assert so.stationarity_residual(mm, stacked)[i] == so.stationarity_residual(one, w)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_var_form_equals_the_tensor_route(n):
    """V applied to the basis matrices against the eight-term tensor it replaced."""
    rng = np.random.default_rng(80 + n)
    rate, t = 0.02, 80
    for _ in range(10):
        models = stack_of_models(rng, n, rate, t)
        want = reference_var_tensor(models, rate, t).reshape(5, n * n, n * n)
        stacked = so.pnl_moment_tensors(models, rate, t).var_form()
        for i in range(5):
            bound = 1e-13 * np.abs(want[i]).max()
            assert np.abs(stacked[i] - want[i]).max() <= bound
            one = so.pnl_moment_tensors(model_row(models, i), rate, t)
            assert np.abs(one.var_form() - want[i]).max() <= bound


@pytest.mark.parametrize("n", [6, 16])
def test_moments_and_residual_equal_the_tensor_route(n):
    rng = np.random.default_rng(90 + n)
    rate, t = 0.02, 80
    models = stack_of_models(rng, n, rate, t)
    mm = so.pnl_moment_tensors(models, rate, t)
    vf = reference_var_tensor(models, rate, t).reshape(5, n * n, n * n)
    for w in (rng.standard_normal((5, n, n)), so.approx_optimal(mm, "sandwich")):
        _, variance = so.moments(mm, w)
        residual = so.stationarity_residual(mm, w)
        for i in range(5):
            wf = w[i].reshape(-1) / np.linalg.norm(w[i])
            vw = vf[i] @ wf
            quad, target = wf @ vw, mm.mean_matrix[i].reshape(-1)
            mw = target @ wf
            want = np.abs(target * quad - vw * mw).max() / (abs(mw) * quad)
            assert variance[i] == pytest.approx(quad * np.linalg.norm(w[i]) ** 2, rel=1e-13)
            assert residual[i] == pytest.approx(want, rel=1e-13)


def test_one_model_readers_return_floats_and_matrices():
    rng = np.random.default_rng(66)
    mm = so.pnl_moment_tensors(strong_model(rng, 2), 0.02, 40)
    w = rng.standard_normal((2, 2))
    assert all(type(x) is float for x in so.moments(mm, w))
    assert type(so.squared_sharpe(mm, w)) is float
    assert type(so.stationarity_residual(mm, w)) is float
    assert so.brute_force_optimal(mm).shape == so.approx_optimal(mm).shape == (2, 2)
    assert type(mm.kernels.trend_gain) is float


def test_stack_rejects_mismatched_weights_and_sizes():
    rng = np.random.default_rng(67)
    mm = so.pnl_moment_tensors(stack_models([strong_model(rng, 2) for _ in range(3)]), 0.02, 40)
    with pytest.raises(InvalidInput):
        so.moments(mm, rng.standard_normal((2, 2, 2)))
    with pytest.raises(InvalidInput):
        so.moments(mm, rng.standard_normal(2))
    with pytest.raises(InvalidModel):  # an empty stack is no model
        ModelParams(n=2, drift=np.zeros((0, 2)), noise_cov=np.zeros((0, 2, 2)),
                    trend_cov=np.zeros((0, 2, 2)), trend_amp=np.zeros(0), trend_decay=np.zeros(0))


def singular_model():
    """Rank-one noise and drift along it, no trend: every variance term is a
    multiple of one all-ones 4x4 matrix, so its LU factorization meets an exact
    zero pivot."""
    return ModelParams(n=2, drift=np.array([0.01, 0.01]), noise_cov=np.ones((2, 2)),
                       trend_cov=np.zeros((2, 2)), trend_amp=0.0, trend_decay=0.5)


def test_a_singular_model_in_a_stack_alone_gets_the_ridge():
    rng = np.random.default_rng(68)
    rate, t = 0.02, 60
    models = [strong_model(rng, 2), singular_model(), strong_model(rng, 2)]
    ones = [so.pnl_moment_tensors(model, rate, t) for model in models]
    for i, one in enumerate(ones):
        target = one.mean_matrix.reshape(-1)
        if i == 1:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(one.var_form(), target)
            vf = one.var_form()
            ridged = np.linalg.solve(vf + 1e-12 * np.trace(vf) * np.eye(4), target)
            assert np.array_equal(so.brute_force_optimal(one).reshape(-1),
                                  ridged / np.linalg.norm(ridged))
        else:
            np.linalg.solve(one.var_form(), target)  # regular: no ridge
    exact = so.brute_force_optimal(so.pnl_moment_tensors(stack_models(models), rate, t))
    for i, one in enumerate(ones):
        assert np.array_equal(exact[i], so.brute_force_optimal(one))


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, np.nan])
def test_a_bad_decay_anywhere_in_a_stack_is_rejected(bad):
    decay = np.array([0.02, 0.03, bad, 0.04])
    with pytest.raises(InvalidInput, match="decay"):
        so._kernel_products(0.01, np.full(4, 0.5), decay, 100)
    with pytest.raises(InvalidInput, match="decay"):
        so._kernel_products(0.01, 0.5, bad, 100)


def test_stacked_kernel_products_equal_one_decay_at_a_time():
    rng = np.random.default_rng(69)
    amp, decay = rng.uniform(0.1, 1.0, 40), np.r_[rng.uniform(0.01, 0.5, 38), 0.02, 1.0]
    for t in (2, 3, 300, 2000, 4096):
        got = so._kernel_products(0.02, amp, decay, t)
        for i in range(len(decay)):
            one = so._kernel_products(0.02, float(amp[i]), float(decay[i]), t)
            assert {name: value[i] for name, value in got.items()} == one, (t, i)
