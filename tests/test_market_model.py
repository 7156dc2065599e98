import numpy as np
import pytest

from helpers import rand_spd
from trendlab import market_model as mm
from trendlab.errors import InvalidIndex, InvalidInput, InvalidModel


def white_params(n=2, noise=None):
    return mm.ModelParams(n=n, drift=np.zeros(n),
                          noise_cov=np.eye(n) if noise is None else noise,
                          trend_cov=np.zeros((n, n)), trend_amp=0.0, trend_decay=0.5)


def kernel_entry(params, t, t2):
    keep = 1.0 - params.trend_decay
    return params.trend_amp * keep ** (t - t2 - 1) if t > t2 else 0.0


def gram_by_summation(params, t, t2):
    """Brute-force sum over intermediate shocks, the oracle for the power sum."""
    return sum(kernel_entry(params, t, tp) * kernel_entry(params, t2, tp)
               for tp in range(1, min(t, t2)))


def test_pure_noise_has_no_autocorrelation():
    panel = mm.simulate(white_params(), 10_000, 0)
    r = panel.returns
    for j in range(2):
        x = r[:, j] - r[:, j].mean()
        rho1 = (x[1:] @ x[:-1]) / (x @ x)
        assert abs(rho1) < 0.03


def test_drift_dominates_tiny_noise():
    params = mm.ModelParams(n=2, drift=np.array([0.1, -0.1]), noise_cov=1e-6 * np.eye(2),
                            trend_cov=np.zeros((2, 2)), trend_amp=0.0, trend_decay=0.5)
    panel = mm.simulate(params, 1000, 1)
    assert np.abs(panel.returns.mean(axis=0) - params.drift).max() < 0.001


def test_simulation_is_bitwise_deterministic():
    rng = np.random.default_rng(2)
    params = mm.ModelParams(n=3, drift=rng.normal(size=3) * 0.01,
                            noise_cov=rand_spd(rng, 3), trend_cov=rand_spd(rng, 3, 0.3),
                            trend_amp=0.2, trend_decay=0.05)
    a = mm.simulate(params, 500, 42)
    b = mm.simulate(params, 500, 42)
    assert np.array_equal(a.returns, b.returns)
    assert not np.array_equal(a.returns, mm.simulate(params, 500, 43).returns)


def per_day_returns(params, n_days, seed):
    """The generator as one loop over days, trend before each day's shock: the
    reference whose bits simulate must reproduce."""
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((n_days, params.n)) @ mm._psd_factor(params.noise_cov).T
    shocks = rng.standard_normal((n_days, params.n)) @ mm._psd_factor(params.trend_cov).T
    returns = np.empty((n_days, params.n))
    keep = 1.0 - params.trend_decay
    trend = np.zeros(params.n)
    for t in range(n_days):
        returns[t] = params.drift + eps[t] + params.trend_amp * trend
        trend = keep * trend + shocks[t]
    return returns


GENERATOR_CASES = {  # (n, drift scale, trend_amp, trend_decay)
    "trend": (3, 0.0, 0.2, 0.05),
    "decay-1": (3, 0.0, 0.2, 1.0),
    "amp-0": (3, 0.0, 0.0, 0.05),
    "n-1": (1, 0.0, 0.3, 0.02),
    "drifted": (4, 0.01, 0.1, 0.03),
}


@pytest.mark.parametrize("case", GENERATOR_CASES)
def test_simulate_equals_the_per_day_loop_bit_for_bit(case):
    n, drift, amp, decay = GENERATOR_CASES[case]
    rng = np.random.default_rng(14)
    params = mm.ModelParams(n=n, drift=drift * rng.normal(size=n), noise_cov=rand_spd(rng, n),
                            trend_cov=rand_spd(rng, n, 0.3), trend_amp=amp, trend_decay=decay)
    for days in (1, 2, 700):
        assert np.array_equal(mm.simulate(params, days, 5).returns,
                              per_day_returns(params, days, 5)), days


def test_sample_covariance_converges_to_noise_cov():
    rng = np.random.default_rng(3)
    noise = rand_spd(rng, 3)
    panel = mm.simulate(white_params(3, noise), 50_000, 7)
    x = panel.returns - panel.returns.mean(axis=0)
    sample = x.T @ x / (len(x) - 1)
    assert np.linalg.norm(sample - noise) / np.linalg.norm(noise) < 0.05


def test_theoretical_covariance_without_trend():
    params = white_params(3, noise=np.diag([1.0, 2.0, 3.0]))
    assert np.array_equal(mm.theoretical_covariance(params, 5, 5), params.noise_cov)
    assert np.array_equal(mm.theoretical_covariance(params, 5, 3), np.zeros((3, 3)))


def test_theoretical_covariance_scalar_closed_form():
    sigma_xi2 = 0.7
    params = mm.ModelParams(n=1, drift=np.zeros(1), noise_cov=np.array([[1.3]]),
                            trend_cov=np.array([[sigma_xi2]]), trend_amp=0.4,
                            trend_decay=0.03)
    t = 200
    keep2 = (1.0 - params.trend_decay) ** 2
    want = 1.3 + sigma_xi2 * params.trend_amp**2 * (1 - keep2 ** (t - 1)) / (1 - keep2)
    got = mm.theoretical_covariance(params, t, t)[0, 0]
    assert got == pytest.approx(want, rel=1e-12)


def test_theoretical_covariance_matches_direct_summation():
    rng = np.random.default_rng(4)
    params = mm.ModelParams(n=2, drift=np.zeros(2), noise_cov=rand_spd(rng, 2),
                            trend_cov=rand_spd(rng, 2, 0.5),
                            trend_amp=rng.uniform(0.1, 1.0), trend_decay=rng.uniform(0.01, 0.9))
    for t, t2 in [(2, 2), (5, 3), (50, 50), (80, 17), (300, 299)]:
        want = params.trend_cov * gram_by_summation(params, t, t2)
        if t == t2:
            want = want + params.noise_cov
        got = mm.theoretical_covariance(params, t, t2)
        assert np.abs(got - want).max() < 1e-12


def test_stationary_covariance_is_large_t_limit():
    rng = np.random.default_rng(5)
    params = mm.ModelParams(n=2, drift=np.zeros(2), noise_cov=rand_spd(rng, 2),
                            trend_cov=rand_spd(rng, 2, 0.5), trend_amp=0.3, trend_decay=0.1)
    for lag in (0, 1, 7):
        t = 2000
        assert np.allclose(mm.stationary_covariance(params, lag),
                           mm.theoretical_covariance(params, t, t - lag), atol=1e-12)


def closed_form_gram(params, t, t2):
    """The trend Gram at (t, t2) by its geometric closed form, as the generator wrote it
    before the power sum: the reference for theoretical_covariance."""
    if t2 <= 1:
        return 0.0
    keep = 1.0 - params.trend_decay
    tail = keep ** (t - t2)
    ratio = (1.0 - keep ** (2 * (t2 - 1))) / (1.0 - keep * keep)
    return params.trend_amp**2 * tail * ratio


def closed_form_stationary_gram(params, lag):
    """The t -> infinity limit of closed_form_gram at the lag: the reference for
    stationary_covariance."""
    keep = 1.0 - params.trend_decay
    return params.trend_amp**2 * keep**lag / (1.0 - keep * keep)


def test_covariances_equal_the_geometric_closed_form():
    """Doubling and the closed form round differently: 3.6e-13 relative measured for
    theoretical_covariance, worst at decay 1e-4 and t2 = 3, where the closed form
    cancels; 2.7e-16 for stationary_covariance, one extra rounding of the inverse."""
    rng = np.random.default_rng(8)
    for decay in np.r_[np.geomspace(1e-4, 1.0, 30), 0.5]:
        params = mm.ModelParams(n=2, drift=np.zeros(2), noise_cov=rand_spd(rng, 2),
                                trend_cov=rand_spd(rng, 2, 0.5), trend_amp=0.7,
                                trend_decay=decay)
        for lag in (0, 1, 7, 300):
            noise = params.noise_cov if lag == 0 else 0.0
            for t2 in (1, 2, 3, 10, 100, 5000):
                want = params.trend_cov * closed_form_gram(params, t2 + lag, t2) + noise
                got = mm.theoretical_covariance(params, t2 + lag, t2)
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (decay, lag, t2)
            want = params.trend_cov * closed_form_stationary_gram(params, lag) + noise
            got = mm.stationary_covariance(params, lag)
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), (decay, lag)


def test_empirical_autocovariance_tracks_theory():
    rng = np.random.default_rng(6)
    params = mm.ModelParams(n=2, drift=np.zeros(2), noise_cov=rand_spd(rng, 2),
                            trend_cov=rand_spd(rng, 2, 0.4), trend_amp=0.3, trend_decay=0.05)
    panel = mm.simulate(params, 30_000, 9)
    x = panel.returns[params.burn_in():]
    x = x - x.mean(axis=0)
    for lag in (0, 1):
        est = np.einsum("ti,tj->ij", x[lag:], x[: len(x) - lag]) / (len(x) - lag)
        theory = mm.stationary_covariance(params, lag)
        assert np.abs(est - theory).max() < 0.1 * np.abs(theory).max() + 0.02


def test_common_kernel_gives_equal_trend_variance():
    # assets with the same shock variance carry the same trend variance
    params = mm.ModelParams(n=2, drift=np.zeros(2), noise_cov=np.diag([1.0, 5.0]),
                            trend_cov=np.array([[0.5, 0.1], [0.1, 0.5]]),
                            trend_amp=0.6, trend_decay=0.2)
    trend_part = mm.theoretical_covariance(params, 100, 100) - params.noise_cov
    assert trend_part[0, 0] == pytest.approx(trend_part[1, 1], rel=1e-12)


def test_model_validation():
    with pytest.raises(InvalidModel):
        mm.ModelParams(n=2, drift=np.zeros(2), noise_cov=np.array([[1.0, 2.0], [2.0, 1.0]]),
                       trend_cov=np.zeros((2, 2)), trend_amp=0.1, trend_decay=0.5)
    with pytest.raises(InvalidModel):
        mm.ModelParams(n=2, drift=np.zeros(2), noise_cov=np.eye(2),
                       trend_cov=np.zeros((2, 2)), trend_amp=0.1, trend_decay=0.0)
    with pytest.raises(InvalidModel):
        mm.ModelParams(n=2, drift=np.zeros(2), noise_cov=np.eye(2),
                       trend_cov=np.zeros((2, 2)), trend_amp=-0.1, trend_decay=0.5)
    with pytest.raises(InvalidModel):
        mm.ModelParams(n=2, drift=np.zeros(2), noise_cov=np.eye(2),
                       trend_cov=np.zeros((2, 2)), trend_amp=0.1, trend_decay=0.5,
                       asset_classes=("stock", "cash"))
    for n in ("2", 2.0, True):
        with pytest.raises(InvalidModel) as caught:
            mm.ModelParams(n=n, drift=np.zeros(2), noise_cov=np.eye(2),
                           trend_cov=np.zeros((2, 2)), trend_amp=0.1, trend_decay=0.5)
        assert str(caught.value) == f"n must be an integer, got {n!r}"


def test_index_validation():
    params = white_params()
    with pytest.raises(InvalidIndex):
        mm.theoretical_covariance(params, 3, 4)
    with pytest.raises(InvalidIndex):
        mm.theoretical_covariance(params, 3, 0)
    with pytest.raises(InvalidIndex):
        mm.stationary_covariance(params, -1)
    for lag in (0.5, True, 1.0, "1"):
        with pytest.raises(InvalidIndex):
            mm.stationary_covariance(params, lag)
    for t, t2 in ((True, 1), (3, True), (3.0, 2), (3, "2")):
        with pytest.raises(InvalidIndex):
            mm.theoretical_covariance(params, t, t2)
    assert np.array_equal(mm.theoretical_covariance(params, np.int64(3), np.int32(2)),
                          mm.theoretical_covariance(params, 3, 2))
    assert np.array_equal(mm.stationary_covariance(params, np.int64(1)),
                          mm.stationary_covariance(params, 1))


def good_model_fields(rng, n=2):
    return dict(drift=rng.uniform(-0.01, 0.01, n), noise_cov=rand_spd(rng, n),
                trend_cov=rand_spd(rng, n, 0.3), trend_amp=rng.uniform(0.1, 0.5),
                trend_decay=rng.uniform(0.01, 0.5))


# one bad field each: the cases of test_model_validation, a non-finite drift and
# a non-symmetric and a non-finite matrix
BAD_FIELDS = {
    "not-psd": {"noise_cov": np.array([[1.0, 2.0], [2.0, 1.0]])},
    "decay-0": {"trend_decay": 0.0},
    "amp-negative": {"trend_amp": -0.1},
    "drift-nan": {"drift": np.array([0.0, np.nan])},
    "not-symmetric": {"trend_cov": np.array([[1.0, 0.5], [0.2, 1.0]])},
    "cov-inf": {"trend_cov": np.array([[np.inf, 0.0], [0.0, 1.0]])},
}


def one_model_message(fields, asset_classes=()):
    with pytest.raises(InvalidModel) as caught:
        mm.ModelParams(n=2, asset_classes=asset_classes, **fields)
    return str(caught.value)


def stack_fields(models):
    return {name: np.array([m[name] for m in models]) for name in models[0]}


@pytest.mark.parametrize("where", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("case", list(BAD_FIELDS))
def test_stacked_check_rejects_what_one_model_rejects(case, where):
    rng = np.random.default_rng(31)
    models = [good_model_fields(rng) for _ in range(5)]
    models[where].update(BAD_FIELDS[case])
    with pytest.raises(InvalidModel) as caught:
        mm.ModelParams(n=2, **stack_fields(models))
    assert str(caught.value) == one_model_message(models[where])


def test_stacked_check_raises_for_the_first_bad_model():
    rng = np.random.default_rng(32)
    models = [good_model_fields(rng) for _ in range(5)]
    models[1].update(BAD_FIELDS["decay-0"])  # a late check on an early model wins
    models[3].update(BAD_FIELDS["drift-nan"])
    with pytest.raises(InvalidModel) as caught:
        mm.ModelParams(n=2, **stack_fields(models))
    assert str(caught.value) == one_model_message(models[1])
    models[1].update(BAD_FIELDS["not-symmetric"])  # of one model, the first check wins
    with pytest.raises(InvalidModel) as caught:
        mm.ModelParams(n=2, **stack_fields(models))
    assert str(caught.value) == one_model_message(models[1])


@pytest.mark.parametrize("fields, classes", [
    ({}, ("stock", "cash")),
    ({"noise_cov": np.eye(3)}, ()),
    ({"drift": np.zeros(3)}, ()),
], ids=["asset-classes", "cov-shape", "drift-length"])
def test_stacked_check_rejects_shared_faults_as_one_model(fields, classes):
    rng = np.random.default_rng(33)
    models = [{**good_model_fields(rng), **fields} for _ in range(3)]
    with pytest.raises(InvalidModel) as caught:
        mm.ModelParams(n=2, **stack_fields(models), asset_classes=classes)
    assert str(caught.value) == one_model_message(models[0], classes)


def test_asset_class_message_names_the_count_needed():
    rng = np.random.default_rng(39)
    models = [good_model_fields(rng, n=3) for _ in range(3)]
    for fields in (models[0], stack_fields(models)):
        with pytest.raises(InvalidModel) as caught:
            mm.ModelParams(n=3, asset_classes=("stock", "bond"), **fields)
        assert str(caught.value) == "asset_classes must be 3 of ('stock', 'bond', 'fx')"


@pytest.mark.parametrize("name, bad", [
    ("trend_amp", "0.1"), ("trend_amp", True), ("trend_decay", True),
    ("drift", [True, False]), ("noise_cov", np.eye(2, dtype=bool)), ("trend_decay", None),
])
def test_model_fields_must_hold_real_numbers(name, bad):
    rng = np.random.default_rng(40)
    models = [good_model_fields(rng) for _ in range(3)]
    stacked = {**stack_fields(models), name: np.array([bad] * 3)}
    for fields in ({**models[0], name: bad}, stacked):
        with pytest.raises(InvalidModel) as caught:
            mm.ModelParams(n=2, **fields)
        dtype = np.asarray(fields[name]).dtype
        assert str(caught.value) == f"{name} must hold real numbers, got dtype {dtype}"


def test_stacked_models_equal_one_model_construction():
    rng = np.random.default_rng(34)
    models = [good_model_fields(rng) for _ in range(4)]
    skew = np.array([[0.0, 1e-14], [0.0, 0.0]])  # round-off asymmetry, symmetrized
    models[1]["noise_cov"] = models[1]["noise_cov"] + skew
    models[2]["trend_cov"] = models[2]["trend_cov"] - skew
    stacked = mm.ModelParams(n=2, **stack_fields(models))
    assert not np.array_equal(stacked.noise_cov[1], models[1]["noise_cov"])
    assert stacked.trend_amp.shape == stacked.trend_decay.shape == (4,)
    for i, fields in enumerate(models):
        want = mm.ModelParams(n=2, **fields)
        for name in ("drift", "noise_cov", "trend_cov"):
            assert np.array_equal(getattr(stacked, name)[i], getattr(want, name))
        assert (stacked.n, stacked.trend_amp[i], stacked.trend_decay[i], stacked.asset_classes) == \
            (want.n, want.trend_amp, want.trend_decay, want.asset_classes)


def counting(monkeypatch, owner, name):
    """Count the calls of owner.name, still running the real one."""
    calls, real = [], getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, spy)
    return calls


def test_a_valid_stack_is_checked_in_one_pass(monkeypatch):
    rng = np.random.default_rng(37)
    fields = stack_fields([good_model_fields(rng) for _ in range(300)])
    eig = counting(monkeypatch, np.linalg, "eigvalsh")
    symmetric = counting(monkeypatch, mm.symmat, "check_symmetric")
    mm.ModelParams(n=2, **fields)
    assert len(eig) == len(symmetric) == 2  # one per covariance field, each on all 300


def test_a_failed_stack_is_rechecked_up_to_its_first_bad_model(monkeypatch):
    rng = np.random.default_rng(38)
    models = [good_model_fields(rng) for _ in range(300)]
    models[7].update(BAD_FIELDS["not-psd"])
    models[200].update(BAD_FIELDS["drift-nan"])  # an earlier check, on a later model
    want = one_model_message(models[7])
    checks = counting(monkeypatch, mm, "_check_models")
    with pytest.raises(InvalidModel) as caught:
        mm.ModelParams(n=2, **stack_fields(models))
    assert str(caught.value) == want
    assert len(checks) == 1 + 8  # the stack, then models 0..7 one at a time


def test_empty_or_ragged_stack_is_rejected():
    rng = np.random.default_rng(35)
    fields = stack_fields([good_model_fields(rng) for _ in range(3)])
    empty = {name: value[:0] for name, value in fields.items()}
    ragged = {**fields, "drift": fields["drift"][:2]}  # one drift short of 3 models
    for bad in (empty, ragged):
        with pytest.raises(InvalidModel, match="a stack needs one or more models"):
            mm.ModelParams(n=2, **bad)


def test_one_model_functions_reject_a_stack():
    # z == n: a stack's (z,) gram would broadcast along each matrix's last axis
    rng = np.random.default_rng(36)
    stacked = mm.ModelParams(n=2, **stack_fields([good_model_fields(rng) for _ in range(2)]))
    for call in (lambda: mm.simulate(stacked, 10, 0), stacked.burn_in,
                 lambda: mm.theoretical_covariance(stacked, 3, 2),
                 lambda: mm.stationary_covariance(stacked)):
        with pytest.raises(InvalidInput, match="need one model, got a stack of 2"):
            call()


def test_simulate_checks_days_and_seed_before_any_draw():
    params = white_params()
    for n_days, seed in ((True, 1), (2.0, 1), (0, 1), (-1, 1), (3, -1), (3, 1.5), (3, True),
                         (3, "1")):
        with pytest.raises(InvalidInput):
            mm.simulate(params, n_days, seed)
    panel = mm.simulate(params, np.int64(3), np.int64(1))
    assert np.array_equal(panel.returns, mm.simulate(params, 3, 1).returns)
