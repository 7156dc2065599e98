import numpy as np
import pytest

from helpers import rand_spd
from trendlab import market_model as mm
from trendlab.errors import InvalidIndex, InvalidModel


def white_params(n=2, noise=None):
    return mm.ModelParams(n=n, drift=np.zeros(n),
                          noise_cov=np.eye(n) if noise is None else noise,
                          trend_cov=np.zeros((n, n)), trend_amp=0.0, trend_decay=0.5)


def kernel_entry(params, t, t2):
    keep = 1.0 - params.trend_decay
    return params.trend_amp * keep ** (t - t2 - 1) if t > t2 else 0.0


def gram_by_summation(params, t, t2):
    """Brute-force sum over intermediate shocks, the oracle for the closed form."""
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


def test_index_validation():
    params = white_params()
    with pytest.raises(InvalidIndex):
        mm.theoretical_covariance(params, 3, 4)
    with pytest.raises(InvalidIndex):
        mm.theoretical_covariance(params, 3, 0)
    with pytest.raises(InvalidIndex):
        mm.stationary_covariance(params, -1)


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
        mm.ModelParams.stack(2, **stack_fields(models))
    assert str(caught.value) == one_model_message(models[where])


def test_stacked_check_raises_for_the_first_bad_model():
    rng = np.random.default_rng(32)
    models = [good_model_fields(rng) for _ in range(5)]
    models[1].update(BAD_FIELDS["decay-0"])  # a late check on an early model wins
    models[3].update(BAD_FIELDS["drift-nan"])
    with pytest.raises(InvalidModel) as caught:
        mm.ModelParams.stack(2, **stack_fields(models))
    assert str(caught.value) == one_model_message(models[1])
    models[1].update(BAD_FIELDS["not-symmetric"])  # of one model, the first check wins
    with pytest.raises(InvalidModel) as caught:
        mm.ModelParams.stack(2, **stack_fields(models))
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
        mm.ModelParams.stack(2, **stack_fields(models), asset_classes=classes)
    assert str(caught.value) == one_model_message(models[0], classes)


def test_stacked_models_equal_one_model_construction():
    rng = np.random.default_rng(34)
    models = [good_model_fields(rng) for _ in range(4)]
    skew = np.array([[0.0, 1e-14], [0.0, 0.0]])  # round-off asymmetry, symmetrized
    models[1]["noise_cov"] = models[1]["noise_cov"] + skew
    models[2]["trend_cov"] = models[2]["trend_cov"] - skew
    stacked = mm.ModelParams.stack(2, **stack_fields(models))
    assert not np.array_equal(stacked[1].noise_cov, models[1]["noise_cov"])
    for got, fields in zip(stacked, models):
        want = mm.ModelParams(n=2, **fields)
        for name in ("drift", "noise_cov", "trend_cov"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert (got.n, got.trend_amp, got.trend_decay, got.asset_classes) == \
            (want.n, want.trend_amp, want.trend_decay, want.asset_classes)
