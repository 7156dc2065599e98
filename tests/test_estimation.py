import numpy as np
import pytest

from helpers import correlation_cases, rand_spd
from trendlab import estimation as est
from trendlab.errors import DegenerateVariance, InvalidInput, NothingToRoll


def feed(state, series, week_len=5):
    for t, r in enumerate(series, start=1):
        state = est.update_daily(state, r)
        if t % week_len == 0:
            state = est.roll_week(state)
    return state


def test_variance_fixed_point_constant_returns():
    state = est.CovarianceState(n=2, var_rate=0.01)
    for _ in range(100):
        state = est.update_daily(state, np.ones(2))
    assert np.array_equal(state.variances, np.ones(2))


def test_variance_pure_decay():
    rate = 0.02
    state = est.CovarianceState(n=1, var_rate=rate, variances=np.ones(1))
    for t in range(1, 51):
        state = est.update_daily(state, np.zeros(1))
        assert state.variances[0] == pytest.approx((1 - rate) ** t, rel=1e-12)


def test_variance_long_run_level():
    rng = np.random.default_rng(0)
    sigma = 0.02
    state = est.CovarianceState(n=1, var_rate=0.01)
    for r in rng.normal(0.0, sigma, size=20_000):
        state = est.update_daily(state, np.array([r]))
    assert abs(state.variances[0] - sigma**2) < 0.1 * sigma**2


def test_roll_week_single_update_from_zero():
    state = est.CovarianceState(n=3, cov_rate=0.1, weekly_cov=np.zeros((3, 3)))
    state = est.update_daily(state, np.array([1.0, 0.0, 0.0]))
    state = est.roll_week(state)
    want = np.zeros((3, 3))
    want[0, 0] = 0.1
    assert np.allclose(state.weekly_cov, want)
    assert state.weeks == 1 and state.week_buffer == ()


def test_roll_week_fixed_point():
    rate = 0.01
    state = est.CovarianceState(n=2, cov_rate=rate)
    weekly = np.array([0.3, -0.2])
    for _ in range(2000):
        state = est.update_daily(state, weekly)
        state = est.roll_week(state)
    assert np.abs(state.weekly_cov - np.outer(weekly, weekly)).max() < 1e-6


def test_weekly_correlation_recovers_iid_structure():
    rng = np.random.default_rng(5)
    noise = rand_spd(rng, 3)
    scale = 1.0 / np.sqrt(np.diag(noise))
    want = noise * np.outer(scale, scale)
    chol = np.linalg.cholesky(noise)
    state = est.CovarianceState(n=3, cov_rate=1 / 750)
    series = rng.standard_normal((20_000, 3)) @ chol.T
    state = feed(state, series)
    got = est.correlation(state)
    assert np.abs(got - want).max() < 0.05


def test_correlation_closed_form_and_errors():
    state = est.CovarianceState(n=2, weekly_cov=np.array([[4.0, 2.0], [2.0, 9.0]]))
    got = est.correlation(state)
    assert np.allclose(got, [[1.0, 1.0 / 3.0], [1.0 / 3.0, 1.0]])
    assert np.array_equal(np.diag(got), np.ones(2))
    with pytest.raises(DegenerateVariance):
        est.correlation(est.CovarianceState(n=2))
    with pytest.raises(DegenerateVariance):
        est.correlation(est.CovarianceState(n=2, weekly_cov=np.diag([0.0, 1.0])))


def test_correlation_bounds_random_input():
    rng = np.random.default_rng(2)
    state = est.CovarianceState(n=5, weekly_cov=rand_spd(rng, 5))
    got = est.correlation(state)
    off = got[~np.eye(5, dtype=bool)]
    assert np.array_equal(np.diag(got), np.ones(5))
    assert (np.abs(off) <= 1.0).all()


def test_volatilities():
    state = est.CovarianceState(n=2, variances=np.array([1.0, 4.0]))
    assert np.array_equal(est.volatilities(state), [1.0, 2.0])
    state = est.CovarianceState(n=1, variances=np.zeros(1))
    assert est.volatilities(state)[0] == 0.0
    with pytest.raises(DegenerateVariance):
        est.volatilities(est.CovarianceState(n=1))


def test_vol_estimate_tracks_true_sigma():
    rng = np.random.default_rng(3)
    state = est.CovarianceState(n=1, var_rate=0.01)
    for r in rng.normal(0.0, 0.01, size=2000):
        state = est.update_daily(state, np.array([r]))
    assert abs(est.volatilities(state)[0] - 0.01) < 0.15 * 0.01


def test_update_and_roll_validation():
    state = est.CovarianceState(n=2)
    with pytest.raises(InvalidInput):
        est.update_daily(state, np.zeros(3))
    with pytest.raises(InvalidInput):
        est.update_daily(state, np.array([np.nan, 0.0]))
    with pytest.raises(NothingToRoll):
        est.roll_week(state)


def test_scaling_commutes_through_the_estimators():
    rng = np.random.default_rng(4)
    series = rng.standard_normal((600, 3))
    a = feed(est.CovarianceState(n=3), series)
    b = feed(est.CovarianceState(n=3), 2.0 * series)
    assert np.abs(b.weekly_cov - 4.0 * a.weekly_cov).max() < 1e-10 * np.abs(b.weekly_cov).max()
    assert np.abs(b.variances - 4.0 * a.variances).max() < 1e-12
    assert np.abs(est.correlation(a) - est.correlation(b)).max() < 1e-10


def test_rie_identity_input():
    assert np.abs(est.rie_clean(np.eye(8), 0.4) - np.eye(8)).max() < 1e-12


def test_rie_no_noise_limit_keeps_spectrum():
    rng = np.random.default_rng(5)
    state = est.CovarianceState(n=5, weekly_cov=rand_spd(rng, 5))
    corr = est.correlation(state)
    cleaned = est.rie_clean(corr, 1e-12)
    want = np.linalg.eigvalsh(corr)
    got = np.linalg.eigvalsh(cleaned)
    assert np.abs(want - got).max() < 1e-6


def test_rie_contracts_noise_dispersion():
    rng = np.random.default_rng(6)
    n, t_eff = 40, 120
    for _ in range(10):
        x = rng.standard_normal((t_eff, n))
        x = x - x.mean(axis=0)
        s = x.T @ x / t_eff
        d = 1 / np.sqrt(np.diag(s))
        corr = s * np.outer(d, d)
        np.fill_diagonal(corr, 1.0)
        cleaned = est.rie_clean(corr, n / t_eff)
        raw = np.linalg.eigvalsh(corr)
        new = np.linalg.eigvalsh(cleaned)
        assert new.max() - new.min() < raw.max() - raw.min()


def test_cleaners_return_unit_diagonal_psd():
    rng = np.random.default_rng(7)
    state = est.CovarianceState(n=6, weekly_cov=rand_spd(rng, 6))
    corr = est.correlation(state)
    for cleaner in (est.rie_clean, est.clip_clean):
        out = cleaner(corr, 0.25)
        assert np.abs(np.diag(out) - 1.0).max() < 1e-10
        assert np.array_equal(out, out.T)
        assert np.linalg.eigvalsh(out).min() > -1e-10
        assert abs(np.trace(out) - 6.0) < 1e-8


def test_clip_keeps_spike_above_edge():
    rng = np.random.default_rng(8)
    n, t_eff = 30, 300
    spike = np.ones(n) / np.sqrt(n)
    cov = np.eye(n) + 9.0 * np.outer(spike, spike)
    x = rng.standard_normal((t_eff, n)) @ np.linalg.cholesky(cov).T
    s = x.T @ x / t_eff
    d = 1 / np.sqrt(np.diag(s))
    corr = s * np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    out = est.clip_clean(corr, n / t_eff)
    assert np.linalg.eigvalsh(out).max() > 5.0


def test_cleaner_input_validation():
    with pytest.raises(InvalidInput):
        est.rie_clean(np.diag([2.0, 1.0]), 0.3)
    with pytest.raises(InvalidInput):
        est.rie_clean(np.eye(3), 0.0)


def test_default_sample_ratio():
    assert est.default_sample_ratio(10, 0.01) == pytest.approx(10 * 0.01 / 1.99)


def test_first_weekly_update_sets_scale_matched_identity():
    state = est.CovarianceState(n=2, cov_rate=0.1)
    r = np.array([2.0, 0.0])
    state = est.update_daily(state, r)
    state = est.roll_week(state)
    scale = np.mean(r * r)  # identity seeded at the first week's magnitude
    want = 0.9 * scale * np.eye(2) + 0.1 * np.outer(r, r)
    assert np.allclose(state.weekly_cov, want)


@pytest.mark.parametrize("cleaner", ["rie", "clip", "none"])
def test_stacked_cleaning_equals_one_matrix_calls(cleaner):
    clean = est.CLEANERS[cleaner]
    stack = correlation_cases(22)
    for ratio in (0.05, 0.4):
        cleaned = clean(stack, ratio)
        blocks = clean(stack.reshape(4, 1, 2, *stack.shape[1:]), ratio)
        for k, corr in enumerate(stack):
            one = clean(corr, ratio)
            assert np.array_equal(cleaned[k], one), k
            assert np.array_equal(blocks[k // 2, 0, k % 2], one), k
    with pytest.raises(InvalidInput):  # one bad diagonal fails the stack
        clean(np.stack([np.eye(3), np.diag([2.0, 1.0, 1.0])]), 0.3)
