import numpy as np
import pytest

from helpers import correlation_cases, rand_spd
from trendlab import estimation as est
from trendlab import signals
from trendlab.errors import DegenerateVariance, InvalidInput


def weekly_sums(series, week_len=5):
    weeks = len(series) // week_len
    return series[:weeks * week_len].reshape(weeks, week_len, -1).sum(axis=1)


def feed(series, week_len=5, cov_rate=est.DEFAULT_COV_RATE, var_rate=est.DEFAULT_VAR_RATE):
    """Daily variances and weekly covariance after the whole series."""
    variances = est.update_daily(None, series, var_rate)[1]
    return variances, est.roll_week(None, weekly_sums(series, week_len), cov_rate)[1]


def test_variance_fixed_point_constant_returns():
    path, variances = est.update_daily(None, np.ones((100, 2)), 0.01)
    assert np.array_equal(variances, np.ones(2))
    assert np.array_equal(path[0], np.zeros(2))  # no day seen before the first
    assert np.array_equal(path[1:], np.ones((99, 2)))


def test_variance_pure_decay():
    rate = 0.02
    path, _ = est.update_daily(np.ones(1), np.zeros((50, 1)), rate)
    for t in range(1, 51):  # path row t-1 holds the variances before day t
        assert path[t - 1, 0] == pytest.approx((1 - rate) ** (t - 1), rel=1e-12)


def test_variance_long_run_level():
    rng = np.random.default_rng(0)
    sigma = 0.02
    _, variances = est.update_daily(None, rng.normal(0.0, sigma, size=(20_000, 1)), 0.01)
    assert abs(variances[0] - sigma**2) < 0.1 * sigma**2


def test_roll_week_single_update_from_zero():
    covs, cov = est.roll_week(np.zeros((3, 3)), np.array([[1.0, 0.0, 0.0]]), 0.1)
    want = np.zeros((3, 3))
    want[0, 0] = 0.1
    assert covs.shape == (1, 3, 3) and np.array_equal(covs[0], np.zeros((3, 3)))
    assert np.allclose(cov, want)


def test_roll_week_fixed_point():
    rate = 0.01
    weekly = np.array([0.3, -0.2])
    _, cov = est.roll_week(None, np.tile(weekly, (2000, 1)), rate)
    assert np.abs(cov - np.outer(weekly, weekly)).max() < 1e-6


def test_weekly_correlation_recovers_iid_structure():
    rng = np.random.default_rng(5)
    noise = rand_spd(rng, 3)
    scale = 1.0 / np.sqrt(np.diag(noise))
    want = noise * np.outer(scale, scale)
    chol = np.linalg.cholesky(noise)
    series = rng.standard_normal((20_000, 3)) @ chol.T
    got = est.correlation(feed(series, cov_rate=1 / 750)[1])
    assert np.abs(got - want).max() < 0.05


def test_correlation_closed_form_and_errors():
    got = est.correlation(np.array([[4.0, 2.0], [2.0, 9.0]]))
    assert np.allclose(got, [[1.0, 1.0 / 3.0], [1.0 / 3.0, 1.0]])
    assert np.array_equal(np.diag(got), np.ones(2))
    with pytest.raises(DegenerateVariance):
        est.correlation(np.diag([0.0, 1.0]))
    with pytest.raises(DegenerateVariance):  # one bad diagonal fails the stack
        est.correlation(np.stack([np.eye(2), np.diag([1.0, -1.0])]))


def test_correlation_bounds_random_input():
    rng = np.random.default_rng(2)
    got = est.correlation(rand_spd(rng, 5))
    off = got[~np.eye(5, dtype=bool)]
    assert np.array_equal(np.diag(got), np.ones(5))
    assert (np.abs(off) <= 1.0).all()
    stack = np.stack([rand_spd(rng, 5) for _ in range(6)]).reshape(2, 3, 5, 5)
    stacked = est.correlation(stack)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(stacked[idx], est.correlation(stack[idx])), idx


def test_vol_estimate_tracks_true_sigma():
    rng = np.random.default_rng(3)
    _, variances = est.update_daily(None, rng.normal(0.0, 0.01, size=(2000, 1)), 0.01)
    assert abs(np.sqrt(variances[0]) - 0.01) < 0.15 * 0.01


def test_update_and_roll_validation():
    with pytest.raises(InvalidInput):
        est.update_daily(np.ones(2), np.zeros((1, 3)), 0.01)
    with pytest.raises(InvalidInput):
        est.update_daily(None, np.zeros(2), 0.01)  # one day is a (1, n) run
    with pytest.raises(InvalidInput):
        est.update_daily(None, np.array([[np.nan, 0.0]]), 0.01)
    with pytest.raises(InvalidInput):
        est.roll_week(None, np.array([[0.0, np.inf]]), 0.01)
    with pytest.raises(InvalidInput):
        est.roll_week(np.eye(3), np.zeros((1, 2)), 0.01)
    with pytest.raises(InvalidInput):
        est.roll_week(np.eye(2)[:1], np.zeros((1, 2)), 0.01)
    for rate in (0.0, 1.0, 2.0, -0.5):
        with pytest.raises(InvalidInput):
            est.update_daily(None, np.ones((1, 2)), rate)
        with pytest.raises(InvalidInput):
            est.roll_week(None, np.ones((1, 2)), rate)
    # an empty run changes nothing
    path, variances = est.update_daily(np.ones(2), np.zeros((0, 2)), 0.01)
    assert path.shape == (0, 2) and np.array_equal(variances, np.ones(2))
    assert est.update_daily(None, np.zeros((0, 2)), 0.01)[1] is None
    covs, cov = est.roll_week(None, np.zeros((0, 2)), 0.01)
    assert covs.shape == (0, 2, 2) and cov is None


def test_scaling_commutes_through_the_estimators():
    rng = np.random.default_rng(4)
    series = rng.standard_normal((600, 3))
    a_var, a_cov = feed(series)
    b_var, b_cov = feed(2.0 * series)
    assert np.abs(b_cov - 4.0 * a_cov).max() < 1e-10 * np.abs(b_cov).max()
    assert np.abs(b_var - 4.0 * a_var).max() < 1e-12
    assert np.abs(est.correlation(a_cov) - est.correlation(b_cov)).max() < 1e-10


@pytest.mark.parametrize("days,weeks", [(1, 1), (3, 2), (260, 52)])
def test_runs_fed_in_pieces_equal_one_run(days, weeks):
    """The carried state is the whole state: feeding a run in pieces of `days`
    days (and its weekly sums in pieces of `weeks` weeks) is bit-identical to
    feeding it in one call, so the seeds apply once, on the first day and week."""
    rng = np.random.default_rng(13)
    series = rng.standard_normal((1003, 4)) * np.array([0.5, 1.0, 2.0, 1.0])
    sums = weekly_sums(series)
    sig_path, sig = signals.update(np.zeros(4), series, 0.05)
    var_path, var = est.update_daily(None, series, 0.05)
    cov_path, cov = est.roll_week(None, sums, 0.05)
    s, v, c = np.zeros(4), None, None
    sig_parts, var_parts, cov_parts = [], [], []
    for lo in range(0, len(series), days):
        part, s = signals.update(s, series[lo:lo + days], 0.05)
        sig_parts.append(part)
        part, v = est.update_daily(v, series[lo:lo + days], 0.05)
        var_parts.append(part)
    for lo in range(0, len(sums), weeks):
        part, c = est.roll_week(c, sums[lo:lo + weeks], 0.05)
        cov_parts.append(part)
    assert np.array_equal(np.concatenate(sig_parts), sig_path) and np.array_equal(s, sig)
    assert np.array_equal(np.concatenate(var_parts), var_path) and np.array_equal(v, var)
    assert np.array_equal(np.concatenate(cov_parts), cov_path) and np.array_equal(c, cov)


def test_rie_identity_input():
    assert np.abs(est.rie_clean(np.eye(8), 0.4) - np.eye(8)).max() < 1e-12


def test_rie_no_noise_limit_keeps_spectrum():
    rng = np.random.default_rng(5)
    corr = est.correlation(rand_spd(rng, 5))
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
    corr = est.correlation(rand_spd(rng, 6))
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
    for ratio in (0.0, np.inf, np.nan, "0.1", True):
        for clean in (est.rie_clean, est.clip_clean):
            with pytest.raises(InvalidInput):
                clean(np.eye(3), ratio)


def test_default_sample_ratio():
    assert est.default_sample_ratio(10, 0.01) == pytest.approx(10 * 0.01 / 1.99)


def test_first_weekly_update_sets_scale_matched_identity():
    r = np.array([2.0, 0.0])
    path, cov = est.roll_week(None, r[None], 0.1)
    scale = np.mean(r * r)  # identity seeded at the first week's magnitude
    assert np.array_equal(path, [scale * np.eye(2)])  # the seed is the path's first row
    want = 0.9 * scale * np.eye(2) + 0.1 * np.outer(r, r)
    assert np.allclose(cov, want)


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
