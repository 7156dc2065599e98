import re

import numpy as np
import pytest

from trendlab import cli, herding, signals, symmat
from trendlab.errors import InvalidIndex, InvalidInput, InvalidMatrix, InvalidModel


def run_series(rate, series):
    """The signal after the whole series."""
    return signals.update(np.zeros(series.shape[1]), series, rate)[1]


def test_zero_returns_keep_zero_signal():
    path, values = signals.update(np.zeros(3), np.zeros((50, 3)), 0.1)
    assert path.shape == (50, 3)
    assert np.array_equal(path, np.zeros((50, 3))) and np.array_equal(values, np.zeros(3))


def test_constant_returns_geometric_sum():
    rate = 0.01
    path, values = signals.update(np.zeros(1), np.ones((299, 1)), rate)
    for t in range(2, 300):  # path row t-1 is the signal at time t
        want = (1.0 - (1.0 - rate) ** (t - 1)) / rate
        assert abs(path[t - 1, 0] - want) < 1e-12
    assert path[0, 0] == 0.0
    assert values[0] < 1.0 / rate  # limit is 100


def test_recursion_matches_direct_weighted_sum():
    rng = np.random.default_rng(10)
    rate = 0.03
    series = rng.standard_normal((500, 4))
    ages = np.arange(len(series) - 1, -1, -1.0)
    direct = ((1.0 - rate) ** ages) @ series
    assert np.abs(run_series(rate, series) - direct).max() < 1e-10


def test_linearity():
    rng = np.random.default_rng(11)
    a, b = 0.7, -2.5
    s1 = rng.standard_normal((200, 2))
    s2 = rng.standard_normal((200, 2))
    mixed = run_series(0.05, a * s1 + b * s2)
    split = a * run_series(0.05, s1) + b * run_series(0.05, s2)
    assert np.abs(mixed - split).max() < 1e-10


def test_signal_never_sees_current_return():
    rng = np.random.default_rng(12)
    series = rng.standard_normal((100, 3))
    bumped = series.copy()
    bumped[-1] += 10.0
    # the signal available on the last day uses returns before it only
    assert np.array_equal(signals.update(np.zeros(3), series, 0.02)[0][-1],
                          signals.update(np.zeros(3), bumped, 0.02)[0][-1])
    assert np.array_equal(run_series(0.02, series[:-1]), run_series(0.02, bumped[:-1]))


def test_update_validates_input():
    with pytest.raises(InvalidInput):
        signals.update(np.zeros(2), np.zeros((1, 3)), 0.1)
    with pytest.raises(InvalidInput):
        signals.update(np.zeros(2), np.zeros(2), 0.1)  # one day is a (1, n) run
    with pytest.raises(InvalidInput):
        signals.update(np.zeros(2), np.array([[0.0, 0.0], [1.0, np.inf]]), 0.1)
    with pytest.raises(InvalidInput):
        signals.update(np.array([0.0, np.nan]), np.zeros((1, 2)), 0.1)
    for rate in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(InvalidInput):
            signals.update(np.zeros(2), np.zeros((1, 2)), rate)


def contractive_steps(rng, count, d):
    """Random (count, d, d) non-negative steps scaled to spectral radius in [0.2, 0.95]."""
    steps = rng.uniform(0.0, 1.0, (count, d, d))
    radius = np.abs(np.linalg.eigvals(steps)).max(axis=-1)
    return steps * (rng.uniform(0.2, 0.95, count) / radius)[:, None, None]


def test_power_sum_first_terms():
    steps = contractive_steps(np.random.default_rng(13), 5, 3)
    assert np.array_equal(signals.power_sum(steps, 0), np.zeros((5, 3, 3)))
    assert np.array_equal(signals.power_sum(steps, 1), np.broadcast_to(np.eye(3), (5, 3, 3)))
    by_hand = np.eye(3) + steps + steps @ steps + steps @ steps @ steps
    assert np.allclose(signals.power_sum(steps, 4), by_hand, rtol=1e-14, atol=0.0)


def test_power_sum_of_the_whole_series_is_the_large_m_limit():
    """m=None is inv(I - step); doubling to m = 10^7 has converged at radius <= 0.95."""
    rng = np.random.default_rng(14)
    for d in (1, 2, 3):
        steps = contractive_steps(rng, 20, d)
        whole, long = signals.power_sum(steps, None), signals.power_sum(steps, 10**7)
        scale = np.abs(long).max(axis=(-2, -1))[:, None, None]
        assert np.all(np.abs(whole - long) <= 1e-12 * scale)


def test_power_sum_of_a_nilpotent_step_needs_no_special_case():
    """The oracle's step at decay 1 (q = 0): every power past the first is p^2 in one corner."""
    p = 0.7
    step = np.array([[p * p, 2 * p, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    whole = signals.power_sum(step, None)
    assert np.allclose(whole, [[1 / (1 - p * p), 2 * p / (1 - p * p), 1 / (1 - p * p)],
                               [0, 1, 0], [0, 0, 1]], rtol=1e-15, atol=0.0)
    assert np.allclose(signals.power_sum(step, 10**6), whole, rtol=1e-14, atol=0.0)


def test_power_sum_takes_a_non_negative_integer_count():
    steps = contractive_steps(np.random.default_rng(15), 2, 3)
    assert np.array_equal(signals.power_sum(steps, np.int64(3)), signals.power_sum(steps, 3))
    for m in (-3, -1, True, False, 2.0, 1.5, "3"):
        with pytest.raises(InvalidIndex):
            signals.power_sum(steps, m)


@pytest.mark.parametrize("bounds, inside, outside", [
    ("(0, 1)", [0.5], [0, 1, -0.5, 1.5]),
    ("[0, 1]", [0, 0.5, 1], [-0.5, 1.5]),
    ("(0, 1]", [0.5, 1], [0, 1.5]),
    ("[0, 1)", [0, 0.5], [1, -0.5]),
    ("[1, inf)", [1, 1e308], [0.5, np.inf]),
    ("(-inf, inf)", [-1e308, 0, 1e308], [np.nan, np.inf, -np.inf]),
    ("[-inf, inf]", [0], [np.nan, np.inf, -np.inf]),  # nan and +-inf lie in no interval
])
def test_check_number_tests_each_end_of_the_interval(bounds, inside, outside):
    for value in inside:
        assert signals.check_number("x", value, bounds) == value
    for value in outside:
        with pytest.raises(InvalidInput) as caught:
            signals.check_number("x", value, bounds)
        assert str(caught.value) == f"x must be in {bounds}, got {value}"


@pytest.mark.parametrize("kind, what", [(float, "a real number"), (int, "an integer")])
@pytest.mark.parametrize("value", [True, False, np.True_, "1", None, [1], 1j])
def test_check_number_rejects_what_is_not_a_number(value, kind, what):
    with pytest.raises(InvalidInput) as caught:
        signals.check_number("x", value, kind=kind)
    assert str(caught.value) == f"x must be {what}, got {value!r}"


@pytest.mark.parametrize("value", [2.0, np.float64(2), 2.5])
def test_an_int_knob_rejects_a_float(value):
    with pytest.raises(InvalidInput, match=re.escape(f"x must be an integer, got {value!r}")):
        signals.check_number("x", value, "[1, inf)", int)


@pytest.mark.parametrize("value, kind, want", [
    (2, float, 2.0), (np.int64(2), float, 2.0), (np.float64(0.5), float, 0.5),
    (np.float32(0.5), float, 0.5), (3, int, 3), (np.int64(3), int, 3), (np.uint8(3), int, 3),
    pytest.param(10**400, int, 10**400, id="int-past-the-largest-float"),
])
def test_check_number_returns_a_python_number_of_its_kind(value, kind, want):
    out = signals.check_number("x", value, "(0, inf)", kind)
    assert type(out) is kind and out == want


@pytest.mark.parametrize("build, error, message", [
    (lambda: signals.check_number("x", 10**400), InvalidInput, "x must be in (-inf, inf)"),
    (lambda: herding.AgentSimParams(10, 5, 10**400, 5, 2), InvalidInput,
     "coupling must be in [0, inf)"),
    (lambda: symmat.System(np.eye(2), 10**400), InvalidMatrix, "ridge must be in [0, inf)"),
], ids=["check_number", "coupling", "ridge"])
def test_a_float_knob_rejects_an_int_past_the_largest_float(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == f"{message}, got an int too large for a float"


@pytest.mark.parametrize("error", [InvalidIndex, InvalidModel, cli.ConfigError])
@pytest.mark.parametrize("value", ["1", -1], ids=["type", "range"])
def test_check_number_raises_the_given_error(error, value):
    with pytest.raises(error) as caught:
        signals.check_number("x", value, "[0, inf)", int, error)
    assert type(caught.value) is error


def test_the_cli_and_the_library_word_a_range_failure_alike():
    with pytest.raises(cli.ConfigError) as flag:
        cli._RATE("eta", "1.5")
    with pytest.raises(InvalidInput) as library:
        signals.check_number("eta", 1.5, "(0, 1)")
    assert str(flag.value) == str(library.value) == "eta must be in (0, 1), got 1.5"


def loop_ema(x, shocks, decay):
    """The recursion as a plain loop: a fresh array per step."""
    path = np.empty_like(shocks)
    for i, shock in enumerate(shocks):
        path[i] = x
        x = decay * x + shock
    return path, x


@pytest.mark.parametrize("k", [0, 1, 257])
@pytest.mark.parametrize("shape", [(4,), (4, 4)], ids=["vectors", "matrices"])
def test_ema_equals_the_plain_loop(k, shape):
    rng = np.random.default_rng(43)
    x, shocks = rng.standard_normal(shape), rng.standard_normal((k, *shape))
    path, state = signals.ema(x, shocks, 0.97)
    want_path, want_state = loop_ema(x, shocks, 0.97)
    assert path.shape == shocks.shape
    assert np.array_equal(path, want_path) and np.array_equal(state, want_state)
