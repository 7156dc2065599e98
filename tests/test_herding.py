import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from trendlab import herding
from trendlab.errors import InvalidInput


def test_no_interaction_fixed_point():
    rng = np.random.default_rng(0)
    prefs = rng.standard_normal((20, 5))
    stepped = herding.step(prefs, np.bincount(rng.integers(0, 5, 20), minlength=5), 0.0)
    assert np.array_equal(stepped, prefs.argmax(axis=1))
    again = herding.step(prefs, np.bincount(stepped, minlength=5), 0.0)
    assert np.array_equal(again, stepped)


def test_strong_coupling_takeover():
    rng = np.random.default_rng(1)
    prefs = rng.standard_normal((30, 4))
    choices = np.zeros(30, dtype=int)
    choices[:17] = 2  # strategy 2 holds the plurality
    stepped = herding.step(prefs, np.bincount(choices, minlength=4), 1e6)
    assert (stepped == 2).all()


def test_three_agents_two_strategies_by_hand():
    prefs = np.array([[0.5, 0.0],
                      [0.0, 0.4],
                      [-0.2, -0.1]])
    counts = np.bincount([1, 1, 0], minlength=2)  # strategy0=1, strategy1=2
    j = 0.3
    scores = prefs + j * np.array([1.0, 2.0])[None, :]
    # agent 0: 0.8 vs 0.6 -> 0; agent 1: 0.3 vs 1.0 -> 1; agent 2: 0.1 vs 0.5 -> 1
    want = scores.argmax(axis=1)
    assert np.array_equal(herding.step(prefs, counts, j), want)
    assert np.array_equal(want, [0, 1, 1])


def test_argmax_ties_take_lowest_index():
    prefs = np.zeros((2, 3))
    assert np.array_equal(herding.step(prefs, np.bincount([2, 1], minlength=3), 0.0), [0, 0])


def test_run_initial_interest_is_uniform():
    params = herding.AgentSimParams(agents=1000, strategies=50, coupling=1.5,
                                    steps=3, reps=100, seed=4)
    result = herding.run(params)
    target = 1.0 / 50
    se = np.sqrt(target * (1 - target) / (1000 * 100))
    assert np.abs(result.mean_fraction[0] - target).max() < 3 * se + 1e-12


def test_adoption_counts_are_exactly_row_stochastic():
    params = herding.AgentSimParams(agents=97, strategies=7, coupling=2.0,
                                    steps=20, reps=9, seed=5)
    result = herding.run(params)
    assert (result.counts.sum(axis=2) == 97).all()
    assert np.abs(result.mean_fraction.sum(axis=1) - 1.0).max() < 1e-12


def test_run_is_deterministic():
    params = herding.AgentSimParams(agents=50, strategies=6, coupling=1.0,
                                    steps=10, reps=5, seed=6)
    assert np.array_equal(herding.run(params).counts, herding.run(params).counts)


def test_label_permutation_symmetry():
    rng = np.random.default_rng(7)
    n = 6
    prefs = rng.standard_normal((40, n))
    choices = rng.integers(0, n, 40)
    perm = rng.permutation(n)
    a = herding.step(prefs, np.bincount(choices, minlength=n), 0.7)
    b = herding.step(prefs[:, np.argsort(perm)], np.bincount(perm[choices], minlength=n), 0.7)
    assert np.array_equal(perm[a], b)


def test_intermediate_coupling_mixes_outcomes():
    params = herding.AgentSimParams(agents=1000, strategies=50, coupling=1.5,
                                    steps=50, reps=100, seed=3)
    result = herding.run(params)
    finals = (result.counts[:, -1, :] / result.agents).max(axis=1)
    assert (finals > 0.5).sum() > 0       # some runs crown a dominant strategy
    assert (finals < 0.2).sum() > 0       # others stay spread out


def test_transition_curve_limits():
    base = herding.AgentSimParams(agents=400, strategies=20, coupling=0.0,
                                  steps=40, reps=40, seed=8)
    curve = herding.transition_curve(base, [0.0, 4.0])
    assert curve.max_fraction[0] < 3.0 / 20
    assert curve.max_fraction[0] >= 1.0 / 20
    assert curve.max_fraction[1] > 0.9
    assert curve.stderr.shape == (2,)
    with pytest.raises(InvalidInput):
        herding.transition_curve(base, [])


def test_final_fractions_slice_the_counts_before_dividing():
    params = herding.AgentSimParams(agents=400, strategies=20, coupling=1.5,
                                    steps=40, reps=40, seed=1)
    result = herding.run(params)
    want = (result.counts / result.agents)[:, -1, :].max(axis=1)
    assert np.array_equal((result.counts[:, -1, :] / result.agents).max(axis=1), want)
    grid = [0.5, 1.5]
    curve = herding.transition_curve(params, grid)
    for i, j in enumerate(grid):
        run = herding.run(replace(params, coupling=j))
        per_run = (run.counts / run.agents)[:, -1, :]
        assert curve.max_fraction[i] == per_run.max(axis=1).mean()
        assert curve.stderr[i] == per_run.max(axis=1).std(ddof=1) / np.sqrt(params.reps)


def test_state_validation():
    with pytest.raises(InvalidInput):
        herding.AgentSimParams(agents=0, strategies=5, coupling=1.0, steps=5, reps=1)
    with pytest.raises(InvalidInput):
        herding.AgentSimParams(agents=5, strategies=5, coupling=-1.0, steps=5, reps=1)
    for coupling in (np.nan, np.inf):  # an all-NaN score row would argmax to strategy 0
        with pytest.raises(InvalidInput, match="coupling"):
            herding.AgentSimParams(agents=20, strategies=4, coupling=coupling, steps=5, reps=2)
    with pytest.raises(InvalidInput, match="seed"):
        herding.AgentSimParams(agents=20, strategies=4, coupling=1.0, steps=5, reps=2, seed=-1)
    # j*sqrt(N) overflows: an infinite per-adopter coupling times a zero count scores NaN
    with pytest.raises(InvalidInput, match="coupling"):
        herding.AgentSimParams(agents=1000, strategies=50, coupling=1e308, steps=5, reps=4)
    herding.AgentSimParams(agents=1000, strategies=1, coupling=1e308, steps=5, reps=4)


def reference_run(params):
    """The full loop `run` used before its early stop: every rep steps all `steps`."""
    coupling = params.per_adopter_coupling
    seeds = np.random.SeedSequence(params.seed).spawn(params.reps)
    counts = np.zeros((params.reps, params.steps + 1, params.strategies), dtype=np.int64)
    for rep, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        prefs = rng.standard_normal((params.agents, params.strategies))
        choices = rng.integers(0, params.strategies, size=params.agents)
        counts[rep, 0] = np.bincount(choices, minlength=params.strategies)
        for t in range(1, params.steps + 1):
            choices = herding.step(prefs, counts[rep, t - 1], coupling)
            counts[rep, t] = np.bincount(choices, minlength=params.strategies)
    return herding.SimResult(counts=counts, agents=params.agents)


def first_repeat(counts):
    """Per rep, the first step whose counts equal the step before, else the last step."""
    steps = counts.shape[1] - 1
    same = (counts[:, 1:] == counts[:, :-1]).all(axis=2)
    return np.where(same.any(axis=1), same.argmax(axis=1) + 1, steps)


EARLY_STOP_CASES = {
    "j0": dict(agents=200, strategies=10, coupling=0.0, steps=30, reps=12, seed=11),
    "j1.5": dict(agents=300, strategies=20, coupling=1.5, steps=40, reps=12, seed=12),
    "j8": dict(agents=200, strategies=10, coupling=8.0, steps=30, reps=12, seed=13),
    "one-step": dict(agents=100, strategies=8, coupling=1.5, steps=1, reps=6, seed=14),
    "no-repeat": dict(agents=1000, strategies=50, coupling=1.5, steps=3, reps=10, seed=15),
    "one-agent": dict(agents=1, strategies=5, coupling=1.5, steps=10, reps=6, seed=16),
    "one-strategy": dict(agents=50, strategies=1, coupling=1.5, steps=10, reps=6, seed=17),
    "one-rep": dict(agents=300, strategies=20, coupling=1.5, steps=40, reps=1, seed=18),
    "two-reps": dict(agents=300, strategies=20, coupling=1.5, steps=40, reps=2, seed=21),
    "odd-reps": dict(agents=300, strategies=20, coupling=1.5, steps=40, reps=7, seed=22),
}


@pytest.mark.parametrize("case", EARLY_STOP_CASES)
def test_early_stop_matches_the_full_loop(case):
    params = herding.AgentSimParams(**EARLY_STOP_CASES[case])
    want = reference_run(params).counts
    assert np.array_equal(herding.run(params).counts, want)
    if case == "no-repeat":  # no rep settles by step 3: the path without a stop
        assert not (want[:, 1:] == want[:, :-1]).all(axis=2).any()


def reference_curve(params, grid):
    """Grid point i by the per-run formula on `reference_run` at coupling grid[i] and the base seed."""
    maxima, stderr = [], []
    for j in grid:
        result = reference_run(replace(params, coupling=j))
        per_run = (result.counts[:, -1, :] / result.agents).max(axis=1)
        maxima.append(per_run.mean())
        stderr.append(per_run.std(ddof=1) / np.sqrt(params.reps))
    return np.array(maxima), np.array(stderr)


def test_transition_curve_matches_the_full_loop():
    base = herding.AgentSimParams(agents=300, strategies=20, coupling=0.0,
                                  steps=40, reps=12, seed=19)
    grid = [0.0, 1.5, 4.0]
    got = herding.transition_curve(base, grid)
    maxima, stderr = reference_curve(base, grid)
    assert np.array_equal(got.couplings, grid)
    assert (got.max_fraction == maxima).all()
    assert (got.stderr == stderr).all()


def test_grid_points_do_not_reuse_a_nearby_seed():
    base = herding.AgentSimParams(agents=300, strategies=20, coupling=0.0,
                                  steps=40, reps=12, seed=7)
    later = herding.transition_curve(base, [0.0, 1.5])
    nearby = herding.transition_curve(replace(base, seed=8), [1.5])
    assert (later.max_fraction[1], later.stderr[1]) != (nearby.max_fraction[0], nearby.stderr[0])


def test_each_rep_draws_once_per_curve(monkeypatch):
    draws = []
    real_default_rng = np.random.default_rng

    def counting_default_rng(*args):
        draws.append(1)
        return real_default_rng(*args)

    monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
    params = herding.AgentSimParams(agents=100, strategies=10, coupling=0.0,
                                    steps=20, reps=5, seed=27)
    herding.transition_curve(params, [0.0, 1.5, 4.0])
    assert len(draws) == params.reps


def test_each_rep_stops_at_its_fixed_point(monkeypatch):
    calls = []
    real_step = herding.step

    def counting_step(*args):
        calls.append(1)
        return real_step(*args)

    monkeypatch.setattr(herding, "step", counting_step)
    params = herding.AgentSimParams(agents=300, strategies=20, coupling=1.5,
                                    steps=60, reps=12, seed=20)
    counts = herding.run(params).counts
    stops = first_repeat(counts)
    assert len(calls) == stops.sum()
    assert len(calls) < params.reps * params.steps  # some rep settled before the last step


class StepFailed(Exception):
    pass


GRID = [0.0, 1.5, 4.0]


def curve_values(curve):
    return np.stack([curve.max_fraction, curve.stderr])


# each caller of the shared rep loop, and its reference, as one array to compare
CALLERS = {
    "run": lambda params: herding.run(params).counts,
    "transition_curve": lambda params: curve_values(herding.transition_curve(params, GRID)),
}
REFERENCES = {
    "run": lambda params: reference_run(params).counts,
    "transition_curve": lambda params: np.stack(reference_curve(params, GRID)),
}


def on_both_callers(values):
    """Each value on `run`, with the value alone as its id, and on `transition_curve`."""
    return ([pytest.param(value, "run", id=str(value)) for value in values]
            + [pytest.param(value, "transition_curve", id=f"{value}-transition_curve")
               for value in values])


# rep 0 runs on the calling thread, rep 1 on the worker
@pytest.mark.parametrize("bad_rep,caller", on_both_callers([0, 1]))
def test_a_failing_rep_raises_and_leaves_no_thread(monkeypatch, bad_rep, caller):
    params = herding.AgentSimParams(agents=100, strategies=10, coupling=1.5,
                                    steps=20, reps=6, seed=23)
    bad_prefs = np.random.default_rng(
        np.random.SeedSequence(params.seed).spawn(params.reps)[bad_rep]
    ).standard_normal((params.agents, params.strategies))
    real_step = herding.step

    def failing_step(prefs, counts, coupling):
        if np.array_equal(prefs, bad_prefs):
            raise StepFailed(bad_rep)
        return real_step(prefs, counts, coupling)

    monkeypatch.setattr(herding, "step", failing_step)
    before = threading.active_count()
    with pytest.raises(StepFailed) as raised:
        CALLERS[caller](params)
    assert raised.value.args == (bad_rep,)
    assert threading.active_count() == before


@pytest.mark.parametrize("seed,caller", on_both_callers([24, 25, 26]))
def test_perturbed_interleaving_keeps_the_counts(monkeypatch, seed, caller):
    params = herding.AgentSimParams(agents=200, strategies=10, coupling=1.5,
                                    steps=30, reps=9, seed=seed)
    want = REFERENCES[caller](params)
    real_step = herding.step

    def yielding_step(*args):
        time.sleep(0)
        return real_step(*args)

    monkeypatch.setattr(herding, "step", yielding_step)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = CALLERS[caller](params)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, want)


def test_counts_and_seed_must_be_integers():
    base = dict(agents=20, strategies=4, coupling=1.0, steps=5, reps=2, seed=0)
    for field, bad in (("agents", 2.5), ("strategies", 2.0), ("steps", 5.0), ("reps", True),
                       ("seed", 1.5), ("seed", False), ("agents", "20")):
        with pytest.raises(InvalidInput, match=field):
            herding.AgentSimParams(**{**base, field: bad})
    for field in ("agents", "strategies", "steps", "reps"):
        with pytest.raises(InvalidInput, match="must all be >= 1"):
            herding.AgentSimParams(**{**base, field: 0})
    with pytest.raises(InvalidInput, match="seed must be non-negative"):
        herding.AgentSimParams(**{**base, "seed": -1})
    params = herding.AgentSimParams(**{**base, "agents": np.int64(20), "seed": np.int64(3)})
    assert np.array_equal(herding.run(params).counts,
                          herding.run(replace(params, agents=20, seed=3)).counts)
