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
    finals = herding.run(params).fractions[:, -1, :].max(axis=1)
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


def test_state_validation():
    with pytest.raises(InvalidInput):
        herding.AgentSimParams(agents=0, strategies=5, coupling=1.0, steps=5, reps=1)
    with pytest.raises(InvalidInput):
        herding.AgentSimParams(agents=5, strategies=5, coupling=-1.0, steps=5, reps=1)


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
}


@pytest.mark.parametrize("case", EARLY_STOP_CASES)
def test_early_stop_matches_the_full_loop(case):
    params = herding.AgentSimParams(**EARLY_STOP_CASES[case])
    want = reference_run(params).counts
    assert np.array_equal(herding.run(params).counts, want)
    if case == "no-repeat":  # no rep settles by step 3: the path without a stop
        assert not (want[:, 1:] == want[:, :-1]).all(axis=2).any()


def test_transition_curve_matches_the_full_loop(monkeypatch):
    base = herding.AgentSimParams(agents=300, strategies=20, coupling=0.0,
                                  steps=40, reps=12, seed=19)
    grid = [0.0, 1.5, 4.0]
    got = herding.transition_curve(base, grid)
    monkeypatch.setattr(herding, "run", reference_run)
    want = herding.transition_curve(base, grid)
    assert np.array_equal(got.couplings, want.couplings)
    assert np.array_equal(got.max_fraction, want.max_fraction)
    assert np.array_equal(got.stderr, want.stderr)


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
