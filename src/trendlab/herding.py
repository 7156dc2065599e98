"""Interacting-agents model of strategy herding.

Each of A agents holds one of N strategies.  Every step an agent scores each
strategy by its own fixed Gaussian preference plus a constant coupling times
the number of current adopters, then switches to the argmax; all agents
update synchronously and an agent's own adoption counts toward the total.
Above a critical coupling a single dominant strategy emerges.

A step depends only on the previous adopter counts, so once a repetition's
counts repeat they stay fixed: `run` stops each repetition there and fills
its remaining steps with those counts, which is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInput


@dataclass(frozen=True)
class AgentSimParams:
    agents: int
    strategies: int
    coupling: float  # intrinsic amplitude j; the per-adopter coupling is j*sqrt(N)/A
    steps: int
    reps: int
    seed: int = 0

    def __post_init__(self):
        if min(self.agents, self.strategies, self.steps, self.reps) < 1:
            raise InvalidInput("agents, strategies, steps and reps must all be >= 1")
        if self.coupling < 0.0:
            raise InvalidInput(f"coupling must be non-negative, got {self.coupling}")

    @property
    def per_adopter_coupling(self) -> float:
        return self.coupling * np.sqrt(self.strategies) / self.agents


def step(preferences: np.ndarray, counts: np.ndarray, coupling: float) -> np.ndarray:
    """Synchronous re-evaluation: each agent's new choice given the current adopter counts.

    preferences is A x N, counts has one entry per strategy, and coupling is
    the per-adopter coupling; argmax breaks ties toward the lowest index.
    """
    scores = preferences + coupling * counts[None, :]
    return scores.argmax(axis=1)


@dataclass(frozen=True, eq=False)
class SimResult:
    """Adoption counts per (rep, step, strategy) and the agent count.

    counts are integers, so row-stochasticity is exact: counts.sum(axis=2)
    equals the number of agents at every step of every repetition.
    """

    counts: np.ndarray
    agents: int

    @property
    def mean_fraction(self) -> np.ndarray:
        """Average interest per strategy over repetitions, (steps+1) x N."""
        return self.counts.mean(axis=0) / self.agents


def run(params: AgentSimParams) -> SimResult:
    """Monte-Carlo runs with fresh preferences and initial adoption each rep.

    Each rep draws from its own SeedSequence child, all before its first
    step, and stops at the first step whose counts equal the step before.
    """
    coupling = params.per_adopter_coupling
    seeds = np.random.SeedSequence(params.seed).spawn(params.reps)
    counts = np.zeros((params.reps, params.steps + 1, params.strategies), dtype=np.int64)
    for rep, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        prefs = rng.standard_normal((params.agents, params.strategies))
        choices = rng.integers(0, params.strategies, size=params.agents)
        counts[rep, 0] = np.bincount(choices, minlength=params.strategies)
        for t in range(1, params.steps + 1):
            choices = step(prefs, counts[rep, t - 1], coupling)
            counts[rep, t] = np.bincount(choices, minlength=params.strategies)
            if np.array_equal(counts[rep, t], counts[rep, t - 1]):
                counts[rep, t + 1:] = counts[rep, t]
                break
    return SimResult(counts=counts, agents=params.agents)


@dataclass(frozen=True, eq=False)
class TransitionCurve:
    couplings: np.ndarray
    max_fraction: np.ndarray
    stderr: np.ndarray


def transition_curve(params: AgentSimParams, coupling_grid) -> TransitionCurve:
    """Steady-state average maximal fraction per coupling.

    The winning strategy differs from run to run (the symmetry breaks
    spontaneously), so dominance is measured per run: each repetition
    contributes max_k of its own final adopted fractions, and the curve
    reports the mean and standard error of that maximum over repetitions.

    Grid point i runs with seed `params.seed + i`, so the streams of nearby
    base seeds overlap: (seed=7, i=1) reuses the stream of (seed=8, i=0).
    """
    grid = np.asarray(coupling_grid, dtype=float)
    if grid.size == 0:
        raise InvalidInput("coupling grid is empty")
    maxima = np.empty(grid.size)
    stderr = np.empty(grid.size)
    for i, j in enumerate(grid):
        result = run(replace(params, coupling=float(j), seed=params.seed + i))
        per_run = (result.counts[:, -1, :] / result.agents).max(axis=1)
        maxima[i] = per_run.mean()
        stderr[i] = per_run.std(ddof=1) / np.sqrt(params.reps) if params.reps > 1 else 0.0
    return TransitionCurve(couplings=grid, max_fraction=maxima, stderr=stderr)
