"""Interacting-agents model of strategy herding.

Each of A agents holds one of N strategies.  Every step an agent scores each
strategy by its own fixed Gaussian preference plus a constant coupling times
the number of current adopters, then switches to the argmax; all agents
update synchronously and an agent's own adoption counts toward the total.
Above a critical coupling a single dominant strategy emerges.

A step depends only on the previous adopter counts, so once a repetition's
counts repeat they stay fixed: each repetition stops there and fills its
remaining steps with those counts, which is exact.

Repetition r draws its preferences and initial choices once, from child r
of `SeedSequence(seed)`.  `run` steps them at one coupling; `transition_curve`
steps the same draws at every coupling of its grid, so the grid points share
their repetitions (common random numbers) and grid point i equals `run` at
coupling i.  Both simulate the repetitions on two threads, the even ones on
the calling thread and the odd ones on a worker; each repetition writes only
its own results, so they are the same as a one-thread run's.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInput
from .signals import check_number


@dataclass(frozen=True)
class AgentSimParams:
    agents: int
    strategies: int
    coupling: float  # intrinsic amplitude j; the per-adopter coupling is j*sqrt(N)/A
    steps: int
    reps: int
    seed: int = 0

    def __post_init__(self):
        for name in ("agents", "strategies", "steps", "reps"):
            check_number(name, getattr(self, name), "[1, inf)", int)
        check_number("coupling", self.coupling, "[0, inf)")
        # j*sqrt(N) bounds the coupling term c*counts; Python floats overflow to inf silently
        if not math.isfinite(float(self.coupling) * math.sqrt(self.strategies)):
            raise InvalidInput(f"coupling {self.coupling} times the square root of "
                               f"{self.strategies} strategies is not finite")
        check_number("seed", self.seed, "[0, inf)", int)

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


def _simulate(params: AgentSimParams, couplings, keep) -> None:
    """Step each rep's one draw to its fixed point at every coupling.

    `keep(rep, i, path)` gets rep's (steps+1) x N counts at couplings[i], in a
    scratch array its thread reuses.  The calling thread runs the even reps
    and a worker thread the odd ones; an exception in either half is raised
    here, after the worker has been joined.
    """
    seeds = np.random.SeedSequence(params.seed).spawn(params.reps)
    failures = []

    def simulate(first: int) -> None:
        try:
            path = np.empty((params.steps + 1, params.strategies), dtype=np.int64)
            for rep in range(first, params.reps, 2):
                rng = np.random.default_rng(seeds[rep])
                prefs = rng.standard_normal((params.agents, params.strategies))
                choices = rng.integers(0, params.strategies, size=params.agents)
                start = np.bincount(choices, minlength=params.strategies)
                for i, coupling in enumerate(couplings):
                    path[0] = start
                    for t in range(1, params.steps + 1):
                        choices = step(prefs, path[t - 1], coupling)
                        path[t] = np.bincount(choices, minlength=params.strategies)
                        if np.array_equal(path[t], path[t - 1]):
                            path[t + 1:] = path[t]
                            break
                    keep(rep, i, path)
        except BaseException as exc:  # re-raised below, once both halves are done
            failures.append(exc)

    worker = threading.Thread(target=simulate, args=(1,))
    worker.start()
    simulate(0)
    worker.join()
    if failures:
        raise failures[0]


def run(params: AgentSimParams) -> SimResult:
    """Monte-Carlo runs with fresh preferences and initial adoption each rep."""
    counts = np.zeros((params.reps, params.steps + 1, params.strategies), dtype=np.int64)

    def keep(rep, _, path):
        counts[rep] = path

    _simulate(params, [params.per_adopter_coupling], keep)
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

    Every grid point steps the same M draws, those `run` makes at
    `params.seed`, so point i equals `run(replace(params, coupling=grid[i]))`
    and neighbouring points are positively correlated.  Only the final
    counts, (grid, M, N), are kept.
    """
    grid = np.asarray(coupling_grid, dtype=float)
    if grid.size == 0:
        raise InvalidInput("coupling grid is empty")
    # replace checks every grid coupling before any rep is simulated
    couplings = [replace(params, coupling=float(j)).per_adopter_coupling for j in grid]
    finals = np.empty((grid.size, params.reps, params.strategies), dtype=np.int64)

    def keep(rep, i, path):
        finals[i, rep] = path[-1]

    _simulate(params, couplings, keep)
    per_run = (finals / params.agents).max(axis=2)  # (grid, M); one run's spread is 0
    stderr = per_run.std(axis=1, ddof=1 if params.reps > 1 else 0) / np.sqrt(params.reps)
    return TransitionCurve(couplings=grid, max_fraction=per_run.mean(axis=1), stderr=stderr)
