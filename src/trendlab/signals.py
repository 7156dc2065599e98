"""Linear trend signals, per-asset EMAs of past returns, and the sums of kernel powers.

`ema` is the one exponential recursion: the generator's trend, the signal and
both estimators run it.  The signal available at time t is
sum_{t'<t} (1-rate)^(t-t'-1) r_{t'}, so a signal never sees the return it will
be traded against; one day is a run of length 1, and feeding a run in pieces
gives the same path as feeding it whole.  `power_sum` is the one sum of kernel
powers, the oracle's and the generator's, at any t and at t = infinity.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidIndex, InvalidInput


def check_run(returns: np.ndarray, n: int | None = None) -> np.ndarray:
    """A run of days as a finite (k, n) float array; n is checked when given."""
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2 or returns.shape[1] < 1 or (n is not None and returns.shape[1] != n):
        raise InvalidInput(f"returns must be a (days, {n or 'n'}) array, got shape {returns.shape}")
    if not np.isfinite(returns).all():
        raise InvalidInput("returns contain non-finite entries")
    return returns


def check_rate(name: str, rate: float) -> None:
    """An EMA rate must lie in (0, 1)."""
    if not 0.0 < rate < 1.0:
        raise InvalidInput(f"{name} must be in (0,1), got {rate}")


def check_index(name: str, value, error: type = InvalidIndex) -> int:
    """A day index or count must be an int or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def ema(x, shocks: np.ndarray, decay: float) -> tuple[np.ndarray, np.ndarray]:
    """x <- decay*x + shock over the rows of `shocks`: the path, whose row i is the
    state before shock i, and the state after the last shock."""
    path = np.empty_like(shocks)
    for i, shock in enumerate(shocks):
        path[i] = x
        x = decay * x + shock
    return path, x


def update(values: np.ndarray, returns: np.ndarray, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Fold a run of days into the EMA, starting from the signal `values`.

    Returns the signal path, whose row i is the signal before day i's return,
    and the signal after the last day, to carry into the next run.
    """
    check_rate("rate", rate)
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or not np.isfinite(x).all():
        raise InvalidInput("signal values must be a finite vector")
    return ema(x, check_run(returns, len(x)), 1.0 - rate)


def power_sum(step: np.ndarray, m: int | None) -> np.ndarray:
    """sum_{k<m} step**k for a (..., d, d) stack and an integer m >= 0 (InvalidIndex
    otherwise); m=None sums the series, inv(I - step).

    Over the bits of m from the top, the partial sum and power (S, P) double to
    (S + P S, P P) and a 1 bit adds one term, (S + P, P step): O(log m) stacked
    steps, none of which cancels when no entry of step is negative."""
    eye = np.broadcast_to(np.eye(step.shape[-1]), step.shape)
    if m is None:
        return np.linalg.inv(eye - step)
    if check_index("m", m) < 0:
        raise InvalidIndex(f"m must be >= 0, got {m}")
    total, power = np.zeros_like(step), eye
    for bit in bin(m)[2:]:
        total, power = total + power @ total, power @ power
        if bit == "1":
            total, power = total + power, power @ step
    return total
