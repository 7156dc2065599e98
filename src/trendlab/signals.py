"""Linear trend signals, per-asset EMAs of past returns, and the sums of kernel powers.

`ema` is the one exponential recursion: the generator's trend, the signal and
both estimators run it.  The signal available at time t is
sum_{t'<t} (1-rate)^(t-t'-1) r_{t'}, so a signal never sees the return it will
be traded against; one day is a run of length 1, and feeding a run in pieces
gives the same path as feeding it whole.  `power_sum` is the one sum of kernel
powers, the oracle's and the generator's, at any t and at t = infinity.
`check_number` checks every scalar knob, the CLI's too, against an interval.
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


def check_number(name: str, value, bounds: str = "(-inf, inf)", kind: type = float,
                 error: type = InvalidInput):
    """value as `kind` if it lies in `bounds`, an interval like "(0, 0.5]" or "[1, inf)"
    that holds no nan or +-inf, else `error`: a float knob takes any int, float or
    numpy real, an int knob only an int or numpy integer, and neither takes a bool."""
    real = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, real):
        what = "an integer" if kind is int else "a real number"
        raise error(f"{name} must be {what}, got {value!r}")
    low, high = (float(x) for x in bounds[1:-1].split(","))
    if not (-np.inf < value < np.inf
            and (low < value if bounds[0] == "(" else low <= value)
            and (value < high if bounds[-1] == ")" else value <= high)):
        raise error(f"{name} must be in {bounds}, got {value}")
    return kind(value)


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
    check_number("rate", rate, "(0, 1)")
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
    m = check_number("m", m, "[0, inf)", int, InvalidIndex)
    total, power = np.zeros_like(step), eye
    for bit in bin(m)[2:]:
        total, power = total + power @ total, power @ power
        if bit == "1":
            total, power = total + power, power @ step
    return total
