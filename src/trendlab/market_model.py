"""Synthetic market generator.

Daily (volatility-resized) returns are a constant drift plus instantaneous
Gaussian noise plus a stochastic trend, where the trend mixes past shocks
through a causal exponential kernel

    kernel(t, t') = trend_amp * (1 - trend_decay)^(t - t' - 1)   for t > t'.

That kernel makes the trend a discrete Ornstein-Uhlenbeck process; noise and
trend shocks each carry their own cross-asset covariance.  The same kernel is
shared by all assets (the per-asset generalization is deliberately not
implemented; the analytic machinery downstream assumes a common kernel).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

import numpy as np

from . import symmat
from .errors import InvalidIndex, InvalidInput, InvalidModel

ASSET_CLASSES = ("stock", "bond", "fx")

_EPOCH = datetime.date(2000, 1, 3)  # a Monday; panels without dates get weekday dates


class _Faults:
    """The checks of a stack of models in one-model check order: each check adds the
    models it rejects and the message a rejected model i raises."""

    def __init__(self, count: int):
        self.count, self.masks, self.messages = count, [], []

    def add(self, bad, message) -> None:
        self.masks.append(np.broadcast_to(bad, (self.count,)))
        self.messages.append(message)
        if self.masks[-1].all():  # model 0 fails here or earlier: no later check matters
            self.raise_first()

    def raise_first(self) -> None:
        """InvalidModel for the first rejected model, with its first failed check."""
        bad = np.array(self.masks)
        if bad.any():
            i = int(bad.any(axis=0).argmax())
            raise InvalidModel(self.messages[int(bad[:, i].argmax())](i))


def _as_psd(name: str, a: np.ndarray, n: int, faults: _Faults) -> np.ndarray:
    """A stack of (n, n) covariances, one per model, symmetrized where round-off
    left them asymmetric."""
    faults.add(a.shape[1:] != (n, n),
               lambda i: f"{name} must have shape ({n},{n}), got {a.shape[1:]}")
    a, symmetry = symmat.symmetry_faults(a)
    for message, bad in symmetry.items():
        faults.add(bad, lambda i, message=message: f"{name}: {message}")
    rejected = np.logical_or.reduce(list(symmetry.values()))[:, None, None]
    vals = np.linalg.eigvalsh(np.where(rejected, 0.0, a))
    low = vals.min(axis=-1)
    faults.add(low < -1e-10 * np.maximum(1.0, vals.max(axis=-1)),
               lambda i: f"{name} is not positive semi-definite (min eig {low[i]:.3e})")
    return a


# the fields that hold one entry per model in a stack
_MODEL_FIELDS = ("drift", "noise_cov", "trend_cov", "trend_amp", "trend_decay")


def _check_models(n: int, drift, noise_cov, trend_cov, amp, decay, asset_classes) -> tuple:
    """Validate z models of n assets at once: float arrays of (z, n) drifts,
    (z, n, n) covariances and z amplitudes and decays, and asset classes shared
    by all.  Returns the five fields, covariances symmetrized, and the classes;
    the first rejected model raises the InvalidModel its own ModelParams would."""
    if n < 1:
        raise InvalidModel("need at least one asset")
    z = len(decay)
    if z == 0 or any(x.shape[:1] != (z,) for x in (drift, noise_cov, trend_cov, amp)):
        raise InvalidModel("a stack needs one or more models and one entry of each field per model")
    faults = _Faults(z)
    faults.add(drift.shape[1:] != (n,) or ~np.isfinite(drift).all(axis=1),
               lambda i: f"drift must be a finite vector of length {n}")
    noise_cov = _as_psd("noise_cov", noise_cov, n, faults)
    trend_cov = _as_psd("trend_cov", trend_cov, n, faults)
    faults.add(~(amp >= 0.0), lambda i: f"trend_amp must be non-negative, got {amp[i]}")
    faults.add(~((0.0 < decay) & (decay <= 1.0)),
               lambda i: f"trend_decay must be in (0,1], got {decay[i]}")
    classes = tuple(asset_classes) or ("stock",) * n
    faults.add(len(classes) != n or any(c not in ASSET_CLASSES for c in classes),
               lambda i: f"asset_classes must be {len(classes)} of {ASSET_CLASSES}")
    faults.raise_first()
    return drift, noise_cov, trend_cov, amp, decay, classes


def _psd_factor(m: np.ndarray) -> np.ndarray:
    """Factor F with F F^T = m; eigenvalue clipping repairs semi-definite inputs."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(m)
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Full specification of the generative return model: one model, or a stack of
    models of one size n with (z, n) drifts, (z, n, n) covariances and z amplitudes
    and decays.  A stack is checked in one pass, and its first rejected model raises
    what its own one-model ModelParams would.  simulate, burn_in,
    theoretical_covariance and stationary_covariance take one model."""

    n: int
    drift: np.ndarray
    noise_cov: np.ndarray
    trend_cov: np.ndarray
    trend_amp: float
    trend_decay: float
    asset_classes: tuple[str, ...] = ()

    def __post_init__(self):
        one = np.ndim(self.trend_decay) == 0  # one model is checked as a stack of one
        fields = [np.asarray(getattr(self, name), dtype=float) for name in _MODEL_FIELDS]
        if one:
            fields = [x[None] for x in fields]
        *checked, classes = _check_models(self.n, *fields, self.asset_classes)
        for name, value in zip(_MODEL_FIELDS, checked):
            object.__setattr__(self, name, value[0] if one else value)
        object.__setattr__(self, "asset_classes", classes)

    def burn_in(self) -> int:
        """Days to discard before treating the trend as stationary."""
        return int(np.ceil(5.0 / _one_model(self).trend_decay))


def _one_model(params: ModelParams) -> ModelParams:
    """params itself, which must be one model: a stack has no single panel or covariance."""
    if np.ndim(params.trend_decay):
        raise InvalidInput(f"need one model, got a stack of {len(params.trend_decay)}")
    return params


@dataclass(frozen=True, eq=False)
class ReturnsPanel:
    """T x n matrix of daily returns with asset-class labels, the seed used and,
    for ingested panels, the ISO date of each row."""

    returns: np.ndarray
    asset_classes: tuple[str, ...]
    seed: int = 0
    dates: tuple[str, ...] | None = None

    def __post_init__(self):
        r = np.asarray(self.returns, dtype=float)
        if r.ndim != 2 or r.shape[0] < 1 or r.shape[1] < 1:
            raise InvalidInput(f"returns must be a T x n matrix, got shape {r.shape}")
        if not np.isfinite(r).all():
            raise InvalidInput("returns contain non-finite entries")
        object.__setattr__(self, "returns", r)
        object.__setattr__(self, "asset_classes", tuple(self.asset_classes))
        if len(self.asset_classes) != r.shape[1]:
            raise InvalidInput("one asset-class label is required per column")
        if self.dates is not None:
            object.__setattr__(self, "dates", tuple(self.dates))
            if len(self.dates) != r.shape[0]:
                raise InvalidInput("one date is required per row")

    @property
    def n_days(self) -> int:
        return self.returns.shape[0]

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]

    def calendar(self) -> tuple[str, ...]:
        """ISO date of each row: the panel's own dates, else weekdays from 2000-01-03."""
        if self.dates is not None:
            return self.dates
        days = np.datetime64(_EPOCH) + np.arange(self.n_days // 5 * 7 + 7)  # >= n_days weekdays
        return tuple(days[np.is_busday(days)][: self.n_days].astype(str).tolist())


def simulate(params: ModelParams, n_days: int, seed: int) -> ReturnsPanel:
    """Draw a panel of returns from the model, deterministic for a fixed seed.

    The trend accumulator starts empty, so the first days carry less
    autocorrelation than the stationary regime; callers that need
    stationarity should drop params.burn_in() leading rows.
    """
    _one_model(params)
    if n_days < 1:
        raise InvalidInput(f"n_days must be >= 1, got {n_days}")
    rng = np.random.default_rng(seed)
    noise_factor = _psd_factor(params.noise_cov)
    shock_factor = _psd_factor(params.trend_cov)
    eps = rng.standard_normal((n_days, params.n)) @ noise_factor.T
    shocks = rng.standard_normal((n_days, params.n)) @ shock_factor.T

    returns = np.empty((n_days, params.n))
    keep = 1.0 - params.trend_decay
    trend = np.zeros(params.n)
    for t in range(n_days):
        returns[t] = params.drift + eps[t] + params.trend_amp * trend
        trend = keep * trend + shocks[t]
    return ReturnsPanel(returns=returns, asset_classes=params.asset_classes, seed=seed)


def _kernel_gram(params: ModelParams, t: int, t2: int) -> float:
    """Closed form of sum_{t'} kernel(t,t') kernel(t2,t') for the common kernel."""
    if t2 <= 1:
        return 0.0
    keep = 1.0 - params.trend_decay  # in [0, 1) since trend_decay is in (0, 1]
    # sum over t' = 1..t2-1 of keep^(t-t'-1) keep^(t2-t'-1), geometric in keep^2
    tail = keep ** (t - t2)
    ratio = (1.0 - keep ** (2 * (t2 - 1))) / (1.0 - keep * keep)
    return params.trend_amp**2 * tail * ratio


def theoretical_covariance(params: ModelParams, t: int, t2: int) -> np.ndarray:
    """Model-implied covariance of the day-t and day-t2 return vectors (t2 <= t)."""
    _one_model(params)
    if not (isinstance(t, (int, np.integer)) and isinstance(t2, (int, np.integer))):
        raise InvalidIndex("time indices must be integers")
    if not 1 <= t2 <= t:
        raise InvalidIndex(f"need 1 <= t2 <= t, got t={t}, t2={t2}")
    out = params.trend_cov * _kernel_gram(params, int(t), int(t2))
    if t == t2:
        out = out + params.noise_cov
    return out


def stationary_covariance(params: ModelParams, lag: int = 0) -> np.ndarray:
    """Large-t limit of theoretical_covariance at the given lag."""
    _one_model(params)
    if lag < 0:
        raise InvalidIndex(f"lag must be >= 0, got {lag}")
    keep = 1.0 - params.trend_decay
    gram = params.trend_amp**2 * keep**lag / (1.0 - keep * keep)
    out = params.trend_cov * gram
    if lag == 0:
        out = out + params.noise_cov
    return out
