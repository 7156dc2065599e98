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
from .errors import InvalidIndex, InvalidInput, InvalidMatrix, InvalidModel

ASSET_CLASSES = ("stock", "bond", "fx")

_EPOCH = datetime.date(2000, 1, 3)  # a Monday; panels without dates get weekday dates


def _as_psd(name: str, m: np.ndarray, n: int) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.shape != (n, n):
        raise InvalidModel(f"{name} must have shape ({n},{n}), got {a.shape}")
    try:
        a = symmat.check_symmetric(a)
    except InvalidMatrix as e:
        raise InvalidModel(f"{name}: {e}") from None
    vals = np.linalg.eigvalsh(a)
    if vals.min() < -1e-10 * max(1.0, vals.max()):
        raise InvalidModel(f"{name} is not positive semi-definite (min eig {vals.min():.3e})")
    return a


def _psd_factor(m: np.ndarray) -> np.ndarray:
    """Factor F with F F^T = m; eigenvalue clipping repairs semi-definite inputs."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(m)
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


@dataclass(frozen=True)
class ModelParams:
    """Full specification of the generative return model."""

    n: int
    drift: np.ndarray
    noise_cov: np.ndarray
    trend_cov: np.ndarray
    trend_amp: float
    trend_decay: float
    asset_classes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise InvalidModel("need at least one asset")
        drift = np.asarray(self.drift, dtype=float).reshape(-1)
        if drift.shape != (self.n,) or not np.isfinite(drift).all():
            raise InvalidModel(f"drift must be a finite vector of length {self.n}")
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "noise_cov", _as_psd("noise_cov", self.noise_cov, self.n))
        object.__setattr__(self, "trend_cov", _as_psd("trend_cov", self.trend_cov, self.n))
        if not self.trend_amp >= 0.0:
            raise InvalidModel(f"trend_amp must be non-negative, got {self.trend_amp}")
        if not 0.0 < self.trend_decay <= 1.0:
            raise InvalidModel(f"trend_decay must be in (0,1], got {self.trend_decay}")
        classes = tuple(self.asset_classes) or ("stock",) * self.n
        if len(classes) != self.n or any(c not in ASSET_CLASSES for c in classes):
            raise InvalidModel(f"asset_classes must be {len(classes)} of {ASSET_CLASSES}")
        object.__setattr__(self, "asset_classes", classes)

    def burn_in(self) -> int:
        """Days to discard before treating the trend as stationary."""
        return int(np.ceil(5.0 / self.trend_decay))


@dataclass(frozen=True)
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
    if lag < 0:
        raise InvalidIndex(f"lag must be >= 0, got {lag}")
    keep = 1.0 - params.trend_decay
    gram = params.trend_amp**2 * keep**lag / (1.0 - keep * keep)
    out = params.trend_cov * gram
    if lag == 0:
        out = out + params.noise_cov
    return out
