"""Synthetic market generator.

Daily (volatility-resized) returns are a constant drift plus instantaneous
Gaussian noise plus a stochastic trend, where the trend mixes past shocks
through a causal exponential kernel

    kernel(t, t') = trend_amp * (1 - trend_decay)^(t - t' - 1)   for t > t'.

That kernel makes the trend a discrete Ornstein-Uhlenbeck process (signals.ema
runs it, signals.power_sum sums it for the covariances); noise and trend shocks
each carry their own cross-asset covariance.  All assets share the kernel (the
per-asset generalization is deliberately not implemented; the analytic
machinery downstream assumes a common kernel).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

import numpy as np

from . import symmat
from .errors import InvalidIndex, InvalidInput, InvalidMatrix, InvalidModel
from .signals import check_number, ema, power_sum

ASSET_CLASSES = ("stock", "bond", "fx")

_EPOCH = datetime.date(2000, 1, 3)  # a Monday; panels without dates get weekday dates


def _check_psd(name: str, a: np.ndarray, n: int) -> np.ndarray:
    """z (n, n) covariances, symmetrized where round-off left them asymmetric."""
    if a.shape[1:] != (n, n):
        raise InvalidModel(f"{name} must have shape ({n},{n}), got {a.shape[1:]}")
    try:
        a = symmat.check_symmetric(a)
    except InvalidMatrix as exc:
        raise InvalidModel(f"{name}: {exc}") from None
    vals = np.linalg.eigvalsh(a)
    low = vals.min(axis=-1)
    bad = low < -1e-10 * np.maximum(1.0, vals.max(axis=-1))
    if bad.any():
        raise InvalidModel(f"{name} is not positive semi-definite (min eig {low[bad][0]:.3e})")
    return a


# the fields that hold one entry per model in a stack
_MODEL_FIELDS = ("drift", "noise_cov", "trend_cov", "trend_amp", "trend_decay")


def _check_models(n: int, drift, noise_cov, trend_cov, amp, decay, asset_classes) -> tuple:
    """Validate z models of n assets in one vectorized pass: float arrays of (z, n)
    drifts, (z, n, n) covariances and z amplitudes and decays, and asset classes
    shared by all.  Returns the five fields, covariances symmetrized, and the
    classes.  Each check raises InvalidModel as soon as any model fails it."""
    check_number("n", n, "[1, inf)", int, InvalidModel)
    z = len(decay)
    if z == 0 or any(x.shape[:1] != (z,) for x in (drift, noise_cov, trend_cov, amp)):
        raise InvalidModel("a stack needs one or more models and one entry of each field per model")
    if drift.shape[1:] != (n,) or not np.isfinite(drift).all():
        raise InvalidModel(f"drift must be a finite vector of length {n}")
    noise_cov = _check_psd("noise_cov", noise_cov, n)
    trend_cov = _check_psd("trend_cov", trend_cov, n)
    if not (amp >= 0.0).all():  # the least amplitude (or a nan) is a failing one
        raise InvalidModel(f"trend_amp must be non-negative, got {amp.min()}")
    bad = ~((0.0 < decay) & (decay <= 1.0))
    if bad.any():
        raise InvalidModel(f"trend_decay must be in (0,1], got {decay[bad][0]}")
    classes = tuple(asset_classes) or ("stock",) * n
    if len(classes) != n or any(c not in ASSET_CLASSES for c in classes):
        raise InvalidModel(f"asset_classes must be {n} of {ASSET_CLASSES}")
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
    and decays.  A valid stack is checked in one vectorized pass; only when that
    pass fails is the stack re-checked model by model, so that its first rejected
    model raises what its own one-model ModelParams would.  simulate, burn_in and
    the covariances, which read no signal rate, take one model."""

    n: int
    drift: np.ndarray
    noise_cov: np.ndarray
    trend_cov: np.ndarray
    trend_amp: float
    trend_decay: float
    asset_classes: tuple[str, ...] = ()

    def __post_init__(self):
        one = np.ndim(self.trend_decay) == 0  # one model is checked as a stack of one
        fields = []
        for name in _MODEL_FIELDS:
            try:
                x = np.asarray(getattr(self, name))
            except ValueError:  # a ragged nested list
                raise InvalidModel(f"{name} must be a rectangular array") from None
            if x.dtype.kind not in "iuf":  # a bool, a string or an object is no real number
                raise InvalidModel(f"{name} must hold real numbers, got dtype {x.dtype}")
            fields.append(x.astype(float, copy=False))
        if one:
            fields = [x[None] for x in fields]
        try:
            *checked, classes = _check_models(self.n, *fields, self.asset_classes)
        except InvalidModel:  # re-check model by model: the first rejected one raises its own
            for i in range(len(fields[-1])):
                _check_models(self.n, *(x[i:i + 1] for x in fields), self.asset_classes)
            raise  # no one model fails: the stack itself is malformed
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
    check_number("n_days", n_days, "[1, inf)", int)
    check_number("seed", seed, "[0, inf)", int)
    rng = np.random.default_rng(seed)
    noise_factor = _psd_factor(params.noise_cov)
    shock_factor = _psd_factor(params.trend_cov)
    eps = rng.standard_normal((n_days, params.n)) @ noise_factor.T
    shocks = rng.standard_normal((n_days, params.n)) @ shock_factor.T

    trend = ema(np.zeros(params.n), shocks, 1.0 - params.trend_decay)[0]  # before day t's shock
    trend *= params.trend_amp
    eps += params.drift  # in place, the bits of drift + eps[t] + amp * trend[t]
    eps += trend
    return ReturnsPanel(returns=eps, asset_classes=params.asset_classes, seed=seed)


def _covariance(params: ModelParams, lag: int, shocks: int | None) -> np.ndarray:
    """Covariance of returns `lag` days apart, the earlier after `shocks` trend shocks
    (None: stationary); the trend part is amp^2 keep^lag sum_{k<shocks} keep^(2k)."""
    keep = 1.0 - _one_model(params).trend_decay  # in [0, 1): trend_decay is in (0, 1]
    gram = power_sum(np.full((1, 1), keep * keep), shocks)[0, 0]
    out = params.trend_cov * (params.trend_amp**2 * keep**lag * gram)
    return out + params.noise_cov if lag == 0 else out


def theoretical_covariance(params: ModelParams, t: int, t2: int) -> np.ndarray:
    """Model-implied covariance of the day-t and day-t2 return vectors (t2 <= t)."""
    t = check_number("t", t, kind=int, error=InvalidIndex)
    t2 = check_number("t2", t2, kind=int, error=InvalidIndex)
    if not 1 <= t2 <= t:
        raise InvalidIndex(f"need 1 <= t2 <= t, got t={t}, t2={t2}")
    return _covariance(params, t - t2, t2 - 1)


def stationary_covariance(params: ModelParams, lag: int = 0) -> np.ndarray:
    """Large-t limit of theoretical_covariance at the given lag."""
    check_number("lag", lag, "[0, inf)", int, InvalidIndex)
    return _covariance(params, lag, None)
