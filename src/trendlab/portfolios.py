"""Portfolio constructors.

Five basic books (risk parity, naive Markowitz, agnostic risk parity,
trend-on-risk-parity, equally weighted), the paper's optimal signal-weight
matrix and volatility targeting.  A book is a plain float array of
positions: (n,) for one day, (..., n) for days under a batch shape.  The
constructors and vol_target return one, and raise InvalidInput rather than
return a non-finite entry.  Constructors return unit-gross positions by
default; pass normalize=False for the raw linear form (linear in the
signal), and use vol_target to set the actual size.  Each takes one day or
days under any leading batch shape, row by row equal to the one-day calls:
signals and vols (..., n), covariances (..., n, n), and for ARP a
correlation that broadcasts against them, such as (k, 1, n, n) for k blocks
of days that share one each.  NM, RP, ToRP and the weight matrix all solve
against the one ridge-shifted system, symmat.System.  NM, RP and ToRP also
take a System in place of cov, so a caller that builds several books on one
covariance checks and shifts it once.  ToRP trades RP's raw book
(risk_parity(..., normalize=False)): trend_on is that step for a raw book in
hand, and finish takes a raw book to positions.

The weight matrix omega = inv(C) (g_t Omega + g_d mu mu^T) inv(C) is an
array, and positions are omega @ s.  Up to scale its limits are NM
(Omega = C, mu = 0), ARP (Omega = D rho^(3/2) D with D = diag(vols)) and
ToRP (Omega = 0, mu = vols * class_target).  RP is not linear in the
signal, so it is no limit of omega.

Cross-asset conventions: cov is the asset covariance, corr its unit-diagonal
rescaling, vols the per-asset volatility vector, classes the asset-class
labels.  The static target vector puts weight on stocks and bonds only;
FX enters risk parity books only through inverse-covariance cross terms.
"""

from __future__ import annotations

import numpy as np

from . import symmat
from .errors import CannotScale, DegenerateVolatility, InvalidInput, ZeroTargetVector


def finish(raw: np.ndarray, normalize: bool = True) -> np.ndarray:
    """A raw book as positions: at unit gross if normalize, and checked finite."""
    if normalize:
        gross = np.abs(raw).sum(axis=-1, keepdims=True)
        raw = raw / np.where(gross > 0.0, gross, 1.0)
    if not np.isfinite(raw).all():
        raise InvalidInput("positions contain non-finite entries")
    return raw


def class_target(classes) -> np.ndarray:
    """Static target vector: 1 for stocks and bonds, 0 for FX."""
    return np.array([0.0 if c == "fx" else 1.0 for c in classes])


def _vols_vector(vols, n: int) -> np.ndarray:
    v = np.asarray(vols, dtype=float)
    if v.ndim < 1 or v.shape[-1] != n:
        raise InvalidInput(f"expected {n} volatilities per day, got shape {v.shape}")
    return v


def _system(cov, ridge) -> symmat.System:
    """cov as a system: a covariance array, or a symmat.System of one, which
    carries its own ridge."""
    return cov if isinstance(cov, symmat.System) else symmat.System(cov, ridge)


def risk_parity(cov, vols, classes, ridge=None, normalize=True) -> np.ndarray:
    """Static book: inverse covariance applied to the vol-weighted class target."""
    system = _system(cov, ridge)
    v = _vols_vector(vols, system.matrix.shape[-1])
    target = class_target(classes)
    if not target.any():
        raise ZeroTargetVector("all-FX universe has no risk-parity target")
    return finish(system.solve(v * target), normalize)


def naive_markowitz(cov, signal, ridge=None, normalize=True) -> np.ndarray:
    """Inverse covariance applied to the trend signal."""
    return finish(_system(cov, ridge).solve(signal), normalize)


def agnostic_risk_parity(corr, vols, signal, ridge=None, normalize=True) -> np.ndarray:
    """Inverse-vol sandwich around the inverse square root of the correlation."""
    corr = np.asarray(corr, dtype=float)
    v = _vols_vector(vols, corr.shape[-1])
    if v.min() <= 0.0:
        raise DegenerateVolatility(f"non-positive volatility {v.min():.3e}")
    scaled = (np.asarray(signal, dtype=float) / v)[..., None]
    raw = (symmat.inv_sqrt(corr, ridge) @ scaled)[..., 0] / v
    return finish(raw, normalize)


def trend_on_risk_parity(cov, vols, signal, classes, ridge=None, normalize=True) -> np.ndarray:
    """Risk-parity book traded long or short by the signal projected on it."""
    return trend_on(risk_parity(cov, vols, classes, ridge, normalize=False), signal, normalize)


def trend_on(book, signal, normalize=True) -> np.ndarray:
    """A raw book traded long or short by the signal projected on it."""
    projection = (book * np.asarray(signal, dtype=float)).sum(axis=-1, keepdims=True)
    return finish(projection * book, normalize)


def equally_weighted(vols, normalize=True) -> np.ndarray:
    """Equal volatility-adjusted exposure on every asset, FX included."""
    v = np.asarray(vols, dtype=float)
    if v.min() <= 0.0:
        raise DegenerateVolatility(f"non-positive volatility {v.min():.3e}")
    return finish(1.0 / v, normalize)


def optimal_weight_matrix(cov, trend_cov, drift_outer, trend_gain, drift_gain, ridge=None) -> np.ndarray:
    """Optimal signal weights inv(cov) (g_t*trend_cov + g_d*drift_outer) inv(cov).

    One (n, n) matrix, or a (..., n, n) stack for a stack of inputs; positions
    are omega @ s.
    """
    cov = np.asarray(cov, dtype=float)
    trend_cov = np.asarray(trend_cov, dtype=float)
    drift_outer = np.asarray(drift_outer, dtype=float)
    if trend_cov.shape != cov.shape or drift_outer.shape != cov.shape:
        raise InvalidInput("cov, trend_cov and drift_outer must share one shape")
    core = trend_gain * trend_cov + drift_gain * drift_outer
    return symmat.solve_sandwich(cov, core, cov, ridge)


def vol_target(positions, cov, target: float) -> np.ndarray:
    """Rescale positions so the portfolio volatility under cov equals target, day by day."""
    if target <= 0.0:
        raise InvalidInput(f"target must be positive, got {target}")
    p = np.asarray(positions, dtype=float)
    exposure = (np.asarray(cov, dtype=float) @ p[..., None])[..., 0]
    variance = (p * exposure).sum(axis=-1, keepdims=True)
    if (variance <= 0.0).any():
        raise CannotScale(f"portfolio variance {variance.min():.3e} cannot be scaled to {target}")
    return finish(p * (target / np.sqrt(variance)), normalize=False)
