"""Portfolio constructors.

Five basic books (risk parity, naive Markowitz, agnostic risk parity,
trend-on-risk-parity, equally weighted), the paper's optimal signal-weight
matrix and volatility targeting.  A book is a plain float array of positions:
(n,) for one day, (..., n) for days under a batch shape.  Each constructor
returns its raw book, linear in the signal (static for RP and EW), and raises
InvalidInput rather than return a non-finite entry; a book has no size of its
own.  finish takes a raw book to unit gross and vol_target to a target
volatility, and those two are the only sizing steps.  Each constructor takes
one day or days under any leading batch shape, row by row equal to the
one-day calls: signals and vols (..., n), covariances (..., n, n), and for
ARP a correlation that broadcasts against them, such as (k, 1, n, n) for k
blocks of days that share one each.  NM, RP, ToRP and the weight matrix take
the covariance as a symmat.System(cov, ridge) and solve with its ridge, so a
caller that builds several books on one covariance checks and shifts it once;
ARP's ridge is for its eigen route.  ToRP is trend_on of RP's book, and
trend_on is that step for a raw book in hand.

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

from . import signals, symmat
from .errors import CannotScale, DegenerateVolatility, InvalidInput, ZeroTargetVector


def _finite(book: np.ndarray) -> np.ndarray:
    if not np.isfinite(book).all():
        raise InvalidInput("positions contain non-finite entries")
    return book


def finish(raw) -> np.ndarray:
    """A finite raw book at unit gross day by day; a zero day stays zero."""
    gross = np.abs(_finite(raw)).sum(axis=-1, keepdims=True)
    return raw / np.where(gross > 0.0, gross, 1.0)


def class_target(classes) -> np.ndarray:
    """Static target vector: 1 for stocks and bonds, 0 for FX."""
    return np.array([0.0 if c == "fx" else 1.0 for c in classes])


def _vols_vector(vols, n: int) -> np.ndarray:
    v = np.asarray(vols, dtype=float)
    if v.ndim < 1 or v.shape[-1] != n:
        raise InvalidInput(f"expected {n} volatilities per day, got shape {v.shape}")
    return v


def risk_parity(system: symmat.System, vols, classes) -> np.ndarray:
    """Static book: inverse covariance applied to the vol-weighted class target."""
    v = _vols_vector(vols, system.matrix.shape[-1])
    target = class_target(classes)
    if not target.any():
        raise ZeroTargetVector("all-FX universe has no risk-parity target")
    return _finite(system.solve(v * target))


def naive_markowitz(system: symmat.System, signal) -> np.ndarray:
    """Inverse covariance applied to the trend signal."""
    return _finite(system.solve(signal))


def agnostic_risk_parity(corr, vols, signal, ridge=None) -> np.ndarray:
    """Inverse-vol sandwich around the inverse square root of the correlation."""
    corr = np.asarray(corr, dtype=float)
    v = _vols_vector(vols, corr.shape[-1])
    if v.min() <= 0.0:
        raise DegenerateVolatility(f"non-positive volatility {v.min():.3e}")
    scaled = (np.asarray(signal, dtype=float) / v)[..., None]
    return _finite((symmat.inv_sqrt(corr, ridge) @ scaled)[..., 0] / v)


def trend_on_risk_parity(system: symmat.System, vols, signal, classes) -> np.ndarray:
    """Risk-parity book traded long or short by the signal projected on it."""
    return trend_on(risk_parity(system, vols, classes), signal)


def trend_on(book, signal) -> np.ndarray:
    """A raw book traded long or short by the signal projected on it."""
    projection = (book * np.asarray(signal, dtype=float)).sum(axis=-1, keepdims=True)
    return _finite(projection * book)


def equally_weighted(vols) -> np.ndarray:
    """Equal volatility-adjusted exposure on every asset, FX included."""
    v = np.asarray(vols, dtype=float)
    if v.min() <= 0.0:
        raise DegenerateVolatility(f"non-positive volatility {v.min():.3e}")
    return _finite(1.0 / v)


def optimal_weight_matrix(system: symmat.System, trend_cov, drift_outer, trend_gain,
                          drift_gain) -> np.ndarray:
    """Optimal signal weights inv(C) (g_t*trend_cov + g_d*drift_outer) inv(C), C = system.

    One (n, n) matrix, or a (..., n, n) stack for a stack of inputs; positions
    are omega @ s.  The one system is both sides of the sandwich.
    """
    trend_cov = np.asarray(trend_cov, dtype=float)
    drift_outer = np.asarray(drift_outer, dtype=float)
    if trend_cov.shape != system.matrix.shape or drift_outer.shape != system.matrix.shape:
        raise InvalidInput("cov, trend_cov and drift_outer must share one shape")
    core = trend_gain * trend_cov + drift_gain * drift_outer
    return symmat.solve_sandwich(system, core, system)


def vol_target(positions, cov, target: float) -> np.ndarray:
    """Rescale positions so the portfolio volatility under cov equals target, day by day."""
    signals.check_number("target", target, "(0, inf)")
    p = np.asarray(positions, dtype=float)
    exposure = (np.asarray(cov, dtype=float) @ p[..., None])[..., 0]
    variance = (p * exposure).sum(axis=-1, keepdims=True)
    if (variance <= 0.0).any():
        raise CannotScale(f"portfolio variance {variance.min():.3e} cannot be scaled to {target}")
    return _finite(p * (target / np.sqrt(variance)))
