"""Online covariance, correlation and volatility estimation.

Daily returns feed an EMA of squared returns (per-asset variances) and a
buffer that is rolled into an EMA covariance of weekly return sums.  The
rescaled weekly correlation can then be cleaned with a rotational-invariant
eigenvalue shrinkage, or with plain eigenvalue clipping at the
Marchenko-Pastur edge for comparison.  The cleaners take one correlation or
a (..., n, n) stack of them and clean each matrix of a stack exactly as
its own one-matrix call would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symmat
from .errors import DegenerateVariance, InvalidInput, NothingToRoll

DEFAULT_COV_RATE = 1.0 / 750.0
DEFAULT_VAR_RATE = 1.0 / 100.0


@dataclass(frozen=True)
class CovarianceState:
    """Immutable snapshot of the online estimators.

    weekly_cov is the EMA covariance of weekly (summed) returns; variances
    are daily EMA second moments.  Both are None until their first update:
    the first squared return seeds the variances and the first weekly update
    seeds the covariance with an identity scaled to that week's magnitude,
    which keeps every later estimate covariant under rescaling the returns.
    """

    n: int
    cov_rate: float = DEFAULT_COV_RATE
    var_rate: float = DEFAULT_VAR_RATE
    weekly_cov: np.ndarray | None = None
    variances: np.ndarray | None = None
    week_buffer: tuple = ()
    weeks: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInput("need at least one asset")
        for name in ("cov_rate", "var_rate"):
            rate = getattr(self, name)
            if not 0.0 < rate < 1.0:
                raise InvalidInput(f"{name} must be in (0,1), got {rate}")


def update_daily(state: CovarianceState, r: np.ndarray) -> CovarianceState:
    """EMA-update the daily variances and append r to the current week."""
    r = np.asarray(r, dtype=float)
    if r.shape != (state.n,):
        raise InvalidInput(f"return vector shape {r.shape} != ({state.n},)")
    if not np.isfinite(r).all():
        raise InvalidInput("returns contain non-finite entries")
    if state.variances is None:
        variances = r * r
    else:
        variances = (1.0 - state.var_rate) * state.variances + state.var_rate * r * r
    return CovarianceState(
        n=state.n,
        cov_rate=state.cov_rate,
        var_rate=state.var_rate,
        weekly_cov=state.weekly_cov,
        variances=variances,
        week_buffer=state.week_buffer + (r,),
        weeks=state.weeks,
    )


def roll_week(state: CovarianceState) -> CovarianceState:
    """Fold the buffered days into the weekly covariance EMA and clear the buffer."""
    if not state.week_buffer:
        raise NothingToRoll("week buffer is empty")
    weekly = np.sum(state.week_buffer, axis=0)
    outer = np.outer(weekly, weekly)
    prev = state.weekly_cov
    if prev is None:
        scale = float(np.mean(weekly * weekly))
        prev = np.eye(state.n) * (scale if scale > 0.0 else 1.0)
    cov = (1.0 - state.cov_rate) * prev + state.cov_rate * outer
    return CovarianceState(
        n=state.n,
        cov_rate=state.cov_rate,
        var_rate=state.var_rate,
        weekly_cov=cov,
        variances=state.variances,
        week_buffer=(),
        weeks=state.weeks + 1,
    )


def correlation(state: CovarianceState) -> np.ndarray:
    """Weekly covariance rescaled by its diagonal; unit diagonal exactly."""
    if state.weekly_cov is None:
        raise DegenerateVariance("no weekly covariance yet")
    diag = np.diag(state.weekly_cov)
    if diag.min() <= 0.0:
        raise DegenerateVariance(f"non-positive covariance diagonal {diag.min():.3e}")
    scale = 1.0 / np.sqrt(diag)
    corr = state.weekly_cov * np.outer(scale, scale)
    np.fill_diagonal(corr, 1.0)
    return corr


def volatilities(state: CovarianceState) -> np.ndarray:
    """Per-asset volatility vector, the diagonal of the vol matrix."""
    if state.variances is None:
        raise DegenerateVariance("no variance estimate yet")
    return np.sqrt(state.variances)


def default_sample_ratio(dim: int, cov_rate: float = DEFAULT_COV_RATE) -> float:
    """dim / effective sample count of the covariance EMA (window 2/rate - 1)."""
    return dim * cov_rate / (2.0 - cov_rate)


def _check_correlation(corr: np.ndarray) -> np.ndarray:
    c = symmat.check_symmetric(corr)
    if np.abs(np.diagonal(c, axis1=-2, axis2=-1) - 1.0).max() > 1e-8:
        raise InvalidInput("input must have unit diagonal")
    return c


def _rebuild_unit_diag(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    m = (vecs * np.clip(vals, 0.0, None)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    diag = np.diagonal(m, axis1=-2, axis2=-1).copy()
    diag[diag <= 0.0] = 1.0
    scale = 1.0 / np.sqrt(diag)
    out = m * (scale[..., :, None] * scale[..., None, :])
    diagonal = np.arange(out.shape[-1])
    out[..., diagonal, diagonal] = 1.0
    return symmat.symmetrize(out)


def rie_clean(corr: np.ndarray, sample_ratio: float) -> np.ndarray:
    """Rotational-invariant shrinkage of a correlation matrix's spectrum.

    Keeps the eigenvectors and replaces each eigenvalue lam_k by
    lam_k / |1 - q + q*lam_k*s(lam_k - i*eta)|^2, where q is the
    dimension-to-sample ratio, s the discrete Stieltjes transform of the
    spectrum and eta = dim^(-1/2).  The result is floored at zero and
    rescaled back to unit diagonal.
    """
    c = _check_correlation(corr)
    if sample_ratio <= 0.0:
        raise InvalidInput(f"sample_ratio must be positive, got {sample_ratio}")
    pairs = symmat.eigendecompose(c)
    lam = pairs.eigenvalues
    dim = lam.shape[-1]
    eta = dim ** -0.5
    z = lam - 1j * eta
    stieltjes = np.mean(1.0 / (z[..., :, None] - lam[..., None, :]), axis=-1)
    denom = np.abs(1.0 - sample_ratio + sample_ratio * lam * stieltjes) ** 2
    cleaned = lam / denom
    return _rebuild_unit_diag(cleaned, pairs.eigenvectors)


def clip_clean(corr: np.ndarray, sample_ratio: float) -> np.ndarray:
    """Fallback cleaner: average out eigenvalues below the Marchenko-Pastur edge."""
    c = _check_correlation(corr)
    if sample_ratio <= 0.0:
        raise InvalidInput(f"sample_ratio must be positive, got {sample_ratio}")
    pairs = symmat.eigendecompose(c)
    lam = pairs.eigenvalues.copy()
    edge = (1.0 + np.sqrt(sample_ratio)) ** 2
    for row in lam.reshape(-1, lam.shape[-1]):  # the bulk mean of each matrix on its own
        bulk = row <= edge
        if bulk.any():
            row[bulk] = row[bulk].mean()
    return _rebuild_unit_diag(lam, pairs.eigenvectors)


CLEANERS = {"rie": rie_clean, "clip": clip_clean, "none": lambda corr, q: _check_correlation(corr)}
