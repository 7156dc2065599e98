"""Online covariance, correlation and volatility estimation.

Daily returns feed an EMA of squared returns (per-asset variances), and
weekly return sums feed an EMA covariance.  Both run signals.ema from a small
carried state and return the estimate before each day or roll and the state
to carry, so a run fed in pieces gives the same path as the run fed whole.  The
rescaled weekly correlation can then be cleaned with a rotational-invariant
eigenvalue shrinkage, or with plain eigenvalue clipping at the
Marchenko-Pastur edge for comparison.  The correlation and the cleaners take
one matrix or a (..., n, n) stack of them and treat each matrix of a stack
exactly as its own one-matrix call would.
"""

from __future__ import annotations

import numpy as np

from . import symmat
from .errors import DegenerateVariance, InvalidInput
from .signals import check_number, check_run, ema

DEFAULT_COV_RATE = 1.0 / 750.0
DEFAULT_VAR_RATE = 1.0 / 100.0


def update_daily(variances: np.ndarray | None, returns: np.ndarray,
                 var_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """EMA of squared returns over a run of days, from the carried variances.

    variances=None means no day has been seen: the path starts from zeros and
    the first day seeds the variances with r*r.  Returns the path, whose row i
    holds the variances before day i, and the variances after the last day.
    """
    check_number("var_rate", var_rate, "(0, 1)")
    if variances is not None and np.ndim(variances) != 1:
        raise InvalidInput("variances must be a vector")
    returns = check_run(returns, None if variances is None else len(variances))
    shocks = var_rate * returns * returns
    if variances is None and len(returns):  # decay*0 + r*r is r*r exactly
        variances, shocks[0] = np.zeros(returns.shape[1]), returns[0] * returns[0]
    return ema(variances, shocks, 1.0 - var_rate)


def roll_week(cov: np.ndarray | None, weekly_sums: np.ndarray,
              cov_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Fold k weeks of summed returns (k, n) into the weekly covariance EMA.

    Returns the (k, n, n) covariance before each roll and the covariance after
    the last.  cov=None means no week has been rolled: the first week is folded
    into an identity scaled to its own magnitude, which keeps every later
    estimate covariant under rescaling the returns, and that seed is row 0.
    """
    check_number("cov_rate", cov_rate, "(0, 1)")
    weekly_sums = check_run(weekly_sums, None if cov is None else len(cov))
    k, n = weekly_sums.shape
    if cov is not None and np.shape(cov) != (n, n):
        raise InvalidInput(f"covariance shape {np.shape(cov)} != ({n}, {n})")
    if cov is None and k:
        scale = float(np.mean(weekly_sums[0] * weekly_sums[0]))
        cov = np.eye(n) * (scale if scale > 0.0 else 1.0)
    return ema(cov, cov_rate * (weekly_sums[:, :, None] * weekly_sums[:, None, :]), 1.0 - cov_rate)


def correlation(covs: np.ndarray) -> np.ndarray:
    """Covariances (..., n, n) rescaled by their diagonals; unit diagonal exactly."""
    covs = np.asarray(covs, dtype=float)
    diag = np.diagonal(covs, axis1=-2, axis2=-1)
    if diag.size and diag.min() <= 0.0:
        raise DegenerateVariance(f"non-positive covariance diagonal {diag.min():.3e}")
    scale = 1.0 / np.sqrt(diag)
    corr = covs * (scale[..., :, None] * scale[..., None, :])
    diagonal = np.arange(corr.shape[-1])
    corr[..., diagonal, diagonal] = 1.0
    return corr


def default_sample_ratio(dim: int, cov_rate: float = DEFAULT_COV_RATE) -> float:
    """dim / effective sample count of the covariance EMA (window 2/rate - 1)."""
    return dim * cov_rate / (2.0 - cov_rate)


def _check_correlation(corr: np.ndarray) -> np.ndarray:
    c = symmat.check_symmetric(corr)
    if np.abs(np.diagonal(c, axis1=-2, axis2=-1) - 1.0).max() > 1e-8:
        raise InvalidInput("input must have unit diagonal")
    return c


def _cleaner_spectrum(corr: np.ndarray, sample_ratio: float) -> symmat.EigenPairs:
    """The eigenpairs of a checked correlation, once sample_ratio is a positive real."""
    c = _check_correlation(corr)
    check_number("sample_ratio", sample_ratio, "(0, inf)")
    return symmat.eigendecompose(c)


def _rebuild_unit_diag(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    m = (vecs * np.clip(vals, 0.0, None)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    diagonal = np.arange(m.shape[-1])
    diag = m[..., diagonal, diagonal]
    m[..., diagonal, diagonal] = np.where(diag <= 0.0, 1.0, diag)
    return symmat.symmetrize(correlation(m))


def rie_clean(corr: np.ndarray, sample_ratio: float) -> np.ndarray:
    """Rotational-invariant shrinkage of a correlation matrix's spectrum.

    Keeps the eigenvectors and replaces each eigenvalue lam_k by
    lam_k / |1 - q + q*lam_k*s(lam_k - i*eta)|^2, where q is the
    dimension-to-sample ratio, s the discrete Stieltjes transform of the
    spectrum and eta = dim^(-1/2).  The result is floored at zero and
    rescaled back to unit diagonal.
    """
    pairs = _cleaner_spectrum(corr, sample_ratio)
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
    pairs = _cleaner_spectrum(corr, sample_ratio)
    lam = pairs.eigenvalues.copy()
    edge = (1.0 + np.sqrt(sample_ratio)) ** 2
    for row in lam.reshape(-1, lam.shape[-1]):  # the bulk mean of each matrix on its own
        bulk = row <= edge
        if bulk.any():
            row[bulk] = row[bulk].mean()
    return _rebuild_unit_diag(lam, pairs.eigenvectors)


CLEANERS = {"rie": rie_clean, "clip": clip_clean, "none": lambda corr, q: _check_correlation(corr)}
