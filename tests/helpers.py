"""Shared fixture builders for the test suite."""

import numpy as np

from trendlab.market_model import ModelParams


def rand_spd(rng, n, scale=1.0, min_eig=0.1):
    """Random well-conditioned symmetric positive definite matrix."""
    w = rng.standard_normal((n, n))
    m = w @ w.T / n + min_eig * np.eye(n)
    return scale * m


def spread_corr(seed, n, lam, iters=200):
    """Correlation matrix with a prescribed spectrum whose eigenvectors all
    carry a comparable share of the all-ones direction.

    Alternates between rotating the basis so the ones-vector has equal-size
    coordinates and restoring the spectrum / unit diagonal; for the seeds
    used in tests the iteration settles on a matrix without degenerate
    ones-projections, which keeps equal-weight mode exposures generic.
    """
    rng = np.random.default_rng(seed)
    lam = np.asarray(lam, float) * n / np.sum(lam)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    ones = np.ones(n)
    for _ in range(iters):
        b = u.T @ ones
        c = np.where(b == 0, 1.0, np.sign(b))
        v = c - b
        if (v @ v) > 1e-14:
            u = u @ (np.eye(n) - 2.0 * np.outer(v, v) / (v @ v))
        m = (u * lam) @ u.T
        d = 1 / np.sqrt(np.diag(m))
        corr = m * np.outer(d, d)
        np.fill_diagonal(corr, 1.0)
        vals, vecs = np.linalg.eigh(corr)
        u = vecs[:, ::-1]
    return corr


def mode_profile_model(n=10, signal_rate=0.005):
    """Market whose population signal covariance is exactly white.

    The noise correlation has a dispersed spectrum; the trend-shock
    covariance is tilted (a polynomial in the noise correlation, so both
    commute) such that EMA signals are cross-sectionally uncorrelated in
    population, which is the regime where the per-eigenmode realized risk
    of the basic books takes its characteristic shapes.
    """
    from trendlab.sharpe_oracle import _kernel_products

    noise = spread_corr(4, n, np.geomspace(3.0, 0.3, n))
    decay, share = 0.004, 0.02
    amp = float(np.sqrt(share * (1.0 - (1.0 - decay) ** 2)))
    k = _kernel_products(signal_rate, amp, decay, 30_000)
    ratio = k["sig_trend_sq"] / k["sig_sig"]
    trend_cov = np.eye(n) + (1.0 / ratio) * (np.eye(n) - noise)
    return ModelParams(n=n, drift=np.zeros(n), noise_cov=noise, trend_cov=trend_cov,
                       trend_amp=amp, trend_decay=decay)


def stationary_correlation(params):
    from trendlab.market_model import stationary_covariance

    cov = stationary_covariance(params)
    d = 1.0 / np.sqrt(np.diag(cov))
    corr = cov * np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    return corr


def market_trend_model(n=6, rho=0.45, scale=1.2, amp=0.2, decay=0.03):
    """Rank-1 trend-shock covariance aligned with the uniform (risk-parity) book."""
    noise = np.full((n, n), rho)
    np.fill_diagonal(noise, 1.0)
    ones = np.ones(n)
    return ModelParams(n=n, drift=np.zeros(n), noise_cov=noise,
                       trend_cov=scale * np.outer(ones, ones) / n,
                       trend_amp=amp, trend_decay=decay)


def correlation_cases(seed, n=6):
    """Correlations a stacked call must treat each on its own: random ones, one
    with a repeated eigenvalue, the identity, and one with a flat asset (its
    row and column zero off the diagonal)."""
    rng = np.random.default_rng(seed)
    cases = [rand_spd(rng, n) for _ in range(5)]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    cases.append((q * np.r_[2.5, 2.5, np.ones(n - 2)]) @ q.T)
    cases.append(np.eye(n))
    flat = rand_spd(rng, n)
    flat[0, 1:] = flat[1:, 0] = 0.0
    cases.append(flat)
    out = []
    for m in cases:
        d = 1.0 / np.sqrt(np.diag(m))
        corr = 0.5 * (m + m.T) * np.outer(d, d)
        np.fill_diagonal(corr, 1.0)
        out.append(corr)
    return np.stack(out)
