"""Reference market model of the eigenmode_daily workload.

The n=10 market of acceptance criterion 4: a noise correlation with a
dispersed spectrum whose eigenvectors all carry a comparable share of the
all-ones direction, and a trend-shock covariance tilted so that the EMA
signals are cross-sectionally white in population.
"""

from __future__ import annotations

import numpy as np


def spread_corr(seed: int, n: int, lam, iters: int = 200) -> np.ndarray:
    """Correlation with spectrum `lam` and no eigenvector orthogonal to ones."""
    rng = np.random.default_rng(seed)
    lam = np.asarray(lam, float) * n / np.sum(lam)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    ones = np.ones(n)
    corr = None
    for _ in range(iters):
        b = u.T @ ones
        v = np.where(b == 0, 1.0, np.sign(b)) - b
        if v @ v > 1e-14:
            u = u @ (np.eye(n) - 2.0 * np.outer(v, v) / (v @ v))
        m = (u * lam) @ u.T
        d = 1 / np.sqrt(np.diag(m))
        corr = m * np.outer(d, d)
        np.fill_diagonal(corr, 1.0)
        u = np.linalg.eigh(corr)[1][:, ::-1]
    return corr


def mode_profile_model(n: int = 10, signal_rate: float = 0.005):
    from trendlab.market_model import ModelParams
    from trendlab.sharpe_oracle import _kernel_products

    noise = spread_corr(4, n, np.geomspace(3.0, 0.3, n))
    decay, share = 0.004, 0.02
    amp = float(np.sqrt(share * (1.0 - (1.0 - decay) ** 2)))
    k = _kernel_products(signal_rate, amp, decay, 30_000)
    ratio = k["sig_trend_sq"] / k["sig_sig"]
    trend_cov = np.eye(n) + (1.0 / ratio) * (np.eye(n) - noise)
    return ModelParams(n=n, drift=np.zeros(n), noise_cov=noise, trend_cov=trend_cov,
                       trend_amp=amp, trend_decay=decay)


def stationary_correlation(params) -> np.ndarray:
    from trendlab.market_model import stationary_covariance

    cov = stationary_covariance(params)
    d = 1.0 / np.sqrt(np.diag(cov))
    corr = cov * np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    return corr
