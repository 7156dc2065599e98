"""Analytic ground truth for the signal-weight optimization at small scale.

For the generative model with a common EMA signal kernel and a common
exponential trend kernel, the one-day P&L of a weight matrix w is a Gaussian
quadratic form whose mean and variance are exactly computable.  One
`PnlMoments` per (model, rate, t) holds them, and every function below reads
one to evaluate weights, to solve the squared-Sharpe stationarity condition
exactly for n <= 3, or to give the closed-form approximate weights.  Those
are the paper's optimal weight matrix, portfolios.optimal_weight_matrix, and
a sandwich form with corrected factors; both are two symmat solves.

Per-asset heterogeneous kernels are out of scope; everything below assumes
the shared-kernel model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimation, portfolios, symmat
from .errors import DegenerateForm, InvalidInput, TooEarly
from .market_model import ModelParams

EXACT_MAX_ASSETS = 3


@dataclass(frozen=True)
class KernelValues:
    """Scalar kernel weights of the P&L moments at a fixed time.

    The first five weight the covariance pairings in the P&L variance
    (noise/trend on the return leg x noise/trend on the signal leg, plus the
    cross pairing); trend_mean/signal_mass weight the trend covariance and the
    drift outer product in the P&L mean, trend_gain/drift_gain in the optimal
    matrix (overall constant fixed to 1); the g values sit in the sandwich
    factors of the approximate solution.
    """

    noise_noise: float
    noise_trend: float
    trend_noise: float
    trend_trend: float
    trend_cross: float
    trend_mean: float
    g_trend_left: float
    g_trend_right: float
    g_drift_right: float
    trend_gain: float
    drift_gain: float
    signal_mass: float


def _kernel_products(rate: float, amp: float, decay: float, t: int) -> dict:
    """Equal-time products of the signal and trend kernels, in O(t).

    The signal kernel applied to the trend kernel at shock age k is
    amp * sum_{i<=k} p**i q**(k-i) = amp * a**k * cumsum((b/a)**j)[k] with
    a = max(p, q), b = min(p, q): every summed term lies in [0, 1], so p ~ q
    needs no division by p - q, and q = 0 (decay 1) no special case.
    """
    if t < 2:
        raise TooEarly(f"moments need t >= 2, got {t}")
    if not 0.0 < rate < 1.0:
        raise InvalidInput(f"rate must be in (0,1), got {rate}")
    if not 0.0 < decay <= 1.0:
        raise InvalidInput(f"decay must be in (0,1], got {decay}")
    p = 1.0 - rate
    q = 1.0 - decay
    ages = np.arange(t - 1, dtype=float)  # t - t' - 1 for t' = t-1 .. 1
    sig = p**ages
    trend = amp * q**ages
    # signal kernel applied to the trend kernel, one entry per shock age
    # (SA)(t, t') = sum over intermediate days between t' and t
    a, b = max(p, q), min(p, q)
    conv = amp * a**ages * np.cumsum((b / a) ** ages)
    conv = np.concatenate(([0.0], conv[:-1]))  # shock at t-1 has no room to propagate
    return {
        "sig_sig": float(sig @ sig),
        "trend_trend": float(trend @ trend),
        "sig_trend_sq": float(conv @ conv),
        "sig_trend_trend": float(conv @ trend),
        "signal_mass": float(sig.sum()),
    }


def compute_kernels(rate: float, amp: float, decay: float, t: int) -> KernelValues:
    """All scalar kernel values at time t, overall constant fixed to 1."""
    k = _kernel_products(rate, amp, decay, t)
    ss = k["sig_sig"]
    return KernelValues(
        noise_noise=ss,
        noise_trend=k["sig_trend_sq"],
        trend_noise=ss * k["trend_trend"],
        trend_trend=k["sig_trend_sq"] * k["trend_trend"],
        trend_cross=k["sig_trend_trend"] ** 2,
        trend_mean=k["sig_trend_trend"],
        g_trend_left=k["trend_trend"],
        g_trend_right=k["sig_trend_sq"] / ss,
        g_drift_right=k["signal_mass"] ** 2 / ss,
        trend_gain=k["sig_trend_trend"] / ss,
        drift_gain=k["signal_mass"] / ss,
        signal_mass=k["signal_mass"],
    )


@dataclass(frozen=True)
class PnlMoments:
    """One-day P&L moments at time t, with the model and kernels they come from."""

    mean_matrix: np.ndarray
    var_tensor: np.ndarray
    t: int
    model: ModelParams
    kernels: KernelValues

    def var_form(self) -> np.ndarray:
        n = self.model.n
        return self.var_tensor.reshape(n * n, n * n)


def pnl_moment_tensors(model: ModelParams, rate: float, t: int) -> PnlMoments:
    """Exact day-t P&L moments of the model: the input of every other oracle function.

    Index order of var_tensor is (j1, k1, j2, k2): j indexes the traded
    asset, k the signal asset, so the variance of sum_jk w[j,k] r_t[j] s_t[k]
    is einsum('jk,jklm,lm', w, var_tensor, w).
    """
    kv = compute_kernels(rate, model.trend_amp, model.trend_decay, t)
    ss, tt = kv.noise_noise, kv.g_trend_left
    stq, stt = kv.noise_trend, kv.trend_mean
    mass = kv.signal_mass
    ce, cx = model.noise_cov, model.trend_cov
    m = np.outer(model.drift, model.drift)

    mean = stt * cx + mass * m

    var = (
        ss * np.einsum("ac,bd->abcd", ce, ce)
        + stq * np.einsum("ac,bd->abcd", ce, cx)
        + kv.trend_noise * np.einsum("ac,bd->abcd", cx, ce)
        + kv.trend_trend * np.einsum("ac,bd->abcd", cx, cx)
        + kv.trend_cross * np.einsum("ad,bc->abcd", cx, cx)
        + np.einsum("ac,bd->abcd", m, ss * ce + stq * cx)
        + mass * stt * (np.einsum("ad,bc->abcd", m, cx) + np.einsum("bc,ad->abcd", m, cx))
        + mass**2 * np.einsum("bd,ac->abcd", m, ce + tt * cx)
    )
    return PnlMoments(mean_matrix=mean, var_tensor=var, t=t, model=model, kernels=kv)


def _weights(mm: PnlMoments, weights: np.ndarray) -> np.ndarray:
    w, n = np.asarray(weights, dtype=float), mm.model.n
    if w.shape != (n, n):
        raise InvalidInput(f"weights must have shape ({n},{n}), got {w.shape}")
    return w


def moments(mm: PnlMoments, weights: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the day-t P&L of mm under the given weight matrix."""
    w = _weights(mm, weights)
    mean = float(np.sum(w * mm.mean_matrix))
    wf = w.reshape(-1)
    return mean, float(wf @ mm.var_form() @ wf)


def squared_sharpe(mm: PnlMoments, weights: np.ndarray) -> float:
    """Squared Sharpe ratio mean^2 / variance of the day-t P&L of mm."""
    mean, variance = moments(mm, weights)
    if variance <= 0.0:
        raise DegenerateForm(f"P&L variance {variance:.3e} is not positive")
    return mean * mean / variance


def stationarity_residual(mm: PnlMoments, weights: np.ndarray) -> float:
    """Max-norm violation of the squared-Sharpe stationarity condition of mm.

    Zero exactly at a stationary weight matrix.  The objective only sees the
    ray of the weights, so they are normalized to unit Frobenius norm before
    the residual is formed; the value is then comparable across models.
    """
    w = _weights(mm, weights)
    norm = np.linalg.norm(w)
    if norm == 0.0:
        raise DegenerateForm("weights are identically zero")
    wf = (w / norm).reshape(-1)
    vw = mm.var_form() @ wf
    quad = float(wf @ vw)
    mw = float(mm.mean_matrix.reshape(-1) @ wf)
    if quad <= 0.0 or mw == 0.0:
        raise DegenerateForm("stationarity residual undefined for degenerate forms")
    residual = mm.mean_matrix.reshape(-1) * quad - vw * mw
    return float(np.abs(residual).max() / (abs(mw) * quad))


def brute_force_optimal(mm: PnlMoments) -> np.ndarray:
    """Exact maximizer of the squared Sharpe ratio of mm over weight matrices.

    The objective is a ratio of a rank-one quadratic to a PSD quadratic, so
    every stationary ray solves the flattened linear system V w = mean;
    we solve it directly (tiny ridge if singular) and return the unit-norm
    solution with a positive mean.  Only supported for n <= 3.
    """
    n = mm.model.n
    if n > EXACT_MAX_ASSETS:
        raise InvalidInput(f"exact solve supports n <= {EXACT_MAX_ASSETS}, got {n}")
    vf = mm.var_form()
    target = mm.mean_matrix.reshape(-1)
    try:
        wf = np.linalg.solve(vf, target)
    except np.linalg.LinAlgError:
        ridge = 1e-12 * np.trace(vf)
        wf = np.linalg.solve(vf + ridge * np.eye(vf.shape[0]), target)
    norm = np.linalg.norm(wf)
    if norm == 0.0:
        raise DegenerateForm("mean matrix is zero; every weight matrix is stationary")
    wf = wf / norm
    if float(target @ wf) < 0.0:
        wf = -wf
    return wf.reshape(n, n)


def random_correlation(rng: np.random.Generator, n: int, samples: int | None = None) -> np.ndarray:
    """Unit-diagonal PSD matrix from a random Wishart draw."""
    w = rng.standard_normal((n, samples or 2 * n))
    return estimation.correlation(w @ w.T / w.shape[1])


def sample_weak_trend_model(rng: np.random.Generator, n: int, rate: float = 0.01,
                            t: int = 500) -> ModelParams:
    """Random model inside the validity regime of the closed-form weights.

    Trend and drift structure are capped at 5% of the noise covariance in
    spectral norm, and the kernel amplitude is sized so the trend corrections
    to the P&L variance stay a few percent of the noise terms; drifts are
    desk-scale (at most a couple of basis points per day) because the signal
    mass multiplies them by roughly 1/rate in the moment tensors.
    """
    noise_cov = random_correlation(rng, n)
    noise_norm = float(np.linalg.norm(noise_cov, 2))

    raw = random_correlation(rng, n)
    trend_cov = raw * (0.05 * noise_norm * rng.uniform(0.3, 1.0) / np.linalg.norm(raw, 2))

    decay = rng.uniform(0.01, 0.04)
    unit = _kernel_products(rate, 1.0, decay, t)
    correction = rng.uniform(0.01, 0.05)
    amp = float(np.sqrt(correction * unit["sig_sig"] / unit["sig_trend_sq"]))

    drift = rng.uniform(-0.002, 0.002, size=n)
    return ModelParams(n=n, drift=drift, noise_cov=noise_cov, trend_cov=trend_cov,
                       trend_amp=amp, trend_decay=decay)


def approx_optimal(mm: PnlMoments, form: str = "simple") -> np.ndarray:
    """Closed-form approximate weights of mm's model in the weak-trend, weak-drift regime.

    form="simple" is the paper's optimal weight matrix,
    portfolios.optimal_weight_matrix with the kernel gains of mm and no ridge.
    form="sandwich" keeps the first-order trend/drift corrections inside the
    two inverted factors of the same two-solve sandwich.
    """
    model, kv = mm.model, mm.kernels
    ce, cx = model.noise_cov, model.trend_cov
    m = np.outer(model.drift, model.drift)
    if form == "simple":
        return portfolios.optimal_weight_matrix(ce, cx, m, kv.trend_gain, kv.drift_gain, ridge=0.0)
    if form != "sandwich":
        raise InvalidInput(f"unknown form {form!r}")
    core = kv.trend_gain * cx + kv.drift_gain * m
    left = ce + kv.g_trend_left * cx + m
    right = ce + kv.g_trend_right * cx + kv.g_drift_right * m
    return symmat.solve_sandwich(left, core, right, ridge=0.0)
