"""Analytic ground truth for the signal-weight optimization at small scale.

For the generative model with a common EMA signal kernel and a common
exponential trend kernel, the one-day P&L r'ws of a weight matrix w is a
bilinear form in the jointly Gaussian return r and signal s, so its mean and
variance follow exactly from three n x n second moments, E[rs'], E[rr'] and
E[ss'] (Isserlis's theorem; the identity is in `PnlMoments`).  The last two
are the factors of the paper's sandwich weights.  One `PnlMoments` per
(model, rate, t) holds them, and every function below reads
one to evaluate weights, to solve the squared-Sharpe stationarity condition
exactly for n <= 3, or to give the closed-form approximate weights.  Those
are the paper's optimal weight matrix, portfolios.optimal_weight_matrix, and
a sandwich form with corrected factors; both are two symmat solves.

A `PnlMoments` is built from one `ModelParams`, which holds one model or a
stack of models of one size, and every reader takes either: a stack gives
arrays with a leading model axis, each model's entry exactly its own
one-model result, and one model gives floats and (n, n) matrices.  The
`oracle` command builds one stack of up to `cli._STACK_MODELS` models at a
time, so it makes one moment pass per stack.  The kernel pass under it holds
no (models, t) array: it doubles stacked 3x3 recurrences in O(log t) steps.

Per-asset heterogeneous kernels are out of scope; everything below assumes
the shared-kernel model.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import estimation, portfolios, symmat
from .errors import DegenerateForm, InvalidInput, TooEarly
from .market_model import ModelParams

EXACT_MAX_ASSETS = 3


@dataclass(frozen=True, eq=False)
class KernelValues:
    """Kernel weights of the P&L moments at a fixed time: floats for one model,
    arrays with one entry per model for a stack.

    noise_noise is the signal's own variance weight (E[ss'] = noise_noise *
    right); trend_mean/signal_mass weight the trend covariance and the drift
    outer product in the P&L mean, trend_gain/drift_gain in the optimal matrix
    (overall constant fixed to 1); the g values sit in the sandwich factors.
    """

    noise_noise: float
    trend_mean: float
    g_trend_left: float
    g_trend_right: float
    g_drift_right: float
    trend_gain: float
    drift_gain: float
    signal_mass: float


def _unbatch(x):
    """A float for a 0-d result, the array itself for a stack."""
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, per entry of a stack; the stacked matmul of a row
    and a column takes the same BLAS dot as a 1-D `a @ b`."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _per_model(x, dims: int):
    """A kernel value, a float or one entry per model, shaped to broadcast against
    a stack of matrices with `dims` trailing axes."""
    return np.reshape(x, np.shape(x) + (1,) * dims)


def _kernel_products(rate: float, amp, decay, t: int) -> dict:
    """Equal-time products of the signal and trend kernels, in O(log t).

    amp and decay are one value each, or arrays broadcast together; each
    product comes out as a float, or as an array of that shape.  The trend
    kernel carries one factor amp, so the products that read it twice are the
    unit-amplitude ones times amp^2, and the pass runs at unit amplitude:
    the last decays it ran for are kept, so sizing a model's amplitude and then
    building its moments makes one pass.
    """
    if t < 2:
        raise TooEarly(f"moments need t >= 2, got {t}")
    if not 0.0 < rate < 1.0:
        raise InvalidInput(f"rate must be in (0,1), got {rate}")
    amp, decay = np.broadcast_arrays(np.asarray(amp, dtype=float), np.asarray(decay, dtype=float))
    bad = ~((0.0 < decay) & (decay <= 1.0))
    if bad.any():
        raise InvalidInput(f"decay must be in (0,1], got {decay[bad][0]}")
    amp_sq = amp * amp
    unit = _unit_kernel_products(rate, t, decay.tobytes())
    return {name: _unbatch(value.reshape(decay.shape) * amp_sq if np.ndim(value)
                           else np.full(decay.shape, value))
            for name, value in unit.items()}


# One entry, keyed by the exact decays: the sampler sizes a stack's amplitudes and
# pnl_moment_tensors then builds its moments from the same decays, so a stack makes
# one pass, not two.  A pass costs about 0.9 ms at 300 models and t = 2000.  The
# entry also serves a later `oracle` run with the same arguments in one process,
# so the benchmark's `oracle_report`, which repeats one argv, does not time it.
@functools.lru_cache(maxsize=1)
def _unit_kernel_products(rate: float, t: int, decay: bytes) -> dict:
    """The kernel products at amplitude 1: one entry per decay (float64 bytes) for
    those that read the trend kernel, a float for those of the signal kernel alone.

    With p = 1 - rate and q = 1 - decay, the signal kernel applied to the trend
    kernel at shock age k is h_k, with h_0 = 0 and h_{k+1} = p h_k + q**k.  So
    y_k = (h_k**2, h_k q**k, q**(2k)) obeys y_{k+1} = A y_k with
    A = [[p**2, 2p, 1], [0, pq, q], [0, 0, q**2]], and the three trend products
    are the last column of S = sum_{k < m} A**k, m = t - 1.  One more matrix,
    diag(p**2, p, 0), has sum p**(2k) and sum p**k, the signal's two sums, on the
    diagonal of its S.  Over the bits of m from the top, (S, A**j) doubles to
    (S + A**j S, A**2j) and a 1 bit adds one term, (S + A**j, A**(j+1)): O(log t)
    stacked 3x3 steps.  No entry is negative, so no step cancels: p ~ q and
    q = 0 (decay 1) need no special case.
    """
    p = 1.0 - rate
    q = 1.0 - np.frombuffer(decay)
    step = np.zeros((len(q) + 1, 3, 3))  # A per decay, then the signal's matrix
    step[:, 0, 0] = p * p
    step[:-1, 0, 1], step[:-1, 0, 2] = 2.0 * p, 1.0
    step[:-1, 1, 1], step[:-1, 1, 2], step[:-1, 2, 2] = p * q, q, q * q
    step[-1, 1, 1] = p
    total, power = np.zeros_like(step), np.broadcast_to(np.eye(3), step.shape)
    for bit in bin(t - 1)[2:]:
        total, power = total + power @ total, power @ power
        if bit == "1":
            total, power = total + power, power @ step
    trend, signal = total[:-1, :, 2], total[-1]
    return {
        "sig_sig": float(signal[0, 0]),
        "trend_trend": trend[:, 2],
        "sig_trend_sq": trend[:, 0],
        "sig_trend_trend": trend[:, 1],
        "signal_mass": float(signal[1, 1]),
    }


def compute_kernels(rate: float, amp, decay, t: int) -> KernelValues:
    """All kernel values at time t, overall constant fixed to 1; one amp/decay or arrays."""
    k = _kernel_products(rate, amp, decay, t)
    ss, mass = k["sig_sig"], k["signal_mass"]
    return KernelValues(
        noise_noise=ss,
        trend_mean=k["sig_trend_trend"],
        g_trend_left=k["trend_trend"],
        g_trend_right=k["sig_trend_sq"] / ss,
        g_drift_right=mass * mass / ss,
        trend_gain=k["sig_trend_trend"] / ss,
        drift_gain=mass / ss,
        signal_mass=mass,
    )


@dataclass(frozen=True, eq=False)
class PnlMoments:
    """One-day P&L moments of the model(s) at one time t, with the kernel values
    at t that weight them.

    The P&L r'ws of a weight matrix w (rows: traded assets, columns: signal
    assets) is a bilinear form in the jointly Gaussian return r and signal s,
    so three second moments fix it: mean_matrix = E[rs'], left = E[rr'] and
    noise_noise * right = E[ss'].  Isserlis's theorem for non-central
    Gaussians gives var(w) = <w, V w> with

        V w = ss * left w right + M w' M - 2 mass^2 (mu' w mu) mu mu'

    where M = mean_matrix, ss = noise_noise, mass = signal_mass and mu = the
    model's drift.  left and right are also the two inverted factors of the
    sandwich weights, and model is the ModelParams the moments were built from,
    whose covariances and drift the approximate weights read.  For a stack of
    models mean_matrix, left and right carry a leading model axis, (z, n, n).
    """

    mean_matrix: np.ndarray
    left: np.ndarray
    right: np.ndarray
    model: ModelParams
    kernels: KernelValues

    def apply(self, w: np.ndarray) -> np.ndarray:
        """V w for one (n, n) weight matrix per model, or a stack of them that
        broadcasts against the models."""
        kv = self.kernels
        mu = self.model.drift[..., :, None]
        mu_t = np.swapaxes(mu, -1, -2)
        mass = _per_model(kv.signal_mass, 2)
        drift = 2.0 * mass * mass * (mu_t @ w @ mu) * (mu * mu_t)
        return (_per_model(kv.noise_noise, 2) * (self.left @ w @ self.right)
                + self.mean_matrix @ np.swapaxes(w, -1, -2) @ self.mean_matrix - drift)

    def var_form(self) -> np.ndarray:
        """V as one (n^2, n^2) matrix per model: V applied to the n^2 basis matrices."""
        batch, n = self.mean_matrix.shape[:-2], self.mean_matrix.shape[-1]
        basis = np.eye(n * n).reshape((n * n,) + (1,) * len(batch) + (n, n))
        return np.moveaxis(self.apply(basis).reshape((n * n,) + batch + (n * n,)), 0, -1)


def pnl_moment_tensors(model: ModelParams, rate: float, t: int) -> PnlMoments:
    """Exact day-t P&L moments of one model or a stack: the input of every other oracle function."""
    ce, cx, drift = model.noise_cov, model.trend_cov, model.drift
    kv = compute_kernels(rate, model.trend_amp, model.trend_decay, t)

    def k2(x):
        return _per_model(x, 2)

    m = drift[..., :, None] * drift[..., None, :]
    return PnlMoments(
        mean_matrix=k2(kv.trend_mean) * cx + k2(kv.signal_mass) * m,
        left=ce + k2(kv.g_trend_left) * cx + m,
        right=ce + k2(kv.g_trend_right) * cx + k2(kv.g_drift_right) * m,
        model=model, kernels=kv,
    )


def _weights(mm: PnlMoments, weights: np.ndarray) -> np.ndarray:
    """The weights as one (n, n) matrix per model: one matrix serves every model."""
    w, shape = np.asarray(weights, dtype=float), mm.mean_matrix.shape
    if w.shape[-2:] != shape[-2:] or w.shape[:-2] not in ((), shape[:-2]):
        raise InvalidInput(f"weights must have shape {shape}, got {w.shape}")
    return np.broadcast_to(w, shape)


def moments(mm: PnlMoments, weights: np.ndarray) -> tuple:
    """Mean and variance of the day-t P&L of mm under the given weight matrix."""
    w = _weights(mm, weights)
    batch = w.shape[:-2]
    mean = (w * mm.mean_matrix).reshape(batch + (-1,)).sum(axis=-1)
    variance = (w * mm.apply(w)).reshape(batch + (-1,)).sum(axis=-1)
    return _unbatch(mean), _unbatch(variance)


def squared_sharpe(mm: PnlMoments, weights: np.ndarray):
    """Squared Sharpe ratio mean^2 / variance of the day-t P&L of mm."""
    mean, variance = moments(mm, weights)
    if np.min(variance) <= 0.0:
        raise DegenerateForm(f"P&L variance {np.min(variance):.3e} is not positive")
    return mean * mean / variance


def stationarity_residual(mm: PnlMoments, weights: np.ndarray):
    """Max-norm violation of the squared-Sharpe stationarity condition of mm.

    Zero exactly at a stationary weight matrix.  The objective only sees the
    ray of the weights, so they are normalized to unit Frobenius norm before
    the residual is formed; the value is then comparable across models.
    """
    w = _weights(mm, weights)
    batch = w.shape[:-2]
    flat = w.reshape(batch + (-1,))
    norm = np.sqrt(_dot(flat, flat))
    if np.any(norm == 0.0):
        raise DegenerateForm("weights are identically zero")
    wf = flat / norm[..., None]
    vw = mm.apply(wf.reshape(w.shape)).reshape(batch + (-1,))
    quad = _dot(wf, vw)
    target = mm.mean_matrix.reshape(batch + (-1,))
    mw = _dot(target, wf)
    if np.any(quad <= 0.0) or np.any(mw == 0.0):
        raise DegenerateForm("stationarity residual undefined for degenerate forms")
    residual = target * quad[..., None] - vw * mw[..., None]
    return _unbatch(np.abs(residual).max(axis=-1) / (np.abs(mw) * quad))


def _solve_ridged(vf: np.ndarray, target: np.ndarray) -> np.ndarray:
    """vf x = target per matrix; a singular matrix, and only it, gets a tiny ridge."""
    try:
        return np.linalg.solve(vf, target[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if vf.ndim > 2:
            return np.stack([_solve_ridged(v, b) for v, b in zip(vf, target)])
        ridge = 1e-12 * np.trace(vf)
        return np.linalg.solve(vf + ridge * np.eye(vf.shape[0]), target[..., None])[..., 0]


def brute_force_optimal(mm: PnlMoments) -> np.ndarray:
    """Exact maximizer of the squared Sharpe ratio of mm over weight matrices.

    The objective is a ratio of a rank-one quadratic to a PSD quadratic, so
    every stationary ray solves the flattened linear system V w = mean;
    we solve it directly (tiny ridge if singular) and return the unit-norm
    solution with a positive mean.  Only supported for n <= 3.
    """
    n = mm.mean_matrix.shape[-1]
    if n > EXACT_MAX_ASSETS:
        raise InvalidInput(f"exact solve supports n <= {EXACT_MAX_ASSETS}, got {n}")
    vf = mm.var_form()
    target = mm.mean_matrix.reshape(vf.shape[:-1])
    wf = _solve_ridged(vf, target)
    norm = np.sqrt(_dot(wf, wf))
    if np.any(norm == 0.0):
        raise DegenerateForm("mean matrix is zero; every weight matrix is stationary")
    wf = wf / norm[..., None]
    wf = np.where((_dot(target, wf) < 0.0)[..., None], -wf, wf)
    return wf.reshape(mm.mean_matrix.shape)


def sample_weak_trend_model(rng: np.random.Generator, n: int, rate: float = 0.01,
                            t: int = 500, count: int | None = None):
    """Random model inside the validity regime of the closed-form weights.

    Trend and drift structure are capped at 5% of the noise covariance in
    spectral norm, and the kernel amplitude is sized so the trend corrections
    to the P&L variance stay a few percent of the noise terms; drifts are
    desk-scale (at most a couple of basis points per day) because the signal
    mass multiplies them by roughly 1/rate in the moment tensors.

    count=None gives one model, count=k one ModelParams stack of k models: each
    model takes its draws from rng in turn, as k one-model calls would, and the
    arithmetic and the model check then run once over the stack.
    """
    draws = []
    for _ in range(1 if count is None else count):
        draws.append((
            rng.standard_normal((n, 2 * n)),  # Wishart draw of the noise correlation
            rng.standard_normal((n, 2 * n)),  # and of the trend correlation
            rng.uniform(0.3, 1.0),  # trend size, as a share of the 5% cap
            rng.uniform(0.01, 0.04),  # trend decay
            rng.uniform(0.01, 0.05),  # trend correction to the noise variance
            rng.uniform(-0.002, 0.002, size=n),  # drift
        ))
    noise_w, raw_w, size, decay, correction, drift = (np.array(column) for column in zip(*draws))

    noise_cov = estimation.correlation(noise_w @ np.swapaxes(noise_w, -1, -2) / (2 * n))
    noise_norm = np.linalg.norm(noise_cov, 2, axis=(-2, -1))
    raw = estimation.correlation(raw_w @ np.swapaxes(raw_w, -1, -2) / (2 * n))
    scale = 0.05 * noise_norm * size / np.linalg.norm(raw, 2, axis=(-2, -1))
    trend_cov = raw * scale[:, None, None]

    unit = _kernel_products(rate, 1.0, decay, t)
    amp = np.sqrt(correction * unit["sig_sig"] / unit["sig_trend_sq"])

    if count is None:
        return ModelParams(n, drift[0], noise_cov[0], trend_cov[0], amp[0], decay[0])
    return ModelParams(n, drift, noise_cov, trend_cov, amp, decay)


def approx_optimal(mm: PnlMoments, form: str = "simple") -> np.ndarray:
    """Closed-form approximate weights of mm's model(s) in the weak-trend, weak-drift regime.

    form="simple" is the paper's optimal weight matrix,
    portfolios.optimal_weight_matrix with the kernel gains of mm and no ridge.
    form="sandwich" keeps the first-order trend/drift corrections inside the
    two inverted factors of the same two-solve sandwich.
    """
    if form not in ("simple", "sandwich"):
        raise InvalidInput(f"unknown form {form!r}")
    model, kv = mm.model, mm.kernels
    m = model.drift[..., :, None] * model.drift[..., None, :]
    trend_gain, drift_gain = _per_model(kv.trend_gain, 2), _per_model(kv.drift_gain, 2)
    if form == "simple":
        return portfolios.optimal_weight_matrix(model.noise_cov, model.trend_cov, m, trend_gain,
                                                drift_gain, ridge=0.0)
    return symmat.solve_sandwich(mm.left, trend_gain * model.trend_cov + drift_gain * m,
                                 mm.right, ridge=0.0)
