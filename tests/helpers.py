"""Shared fixture builders for the test suite."""

import datetime
from pathlib import Path

import numpy as np

from trendlab.errors import IngestError
from trendlab.market_model import _MODEL_FIELDS, ModelParams


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


def stack_models(models):
    """One ModelParams stack of one-size models: each field stacked along a leading axis."""
    return ModelParams(n=models[0].n, **{name: np.array([getattr(m, name) for m in models])
                                         for name in _MODEL_FIELDS})


def model_row(stack, i):
    """Model i of a ModelParams stack, as a one-model ModelParams."""
    return ModelParams(n=stack.n, **{name: getattr(stack, name)[i] for name in _MODEL_FIELDS})


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


# ---------------------------------------------------------------------------
# the CLI's table format, one row and one cell at a time: the references the
# bulk reader, writer and weekday calendar must equal
# ---------------------------------------------------------------------------

def reference_read_table(path, what):
    """The per-cell reader: (names, dates, days x names array) or IngestError."""
    path = Path(path)
    if not path.exists():
        raise IngestError(f"{what} file {path} does not exist")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise IngestError(f"{what} file is not UTF-8 text ({exc.reason} at byte {exc.start})",
                          line=exc.object.count(b"\n", 0, exc.start) + 1)
    header = lines[0].split(",") if lines else []
    if not header or header[0] != "date" or len(header) < 2:
        raise IngestError(f"{what} header must be 'date,<name>...'", line=1)
    names, rows, dates = header[1:], [], []
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise IngestError(f"{what} header repeats the column {repeated[0]!r}", line=1)
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise IngestError(f"expected {len(header)} cells, found {len(cells)}", line=lineno)
        try:
            date = datetime.date.fromisoformat(cells[0])
            if date.isoformat() != cells[0]:  # only YYYY-MM-DD, whatever the Python
                raise ValueError(cells[0])
        except ValueError:
            raise IngestError(f"unparseable date {cells[0]!r}", line=lineno)
        if dates and date.isoformat() <= dates[-1]:
            raise IngestError(f"dates must be strictly increasing at {date}", line=lineno)
        dates.append(date.isoformat())
        values = []
        for cell in cells[1:]:
            cell = cell.strip()
            if not cell:
                raise IngestError("missing value", line=lineno)
            try:
                value = float(cell)
            except ValueError:
                raise IngestError(f"unparseable number {cell!r}", line=lineno)
            if not np.isfinite(value):
                raise IngestError(f"non-finite value {cell!r}", line=lineno)
            values.append(value)
        rows.append(values)
    if not dates:
        raise IngestError(f"{what} file has no data rows", line=2)
    return names, dates, np.array(rows)


def reference_csv_text(header, rows, number="%.12g"):
    """The per-row writer's text: leading date/asset/t columns print as given,
    every other cell with `number`; rows hold plain values."""
    text = 0
    while text < len(header) and header[text] in ("date", "asset", "t"):
        text += 1
    line = ",".join(["%s"] * text + [number] * (len(header) - text)) + "\n"
    return ",".join(header) + "\n" + "".join(line % tuple(row) for row in rows)


def reference_calendar(n_days):
    """The first n_days weekdays from 2000-01-03, one day at a time."""
    dates, day = [], datetime.date(2000, 1, 3)
    while len(dates) < n_days:
        if day.weekday() < 5:
            dates.append(day.isoformat())
        day += datetime.timedelta(days=1)
    return tuple(dates)


# ---------------------------------------------------------------------------
# the oracle command one model at a time: the reference the stacked command
# must equal byte for byte
# ---------------------------------------------------------------------------

def reference_oracle_payload(n, t, rate, models, seed):
    """oracle.json's payload from the per-model loop: one sample, one moment build
    and one call of each reader per model."""
    import hashlib

    from trendlab import sharpe_oracle

    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(models):
        model = sharpe_oracle.sample_weak_trend_model(rng, n, rate=rate, t=t)
        mm = sharpe_oracle.pnl_moment_tensors(model, rate, t)
        exact = sharpe_oracle.brute_force_optimal(mm)
        s2_exact = sharpe_oracle.squared_sharpe(mm, exact)
        entry = {
            "model_hash": hashlib.sha256(model.noise_cov.tobytes() + model.trend_cov.tobytes()
                                         + model.drift.tobytes()).hexdigest()[:16],
            "sharpe2_exact": s2_exact,
            "residual_exact": sharpe_oracle.stationarity_residual(mm, exact),
        }
        for form in ("simple", "sandwich"):
            w = sharpe_oracle.approx_optimal(mm, form=form)
            s2 = sharpe_oracle.squared_sharpe(mm, w)
            entry[f"residual_{form}"] = sharpe_oracle.stationarity_residual(mm, w)
            entry[f"sharpe2_{form}"] = s2
            entry[f"ratio_{form}"] = s2 / s2_exact if s2_exact > 0 else float("nan")
        reports.append(entry)
    return {"n": n, "t": t, "eta": rate, "models": reports}


# ---------------------------------------------------------------------------
# the oracle's P&L variance as the full (j1, k1, j2, k2) tensor: the reference
# the three-matrix variance form must equal to roundoff
# ---------------------------------------------------------------------------

def reference_var_tensor(models, rate, t):
    """Cov(r_j1 s_k1, r_j2 s_k2) of a ModelParams stack, shaped (models, n, n, n, n):
    eight outer products of the n x n model matrices under the pairings "ac,bd"
    and "ad,bc", so the variance of r'ws is einsum('jk,jklm,lm', w, tensor, w)."""
    from trendlab.sharpe_oracle import _kernel_products

    ce, cx, drift = models.noise_cov, models.trend_cov, models.drift
    k = _kernel_products(rate, models.trend_amp, models.trend_decay, t)
    ss, tt, stq, stt, mass = (np.reshape(k[name], (-1, 1, 1, 1, 1)) for name in
                              ("sig_sig", "trend_trend", "sig_trend_sq", "sig_trend_trend",
                               "signal_mass"))

    def outer(spec, x, y):
        left, right = spec.split(",")
        return np.einsum(f"z{left},z{right}->zabcd", x, y)

    m = drift[:, :, None] * drift[:, None, :]
    return (
        ss * outer("ac,bd", ce, ce)
        + stq * outer("ac,bd", ce, cx)
        + ss * tt * outer("ac,bd", cx, ce)
        + stq * tt * outer("ac,bd", cx, cx)
        + stt**2 * outer("ad,bc", cx, cx)
        + outer("ac,bd", m, ss[..., 0, 0] * ce + stq[..., 0, 0] * cx)
        + mass * stt * (outer("ad,bc", m, cx) + outer("bc,ad", m, cx))
        + mass**2 * outer("bd,ac", m, ce + tt[..., 0, 0] * cx)
    )


def reference_var_form(mm):
    """V of a PnlMoments as one dense (n^2, n^2) matrix per model: `mm.apply` on the
    n^2 basis matrices, so that <w, V w> is the variance of r'ws for flattened w."""
    batch, n = mm.mean_matrix.shape[:-2], mm.mean_matrix.shape[-1]
    basis = np.eye(n * n).reshape((n * n,) + (1,) * len(batch) + (n, n))
    return np.moveaxis(mm.apply(basis).reshape((n * n,) + batch + (n * n,)), 0, -1)
