"""Dated strategy pipeline over a returns panel.

Each day's positions come from estimator and signal state that has only seen
returns up to the previous day, and the P&L is realized against the current
day's returns.  Weekly return sums feed the correlation estimate every
week_len days; per-asset vols come from the daily variance EMA.

The estimators run once per panel and estimator setting, and every book of
that setting is built from the pass: a block is the days between two weekly
rolls, over which one cleaned correlation holds.  The pass runs the panel in
chunks of whole weeks, about _CHUNK_DAYS days each.  Per chunk it runs each
estimator recursion once over the chunk's days, cleans the rolls that open
the chunk's blocks in one stacked call and builds each book once over those
blocks, by the portfolio constructor of its kind (then portfolios.vol_target
if vol_scale is set).  Chunking bounds every stacked array at about
_CHUNK_DAYS matrices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import estimation, portfolios, signals
from .errors import DegenerateResult, DegenerateVariance, InsufficientData, InvalidInput
from .market_model import ReturnsPanel
from .symmat import eigendecompose

TRADING_DAYS = 252.0
_CHUNK_DAYS = 256  # days per flush of the estimator pass: bounds every stacked array

_BOOKS = {  # kind -> positions on a block of days, from (corr, cov, signals, vols, classes, ridge)
    "rp": lambda c, cov, s, v, cls, r: portfolios.risk_parity(cov, v, cls, r),
    "nm": lambda c, cov, s, v, cls, r: portfolios.naive_markowitz(cov, s, r),
    "arp": lambda c, cov, s, v, cls, r: portfolios.agnostic_risk_parity(c, v, s, r),
    "torp": lambda c, cov, s, v, cls, r: portfolios.trend_on_risk_parity(cov, v, s, cls, r),
    "ew": lambda c, cov, s, v, cls, r: portfolios.equally_weighted(v),
    "zero": lambda c, cov, s, v, cls, r: np.zeros_like(v),
}
STRATEGY_KINDS = tuple(_BOOKS)


@dataclass(frozen=True)
class StrategyConfig:
    """Strategy id plus every estimator knob of the pipeline.

    vol_scale=None trades unit-gross positions (P&L scales linearly with the
    panel); a float rescales positions daily to that conditional volatility
    under the estimated covariance.
    """

    kind: str
    signal_rate: float = 0.01
    cov_rate: float = estimation.DEFAULT_COV_RATE
    var_rate: float = estimation.DEFAULT_VAR_RATE
    cleaner: str = "rie"
    sample_ratio: float | None = None
    ridge: float | None = None
    vol_scale: float | None = None
    week_len: int = 5
    warmup: int | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise InvalidInput(f"unknown strategy {self.kind!r}, expected one of {STRATEGY_KINDS}")
        if self.cleaner not in estimation.CLEANERS:
            raise InvalidInput(f"unknown cleaner {self.cleaner!r}")
        for name in ("signal_rate", "cov_rate", "var_rate"):
            signals.check_rate(name, getattr(self, name))
        if self.sample_ratio is not None and not self.sample_ratio > 0.0:
            raise InvalidInput(f"sample_ratio must be positive, got {self.sample_ratio}")
        if self.week_len < 1:
            raise InvalidInput("week_len must be >= 1")
        if self.warmup is not None and self.warmup < self.week_len:
            raise InvalidInput("warm-up must cover at least one weekly update")

    def warmup_days(self) -> int:
        """Signal warm-up or covariance warm-up, whichever is longer."""
        if self.warmup is not None:
            return self.warmup
        signal_days = math.ceil(2.0 / self.signal_rate)
        cov_days = self.week_len * math.ceil(2.0 / self.cov_rate)
        return max(signal_days, cov_days)


@dataclass(frozen=True, eq=False)
class BacktestResult:
    pnl: np.ndarray
    positions: np.ndarray | None
    warmup: int
    strategy: str = ""

    @property
    def active_pnl(self) -> np.ndarray:
        return self.pnl[self.warmup :]

    @property
    def sharpe(self) -> float:
        """Annualized Sharpe ratio over post-warmup days."""
        pnl = self.active_pnl
        std = float(pnl.std(ddof=1)) if len(pnl) > 1 else 0.0
        if std <= 0.0:
            raise DegenerateResult(f"P&L of {self.strategy or 'strategy'} has zero variance")
        return float(pnl.mean()) / std * math.sqrt(TRADING_DAYS)


def _positions(cfg: StrategyConfig, corr, cov, sig, vols, classes) -> np.ndarray:
    """One book's positions on k blocks of w days, a (k, w, n) array: signals and vols
    (k, w, n), the cleaned correlation of each block (k, 1, n, n) and the daily
    covariances (k, w, n, n), both None for a book that does not read them;
    vol_scale rescales each day that holds a position to that volatility."""
    pos = _BOOKS[cfg.kind](corr, cov, sig, vols, classes, cfg.ridge)
    if cfg.vol_scale is not None:
        live = np.abs(pos).sum(axis=-1) > 0.0
        pos[live] = portfolios.vol_target(pos[live], cov[live], cfg.vol_scale)
    return pos


def _segments(lo: int, hi: int, week: int):
    """Days [lo, hi) as (start, stop, blocks): the ragged end of the block lo falls
    in, the whole blocks, and the ragged start of the block hi falls in."""
    whole_lo = min(hi, -(-lo // week) * week)
    whole_hi = max(whole_lo, hi // week * week)
    segments = ((lo, whole_lo, 1), (whole_lo, whole_hi, (whole_hi - whole_lo) // week),
                (whole_hi, hi, 1))
    return [segment for segment in segments if segment[0] < segment[1]]


def _estimator_pass(panel: ReturnsPanel, setting: StrategyConfig, books) -> tuple:
    """Run the setting's estimators over the panel once and build the books from them.

    A block is the days between two weekly rolls; each book's day t sees the
    signal and vols of days < t and the correlation cleaned at the block's
    opening roll.  A roll is cleaned only if it is the last one or if a book
    that reads the correlation trades in the block it opens.  The panel runs
    in chunks of whole weeks, about _CHUNK_DAYS days each, so no week
    straddles two chunks and only the signal, the variances and the last
    covariance carry from one chunk to the next.  Each chunk runs the
    recursions once over its days, cleans the rolls that open its blocks in
    one stacked call and builds each book once over its blocks.
    Returns each book's positions and the final (correlation, vols).
    """
    returns = panel.returns
    n_days, n = returns.shape
    week = setting.week_len
    ratio = setting.sample_ratio
    if ratio is None:
        ratio = estimation.default_sample_ratio(n, setting.cov_rate)
    clean = estimation.CLEANERS[setting.cleaner]
    warmups = [cfg.warmup_days() for cfg in books]
    reads = [cfg.kind not in ("zero", "ew") or cfg.vol_scale is not None for cfg in books]
    positions = [np.zeros((n_days, n)) for _ in books]
    first_needed = min([w for w, r in zip(warmups, reads) if r] + [n_days]) // week

    span = week * -(-_CHUNK_DAYS // week)
    sig, var, cov, corr = np.zeros(n), None, None, None
    for lo in range(0, n_days, span):
        hi = min(n_days, lo + span)
        days = returns[lo:hi]
        sigs, sig = signals.update(sig, days, setting.signal_rate)
        before = np.zeros(n) if var is None else var
        path, var = estimation.update_daily(var, days, setting.var_rate)
        vols = np.sqrt(np.vstack((before, path[:-1])))  # day t reads the variances of days < t
        weeks = (hi - lo) // week
        rolled = estimation.roll_week(cov, days[:weeks * week].reshape(weeks, week, n).sum(axis=1),
                                      setting.cov_rate)
        # the rolls that open this chunk's blocks, from first_block on: the carried one at
        # lo (none at day 0) and the chunk's own, but for one at hi, which opens the next
        first_block = lo // week + (cov is None)
        opening = rolled if cov is None else np.concatenate((cov[None], rolled))
        if hi < n_days:
            opening = opening[:-1]
        cov = rolled[-1] if weeks else cov
        skip = max(0, first_needed - first_block)  # rolls whose blocks no reading book trades
        first_block += skip
        opening, cleaned = opening[skip:], None
        if len(opening):
            cleaned = clean(estimation.correlation(opening), ratio)
            corr = cleaned[-1]
        covs = {}  # (start, stop) -> covariances shared by the books of that segment
        for cfg, warmup, read, pos in zip(books, warmups, reads, positions):
            for start, stop, blocks in _segments(max(lo, warmup), hi, week):
                v = vols[start - lo:stop - lo].reshape(blocks, -1, n)
                c = cov_days = None
                if read:
                    first = start // week - first_block
                    c = cleaned[first:first + blocks, None]
                    if (start, stop) not in covs:
                        covs[start, stop] = c * (v[..., :, None] * v[..., None, :])
                    cov_days = covs[start, stop]
                pos[start:stop] = _positions(cfg, c, cov_days,
                                             sigs[start - lo:stop - lo].reshape(blocks, -1, n),
                                             v, panel.asset_classes).reshape(-1, n)
    if corr is None:
        raise DegenerateVariance("no weekly covariance yet")
    return positions, corr, np.sqrt(var)


def run(panel: ReturnsPanel, cfg: StrategyConfig) -> BacktestResult:
    """Run one strategy over the panel; pre-warmup days carry zero positions."""
    return run_many(panel, [cfg])[0]


def run_many(panel: ReturnsPanel, configs) -> list[BacktestResult]:
    """Run every strategy over the panel with one estimator pass per estimator setting."""
    return run_with_estimates(panel, configs)[0]


def run_with_estimates(panel: ReturnsPanel, configs) -> tuple[list, np.ndarray, np.ndarray]:
    """run_many's results plus the final (correlation, vols) of configs[0]'s pass.

    Configs with equal signal/cov/var rates, cleaner, sample ratio and
    week_len share one pass; the first error of any book aborts the call.
    """
    if not configs:
        raise InvalidInput("need at least one strategy")
    groups: dict[tuple, list] = {}
    for i, cfg in enumerate(configs):
        if panel.n_days < cfg.warmup_days() + 2:  # realized risk needs two active days
            raise InsufficientData(f"panel of {panel.n_days} days leaves fewer than two "
                                   f"active days after warm-up {cfg.warmup_days()}")
        key = (cfg.signal_rate, cfg.cov_rate, cfg.var_rate, cfg.cleaner, cfg.sample_ratio,
               cfg.week_len)
        groups.setdefault(key, []).append(i)
    results, finals = [None] * len(configs), []
    for members in groups.values():
        books = [configs[i] for i in members]
        positions, corr, vols = _estimator_pass(panel, books[0], books)
        finals.append((corr, vols))
        for i, cfg, pos in zip(members, books, positions):
            warmup = cfg.warmup_days()
            pnl = np.zeros(panel.n_days)
            pnl[warmup:] = np.einsum("ti,ti->t", panel.returns[warmup:], pos[warmup:])
            results[i] = BacktestResult(pnl=pnl, positions=pos, warmup=warmup, strategy=cfg.kind)
    return results, *finals[0]


def pipeline_estimates(panel: ReturnsPanel, cfg: StrategyConfig) -> tuple[np.ndarray, np.ndarray]:
    """Cleaned correlation and daily vols the pipeline holds after the whole panel."""
    return _estimator_pass(panel, cfg, [])[1:]


@dataclass(frozen=True, eq=False)
class EigenRiskProfile:
    eigenvalues: np.ndarray
    risks: np.ndarray


def realized_risk(result: BacktestResult, corr: np.ndarray, panel: ReturnsPanel) -> EigenRiskProfile:
    """Realized P&L risk carried by each eigenmode of the given correlation.

    Positions and returns are projected on the correlation eigenvectors in
    vol-rescaled units; the per-mode P&L contributions sum to the total P&L
    exactly (an asset with zero realized vol stays in raw units, vol 1), and
    their standard deviations form the risk profile.
    """
    if result.positions is None:
        raise InvalidInput("result carries no positions history")
    pairs = eigendecompose(corr)
    active = slice(result.warmup, None)
    rets = panel.returns[active]
    pos = result.positions[active]
    vols = rets.std(axis=0, ddof=1)
    vols = np.where(vols > 0.0, vols, 1.0)
    mode_returns = (rets / vols) @ pairs.eigenvectors
    mode_exposures = (pos * vols) @ pairs.eigenvectors
    per_mode = mode_exposures * mode_returns
    return EigenRiskProfile(
        eigenvalues=pairs.eigenvalues,
        risks=per_mode.std(axis=0, ddof=1),
    )


def _aligned_active(results) -> np.ndarray:
    if len(results) < 1:
        raise InvalidInput("need at least one result")
    series = [np.asarray(r.active_pnl, dtype=float) for r in results]
    length = len(series[0])
    if any(len(s) != length for s in series):
        raise InvalidInput("P&L series are not aligned")
    return np.column_stack(series)


def strategy_correlations(results) -> np.ndarray:
    """Pairwise Pearson correlations of the daily P&L series."""
    x = _aligned_active(results)
    if x.std(axis=0).min() <= 0.0:
        raise DegenerateResult("a P&L series has zero variance")
    return np.corrcoef(x, rowvar=False).reshape(x.shape[1], x.shape[1])


@dataclass(frozen=True, eq=False)
class MixResult:
    weights: np.ndarray
    sharpe: float


def _mix_sharpe(x: np.ndarray, w: np.ndarray) -> float:
    series = x @ w
    std = series.std(ddof=1)
    if std <= 0.0:
        return -np.inf
    return float(series.mean() / std * math.sqrt(TRADING_DAYS))


def _unit_vol_active(results) -> np.ndarray:
    """Aligned active P&L with each series divided by its standard deviation."""
    x = _aligned_active(results)
    stds = x.std(axis=0, ddof=1)
    if stds.min() <= 0.0:
        raise DegenerateResult("cannot mix a zero-variance P&L series")
    return x / stds


def optimal_mix(results) -> MixResult:
    """In-sample Sharpe-optimal convex combination of unit-vol P&L series.

    Exact and seed-free.  The Sharpe ratio is scale-free, so off the vertices
    its maximum over w >= 0 sits at w_S proportional to inv(cov_S) mean_S on
    the support S where those components are all positive (the opposite sign
    is the minimum over span S).  The candidates are every vertex, that point
    of every support of two or more series where it is positive, and the
    uniform split; all are feasible and scored on the mixed series, and ties
    at the optimum are broken toward the uniform split.
    """
    if len(results) < 2:
        raise InvalidInput("need at least two strategies to mix")
    x = _unit_vol_active(results)
    m = x.shape[1]
    mu = x.mean(axis=0)
    cov = np.cov(x, rowvar=False, ddof=1).reshape(m, m)
    candidates = list(np.eye(m))
    for size in range(2, m + 1):
        for support in itertools.combinations(range(m), size):
            idx = list(support)
            try:
                solved = np.linalg.solve(cov[np.ix_(idx, idx)], mu[idx])
            except np.linalg.LinAlgError:  # a singular support's optimum lies on a smaller one
                continue
            if (solved > 0.0).all():
                candidates.append(np.zeros(m))
                candidates[-1][idx] = solved / solved.sum()
    candidates.append(np.full(m, 1.0 / m))
    sharpes = [_mix_sharpe(x, w) for w in candidates]
    best = int(np.argmax(sharpes))
    if sharpes[-1] >= sharpes[best] - 1e-12:
        best = -1
    return MixResult(weights=candidates[best], sharpe=sharpes[best])


def sweep_mix_curve(results, step: float = 0.01) -> tuple[np.ndarray, np.ndarray]:
    """Sharpe of the two-strategy mix along the weight grid of the second one: every
    multiple of step below 1, and 1 itself."""
    if len(results) != 2:
        raise InvalidInput("sweep needs exactly two strategies")
    if not 0.0 < step <= 0.5:
        raise InvalidInput(f"grid step must be in (0, 0.5], got {step}")
    x = _unit_vol_active(results)
    grid = np.arange(0.0, 1.0, step)
    grid = np.append(grid[grid < 1.0 - 1e-12], 1.0)  # a multiple within round-off of 1 is 1
    sharpes = np.array([_mix_sharpe(x, np.array([1.0 - w, w])) for w in grid])
    return grid, sharpes
