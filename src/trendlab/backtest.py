"""Dated strategy pipeline over a returns panel.

Each day's positions come from estimator and signal state that has only seen
returns up to the previous day, and the P&L is realized against the current
day's returns.  Weekly return sums feed the correlation estimate every
week_len days; per-asset vols come from the daily variance EMA.

One call runs the estimators of one setting over the panel once and builds
every book from that pass: a block is the days between two weekly rolls, over
which one cleaned correlation holds.  The pass runs the panel in chunks of
whole weeks, about _CHUNK_DAYS days each.  Per chunk it runs each estimator
recursion (signals.ema) once over the chunk's days, which gives the state
before each day or roll and the state to carry, cleans the rolls that open the
chunk's blocks in one stacked call and builds every book on those blocks by
its _BOOKS row alone, which also sizes it (finish for unit gross; the engine
trades a raw row as it is).  The books of a segment share one _Segment, which
builds each thing they share at most once, on its first read: the daily
covariances' symmat.System (checked and shifted once, by the first solve) and
the raw RP book that RP finishes and ToRP trades.  Chunking bounds every
stacked array at about _CHUNK_DAYS matrices.  The mix layer reads only P&L:
one (days, m) array of aligned series.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import estimation, portfolios, signals
from .errors import DegenerateResult, DegenerateVariance, InsufficientData, InvalidInput
from .market_model import ReturnsPanel
from .portfolios import finish
from .symmat import System, eigendecompose

TRADING_DAYS = 252.0
_CHUNK_DAYS = 256  # days per flush of the estimator pass: bounds every stacked array


@dataclass(eq=False)
class _Segment:
    """A segment's blocks of days as its books read them: signals and vols (blocks,
    days, n), corr (blocks, 1, n, n) or None if no book reads it, and, each built
    on its first read, the system of the daily covariances and the raw RP book."""

    corr: np.ndarray | None
    signals: np.ndarray
    vols: np.ndarray
    classes: tuple

    @functools.cached_property
    def system(self) -> System:
        return System(self.corr * (self.vols[..., :, None] * self.vols[..., None, :]))

    @functools.cached_property
    def rp_book(self) -> np.ndarray:
        return portfolios.risk_parity(self.system, self.vols, self.classes)


# kind -> (reads the cleaned correlation, positions on a _Segment's blocks at the row's size)
_BOOKS = {
    "rp": (True, lambda seg: finish(seg.rp_book)),
    "nm": (True, lambda seg: finish(portfolios.naive_markowitz(seg.system, seg.signals))),
    "arp": (True, lambda seg: finish(portfolios.agnostic_risk_parity(seg.corr, seg.vols, seg.signals))),
    "torp": (True, lambda seg: finish(portfolios.trend_on(seg.rp_book, seg.signals))),
    "ew": (False, lambda seg: finish(portfolios.equally_weighted(seg.vols))),
    "zero": (False, lambda seg: np.zeros_like(seg.vols)),
}
STRATEGY_KINDS = tuple(_BOOKS)


@dataclass(frozen=True)
class StrategyConfig:
    """Strategy id plus every estimator knob of the pipeline.

    The cleaner's sample ratio is estimation.default_sample_ratio(n, cov_rate)
    and the books solve with symmat.System's default ridge.  Each book trades at
    its _BOOKS row's size, unit gross for the five books, so P&L scales
    linearly with the panel.
    """

    kind: str
    signal_rate: float = 0.01
    cov_rate: float = estimation.DEFAULT_COV_RATE
    var_rate: float = estimation.DEFAULT_VAR_RATE
    cleaner: str = "rie"
    week_len: int = 5
    warmup: int | None = None

    def __post_init__(self):
        if self.kind not in _BOOKS:
            raise InvalidInput(f"unknown strategy {self.kind!r}, expected one of {STRATEGY_KINDS}")
        if self.cleaner not in estimation.CLEANERS:
            raise InvalidInput(f"unknown cleaner {self.cleaner!r}")
        for name in ("signal_rate", "cov_rate", "var_rate"):
            signals.check_number(name, getattr(self, name), "(0, 1)")
        signals.check_number("week_len", self.week_len, "[1, inf)", int)
        if (self.warmup is not None
                and signals.check_number("warmup", self.warmup, kind=int) < self.week_len):
            raise InvalidInput("warm-up must cover at least one weekly update")

    def warmup_days(self) -> int:
        """Signal warm-up or covariance warm-up, whichever is longer."""
        if self.warmup is not None:
            return self.warmup
        return max(math.ceil(2.0 / self.signal_rate), self.week_len * math.ceil(2.0 / self.cov_rate))

    def setting(self) -> tuple:
        """What the books of one estimator pass share: every knob but kind."""
        return (self.signal_rate, self.cov_rate, self.var_rate, self.cleaner, self.week_len,
                self.warmup_days())


@dataclass(frozen=True, eq=False)
class BacktestResult:
    pnl: np.ndarray
    positions: np.ndarray
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

    Each book's day t past the warm-up sees the signal and vols of days < t and
    the correlation cleaned at the opening roll of t's block.  A roll is cleaned
    only if it is the last one or if a book reads the correlation (by its _BOOKS
    row) and trades in the block it opens.  Chunks are whole weeks, so only the
    signal, the variances and the covariance carry between them.  Each chunk
    walks its segments once, every book on one _Segment.  The last chunk adds
    the covariance after the last roll, which opens the ragged last block, if
    any, and gives the final correlation.  Returns each book's positions and
    the final (correlation, vols).
    """
    returns = panel.returns
    n_days, n = returns.shape
    week, warmup = setting.week_len, setting.warmup_days()
    if n_days < week:
        raise DegenerateVariance("no weekly covariance yet")
    ratio = estimation.default_sample_ratio(n, setting.cov_rate)
    clean = estimation.CLEANERS[setting.cleaner]
    read = any(_BOOKS[cfg.kind][0] for cfg in books)
    positions = [np.zeros((n_days, n)) for _ in books]
    first_needed = (warmup if read else n_days) // week

    span = week * -(-_CHUNK_DAYS // week)
    sig, var, cov = np.zeros(n), None, None
    for lo in range(0, n_days, span):
        hi = min(n_days, lo + span)
        days = returns[lo:hi]
        sigs, sig = signals.update(sig, days, setting.signal_rate)
        vols, var = estimation.update_daily(var, days, setting.var_rate)
        vols = np.sqrt(vols)
        sums = days[:(hi - lo) // week * week].reshape(-1, week, n).sum(axis=1)
        # row j of opening is the roll that opens block lo // week + j
        opening, cov = estimation.roll_week(cov, sums, setting.cov_rate)
        if hi == n_days:
            opening = np.concatenate((opening, cov[None]))
        first_block = max(lo // week, first_needed)  # no reading book trades an earlier block
        opening = opening[first_block - lo // week:]
        cleaned = clean(estimation.correlation(opening), ratio) if len(opening) else None
        for start, stop, blocks in _segments(max(lo, warmup), hi, week):
            first = start // week - first_block
            c = cleaned[first:first + blocks, None] if read else None
            seg = _Segment(c, sigs[start - lo:stop - lo].reshape(blocks, -1, n),
                           vols[start - lo:stop - lo].reshape(blocks, -1, n), panel.asset_classes)
            for cfg, pos in zip(books, positions):
                pos[start:stop] = _BOOKS[cfg.kind][1](seg).reshape(-1, n)
    return positions, cleaned[-1], np.sqrt(var)


def run(panel: ReturnsPanel, cfg: StrategyConfig) -> BacktestResult:
    """Run one strategy over the panel; pre-warmup days carry zero positions."""
    return run_with_estimates(panel, [cfg])[0][0]


def run_with_estimates(panel: ReturnsPanel, configs) -> tuple[list, np.ndarray, np.ndarray]:
    """One result per config from one estimator pass, and its final (correlation, vols).

    The configs may differ only in kind (they share one setting()),
    else InvalidInput before the pass runs; the first error of any book aborts.
    """
    if not configs:
        raise InvalidInput("need at least one strategy")
    setting = configs[0]
    for cfg in configs:
        if cfg.setting() != setting.setting():
            raise InvalidInput(f"books {setting.kind!r} and {cfg.kind!r} differ in an estimator "
                               "setting or warm-up; one call runs one setting")
    warmup = setting.warmup_days()
    if panel.n_days < warmup + 2:  # realized risk needs two active days
        raise InsufficientData(f"panel of {panel.n_days} days leaves fewer than two "
                               f"active days after warm-up {warmup}")
    positions, corr, vols = _estimator_pass(panel, setting, configs)
    results = []
    for cfg, pos in zip(configs, positions):
        pnl = np.zeros(panel.n_days)
        pnl[warmup:] = np.einsum("ti,ti->t", panel.returns[warmup:], pos[warmup:])
        results.append(BacktestResult(pnl=pnl, positions=pos, warmup=warmup, strategy=cfg.kind))
    return results, corr, vols


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


def strategy_correlations(pnl: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlations of the columns of a (days, m) P&L array."""
    x = np.ascontiguousarray(pnl, dtype=float)  # one summation order whatever the layout
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


def _unit_vol(pnl: np.ndarray) -> np.ndarray:
    """The (days, m) P&L columns, each divided by its standard deviation."""
    x = np.ascontiguousarray(pnl, dtype=float)  # one summation order whatever the layout
    stds = x.std(axis=0, ddof=1)
    if stds.min() <= 0.0:
        raise DegenerateResult("cannot mix a zero-variance P&L series")
    return x / stds


def optimal_mix(pnl: np.ndarray) -> MixResult:
    """In-sample Sharpe-optimal convex combination of the unit-vol columns of a
    (days, m) P&L array.

    Exact and seed-free.  The Sharpe ratio is scale-free, so off the vertices
    its maximum over w >= 0 sits at w_S proportional to inv(cov_S) mean_S on
    the support S where those components are all positive (the opposite sign
    is the minimum over span S).  The candidates are every vertex, that point
    of every support of two or more series where it is positive, and the
    uniform split; all are feasible and scored on the mixed series, and ties
    at the optimum are broken toward the uniform split.
    """
    if pnl.shape[1] < 2:
        raise InvalidInput("need at least two strategies to mix")
    x = _unit_vol(pnl)
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


def sweep_mix_curve(pnl: np.ndarray, step: float = 0.01) -> tuple[np.ndarray, np.ndarray]:
    """Sharpe of the mix of a (days, 2) P&L array's columns along the weight grid of
    the second one: every multiple of step below 1, and 1 itself."""
    if pnl.shape[1] != 2:
        raise InvalidInput("sweep needs exactly two strategies")
    signals.check_number("grid step", step, "(0, 0.5]")
    x = _unit_vol(pnl)
    grid = np.arange(0.0, 1.0, step)
    grid = np.append(grid[grid < 1.0 - 1e-12], 1.0)  # a multiple within round-off of 1 is 1
    sharpes = np.array([_mix_sharpe(x, np.array([1.0 - w, w])) for w in grid])
    return grid, sharpes
