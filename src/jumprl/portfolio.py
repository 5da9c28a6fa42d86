"""Mean-variance portfolio application on intraday price data.

Pipeline per rolling test day: estimate daily variance from the trailing
window by bipower variation, optionally zero out increments beyond the jump
threshold tau = 4 sigma dt^0.47, fit the allocation parameter theta with
mstde or msbve gradient steps on wealth paths replayed from the window's
days, then trade the next day with the policy

    a_i = -(theta / sigma_hat) (X_i - w(theta))

and record the terminal wealth. One trading day is the time unit: its m bars
split the value functions' horizon [0, HORIZON] into steps of HORIZON / m.
Daily excess returns are summarized by the annualized Sharpe ratio.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (ConfigurationError, DegenerateSeriesError, DivergenceError,
                     IngestionError, InsufficientDataError)
from .estimators import LOSS_KINDS, KernelWorkspace, TrainConfig, grads_by_row
from .models import HORIZON, MeanVarianceValue, target_anchor
from .rng import stream

THRESHOLD_MODES = ("raw", "thresholded")
ANNUALIZATION = 252.0  # trading days per year, for the Sharpe ratio
_GBM_DRIFT = 0.10    # synthetic_gbm_jump_series: annual drift
_GBM_VOL = 0.20      # its annual volatility
_GBM_JUMP = 5.0      # its jump size, in daily standard deviations of log return
_GBM_S0 = 100.0      # its first price
_GBM_START = np.datetime64("2020-01-01", "s")  # and its first day
# the accepted timestamps, in epoch seconds: 0001-01-01 up to 10000-01-01 UTC
_FIRST_SECOND, _END_SECOND = -62135596800, 253402300800


@dataclass(frozen=True)
class PriceSeries:
    """Strictly ascending intraday prices with a nominal bar count per day."""

    timestamps: np.ndarray  # datetime64[s], strictly ascending
    prices: np.ndarray      # positive finite floats, same length
    bars_per_day: int

    def __post_init__(self):
        if self.timestamps.shape != self.prices.shape or self.timestamps.ndim != 1:
            raise IngestionError("timestamps and prices must be equal-length 1-D arrays")
        if self.timestamps.size < 2:
            raise IngestionError("price series needs at least 2 rows")
        if self.timestamps.dtype != np.dtype("datetime64[s]"):
            raise IngestionError(f"timestamps must be datetime64[s], got {self.timestamps.dtype}")
        seconds = self.timestamps.astype("int64")  # NaT is the int64 minimum
        outside = (seconds < _FIRST_SECOND) | (seconds >= _END_SECOND)
        if outside.any():
            row = int(np.argmax(outside))
            raise IngestionError(f"row {row}: timestamp {self.timestamps[row]} is outside "
                                 f"the years 1 to 9999 UTC")
        # neighbours compared, not differenced, so that no difference can wrap
        if not (seconds[1:] > seconds[:-1]).all():
            raise IngestionError("timestamps must be strictly ascending without duplicates")
        if not (np.isfinite(self.prices).all() and (self.prices > 0).all()):
            raise IngestionError("prices must be positive and finite")
        if self.bars_per_day < 1:
            raise IngestionError("bars_per_day must be >= 1")
        self.timestamps.setflags(write=False)
        self.prices.setflags(write=False)

    @cached_property
    def day_partition(self) -> list[tuple[str, slice]]:
        """Calendar-date label and row slice per day, in order."""
        # ascending timestamps keep np.unique's first indices in row order
        uniq, starts = np.unique(self.timestamps.astype("datetime64[D]"),
                                 return_index=True)
        bounds = [*starts.tolist(), self.timestamps.size]
        return [(str(date), slice(bounds[i], bounds[i + 1]))
                for i, date in enumerate(uniq)]


def _parse_timestamp(text: str) -> int:
    """Seconds since epoch from ISO-8601 (tz-aware or naive) or epoch seconds,
    in the years 1 to 9999 UTC; ValueError with the reason otherwise."""
    s = text.strip()
    try:
        seconds = int(round(float(s)))
    except (ValueError, OverflowError):  # not a number, NaN or infinite
        try:
            parsed = datetime.fromisoformat(s.replace("Z", "+00:00"))
        except ValueError as exc:
            raise ValueError(f"unparseable timestamp {text!r}") from exc
        if parsed.tzinfo is None:
            parsed = parsed.replace(tzinfo=timezone.utc)
        seconds = int(parsed.timestamp())
    if not _FIRST_SECOND <= seconds < _END_SECOND:
        raise ValueError(f"timestamp {text!r} is outside the years 1 to 9999 UTC")
    return seconds


def _parse_price(text: str) -> float:
    """A positive finite price; ValueError with the reason otherwise."""
    price = float(text)
    if not (math.isfinite(price) and price > 0):
        raise ValueError(f"price {text.strip()!r} must be positive and finite")
    return price


def build_price_series(timestamps: np.ndarray, prices: np.ndarray,
                       bars_per_day: int) -> PriceSeries:
    """Apply the day-completeness ingestion rule and construct the series.

    Days with fewer than bars_per_day rows are dropped with a warning; days
    with more than bars_per_day + 1 rows are rejected. Timestamps must be
    datetime64[s] values in the years 1 to 9999 UTC, strictly ascending.
    """
    raw = PriceSeries(np.asarray(timestamps), np.asarray(prices, dtype=float),
                      bars_per_day)
    keep = []
    dropped = []
    for date, sl in raw.day_partition:
        count = sl.stop - sl.start
        if count > bars_per_day + 1:
            raise IngestionError(
                f"day {date} has {count} rows; at most bars_per_day + 1 = "
                f"{bars_per_day + 1} allowed")
        if count < bars_per_day:
            dropped.append((date, count))
        else:
            keep.append(sl)
    if dropped:
        warnings.warn(f"dropped {len(dropped)} incomplete day(s): {dropped[:5]}"
                      f"{'...' if len(dropped) > 5 else ''}")
    if not keep:
        raise IngestionError("no complete trading days after ingestion rule")
    rows = np.concatenate([np.arange(sl.start, sl.stop) for sl in keep])
    return PriceSeries(raw.timestamps[rows], raw.prices[rows], bars_per_day)


def read_price_csv(path, bars_per_day: int) -> PriceSeries:
    """Load `timestamp,price` CSV (ISO-8601 or epoch-second timestamps)."""
    stamps = []
    values = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IngestionError(f"cannot read price file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestionError(f"price file {path} is not UTF-8 text: {exc}") from exc
    header = lines[0].strip().lower() if lines else ""
    if header.replace(" ", "") != "timestamp,price":
        raise IngestionError(f"expected header 'timestamp,price', got {header!r}")
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise IngestionError(f"line {lineno}: expected 2 fields, got {len(parts)}")
        try:
            stamps.append(_parse_timestamp(parts[0]))
            values.append(_parse_price(parts[1]))
        except ValueError as exc:
            raise IngestionError(f"line {lineno}: {exc}") from exc
    timestamps = np.asarray(stamps, dtype="int64").astype("datetime64[s]")
    return build_price_series(timestamps, np.asarray(values), bars_per_day)


def write_price_csv(series: PriceSeries, path) -> None:
    lines = ["timestamp,price"]
    epoch = series.timestamps.astype("int64")
    for ts, p in zip(epoch, series.prices):
        lines.append(f"{ts},{p:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def bipower_sigma2(increments) -> float:
    """(pi/2) sum of adjacent absolute-increment products."""
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 1 or inc.size < 2:
        raise InsufficientDataError(f"bipower needs >= 2 increments, got {inc.size}")
    a = np.abs(inc)
    return math.pi / 2.0 * float(a[1:].dot(a[:-1]))


def jump_threshold(sigma_hat: float, dt: float) -> float:
    """tau = 4 sigma_hat dt^0.47."""
    if sigma_hat < 0:
        raise ConfigurationError(f"sigma_hat must be >= 0, got {sigma_hat}")
    if not dt > 0:
        raise ConfigurationError(f"dt must be > 0, got {dt}")
    return 4.0 * sigma_hat * dt ** 0.47


def threshold_series(prices, tau: float) -> np.ndarray:
    """Zero all increments with |dS| >= tau and rebuild from the first price."""
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 1 or prices.size < 2:
        raise InsufficientDataError(f"thresholding needs >= 2 prices, got {prices.size}")
    if tau < 0:
        raise ConfigurationError(f"tau must be >= 0, got {tau}")
    inc = np.diff(prices)
    kept = np.where(np.abs(inc) < tau, inc, 0.0)
    out = np.empty_like(prices)
    out[0] = prices[0]
    np.cumsum(kept, out=out[1:])
    out[1:] += prices[0]
    return out


def sharpe(returns, periods_per_year: float) -> float:
    """mean / std(ddof=1) scaled by sqrt(periods_per_year)."""
    r = np.asarray(returns, dtype=float)
    if r.size < 2:
        raise InsufficientDataError(f"sharpe needs >= 2 returns, got {r.size}")
    std = float(np.std(r, ddof=1))
    if std == 0.0 or np.all(r == r[0]):
        raise DegenerateSeriesError("zero return variance; Sharpe undefined")
    return float(np.mean(r)) / std * math.sqrt(periods_per_year)


def _increments(day_matrix: np.ndarray, log_scale: bool) -> np.ndarray:
    """Per-bar increments (days, m) of the day matrix's prices or log prices."""
    return np.diff(np.log(day_matrix) if log_scale else day_matrix, axis=1)


def _excess_returns(day_matrix: np.ndarray, r_f_daily: float, dt: float) -> np.ndarray:
    """Growth-ready excess returns (days, m+1): column j > 0 holds bar j's
    simple return less the risk-free rate over one bar, and column 0 holds
    0, whose growth factor 1 - k * 0 = 1 starts every wealth path."""
    excess = np.empty(day_matrix.shape)
    excess[:, 0] = 0.0
    bars = excess[:, 1:]
    np.divide(day_matrix[:, 1:], day_matrix[:, :-1], out=bars)
    bars -= 1.0
    bars -= r_f_daily * dt
    return excess


def _wealth_matrix(theta: float, sigma_hat: float, excess: np.ndarray,
                   z: float, x0: float,
                   start_wealth: float | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Wealth paths (days, m+1) from replaying each day's growth-ready excess
    returns (see _excess_returns).

    The policy's bar step W_{i+1} = W_i - k (W_i - w) e_i, k = theta/sigma_hat,
    is affine in W, so W_i - w = (W_0 - w) prod_{j<i} (1 - k e_j): one
    cumulative product per row. start_wealth overrides W_0; the policy anchor
    w always uses the configured x0. Every entry is written into out, a
    (days, m+1) float buffer, when one is given, and a fresh array otherwise.

    Column 0's growth factor is 1, so every pass runs over whole contiguous
    rows; 1 * x == x keeps the products' bits, and column 0 gets W_0 last.
    """
    if not sigma_hat > 0:
        raise ConfigurationError(f"sigma_hat must be > 0, got {sigma_hat}")
    w = target_anchor(theta, z, x0)
    k = theta / sigma_hat
    start = x0 if start_wealth is None else start_wealth
    wealth = np.multiply(excess, -k, out=out)
    wealth += 1.0
    np.multiply.accumulate(wealth, axis=1, out=wealth)
    wealth *= start - w
    wealth += w
    wealth[:, 0] = start
    # a sum is finite only when every entry is, so the mask is formed only
    # when some entry is not finite or the sum of finite entries overflows
    if not (math.isfinite(np.add.reduce(wealth, axis=None)) or np.isfinite(wealth).all()):
        raise DivergenceError("wealth path became non-finite", episode=0, last_theta=theta)
    return wealth


@dataclass(frozen=True)
class BacktestConfig:
    learning: TrainConfig
    train_days: int = 126
    steps_per_day: int = 79
    target_wealth: float = 1.01
    initial_wealth: float = 1.0
    risk_free_daily: float = 0.0
    threshold_mode: str = "raw"
    theta_min: float = 0.01
    theta_max: float = 10.0

    def __post_init__(self):
        for name in ("target_wealth", "initial_wealth", "risk_free_daily"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.train_days < 2:
            raise ConfigurationError(f"train_days must be >= 2, got {self.train_days}")
        if self.steps_per_day < 1:
            raise ConfigurationError("steps_per_day must be >= 1")
        if self.target_wealth == self.initial_wealth:
            raise ConfigurationError("target z must differ from initial wealth x0")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ConfigurationError(
                f"threshold_mode must be one of {THRESHOLD_MODES}, got {self.threshold_mode!r}")
        if not 0 < self.theta_min < self.theta_max:
            raise ConfigurationError("need 0 < theta_min < theta_max")


@dataclass
class BacktestResult:
    test_days: list
    terminal_wealth: list
    daily_return: list
    theta_per_day: list
    sharpe_annualized: Optional[float]
    degenerate: bool
    loss_kind: str
    threshold_mode: str

    def to_json_dict(self) -> dict:
        return {
            "loss_kind": self.loss_kind,
            "threshold_mode": self.threshold_mode,
            "sharpe_annualized": self.sharpe_annualized,
            "degenerate": self.degenerate,
            "test_days": list(self.test_days),
            "terminal_wealth": list(self.terminal_wealth),
            "daily_return": list(self.daily_return),
            "theta_per_day": list(self.theta_per_day),
        }

    def per_day_csv(self) -> str:
        lines = ["date,theta,terminal_wealth,daily_return"]
        for day, th, tw, dr in zip(self.test_days, self.theta_per_day,
                                   self.terminal_wealth, self.daily_return):
            lines.append(f"{day},{th:.17g},{tw:.17g},{dr:.17g}")
        return "\n".join(lines) + "\n"


def _daily_bipower(increments: np.ndarray) -> float:
    """Mean over days of per-day bipower variation of (days, m) increments."""
    return float(np.mean([bipower_sigma2(row) for row in increments]))


# On continuous data the bipower-product objective runs (2/pi) below the
# squared-difference objective, so each loss gets a step size scaled to its
# own gradient magnitude; the configured rate then means the same quiet-data
# learning speed for both estimators.
LOSS_RATE_SCALE = {"mstde": 1.0, "msbve": 2.0 / math.pi}


def _step_buffers(shape: tuple) -> tuple:
    """(wealth, J, dJ, kernel workspace): what every gradient step of a
    backtest writes into, the three arrays of the training window's shape."""
    return np.empty(shape), np.empty(shape), np.empty(shape), KernelWorkspace()


def _fit_theta(theta: float, excess: np.ndarray, sigma_hat: float, loss_kind: str,
               config: BacktestConfig, model: MeanVarianceValue, times: np.ndarray,
               buffers: tuple | None = None) -> float:
    """Gradient steps of the chosen loss on wealth paths replayed under theta
    from the window's growth-ready excess returns (see _excess_returns).

    Every step replays the window and forms its values and gradients in
    buffers, from _step_buffers of the window's shape unless given, which the
    next step overwrites.
    """
    wealth, J, dJ, kernels = _step_buffers(excess.shape) if buffers is None else buffers
    lr = config.learning.learning_rate / LOSS_RATE_SCALE[loss_kind]
    for step in range(config.learning.episodes):
        try:
            _wealth_matrix(theta, sigma_hat, excess, config.target_wealth,
                           config.initial_wealth, out=wealth)
        except DivergenceError as exc:
            raise DivergenceError(f"{exc} at daily step {step}", episode=step,
                                  last_theta=theta) from exc
        model.value(theta, times, wealth, out=J)
        model.dvalue_dtheta(theta, times, wealth, out=dJ)
        # the batch mean, with np.mean's bits and without its dispatch
        g = grads_by_row(loss_kind, J, dJ, kernels)
        grad = float(np.add.reduce(g) / g.size)
        if not math.isfinite(grad):
            raise DivergenceError(f"non-finite gradient at daily step {step}",
                                  episode=step, last_theta=theta)
        theta = theta - lr * grad
        if not math.isfinite(theta):
            raise DivergenceError(f"non-finite theta at daily step {step}",
                                  episode=step, last_theta=theta)
        # risk bounds: keep the policy away from the w(theta) singularity and
        # from leverage the bar-level wealth recursion cannot support
        sign = theta if theta != 0 else 1.0
        theta = math.copysign(min(max(abs(theta), config.theta_min),
                                  config.theta_max), sign)
    return theta


def rolling_backtest(series: PriceSeries, config: BacktestConfig,
                     loss_kind: str) -> BacktestResult:
    """Walk the series one day at a time: fit theta on the trailing window,
    trade the next day, and summarize daily excess returns. A
    DivergenceError names the test day it happened on."""
    if loss_kind not in LOSS_KINDS:
        raise ConfigurationError(f"loss_kind must be one of {LOSS_KINDS}, got {loss_kind!r}")
    partition = series.day_partition
    if len(partition) < config.train_days + 1:
        raise IngestionError(
            f"need at least train_days + 1 = {config.train_days + 1} complete days, "
            f"got {len(partition)}")
    counts = {sl.stop - sl.start for _, sl in partition}
    if len(counts) > 1:
        warnings.warn(f"day lengths differ {sorted(counts)}; trimming to {min(counts)} rows")
    # the day index: each day's first m + 1 rows, m + 1 the shortest day's row count
    index = np.array([sl.start for _, sl in partition])[:, None] + np.arange(min(counts))
    matrix = series.prices[index]
    if matrix.shape[1] < 3:
        raise IngestionError(
            f"each day needs at least 3 prices (2 bars) for the bipower variance; "
            f"the days have {matrix.shape[1]} at bars per day = {series.bars_per_day}")
    m = matrix.shape[1] - 1
    dt = HORIZON / m
    r_f = config.risk_free_daily
    times = np.linspace(0.0, HORIZON, m + 1)[None, :]
    model = MeanVarianceValue(z=config.target_wealth, x0=config.initial_wealth)
    buffers = _step_buffers((config.train_days, m + 1))  # every window's shape
    # the day matrix's inputs, formed once: raw windows and trade days are
    # row slices of them, and a thresholded window forms its own
    increments = _increments(matrix, log_scale=False)
    log_increments = _increments(matrix, log_scale=True)
    excess = _excess_returns(matrix, r_f, dt)

    theta = config.learning.theta0
    days_out, wealth_out, return_out, theta_out = [], [], [], []
    for d in range(config.train_days, len(partition)):
        rows = slice(d - config.train_days, d)
        sigma2_price = _daily_bipower(increments[rows])
        tau = jump_threshold(math.sqrt(sigma2_price), 1.0 / config.steps_per_day)
        if config.threshold_mode == "thresholded":
            # threshold the untrimmed rows, so every increment is the series' own
            lo = partition[d - config.train_days][1].start
            hi = partition[d - 1][1].stop
            filtered = threshold_series(series.prices[lo:hi], tau)
            if not (np.isfinite(filtered).all() and (filtered > 0).all()):
                raise IngestionError(f"thresholded window for test day {partition[d][0]} "
                                     f"lost positivity: at tau = {tau:.6g} a price is "
                                     f"not positive and finite")
            window = filtered[index[rows] - lo]
            train_log, train_excess = (_increments(window, log_scale=True),
                                       _excess_returns(window, r_f, dt))
        else:
            train_log, train_excess = log_increments[rows], excess[rows]
        sigma2_ret = _daily_bipower(train_log)
        if sigma2_ret <= 0.0:
            raise ConfigurationError(
                f"window before {partition[d][0]} has zero bipower variance")
        sigma_hat = math.sqrt(sigma2_ret)

        try:
            theta = _fit_theta(theta, train_excess, sigma_hat, loss_kind, config,
                               model, times, buffers)
            terminal = float(_wealth_matrix(theta, sigma_hat, excess[d:d + 1],
                                            config.target_wealth,
                                            config.initial_wealth)[0, -1])
        except DivergenceError as exc:
            raise DivergenceError(f"test day {partition[d][0]}: {exc}",
                                  episode=exc.episode, last_theta=exc.last_theta) from exc
        days_out.append(partition[d][0])
        wealth_out.append(terminal)
        return_out.append((terminal - config.initial_wealth) / config.initial_wealth
                          - config.risk_free_daily)
        theta_out.append(theta)

    try:
        ratio = sharpe(return_out, ANNUALIZATION)
        degenerate = False
    except (DegenerateSeriesError, InsufficientDataError):  # one test day has no spread
        ratio = None
        degenerate = True
    return BacktestResult(test_days=days_out, terminal_wealth=wealth_out,
                          daily_return=return_out, theta_per_day=theta_out,
                          sharpe_annualized=ratio, degenerate=degenerate,
                          loss_kind=loss_kind, threshold_mode=config.threshold_mode)


def synthetic_gbm_jump_series(n_days: int, bars_per_day: int = 79,
                              jump_prob_per_day: float = 0.1,
                              seed: int = 0) -> PriceSeries:
    """Intraday geometric Brownian bars with occasional one-bar log jumps.

    Bars run from 2020-01-01 at 10% annual drift and 20% annual volatility
    from a price of 100. Each day holds bars_per_day + 1 prices opening at the
    prior close; with probability jump_prob_per_day one uniformly placed bar
    gains an extra 5 DAILY standard deviations of log return. Sized in daily
    units so the jumps clear the detection threshold 4 sigma dt^0.47 (about
    0.51 daily sigmas at 79 bars per day).
    """
    rng = stream(seed)
    dt_years = 1.0 / (252.0 * bars_per_day)
    bar_vol = _GBM_VOL * math.sqrt(dt_years)
    daily_vol = _GBM_VOL / math.sqrt(252.0)
    bar_drift = (_GBM_DRIFT - 0.5 * _GBM_VOL ** 2) * dt_years
    bar_offsets = np.arange(bars_per_day + 1) * np.timedelta64(300, "s")
    open_time = np.timedelta64(9 * 3600 + 30 * 60, "s")

    stamps = []
    prices = []
    level = math.log(_GBM_S0)
    for d in range(n_days):
        log_inc = bar_drift + bar_vol * rng.standard_normal(bars_per_day)
        if rng.random() < jump_prob_per_day:
            log_inc[rng.integers(bars_per_day)] += _GBM_JUMP * daily_vol
        levels = level + np.concatenate([[0.0], np.cumsum(log_inc)])
        level = levels[-1]
        day_start = _GBM_START + np.timedelta64(d, "D").astype("timedelta64[s]") + open_time
        stamps.append(day_start + bar_offsets)
        prices.append(np.exp(levels))
    return build_price_series(np.concatenate(stamps), np.concatenate(prices),
                              bars_per_day)
