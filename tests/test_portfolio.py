import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumprl.errors import (ConfigurationError, DegenerateSeriesError, DivergenceError,
                           IngestionError, InsufficientDataError,
                           SingularParameterError)
from jumprl.estimators import TrainConfig, grads_by_row
from jumprl.models import HORIZON, MeanVarianceValue, target_anchor
from jumprl.portfolio import (ANNUALIZATION, LOSS_RATE_SCALE, BacktestConfig,
                              BacktestResult, PriceSeries, _daily_bipower, _excess_returns,
                              _fit_theta, _increments, _wealth_matrix, bipower_sigma2,
                              build_price_series, jump_threshold, read_price_csv,
                              rolling_backtest, sharpe, synthetic_gbm_jump_series,
                              threshold_series, write_price_csv)
from jumprl.rng import stream
from jumprl.sde import JumpDiffusionSpec, NoJumps, build_grid, simulate_batch
from conftest import assert_same_bits, falling_after_jump_series


def tiny_series(prices, bars_per_day=None, start=0):
    prices = np.asarray(prices, dtype=float)
    stamps = (np.datetime64("2021-03-01T09:30", "s")
              + np.arange(start, start + prices.size) * np.timedelta64(300, "s"))
    return PriceSeries(stamps, prices, bars_per_day or (prices.size - 1))


def learning(steps=5, alpha=50.0, theta0=1.0):
    return TrainConfig("msbve", alpha, steps, 1, theta0, master_seed=0)


def random_window(rng, days, bars):
    """Intraday price rows (days, bars + 1) at about 20% annual volatility."""
    steps = rng.normal(0.0, 0.0126 / math.sqrt(bars), (days, bars + 1))
    return 100.0 * np.exp(np.cumsum(steps, axis=1))


def wealth_by_loop(theta, sigma_hat, day_matrix, z, x0, r_f_daily, dt, start_wealth=None):
    """The policy's wealth recursion stepped bar by bar: the reference for the
    closed form in `_wealth_matrix`."""
    w = target_anchor(theta, z, x0)
    excess = day_matrix[:, 1:] / day_matrix[:, :-1] - 1.0 - r_f_daily * dt
    k = theta / sigma_hat
    m = excess.shape[1]
    wealth = np.empty((day_matrix.shape[0], m + 1))
    wealth[:, 0] = x0 if start_wealth is None else start_wealth
    for i in range(m):
        exposure = -k * (wealth[:, i] - w)
        wealth[:, i + 1] = wealth[:, i] + exposure * excess[:, i]
    return wealth


def wealth_exact(theta, sigma_hat, excess, z, x0):
    """The same recursion in exact rational arithmetic on the same floats."""
    w = Fraction(target_anchor(theta, z, x0))
    k = Fraction(theta) / Fraction(sigma_hat)
    out = np.empty((excess.shape[0], excess.shape[1] + 1))
    for r, row in enumerate(excess):
        wealth = Fraction(x0)
        out[r, 0] = float(wealth)
        for i, e in enumerate(row):
            wealth -= k * (wealth - w) * Fraction(float(e))
            out[r, i + 1] = float(wealth)
    return out


def wealth_strided(theta, sigma_hat, excess, z, x0, start_wealth=None):
    """`_wealth_matrix`'s closed form with the growth factors and their
    cumulative product formed in the strided view of columns 1..m: the
    bit-for-bit reference for the whole-row form."""
    w = target_anchor(theta, z, x0)
    k = theta / sigma_hat
    start = x0 if start_wealth is None else start_wealth
    wealth = np.empty((excess.shape[0], excess.shape[1] + 1))
    wealth[:, 0] = start
    growth = wealth[:, 1:]
    np.multiply(excess, -k, out=growth)
    growth += 1.0
    np.cumprod(growth, axis=1, out=growth)
    growth *= start - w
    growth += w
    return wealth


def backtest_by_series(series, config, loss_kind):
    """`rolling_backtest` with every training window rebuilt as a PriceSeries:
    the window's rows are copied into a new series, thresholded there,
    partitioned into days again and stacked day by day, trimmed to the
    shortest day and then to the whole series' day width. The bit-for-bit
    reference for the day index and for thresholding the window's prices."""
    def stacked(s):
        days = [s.prices[sl] for _, sl in s.day_partition]
        width = min(day.size for day in days)
        return np.stack([day[:width] for day in days])

    def thresholded(s, tau):
        inc = np.diff(s.prices)
        kept = np.where(np.abs(inc) < tau, inc, 0.0)
        out = np.empty_like(s.prices)
        out[0] = s.prices[0]
        np.cumsum(kept, out=out[1:])
        out[1:] += s.prices[0]
        return PriceSeries(s.timestamps.copy(), out, s.bars_per_day)

    partition, matrix, T = series.day_partition, stacked(series), config.train_days
    m = matrix.shape[1] - 1
    dt = HORIZON / m
    times = np.linspace(0.0, HORIZON, m + 1)[None, :]
    model = MeanVarianceValue(z=config.target_wealth, x0=config.initial_wealth)
    theta, rows = config.learning.theta0, []
    for d in range(T, len(partition)):
        window = matrix[d - T:d]
        sigma2_price = _daily_bipower(_increments(window, log_scale=False))
        tau = jump_threshold(math.sqrt(sigma2_price), 1.0 / config.steps_per_day)
        if config.threshold_mode == "thresholded":
            lo, hi = partition[d - T][1].start, partition[d - 1][1].stop
            sub = PriceSeries(series.timestamps[lo:hi].copy(), series.prices[lo:hi].copy(),
                              series.bars_per_day)
            window = stacked(thresholded(sub, tau))[:, :m + 1]
        sigma_hat = math.sqrt(_daily_bipower(_increments(window, log_scale=True)))
        theta = _fit_theta(theta, _excess_returns(window, config.risk_free_daily, dt),
                           sigma_hat, loss_kind, config, model, times)
        excess = _excess_returns(matrix[d:d + 1], config.risk_free_daily, dt)
        terminal = float(_wealth_matrix(theta, sigma_hat, excess, config.target_wealth,
                                        config.initial_wealth)[0, -1])
        rows.append((partition[d][0], terminal, (terminal - config.initial_wealth)
                     / config.initial_wealth - config.risk_free_daily, theta))
    days, wealth, returns, thetas = (list(col) for col in zip(*rows))
    return BacktestResult(loss_kind=loss_kind, threshold_mode=config.threshold_mode,
                          sharpe_annualized=sharpe(returns, ANNUALIZATION),
                          degenerate=False, test_days=days, terminal_wealth=wealth,
                          daily_return=returns, theta_per_day=thetas)


def mixed_day_series(n_days, bars, seed):
    """Days of bars + 1 rows, except every third day, which has bars rows.

    Each day opens about 3% away from the prior close, so the window's
    increments from one day's last row to the next day's open depend on
    whether the longer days are trimmed before or after thresholding.
    """
    full = synthetic_gbm_jump_series(n_days, bars_per_day=bars, seed=seed,
                                     jump_prob_per_day=0.5)
    gaps = np.exp(stream(seed).normal(0.0, 0.03, n_days))
    prices = full.prices * np.repeat(np.cumprod(gaps), bars + 1)
    keep = np.ones(full.prices.size, dtype=bool)
    for _, sl in full.day_partition[::3]:
        keep[sl.stop - 1] = False
    return build_price_series(full.timestamps[keep], prices[keep], bars)


def assert_within_row_scale(got, ref, rtol):
    """|got - ref| <= rtol * max|ref| per row. A path that passes near zero
    wealth has entries no float route gets to rtol of themselves."""
    scale = np.abs(ref).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - ref) <= rtol * scale)


class TestBipower:
    def test_constant_increments(self):
        got = bipower_sigma2([0.01, 0.01, 0.01, 0.01])
        assert got == pytest.approx(math.pi / 2 * 3e-4, rel=1e-12)

    def test_zero_adjacent_pairs_contribute_nothing(self):
        assert bipower_sigma2([0.0, 5.0, 0.0]) == 0.0

    def test_needs_two_increments(self):
        with pytest.raises(InsufficientDataError):
            bipower_sigma2([0.5])

    def test_consistency_on_brownian_paths(self):
        # (pi/2) * bipower converges to the integrated variance, here 1
        spec = JumpDiffusionSpec(drift=0.0, diffusion=1.0, jump_law=NoJumps(), x0=0.0)
        grid = build_grid(1.0, 10_000)
        batch = simulate_batch(spec, grid, 13, 0, 50)
        estimates = [bipower_sigma2(np.diff(row)) for row in batch.observed]
        assert abs(np.mean(estimates) - 1.0) < 0.05

    def test_jump_robustness_vs_quadratic_variation(self):
        # one unit jump moves realized QV by about 1 but bipower barely; each
        # seed obeys the sharp bound (pi/2) |s| (|d_left| + |d_right|), and the
        # mean shift sits near its analytic value (pi/2) * 2 sqrt(2 dt / pi),
        # about 2.5% of the base at dt = 1e-4
        spec = JumpDiffusionSpec(drift=0.0, diffusion=1.0, jump_law=NoJumps(), x0=0.0)
        grid = build_grid(1.0, 10_000)
        batch = simulate_batch(spec, grid, 29, 0, 100)
        k = grid.n_steps // 2
        bv_shift, qv_shift, bv_base = [], [], []
        for row in batch.observed:
            jumped = row.copy()
            jumped[k:] += 1.0
            inc = np.diff(row)
            bv_c = bipower_sigma2(inc)
            bv_j = bipower_sigma2(np.diff(jumped))
            qv_c = float(np.sum(inc ** 2))
            qv_j = float(np.sum(np.diff(jumped) ** 2))
            bound = math.pi / 2 * 1.0 * (abs(inc[k - 2]) + abs(inc[k]))
            assert abs(bv_j - bv_c) <= bound + 1e-12
            bv_base.append(bv_c)
            bv_shift.append(abs(bv_j - bv_c))
            qv_shift.append(qv_j - qv_c)
        assert np.mean(bv_shift) < 0.03 * np.mean(bv_base)
        assert np.mean(qv_shift) == pytest.approx(1.0, abs=0.1)


class TestJumpThreshold:
    def test_intraday_example(self):
        assert jump_threshold(1.0, 1 / 79) == pytest.approx(4 * (1 / 79) ** 0.47, rel=1e-12)

    def test_zero_sigma(self):
        assert jump_threshold(0.0, 0.5) == 0.0

    def test_unit_dt(self):
        assert jump_threshold(0.5, 1.0) == pytest.approx(2.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            jump_threshold(-1.0, 0.1)
        with pytest.raises(ConfigurationError):
            jump_threshold(1.0, 0.0)


class TestThresholdSeries:
    def test_wide_threshold_keeps_series(self):
        series = tiny_series([100.0, 101.0, 99.5, 102.0])
        out = threshold_series(series.prices, 1e9)
        np.testing.assert_array_equal(out, series.prices)

    def test_clips_large_move(self):
        series = tiny_series([100.0, 101.0, 150.0, 151.0])
        out = threshold_series(series.prices, 10.0)
        np.testing.assert_allclose(out, [100.0, 101.0, 101.0, 102.0])

    def test_zero_threshold_freezes_series(self):
        series = tiny_series([100.0, 101.0, 99.0, 104.0])
        out = threshold_series(series.prices, 0.0)
        np.testing.assert_array_equal(out, np.full(4, 100.0))

    @pytest.mark.parametrize("prices", [np.float64(100.0), np.array(100.0), [100.0],
                                        np.ones((2, 2))])
    def test_rejects_fewer_than_two_prices_or_not_1d(self, prices):
        with pytest.raises(InsufficientDataError, match="thresholding needs >= 2 prices"):
            threshold_series(prices, 1.0)

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=25),
           st.floats(min_value=0.0, max_value=30.0))
    def test_idempotent(self, increments, tau):
        # base price large enough that rebuilt series stays positive
        prices = 1000.0 + np.concatenate([[0.0], np.cumsum(increments)])
        once = threshold_series(prices, tau)
        twice = threshold_series(once, tau)
        np.testing.assert_array_equal(once, twice)


class TestAnchor:
    def test_closed_form_at_log2(self):
        theta = math.sqrt(math.log(2.0))
        assert target_anchor(theta, 2.0, 1.0) == pytest.approx(3.0)

    def test_limit(self):
        assert target_anchor(10.0, 2.0, 1.0) == pytest.approx(2.0, abs=1e-8)

    def test_equal_target_identity(self):
        assert target_anchor(0.8, 1.5, 1.5) == pytest.approx(1.5)

    def test_singular_near_zero(self):
        with pytest.raises(SingularParameterError):
            target_anchor(1e-9, 2.0, 1.0)


class TestSimulateWealth:
    """One trading day replayed through `_wealth_matrix`, as `rolling_backtest`
    trades its test day: a one-row excess matrix."""

    def test_flat_prices_keep_initial_wealth(self):
        excess = _excess_returns(np.full((1, 80), 100.0), 0.0, 1.0 / 79)
        terminal = _wealth_matrix(1.0, 0.1, excess, z=1.01, x0=1.0)[0, -1]
        assert terminal == 1.0

    def test_one_bar_day_closed_form(self):
        # w(theta) = 3 via z = 2 - x0 adjustments: pick z, x0 with known anchor
        theta = math.sqrt(math.log(2.0))  # w = (2z - x0)
        z, x0 = 2.0, 1.0                  # w = 3
        excess = _excess_returns(np.array([[100.0, 101.0]]), 0.0, 1.0)
        terminal = _wealth_matrix(theta, 1.0, excess, z=z, x0=x0)[0, -1]
        exposure = -theta * (x0 - 3.0)
        assert terminal == pytest.approx(x0 + exposure * 0.01, rel=1e-12)

    def test_policy_fixed_point(self):
        # wealth equal to the anchor zeroes the exposure, exactly and forever
        theta = math.sqrt(math.log(2.0))
        anchor = target_anchor(theta, 2.0, 1.0)
        prices = 100.0 * np.exp(np.cumsum(stream(3).normal(0, 0.001, 60)))[None, :]
        wealth = _wealth_matrix(theta, 0.5, _excess_returns(prices, 0.0, 1 / 59),
                                z=2.0, x0=1.0, start_wealth=anchor)
        np.testing.assert_array_equal(wealth, np.full_like(wealth, anchor))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ConfigurationError):
            _wealth_matrix(1.0, 0.0, _excess_returns(np.array([[1.0, 2.0]]), 0.0, 1.0 / 79),
                           z=1.01, x0=1.0)

    def test_matches_reference_loop(self):
        rng = stream(31)
        for trial in range(60):
            bars = int(rng.integers(1, 80))
            prices = random_window(rng, 1, bars)
            theta = float(rng.uniform(0.01, 3.0)) * (1 if trial % 2 else -1)
            r_f = float(rng.uniform(-1e-3, 1e-3))
            ref = wealth_by_loop(theta, 0.0126, prices, 1.01, 1.0, r_f, 1.0 / bars)
            terminal = _wealth_matrix(theta, 0.0126, _excess_returns(prices, r_f, 1.0 / bars),
                                      1.01, 1.0)[0, -1]
            assert abs(terminal - ref[0, -1]) <= 1e-12 * np.abs(ref).max()


class TestWealthMatrix:
    def test_closed_form_matches_reference_loop(self):
        rng = stream(29)
        for trial in range(240):
            days, bars = int(rng.integers(1, 40)), int(rng.integers(2, 80))
            prices = random_window(rng, days, bars)
            sigma_hat = math.sqrt(_daily_bipower(_increments(prices, log_scale=True)))
            theta = float(rng.uniform(0.01, 3.0)) * (1 if trial % 2 else -1)
            r_f = float(rng.uniform(-1e-3, 1e-3))
            z = float(rng.uniform(1.001, 1.1))
            start = float(rng.uniform(0.9, 1.1)) if trial % 3 == 0 else None
            ref = wealth_by_loop(theta, sigma_hat, prices, z, 1.0, r_f, 1.0 / bars,
                                 start_wealth=start)
            wealth = _wealth_matrix(theta, sigma_hat,
                                    _excess_returns(prices, r_f, 1.0 / bars), z, 1.0,
                                    start_wealth=start)
            np.testing.assert_array_equal(wealth[:, 0], ref[:, 0])
            assert_within_row_scale(wealth, ref, 1e-12)

    def test_high_leverage_matches_exact_arithmetic(self):
        # at |theta| in [3, 10] the bar-by-bar loop itself drifts from the exact
        # recursion by up to ~1e-9 of the row scale on some windows, so the
        # closed form is held to exact rational arithmetic here instead
        rng = stream(37)
        for trial in range(16):
            prices = random_window(rng, 2, 79)
            sigma_hat = math.sqrt(_daily_bipower(_increments(prices, log_scale=True)))
            theta = float(rng.uniform(3.0, 10.0)) * (1 if trial % 2 else -1)
            excess = _excess_returns(prices, float(rng.uniform(-1e-3, 1e-3)), 1.0 / 79)
            wealth = _wealth_matrix(theta, sigma_hat, excess, 1.01, 1.0)
            assert_within_row_scale(wealth, wealth_exact(theta, sigma_hat, excess[:, 1:],
                                                         1.01, 1.0), 1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflow_raises_divergence(self):
        prices = random_window(stream(41), 3, 79)
        with pytest.raises(DivergenceError, match="non-finite"):
            _wealth_matrix(10.0, 1e-9, _excess_returns(prices, 0.0, 1.0 / 79),
                           1.01, 1.0)
        with pytest.raises(DivergenceError, match="non-finite"):
            _wealth_matrix(-10.0, 1e-9, _excess_returns(prices[:1], 0.0, 1.0 / 79),
                           1.01, 1.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_raises_exactly_when_an_entry_is_not_finite(self):
        # entries of 1e306 are finite, though their sum overflows
        flat = _excess_returns(np.full((126, 80), 100.0), 0.0, 1.0 / 79)
        wealth = _wealth_matrix(1.0, 0.1, flat, 1.01, 1.0, start_wealth=1e306)
        np.testing.assert_array_equal(wealth, np.full((126, 80), 1e306))
        for bad in (np.inf, -np.inf, np.nan):
            excess = flat.copy()
            excess[-1, -1] = bad  # non-finite in wealth[-1, -1] only
            with pytest.raises(DivergenceError, match="non-finite"):
                _wealth_matrix(1.0, 0.1, excess, 1.01, 1.0)

    def test_replay_into_out_allocates_under_one_kib(self):
        # no mask, and no iterator buffer: every pass runs over whole rows
        rng = stream(59)
        excess = _excess_returns(random_window(rng, 126, 79), 1e-4, 1.0 / 79)
        out = np.empty((126, 80))
        _wealth_matrix(1.0, 0.0126, excess, 1.01, 1.0, out=out)
        tracemalloc.start()
        try:
            _wealth_matrix(1.0, 0.0126, excess, 1.01, 1.0, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024

    def test_out_buffer_gets_the_fresh_result(self):
        rng = stream(43)
        for trial in range(20):
            days, bars = int(rng.integers(1, 30)), int(rng.integers(1, 80))
            excess = _excess_returns(random_window(rng, days, bars), 1e-4, 1.0 / bars)
            theta = float(rng.uniform(0.01, 10.0)) * (1 if trial % 2 else -1)
            start = 1.02 if trial % 3 == 0 else None
            fresh = _wealth_matrix(theta, 0.0126, excess, 1.01, 1.0, start)
            buf = np.full((days, bars + 1), np.nan)
            got = _wealth_matrix(theta, 0.0126, excess, 1.01, 1.0, start, out=buf)
            assert got is buf
            np.testing.assert_array_equal(buf, fresh)


    @pytest.mark.parametrize("bars", [79, 1])
    def test_whole_row_passes_match_strided_form(self, bars):
        rng = stream(53)
        for trial in range(24):
            days = int(rng.integers(1, 130))
            excess = _excess_returns(random_window(rng, days, bars),
                                     float(rng.uniform(-1e-3, 1e-3)), 1.0 / bars)
            theta = float(rng.uniform(0.01, 10.0)) * (1 if trial % 2 else -1)
            sigma_hat = float(rng.uniform(0.005, 0.05))
            z = float(rng.uniform(1.001, 1.1))
            start = float(rng.uniform(0.9, 1.1)) if trial % 3 == 0 else None
            ref = wealth_strided(theta, sigma_hat, excess[:, 1:], z, 1.0, start)
            assert_same_bits(_wealth_matrix(theta, sigma_hat, excess, z, 1.0, start), ref)
            dirty = rng.uniform(-1e300, 1e300, (days, bars + 1))
            dirty[:, ::3] = np.nan
            got = _wealth_matrix(theta, sigma_hat, excess, z, 1.0, start, out=dirty)
            assert got is dirty
            assert_same_bits(dirty, ref)


class TestDailyBipower:
    @pytest.mark.parametrize("log_scale", [False, True])
    def test_equals_per_row_differences(self, log_scale):
        rng = stream(23)
        for _ in range(60):
            window = random_window(rng, int(rng.integers(1, 40)), int(rng.integers(2, 80)))
            data = np.log(window) if log_scale else window
            per_row = float(np.mean([bipower_sigma2(np.diff(row)) for row in data]))
            assert _daily_bipower(_increments(window, log_scale)) == per_row


class TestFitTheta:
    """|theta| is clamped to [theta_min, theta_max] with its sign kept, so a
    step past zero leaves a negative market price of risk (README)."""

    def test_sign_of_last_step_within_bounds(self):
        model = MeanVarianceValue(z=1.01, x0=1.0)
        times = np.linspace(0.0, 1.0, 21)[None, :]
        negative = flipped = 0
        for seed in range(4):
            series = synthetic_gbm_jump_series(30, bars_per_day=20, seed=seed,
                                               jump_prob_per_day=0.5)
            window = np.stack([series.prices[sl] for _, sl in series.day_partition])
            sigma_hat = math.sqrt(_daily_bipower(_increments(window, log_scale=True)))
            excess = _excess_returns(window, 0.0, 1.0 / 20)
            for loss in ("mstde", "msbve"):
                for alpha, theta0 in ((1e4, 0.5), (1e5, 0.5), (1e4, -0.5), (1e5, 2.0)):
                    configs = [BacktestConfig(
                        learning=TrainConfig(loss, alpha, steps, 1, theta0, master_seed=0),
                        train_days=30, steps_per_day=20) for steps in (2, 3)]
                    before, theta = (_fit_theta(theta0, excess, sigma_hat, loss, config,
                                                model, times)
                                     for config in configs)
                    wealth = _wealth_matrix(before, sigma_hat, excess, 1.01, 1.0)
                    J = np.asarray(model.value(before, times, wealth), dtype=float)
                    dJ = np.asarray(model.dvalue_dtheta(before, times, wealth), dtype=float)
                    grad = float(np.mean(grads_by_row(loss, J, dJ)))
                    step = before - alpha / LOSS_RATE_SCALE[loss] * grad
                    config = configs[1]
                    assert math.copysign(1.0, theta) == math.copysign(1.0, step)
                    assert config.theta_min <= abs(theta) <= config.theta_max
                    if config.theta_min <= abs(step) <= config.theta_max:
                        assert theta == step
                    negative += theta < 0
                    flipped += (theta < 0) != (theta0 < 0)
        assert negative and flipped

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_window_raises_with_last_theta(self):
        window = random_window(stream(47), 5, 79)
        model = MeanVarianceValue(z=1.01, x0=1.0)
        config = BacktestConfig(learning=TrainConfig("msbve", 1e-3, 20, 1, 7.5,
                                                     master_seed=0),
                                train_days=5)
        with pytest.raises(DivergenceError, match="non-finite") as info:
            _fit_theta(7.5, _excess_returns(window, 0.0, 1.0 / 79), 1e-9, "msbve", config,
                       model, np.linspace(0.0, 1.0, 80)[None, :])
        assert info.value.last_theta == 7.5
        assert info.value.episode == 0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_wealth_divergence_names_its_step(self):
        # step 0 replays theta0 = 0.5 finitely; its gradient step lands on
        # theta_max = 1e6, whose replay overflows at step 1
        window = random_window(stream(47), 5, 79)
        config = BacktestConfig(learning=TrainConfig("msbve", 1e12, 5, 1, 0.5,
                                                     master_seed=0),
                                train_days=5, theta_max=1e6)
        with pytest.raises(DivergenceError) as info:
            _fit_theta(0.5, _excess_returns(window, 0.0, 1.0 / 79), 1e-2, "msbve",
                       config, MeanVarianceValue(z=1.01, x0=1.0),
                       np.linspace(0.0, 1.0, 80)[None, :])
        assert str(info.value) == "wealth path became non-finite at daily step 1"
        assert info.value.episode == 1
        assert info.value.last_theta == 1e6


class TestSharpe:
    def test_equal_returns_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            sharpe([0.01] * 10, 252)

    def test_symmetric_returns_zero(self):
        assert sharpe([0.01, -0.01] * 126, 252) == pytest.approx(0.0, abs=1e-12)

    def test_direct_value(self):
        rng = stream(77)
        r = rng.normal(0.001, 0.01, 5000)
        expected = r.mean() / r.std(ddof=1) * math.sqrt(252)
        assert sharpe(r, 252) == pytest.approx(expected, rel=1e-12)
        assert sharpe(r, 252) == pytest.approx(0.1 * math.sqrt(252), rel=0.25)


class TestIngestion:
    def test_day_partition_counts(self):
        series = synthetic_gbm_jump_series(5, bars_per_day=10, seed=1)
        assert len(series.day_partition) == 5
        for _, sl in series.day_partition:
            assert sl.stop - sl.start == 11

    def test_rejects_unsorted(self):
        stamps = np.array(["2021-01-01T10:00", "2021-01-01T09:00"], dtype="datetime64[s]")
        with pytest.raises(IngestionError):
            PriceSeries(stamps, np.array([1.0, 2.0]), 1)

    def test_rejects_duplicates(self):
        stamps = np.array(["2021-01-01T10:00", "2021-01-01T10:00"], dtype="datetime64[s]")
        with pytest.raises(IngestionError):
            PriceSeries(stamps, np.array([1.0, 2.0]), 1)

    @pytest.mark.parametrize("seconds", [[-2**63 + 1, 0, 2**63 - 1],
                                         [-(2**62) - 7, 2**62 + 2**61],
                                         [0, 253402300800],
                                         [-62135596801, 0]],
                             ids=["int64-limits", "gap-above-2^63", "year-10000", "year-0"])
    def test_rejects_timestamps_outside_years_1_to_9999(self, seconds):
        # neither an ascending check by differences nor a day partition may
        # see these: both would wrap in int64
        stamps = np.array(seconds, dtype="int64").astype("datetime64[s]")
        with pytest.raises(IngestionError, match="outside the years 1 to 9999 UTC"):
            build_price_series(stamps, np.ones(len(seconds)), 1)

    def test_rejects_not_a_time_and_other_units(self):
        stamps = np.array(["2021-01-01T09:00", "NaT"], dtype="datetime64[s]")
        with pytest.raises(IngestionError, match="row 1: timestamp NaT is outside"):
            build_price_series(stamps, np.ones(2), 1)
        with pytest.raises(IngestionError, match=r"datetime64\[s\], got datetime64\[ns\]"):
            build_price_series(stamps[:1].repeat(2).astype("datetime64[ns]")
                               + np.array([0, 1], dtype="timedelta64[ns]"), np.ones(2), 1)

    def test_first_and_last_accepted_seconds_partition_in_order(self):
        stamps = np.array([-62135596800, -62135596799, 253402300798, 253402300799],
                          dtype="int64").astype("datetime64[s]")
        series = build_price_series(stamps, np.ones(4), 1)
        assert [(date, sl.start, sl.stop) for date, sl in series.day_partition] == [
            ("0001-01-01", 0, 2), ("9999-12-31", 2, 4)]

    def test_rejects_nonpositive_prices(self):
        with pytest.raises(IngestionError):
            tiny_series([1.0, -2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_nonfinite_prices(self, bad):
        with pytest.raises(IngestionError, match="finite"):
            tiny_series([100.0, bad, 101.0])

    def test_drops_short_days_with_warning(self):
        full = synthetic_gbm_jump_series(3, bars_per_day=10, seed=2)
        # remove half of day 2's rows
        keep = np.ones(full.prices.size, dtype=bool)
        _, day2 = full.day_partition[1]
        keep[day2.start + 3:day2.stop] = False
        with pytest.warns(UserWarning, match="dropped 1 incomplete"):
            series = build_price_series(full.timestamps[keep], full.prices[keep], 10)
        assert len(series.day_partition) == 2

    def test_rejects_overfull_day(self):
        full = synthetic_gbm_jump_series(2, bars_per_day=10, seed=3)
        with pytest.raises(IngestionError):
            build_price_series(full.timestamps, full.prices, 8)

    def test_csv_round_trip(self, tmp_path):
        series = synthetic_gbm_jump_series(3, bars_per_day=10, seed=4)
        path = tmp_path / "prices.csv"
        write_price_csv(series, path)
        loaded = read_price_csv(path, 10)
        np.testing.assert_array_equal(loaded.prices, series.prices)
        np.testing.assert_array_equal(loaded.timestamps, series.timestamps)

    def test_csv_iso_timestamps(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("timestamp,price\n"
                        "2021-01-04T09:30:00+00:00,100.0\n"
                        "2021-01-04T09:35:00Z,100.5\n"
                        "1609753200,101.0\n")  # epoch for 09:40 UTC
        loaded = read_price_csv(path, 2)
        assert loaded.prices.size == 3

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("time,close\n1,2\n")
        with pytest.raises(IngestionError):
            read_price_csv(path, 1)


class TestRollingBacktest:
    def test_requires_enough_days(self):
        series = synthetic_gbm_jump_series(4, bars_per_day=10, seed=5)
        config = BacktestConfig(learning=learning(), train_days=10, steps_per_day=10)
        with pytest.raises(IngestionError, match="11"):
            rolling_backtest(series, config, "msbve")

    @staticmethod
    def _repeated_day_series(n_days, bars, day_pattern):
        stamps = np.concatenate([
            np.datetime64("2021-01-01T09:30", "s")
            + np.timedelta64(d, "D").astype("timedelta64[s]")
            + np.arange(bars + 1) * np.timedelta64(300, "s")
            for d in range(n_days)])
        return build_price_series(stamps, np.tile(day_pattern, n_days), bars)

    def test_identical_days_flagged_degenerate(self):
        bars = 10
        wiggle = np.concatenate([[0.0], np.tile([0.001, -0.001], (bars + 1) // 2)])
        pattern = 100.0 + np.cumsum(wiggle[:bars + 1])
        series = self._repeated_day_series(6, bars, pattern)
        # a step far past the bound holds theta at theta_max every day, and
        # every day trades the same prices: equal returns
        config = BacktestConfig(learning=learning(steps=2, alpha=1e12, theta0=10.0),
                                train_days=4, steps_per_day=bars)
        result = rolling_backtest(series, config, "msbve")
        assert result.theta_per_day == [config.theta_max] * 2
        assert result.daily_return[0] == result.daily_return[1]
        assert result.degenerate
        assert result.sharpe_annualized is None

    def test_one_test_day_flagged_degenerate(self):
        series = synthetic_gbm_jump_series(12, bars_per_day=10, seed=7)
        config = BacktestConfig(learning=learning(), train_days=11, steps_per_day=10)
        result = rolling_backtest(series, config, "msbve")
        assert len(result.daily_return) == 1
        assert result.degenerate
        assert result.sharpe_annualized is None

    def test_flat_prices_reject_zero_sigma_window(self):
        bars = 10
        series = self._repeated_day_series(6, bars, np.full(bars + 1, 100.0))
        config = BacktestConfig(learning=learning(steps=2), train_days=4,
                                steps_per_day=bars)
        with pytest.raises(ConfigurationError, match="zero bipower"):
            rolling_backtest(series, config, "msbve")

    def test_deterministic(self):
        series = synthetic_gbm_jump_series(12, bars_per_day=10, seed=6)
        config = BacktestConfig(learning=learning(), train_days=8, steps_per_day=10)
        a = rolling_backtest(series, config, "mstde")
        b = rolling_backtest(series, config, "mstde")
        assert a.daily_return == b.daily_return
        assert a.theta_per_day == b.theta_per_day

    def test_successive_calls_identical(self):
        series = synthetic_gbm_jump_series(14, bars_per_day=12, seed=8,
                                           jump_prob_per_day=0.4)
        other = synthetic_gbm_jump_series(9, bars_per_day=5, seed=9)
        for mode in ("raw", "thresholded"):
            config = BacktestConfig(learning=learning(steps=20), train_days=9,
                                    steps_per_day=12, threshold_mode=mode)
            for loss in ("mstde", "msbve"):
                first = rolling_backtest(series, config, loss)
                rolling_backtest(other, BacktestConfig(learning=learning(), train_days=6,
                                                       steps_per_day=5), loss)
                second = rolling_backtest(series, config, loss)
                assert first.to_json_dict() == second.to_json_dict()
                assert first.per_day_csv() == second.per_day_csv()

    def test_result_shapes_and_csv(self):
        series = synthetic_gbm_jump_series(12, bars_per_day=10, seed=7)
        config = BacktestConfig(learning=learning(), train_days=8, steps_per_day=10)
        result = rolling_backtest(series, config, "msbve")
        assert len(result.test_days) == 4
        assert (len(result.terminal_wealth) == len(result.daily_return)
                == len(result.theta_per_day) == 4)
        csv = result.per_day_csv()
        assert csv.splitlines()[0] == "date,theta,terminal_wealth,daily_return"
        assert len(csv.strip().splitlines()) == 5

    def test_thresholded_mode_runs(self):
        series = synthetic_gbm_jump_series(12, bars_per_day=10, seed=8,
                                           jump_prob_per_day=0.5)
        config = BacktestConfig(learning=learning(), train_days=8, steps_per_day=10,
                                threshold_mode="thresholded")
        result = rolling_backtest(series, config, "msbve")
        assert result.threshold_mode == "thresholded"
        assert len(result.test_days) == 4

    def test_thresholded_equals_raw_when_no_clipping(self):
        # jump-free fixture: threshold never binds, so theta paths coincide
        series = synthetic_gbm_jump_series(12, bars_per_day=10, seed=9,
                                           jump_prob_per_day=0.0)
        raw = rolling_backtest(series, BacktestConfig(learning=learning(),
                                                      train_days=8, steps_per_day=10),
                               "msbve")
        thr = rolling_backtest(series, BacktestConfig(learning=learning(),
                                                      train_days=8, steps_per_day=10,
                                                      threshold_mode="thresholded"),
                               "msbve")
        if raw.sharpe_annualized is not None:
            assert thr.sharpe_annualized == pytest.approx(raw.sharpe_annualized,
                                                          abs=1e-6)
        np.testing.assert_allclose(raw.daily_return, thr.daily_return, atol=1e-9)

    @pytest.mark.parametrize("mixed, seed, r_f", [
        pytest.param(False, 8, 0.0, id="uniform"),
        pytest.param(True, 8, 0.0, id="mixed_days"),
        pytest.param(False, 8, 1e-4, id="uniform-rf"),
        pytest.param(True, 8, 1e-4, id="mixed_days-rf"),
        pytest.param(False, 12, 1e-4, id="uniform-rf-seed12"),
        pytest.param(True, 12, 1e-4, id="mixed_days-rf-seed12")])
    def test_reports_match_series_route_bit_for_bit(self, mixed, seed, r_f):
        # the backtest forms the day matrix's excess returns, r_f dt included,
        # once; the series route forms each window's and test day's own
        series = (mixed_day_series(14, 12, seed=seed) if mixed else
                  synthetic_gbm_jump_series(14, bars_per_day=12, seed=seed,
                                            jump_prob_per_day=0.5))
        assert len({sl.stop - sl.start for _, sl in series.day_partition}) == 1 + mixed
        reports = {}
        for mode in ("raw", "thresholded"):
            config = BacktestConfig(learning=learning(steps=20), train_days=9,
                                    steps_per_day=12, risk_free_daily=r_f,
                                    threshold_mode=mode)
            for loss in ("mstde", "msbve"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    got = rolling_backtest(series, config, loss).to_json_dict()
                    ref = backtest_by_series(series, config, loss).to_json_dict()
                assert repr(got) == repr(ref)
                reports[mode, loss] = got
        # the threshold binds on these series, so the thresholded route is exercised
        assert reports["raw", "msbve"] != reports["thresholded", "msbve"]

    def test_test_day_wealth_matches_bar_loop(self):
        series = synthetic_gbm_jump_series(14, bars_per_day=12, seed=8,
                                           jump_prob_per_day=0.5)
        matrix = np.stack([series.prices[sl] for _, sl in series.day_partition])
        config = BacktestConfig(learning=learning(steps=20), train_days=9,
                                steps_per_day=12, risk_free_daily=1e-4)
        T = config.train_days
        for loss in ("mstde", "msbve"):
            result = rolling_backtest(series, config, loss)
            assert len(result.terminal_wealth) == len(matrix) - T
            for i, d in enumerate(range(T, len(matrix))):
                increments = _increments(matrix[d - T:d], log_scale=True)
                sigma_hat = math.sqrt(_daily_bipower(increments))
                ref = wealth_by_loop(result.theta_per_day[i], sigma_hat, matrix[d:d + 1],
                                     config.target_wealth, config.initial_wealth,
                                     config.risk_free_daily, 1.0 / 12)
                assert (abs(result.terminal_wealth[i] - ref[0, -1])
                        <= 1e-12 * np.abs(ref).max())

    def test_trimming_warns_once_per_backtest(self):
        series = mixed_day_series(14, 12, seed=8)
        config = BacktestConfig(learning=learning(steps=2), train_days=9,
                                steps_per_day=12, threshold_mode="thresholded")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rolling_backtest(series, config, "msbve")
        assert [str(w.message) for w in caught] == [
            "day lengths differ [12, 13]; trimming to 12 rows"]

    def test_thresholded_window_losing_positivity_names_test_day(self):
        series = falling_after_jump_series()
        configs = {mode: BacktestConfig(learning=learning(steps=2), train_days=8,
                                        steps_per_day=10, threshold_mode=mode)
                   for mode in ("raw", "thresholded")}
        assert rolling_backtest(series, configs["raw"], "msbve").test_days == ["2021-01-12"]
        with pytest.raises(IngestionError, match="thresholded window for test day "
                                                 "2021-01-12 lost positivity"):
            rolling_backtest(series, configs["thresholded"], "msbve")

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BacktestConfig(learning=learning(), train_days=1)
        with pytest.raises(ConfigurationError):
            BacktestConfig(learning=learning(), target_wealth=1.0, initial_wealth=1.0)
        with pytest.raises(ConfigurationError):
            BacktestConfig(learning=learning(), threshold_mode="clipped")

    @pytest.mark.parametrize("field, value", [
        ("target_wealth", np.nan), ("target_wealth", np.inf), ("initial_wealth", -np.inf),
        ("risk_free_daily", np.inf), ("risk_free_daily", np.nan)])
    def test_rejects_non_finite_field(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            BacktestConfig(learning=learning(), **{field: value})
