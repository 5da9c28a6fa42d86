import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumprl.errors import (ConfigurationError, DegenerateSeriesError,
                           IngestionError, InsufficientDataError,
                           SingularParameterError)
from jumprl.estimators import TrainConfig
from jumprl.models import target_anchor
from jumprl.portfolio import (BacktestConfig, PriceSeries, bipower_sigma2,
                              build_price_series, jump_threshold, read_price_csv,
                              rolling_backtest, sharpe, simulate_wealth,
                              synthetic_gbm_jump_series, threshold_series,
                              write_price_csv)
from jumprl.rng import stream
from jumprl.sde import JumpDiffusionSpec, NoJumps, build_grid, simulate_batch


def tiny_series(prices, bars_per_day=None, start=0):
    prices = np.asarray(prices, dtype=float)
    stamps = (np.datetime64("2021-03-01T09:30", "s")
              + np.arange(start, start + prices.size) * np.timedelta64(300, "s"))
    return PriceSeries(stamps, prices, bars_per_day or (prices.size - 1))


def learning(steps=5, alpha=50.0, theta0=1.0):
    return TrainConfig("msbve", alpha, steps, 1, theta0, master_seed=0)


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
        spec = JumpDiffusionSpec(drift=0.0, diffusion=1.0, jump_size=lambda t, x: x,
                                 jump_law=NoJumps(), x0=0.0)
        grid = build_grid(1.0, 10_000)
        batch = simulate_batch(spec, grid, 13, 0, 50)
        estimates = [bipower_sigma2(np.diff(row)) for row in batch.observed]
        assert abs(np.mean(estimates) - 1.0) < 0.05

    def test_jump_robustness_vs_quadratic_variation(self):
        # one unit jump moves realized QV by about 1 but bipower barely; each
        # seed obeys the sharp bound (pi/2) |s| (|d_left| + |d_right|), and the
        # mean shift sits near its analytic value (pi/2) * 2 sqrt(2 dt / pi),
        # about 2.5% of the base at dt = 1e-4
        spec = JumpDiffusionSpec(drift=0.0, diffusion=1.0, jump_size=lambda t, x: x,
                                 jump_law=NoJumps(), x0=0.0)
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
        out = threshold_series(series, 1e9)
        np.testing.assert_array_equal(out.prices, series.prices)

    def test_clips_large_move(self):
        series = tiny_series([100.0, 101.0, 150.0, 151.0])
        out = threshold_series(series, 10.0)
        np.testing.assert_allclose(out.prices, [100.0, 101.0, 101.0, 102.0])

    def test_zero_threshold_freezes_series(self):
        series = tiny_series([100.0, 101.0, 99.0, 104.0])
        out = threshold_series(series, 0.0)
        np.testing.assert_array_equal(out.prices, np.full(4, 100.0))

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=25),
           st.floats(min_value=0.0, max_value=30.0))
    def test_idempotent(self, increments, tau):
        # base price large enough that rebuilt series stays positive
        prices = 1000.0 + np.concatenate([[0.0], np.cumsum(increments)])
        series = tiny_series(prices)
        once = threshold_series(series, tau)
        twice = threshold_series(once, tau)
        np.testing.assert_array_equal(once.prices, twice.prices)


class TestAnchor:
    def test_closed_form_at_log2(self):
        theta = math.sqrt(math.log(2.0))
        assert target_anchor(theta, 2.0, 1.0, 1.0) == pytest.approx(3.0)

    def test_limit(self):
        assert target_anchor(10.0, 2.0, 1.0, 1.0) == pytest.approx(2.0, abs=1e-8)

    def test_equal_target_identity(self):
        assert target_anchor(0.8, 1.5, 1.5, 1.0) == pytest.approx(1.5)

    def test_singular_near_zero(self):
        with pytest.raises(SingularParameterError):
            target_anchor(1e-9, 2.0, 1.0, 1.0)


class TestSimulateWealth:
    def test_flat_prices_keep_initial_wealth(self):
        terminal = simulate_wealth(1.0, 0.1, np.full(80, 100.0), z=1.01, x0=1.0)
        assert terminal == 1.0

    def test_one_bar_day_closed_form(self):
        # w(theta) = 3 via z = 2 - x0 adjustments: pick z, x0 with known anchor
        theta = math.sqrt(math.log(2.0))  # w = (2z - x0)
        z, x0 = 2.0, 1.0                  # w = 3
        terminal = simulate_wealth(theta, 1.0, np.array([100.0, 101.0]), z=z, x0=x0,
                                   r_f_daily=0.0, dt=1.0)
        exposure = -theta * (x0 - 3.0)
        assert terminal == pytest.approx(x0 + exposure * 0.01, rel=1e-12)

    def test_policy_fixed_point(self):
        # wealth equal to the anchor zeroes the exposure, exactly and forever
        from jumprl.portfolio import _wealth_matrix
        theta = math.sqrt(math.log(2.0))
        anchor = target_anchor(theta, 2.0, 1.0, 1.0)
        prices = 100.0 * np.exp(np.cumsum(stream(3).normal(0, 0.001, 60)))[None, :]
        wealth = _wealth_matrix(theta, 0.5, prices, z=2.0, x0=1.0, r_f_daily=0.0,
                                dt=1 / 59, horizon=1.0, start_wealth=anchor)
        np.testing.assert_array_equal(wealth, np.full_like(wealth, anchor))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ConfigurationError):
            simulate_wealth(1.0, 0.0, np.array([1.0, 2.0]), z=1.01, x0=1.0)


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
        # re-initialized theta sees the same window every day: equal returns
        config = BacktestConfig(learning=learning(steps=2), train_days=4,
                                steps_per_day=bars, warm_start=False)
        result = rolling_backtest(series, config, "msbve")
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

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BacktestConfig(learning=learning(), train_days=1)
        with pytest.raises(ConfigurationError):
            BacktestConfig(learning=learning(), target_wealth=1.0, initial_wealth=1.0)
        with pytest.raises(ConfigurationError):
            BacktestConfig(learning=learning(), threshold_mode="clipped")
