import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumprl.errors import ConfigurationError, DivergenceError, InsufficientDataError
from jumprl.estimators import (TrainConfig, jump_robustness_ratio, msbve_grad,
                               msbve_loss, mstde_grad, mstde_loss, train)
from jumprl.models import (ExponentialValue, LinearValue, QuadraticValue,
                           path_values)
from jumprl.rng import stream
from jumprl.sde import simulate_batch
from conftest import synthetic_path

value_lists = st.lists(st.floats(min_value=-100, max_value=100,
                                 allow_nan=False, allow_infinity=False),
                       min_size=3, max_size=40)


class TestLossValues:
    def test_mstde_constant_is_zero(self):
        assert mstde_loss([3.7] * 10) == 0.0

    def test_mstde_alternating(self):
        assert mstde_loss([0.0, 1.0, 0.0, 1.0]) == pytest.approx(3.0)

    def test_mstde_needs_two(self):
        with pytest.raises(InsufficientDataError):
            mstde_loss([1.0])

    def test_msbve_constant_is_zero(self):
        assert msbve_loss([5.0] * 8) == 0.0

    def test_msbve_alternating(self):
        assert msbve_loss([0.0, 1.0, 0.0, 1.0]) == pytest.approx(2.0)

    def test_msbve_needs_three(self):
        with pytest.raises(InsufficientDataError):
            msbve_loss([1.0, 2.0])


class TestLossProperties:
    @settings(max_examples=1000, deadline=None)
    @given(value_lists)
    def test_nonnegative(self, values):
        assert mstde_loss(values) >= 0.0
        assert msbve_loss(values) >= 0.0

    @settings(max_examples=1000, deadline=None)
    @given(value_lists, st.floats(min_value=-50, max_value=50,
                                  allow_nan=False, allow_infinity=False))
    def test_shift_invariance(self, values, shift):
        shifted = [v + shift for v in values]
        assert mstde_loss(shifted) == pytest.approx(mstde_loss(values), abs=1e-7)
        assert msbve_loss(shifted) == pytest.approx(msbve_loss(values), abs=1e-7)

    @settings(max_examples=1000, deadline=None)
    @given(value_lists, st.floats(min_value=-8, max_value=8,
                                  allow_nan=False, allow_infinity=False))
    def test_quadratic_scaling(self, values, scale):
        scaled = [scale * v for v in values]
        assert mstde_loss(scaled) == pytest.approx(scale ** 2 * mstde_loss(values),
                                                   rel=1e-9, abs=1e-9)
        assert msbve_loss(scaled) == pytest.approx(scale ** 2 * msbve_loss(values),
                                                   rel=1e-9, abs=1e-9)


class TestGradients:
    def test_constant_values_give_zero(self):
        # theta = 0 makes every family reduce to x, so a constant path yields
        # constant values: all differences vanish and sgn(0) = 0 kills msbve
        path = synthetic_path(np.linspace(0, 1, 101), np.full(101, 0.1))
        for model in (LinearValue(), QuadraticValue(), ExponentialValue()):
            assert mstde_grad(model, 0.0, path)[0] == 0.0
            assert msbve_grad(model, 0.0, path)[0] == 0.0
        zero_path = synthetic_path(np.linspace(0, 1, 101), np.zeros(101))
        assert mstde_grad(QuadraticValue(), 0.7, zero_path)[0] == 0.0
        assert msbve_grad(QuadraticValue(), 0.7, zero_path)[0] == 0.0

    def test_mstde_hand_example(self):
        # J = [1, 2], diff = 1, d(diff)/dtheta = -1, grad = 2 * 1 * (-1)
        path = synthetic_path([0.0, 1.0], [1.0, 2.0])
        assert mstde_grad(LinearValue(), 0.0, path)[0] == pytest.approx(-2.0)

    def test_msbve_hand_example(self):
        path = synthetic_path([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        assert msbve_grad(LinearValue(), 0.0, path)[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("model", [LinearValue(), QuadraticValue(), ExponentialValue()],
                             ids=lambda m: m.name)
    def test_finite_difference_agreement(self, model, study_spec, grid_100):
        rng = stream(808, 0)
        h = 1e-6
        checked = 0
        path_idx = 0
        while checked < 200:
            path = simulate_batch(study_spec, grid_100, 606, 0, 1, path_offset=path_idx)
            path_idx += 1
            theta = float(rng.uniform(-1.5, 1.5))
            J = path_values(model, theta, path)[0]
            diffs = np.abs(np.diff(J))
            g = mstde_grad(model, theta, path)[0]
            fd = (mstde_loss(path_values(model, theta + h, path)[0])
                  - mstde_loss(path_values(model, theta - h, path)[0])) / (2 * h)
            assert abs(g - fd) / (1 + abs(fd)) < 1e-6
            if diffs.min() > 1e-8:  # msbve is smooth only off the kinks
                g2 = msbve_grad(model, theta, path)[0]
                fd2 = (msbve_loss(path_values(model, theta + h, path)[0])
                       - msbve_loss(path_values(model, theta - h, path)[0])) / (2 * h)
                assert abs(g2 - fd2) / (1 + abs(fd2)) < 1e-6
            checked += 1


class TestTrainConfigValidation:
    def test_rejects_bad_loss(self):
        with pytest.raises(ConfigurationError):
            TrainConfig("huber", 0.1, 10, 4, 0.5, 0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            TrainConfig("mstde", 0.0, 10, 4, 0.5, 0)

    def test_rejects_zero_episodes(self):
        with pytest.raises(ConfigurationError):
            TrainConfig("mstde", 0.1, 0, 4, 0.5, 0)


class TestTrain:
    def test_zero_learning_rate_keeps_theta(self, study_spec, grid_100):
        cfg = TrainConfig("mstde", 1e-12, 1, 4, 0.5, master_seed=0)
        result = train(LinearValue(), study_spec, grid_100, cfg)
        assert result.theta_final == pytest.approx(0.5, abs=1e-9)
        assert result.theta_trace[0] == (0, 0.5)

    def test_deterministic_trace(self, study_spec, grid_100):
        cfg = TrainConfig("msbve", 5e-4, 200, 8, 0.5, master_seed=12, record_every=50)
        a = train(LinearValue(), study_spec, grid_100, cfg)
        b = train(LinearValue(), study_spec, grid_100, cfg)
        assert a.theta_trace == b.theta_trace
        assert a.loss_trace == b.loss_trace

    def test_divergence_raises_with_context(self, study_spec, grid_100):
        cfg = TrainConfig("mstde", 1e30, 50, 4, 0.5, master_seed=0)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
            train(ExponentialValue(), study_spec, grid_100, cfg)
        assert err.value.episode >= 1
        assert np.isfinite(err.value.last_theta)

    def test_plateau_stop(self, study_spec, grid_100):
        cfg = TrainConfig("mstde", 1e-10, 5000, 4, 0.5, master_seed=0,
                          plateau_tol=1e-6, plateau_window=50)
        result = train(LinearValue(), study_spec, grid_100, cfg)
        assert result.episodes_run < 5000

    def test_clip_counts_events(self, study_spec, grid_100):
        cfg = TrainConfig("mstde", 1e-6, 50, 4, 0.5, master_seed=0, grad_clip=1e-9)
        result = train(LinearValue(), study_spec, grid_100, cfg)
        assert result.clip_events == 50

    def test_json_trace_shape(self, study_spec, grid_100):
        cfg = TrainConfig("msbve", 5e-4, 20, 4, 0.5, master_seed=3, record_every=10)
        result = train(LinearValue(), study_spec, grid_100, cfg)
        doc = result.to_json_dict()
        assert doc["trace"][0] == [0, 0.5, None]
        assert doc["trace"][-1][0] == 20
        csv = result.trace_csv()
        assert csv.splitlines()[0] == "episode,theta,loss"


class TestJumpRobustnessRatio:
    def test_small_grid_ratio_positive(self):
        ratio = jump_robustness_ratio(1e-2, n_seeds=50)
        assert ratio > 0.0
