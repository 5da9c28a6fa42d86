import math

import numpy as np
import pytest

from jumprl.errors import SimulationOverflowError, SingularParameterError
from jumprl.models import (CustomValue, ExponentialValue, LinearValue,
                           MeanVarianceValue, QuadraticValue, family_by_name,
                           path_values, target_anchor)
from jumprl.rng import stream
from conftest import synthetic_path

FAMILIES = [LinearValue(), QuadraticValue(), ExponentialValue(),
            MeanVarianceValue(z=2.0, x0=1.0, horizon=1.0)]


class TestValueFormulas:
    def test_linear_example(self):
        assert LinearValue().value(-1.5, 0.0, 2.0) == pytest.approx(-1.0)

    def test_quadratic_terminal_identity(self):
        for theta in (-2.0, 0.0, 3.7):
            assert QuadraticValue().value(theta, 1.0, 3.0) == 3.0

    def test_exponential_example(self):
        assert ExponentialValue().value(1.0, 0.0, 0.0) == pytest.approx(1.0)

    def test_terminal_anchoring_exact(self):
        x = np.array([-1.3, 0.0, 0.4, 2.2])
        for model in (LinearValue(), QuadraticValue(), ExponentialValue()):
            for theta in (-5.0, -0.5, 0.0, 1.0, 10.0):
                np.testing.assert_array_equal(model.value(theta, 1.0, x),
                                              model.value(0.0, 1.0, x))


class TestThetaGradients:
    def test_linear_example(self):
        assert LinearValue().dvalue_dtheta(123.0, 0.5, 2.0) == pytest.approx(1.0)

    def test_quadratic_terminal_zero(self):
        assert QuadraticValue().dvalue_dtheta(0.7, 1.0, 5.0) == 0.0

    def test_exponential_example(self):
        assert ExponentialValue().dvalue_dtheta(0.5, 0.0, 1.0) == pytest.approx(math.e)

    @pytest.mark.parametrize("model", FAMILIES, ids=lambda m: m.name)
    def test_matches_central_difference(self, model):
        rng = stream(2024, 0)
        h = 1e-6
        for _ in range(100):
            theta = float(rng.uniform(-2.0, 2.0))
            if model.name == "mean_variance" and abs(theta) < 0.05:
                theta = 0.05 if theta >= 0 else -0.05
            t = float(rng.uniform(0.0, 1.0))
            x = float(rng.uniform(-2.0, 2.0))
            fd = (model.value(theta + h, t, x) - model.value(theta - h, t, x)) / (2 * h)
            grad = model.dvalue_dtheta(theta, t, x)
            assert abs(grad - fd) / (1 + abs(fd)) < 1e-6


class TestStateGradients:
    @pytest.mark.parametrize("model", FAMILIES, ids=lambda m: m.name)
    def test_matches_central_difference(self, model):
        rng = stream(4048, 0)
        h = 1e-6
        for _ in range(100):
            theta = float(rng.uniform(0.05, 2.0)) * (1 if rng.random() < 0.5 else -1)
            t = float(rng.uniform(0.0, 1.0))
            x = float(rng.uniform(-2.0, 2.0))
            fd = (model.value(theta, t, x + h) - model.value(theta, t, x - h)) / (2 * h)
            grad = model.dvalue_dx(theta, t, x)
            assert abs(grad - fd) / (1 + abs(fd)) < 1e-6


class TestMeanVariance:
    def test_anchor_limit_at_large_theta(self):
        assert target_anchor(10.0, z=2.0, x0=1.0, horizon=1.0) == pytest.approx(2.0, abs=1e-8)

    def test_anchor_closed_form(self):
        # theta^2 T = ln 2 makes e^{theta^2 T} = 2, so w = (2z - x0)/(2 - 1)
        theta = math.sqrt(math.log(2.0))
        assert target_anchor(theta, z=2.0, x0=1.0, horizon=1.0) == pytest.approx(3.0)

    def test_anchor_identity_when_target_equals_start(self):
        assert target_anchor(0.7, z=1.5, x0=1.5, horizon=1.0) == pytest.approx(1.5)

    def test_singularity_floor(self):
        model = MeanVarianceValue(z=2.0, x0=1.0, horizon=1.0)
        with pytest.raises(SingularParameterError):
            model.value(1e-9, 0.5, 1.0)

    def test_huge_theta_stays_finite(self):
        model = MeanVarianceValue(z=2.0, x0=1.0, horizon=1.0)
        v = model.value(50.0, 0.5, 1.3)
        g = model.dvalue_dtheta(50.0, 0.5, 1.3)
        assert math.isfinite(v) and math.isfinite(g)


class TestPathValues:
    def test_constant_path_theta_zero(self):
        path = synthetic_path(np.linspace(0, 1, 101), np.full(101, 0.1))
        values = path_values(LinearValue(), 0.0, path)
        np.testing.assert_array_equal(values, np.full((1, 101), 0.1))

    def test_linear_identity_on_grid(self):
        path = synthetic_path([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(path_values(LinearValue(), 0.0, path),
                                      [[0.0, 1.0, 0.0]])

    def test_quadratic_example(self):
        path = synthetic_path([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        np.testing.assert_allclose(path_values(QuadraticValue(), 1.0, path),
                                   [[0.0, 1.5, 0.0]])


    def test_error_keeps_type_fields_and_location(self):
        def value_fn(theta, t, x):
            if np.any(np.asarray(x) > 5.0):
                raise SimulationOverflowError("state out of range", step_index=17)
            return theta + np.asarray(x)

        path = synthetic_path([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 1.0, 9.0, 2.0, 0.0])
        with pytest.raises(SimulationOverflowError) as info:
            path_values(CustomValue(value_fn=value_fn), 0.0, path)
        assert info.value.step_index == 17
        assert "state out of range" in str(info.value)
        assert "at path index 2, t=0.5" in str(info.value)


class TestCustomAndRegistry:
    def test_custom_finite_difference_fallback(self):
        model = CustomValue(value_fn=lambda th, t, x: th * th * x + t)
        grad = model.dvalue_dtheta(1.5, 0.0, 2.0)
        assert grad == pytest.approx(2 * 1.5 * 2.0, rel=1e-5)
        gx = model.dvalue_dx(1.5, 0.0, 2.0)
        assert gx == pytest.approx(1.5 ** 2, rel=1e-5)

    def test_family_by_name(self):
        assert family_by_name("linear").name == "linear"
        assert family_by_name("quadratic").name == "quadratic"
        assert family_by_name("exponential").name == "exponential"
        mv = family_by_name("mean_variance", z=1.01, x0=1.0, horizon=1.0)
        assert mv.name == "mean_variance"
        with pytest.raises(ValueError):
            family_by_name("cubic")
        with pytest.raises(ValueError):
            family_by_name("mean_variance")
