import math

import numpy as np
import pytest

from jumprl.errors import SimulationOverflowError, SingularParameterError
from jumprl.models import (CustomValue, ExponentialValue, LinearValue,
                           MeanVarianceValue, QuadraticValue, _anchor_slope,
                           family_by_name, path_values, target_anchor)
from jumprl.rng import stream
from conftest import assert_same_bits, synthetic_path

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


def _mean_variance_value(model, theta, t, x):
    w = model.anchor(theta)
    decay = np.exp(theta * theta * (np.asarray(t, dtype=float) - model.horizon))
    return (x - w) ** 2 * decay - (w - model.z) ** 2


def _mean_variance_dtheta(model, theta, t, x):
    w = model.anchor(theta)
    dw = _anchor_slope(theta, model.z, model.x0, model.horizon)
    t = np.asarray(t, dtype=float)
    decay = np.exp(theta * theta * (t - model.horizon))
    return (-2.0 * (x - w) * dw * decay
            + (x - w) ** 2 * decay * 2.0 * theta * (t - model.horizon)
            - 2.0 * (w - model.z) * dw)


# The one-expression forms the in-place kernels replaced, kept here as the
# bit-for-bit reference: (family, method) -> reference(model, theta, t, x).
EXPRESSIONS = {
    ("linear", "dvalue_dx"): lambda m, theta, t, x:
        (theta * (1.0 - t) + 1.0) * np.ones_like(np.asarray(x, dtype=float)),
    ("quadratic", "dvalue_dx"): lambda m, theta, t, x: 2.0 * theta * (1.0 - t) * x + 1.0,
    ("exponential", "dvalue_dx"): lambda m, theta, t, x:
        theta * (1.0 - t) * np.exp(x) + 1.0,
    ("mean_variance", "value"): _mean_variance_value,
    ("mean_variance", "dvalue_dtheta"): _mean_variance_dtheta,
}
KERNELS = [(model, method) for model in FAMILIES
           for method in ("value", "dvalue_dtheta", "dvalue_dx")
           if (model.name, method) in EXPRESSIONS]


def kernel_thetas(model):
    thetas = (-2.5, -0.7, 0.3, 1.9)
    return thetas if model.name == "mean_variance" else thetas + (0.0,)


def path_inputs(model, theta, rng):
    """(t, x): paths of every tested shape with +-inf, NaN, signed zeros, and
    entries at the mean-variance anchor, where x - w is exactly zero."""
    special = [np.inf, -np.inf, np.nan, 0.0, -0.0]
    if model.name == "mean_variance":
        special.append(float(model.anchor(theta)))
    for rows, cols in ((6, 9), (1, 9), (4, 2), (4, 3), (1, 2)):
        t = np.linspace(0.0, 1.0, cols)[None, :]
        x = rng.uniform(-3.0, 3.0, (rows, cols))
        picks = rng.random((rows, cols)) < 0.35
        x[picks] = rng.choice(special, int(picks.sum()))
        yield t, x


class TestInPlaceKernelBits:
    """The rewritten kernels give the bits of the expressions they replaced."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("model,method", KERNELS,
                             ids=lambda k: getattr(k, "name", k))
    def test_paths_match_expression(self, model, method):
        rng = np.random.default_rng(11)
        reference = EXPRESSIONS[model.name, method]
        for theta in kernel_thetas(model):
            for t, x in path_inputs(model, theta, rng):
                assert_same_bits(getattr(model, method)(theta, t, x),
                                 reference(model, theta, t, x))
                # a column of states against a row of times broadcasts both
                # ways; float32 states keep the old expression's dtype
                for other in (x[:, :1], x.astype(np.float32)):
                    assert_same_bits(getattr(model, method)(theta, t, other),
                                     reference(model, theta, t, other))

    @pytest.mark.parametrize("model,method", KERNELS,
                             ids=lambda k: getattr(k, "name", k))
    def test_scalar_x(self, model, method):
        """A scalar x against a row of times, and a scalar x at a scalar time.

        numpy squares a scalar with `**` through libm pow, which misrounds by
        one ulp on about 1 in 1,250 inputs; the mean-variance kernels square in
        np.square for every shape. So their scalar-x results are held to the
        expression on x broadcast to an array, where `**` is np.square."""
        rng = np.random.default_rng(12)
        reference = EXPRESSIONS[model.name, method]
        for theta in kernel_thetas(model):
            for x in (*rng.uniform(-3.0, 3.0, 20), 0.0, -0.0):
                x = float(x)
                for t in (np.linspace(0.0, 1.0, 7)[None, :], 0.25, 1.0):
                    got = getattr(model, method)(theta, t, x)
                    if model.name != "mean_variance":
                        assert_same_bits(got, reference(model, theta, t, x))
                        continue
                    as_array = np.full(np.shape(t) or (1,), x)
                    ref = reference(model, theta, t, as_array)
                    assert_same_bits(got, ref if np.ndim(t) else ref[0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("model,method", KERNELS,
                             ids=lambda k: getattr(k, "name", k))
    def test_read_only_x_unchanged(self, model, method):
        rng = np.random.default_rng(13)
        for theta in kernel_thetas(model):
            for t, x in path_inputs(model, theta, rng):
                before = x.copy()
                x.setflags(write=False)
                got = getattr(model, method)(theta, t, x)
                assert_same_bits(x, before)
                assert got.flags.writeable and not np.shares_memory(got, x)
