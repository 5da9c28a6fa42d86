import math
import tracemalloc

import numpy as np
import pytest

from jumprl.errors import SingularParameterError
from jumprl.estimators import LOSS_KINDS, KernelWorkspace, grads_by_row
from jumprl.models import (HORIZON, CustomValue, ExponentialValue, LinearValue,
                           MeanVarianceValue, QuadraticValue, _anchor_slope,
                           family_by_name, target_anchor)
from jumprl.rng import stream
from conftest import assert_same_bits

STUDY_FAMILIES = [LinearValue(), QuadraticValue(), ExponentialValue()]
FAMILIES = STUDY_FAMILIES + [MeanVarianceValue(z=2.0, x0=1.0)]


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
    @pytest.mark.parametrize("model", STUDY_FAMILIES, ids=lambda m: m.name)
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
        assert target_anchor(10.0, z=2.0, x0=1.0) == pytest.approx(2.0, abs=1e-8)

    def test_anchor_closed_form(self):
        # theta^2 T = ln 2 makes e^{theta^2 T} = 2, so w = (2z - x0)/(2 - 1)
        theta = math.sqrt(math.log(2.0))
        assert target_anchor(theta, z=2.0, x0=1.0) == pytest.approx(3.0)

    def test_anchor_identity_when_target_equals_start(self):
        assert target_anchor(0.7, z=1.5, x0=1.5) == pytest.approx(1.5)

    def test_singularity_floor(self):
        model = MeanVarianceValue(z=2.0, x0=1.0)
        with pytest.raises(SingularParameterError):
            model.value(1e-9, 0.5, 1.0)

    def test_huge_theta_stays_finite(self):
        model = MeanVarianceValue(z=2.0, x0=1.0)
        v = model.value(50.0, 0.5, 1.3)
        g = model.dvalue_dtheta(50.0, 0.5, 1.3)
        assert math.isfinite(v) and math.isfinite(g)


class TestPathValues:
    def test_constant_path_theta_zero(self):
        values = LinearValue().value(0.0, np.linspace(0, 1, 101), np.full((1, 101), 0.1))
        np.testing.assert_array_equal(values, np.full((1, 101), 0.1))

    def test_linear_identity_on_grid(self):
        np.testing.assert_array_equal(
            LinearValue().value(0.0, np.array([0.0, 0.5, 1.0]), np.array([[0.0, 1.0, 0.0]])),
            [[0.0, 1.0, 0.0]])

    def test_quadratic_example(self):
        np.testing.assert_allclose(
            QuadraticValue().value(1.0, np.array([0.0, 0.5, 1.0]), np.array([[0.0, 1.0, 0.0]])),
            [[0.0, 1.5, 0.0]])


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
        mv = family_by_name("mean_variance", z=1.01, x0=1.0)
        assert mv.name == "mean_variance"
        with pytest.raises(ValueError):
            family_by_name("cubic")
        with pytest.raises(ValueError):
            family_by_name("mean_variance")


def _mean_variance_value(model, theta, t, x):
    w = model.anchor(theta)
    decay = np.exp(theta * theta * (np.asarray(t, dtype=float) - HORIZON))
    return (x - w) ** 2 * decay - (w - model.z) ** 2


def _mean_variance_dtheta(model, theta, t, x):
    w = model.anchor(theta)
    dw = _anchor_slope(theta, model.z, model.x0)
    t = np.asarray(t, dtype=float)
    decay = np.exp(theta * theta * (t - HORIZON))
    return (-2.0 * (x - w) * dw * decay
            + (x - w) ** 2 * decay * 2.0 * theta * (t - HORIZON)
            - 2.0 * (w - model.z) * dw)


# The one-expression forms the in-place kernels replaced, kept here as the
# bit-for-bit reference: (family, method) -> reference(model, theta, t, x).
EXPRESSIONS = {
    ("linear", "value"): lambda m, theta, t, x: (theta * (1.0 - t) + 1.0) * x,
    ("linear", "dvalue_dtheta"): lambda m, theta, t, x: (1.0 - t) * x,
    ("quadratic", "value"): lambda m, theta, t, x: theta * (1.0 - t) * x * x + x,
    ("quadratic", "dvalue_dtheta"): lambda m, theta, t, x: (1.0 - t) * x * x,
    ("exponential", "value"): lambda m, theta, t, x: theta * (1.0 - t) * np.exp(x) + x,
    ("exponential", "dvalue_dtheta"): lambda m, theta, t, x: (1.0 - t) * np.exp(x),
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


# every family and method with out=; the custom families' callables return
# their input x, or fall back to central differences of a quadratic family
RETURNS_X = CustomValue(value_fn=lambda theta, t, x: x, dtheta_fn=lambda theta, t, x: x,
                        dx_fn=lambda theta, t, x: x)
FINITE_DIFFERENCES = CustomValue(value_fn=QuadraticValue().value)
OUT_FAMILIES = {**{model.name: model for model in FAMILIES},
                "custom-returns-x": RETURNS_X, "custom-differences": FINITE_DIFFERENCES}
OUT_KERNELS = [pytest.param(model, method, id=f"{label}-{method}")
               for label, model in OUT_FAMILIES.items()
               for method in ("value", "dvalue_dtheta", "dvalue_dx") if hasattr(model, method)]


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("model,method", OUT_KERNELS)
    def test_out_matches_fresh_call(self, model, method):
        """With out= the result lands in out, which is returned, with the bits
        of the call without it; x is never written into, even when a custom
        family's callables return it."""
        rng = np.random.default_rng(14)
        evaluate = getattr(model, method)
        for theta in kernel_thetas(model):
            for t, x in path_inputs(model, theta, rng):
                for states in (x, x[:, :1]):
                    before = states.copy()
                    states.setflags(write=False)
                    fresh = np.asarray(evaluate(theta, t, states))
                    out = np.full(fresh.shape, 7.0, dtype=fresh.dtype)
                    assert evaluate(theta, t, states, out=out) is out
                    assert_same_bits(out, fresh)
                    assert_same_bits(states, before)
            # scalar states and times into a 0-d out
            for t in (0.25, 1.0):
                out = np.empty(())
                assert evaluate(theta, t, 0.7, out=out) is out
                assert_same_bits(out[()], np.float64(evaluate(theta, t, 0.7)))


class TestValueBuffersAllocate:
    """tracemalloc's peak over one call at the backtest's window shape: with
    the caller's buffers, a backtest step's calls form no array of the
    states' size but the one term mean-variance dvalue_dtheta needs; without
    them, each forms one more."""

    SHAPE = (126, 80)  # the backtest's window

    @staticmethod
    def peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def inputs(self):
        rng = np.random.default_rng(15)
        t = np.linspace(0.0, 1.0, self.SHAPE[1])[None, :]
        return t, rng.uniform(0.9, 1.1, self.SHAPE)

    def test_mean_variance_value(self):
        model, (t, x) = MeanVarianceValue(z=1.01, x0=1.0), self.inputs()
        out = np.empty_like(x)
        assert self.peak(lambda: model.value(0.8, t, x, out=out)) < x.nbytes
        assert self.peak(lambda: model.value(0.8, t, x)) >= x.nbytes

    def test_mean_variance_dvalue_dtheta(self):
        # its two terms are full-size arrays at once, so out saves one of two
        model, (t, x) = MeanVarianceValue(z=1.01, x0=1.0), self.inputs()
        out = np.empty_like(x)
        assert self.peak(lambda: model.dvalue_dtheta(0.8, t, x, out=out)) < 2 * x.nbytes
        assert self.peak(lambda: model.dvalue_dtheta(0.8, t, x)) >= 2 * x.nbytes

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_grads_by_row(self, kind):
        values, dvalues = np.random.default_rng(16).uniform(-1.0, 1.0, (2, *self.SHAPE))
        workspace = KernelWorkspace()
        grads_by_row(kind, values, dvalues, workspace)  # sizes the workspace
        assert self.peak(lambda: grads_by_row(kind, values, dvalues, workspace)) \
            < values.nbytes
        assert self.peak(lambda: grads_by_row(kind, values, dvalues)) >= values.nbytes
