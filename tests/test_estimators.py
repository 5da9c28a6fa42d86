import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumprl import estimators
from jumprl.errors import (ConfigurationError, DivergenceError, InsufficientDataError,
                           SimulationOverflowError)
from jumprl.estimators import (LOSS_KINDS, TrainConfig, grads_by_row,
                               jump_robustness_ratio, losses_by_row, msbve_loss,
                               mstde_loss, train)
from jumprl.models import CustomValue, ExponentialValue, LinearValue, QuadraticValue
from jumprl.rng import stream
from jumprl.sde import Workspace, doubling_jump_spec, simulate_batch
from conftest import assert_same_bits

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


def fitted(model, theta, times, observed):
    """A model's values and theta-derivatives along rows of observed states,
    as train forms them: (paths, points) matrices."""
    t = np.asarray(times, dtype=float)[None, :]
    x = np.atleast_2d(np.asarray(observed, dtype=float))
    return model.value(theta, t, x), model.dvalue_dtheta(theta, t, x)


class TestGradients:
    def test_constant_values_give_zero(self):
        # theta = 0 makes every family reduce to x, so a constant path yields
        # constant values: all differences vanish and sgn(0) = 0 kills msbve
        times = np.linspace(0, 1, 101)
        for model in (LinearValue(), QuadraticValue(), ExponentialValue()):
            J, dJ = fitted(model, 0.0, times, np.full(101, 0.1))
            assert grads_by_row("mstde", J, dJ)[0] == 0.0
            assert grads_by_row("msbve", J, dJ)[0] == 0.0
        J, dJ = fitted(QuadraticValue(), 0.7, times, np.zeros(101))
        assert grads_by_row("mstde", J, dJ)[0] == 0.0
        assert grads_by_row("msbve", J, dJ)[0] == 0.0

    @pytest.mark.parametrize("model", [LinearValue(), QuadraticValue(), ExponentialValue()],
                             ids=lambda m: m.name)
    def test_finite_difference_agreement(self, model, study_spec, grid_100):
        rng = stream(808, 0)
        h = 1e-6
        times = grid_100.times[None, :]
        checked = 0
        path_idx = 0
        while checked < 200:
            x = simulate_batch(study_spec, grid_100, 606, 0, 1, path_offset=path_idx).observed
            path_idx += 1
            theta = float(rng.uniform(-1.5, 1.5))
            J = model.value(theta, times, x)
            dJ = model.dvalue_dtheta(theta, times, x)
            up, down = model.value(theta + h, times, x), model.value(theta - h, times, x)
            diffs = np.abs(np.diff(J[0]))
            g = grads_by_row("mstde", J, dJ)[0]
            fd = (losses_by_row("mstde", up)[0] - losses_by_row("mstde", down)[0]) / (2 * h)
            assert abs(g - fd) / (1 + abs(fd)) < 1e-6
            if diffs.min() > 1e-8:  # msbve is smooth only off the kinks
                g2 = grads_by_row("msbve", J, dJ)[0]
                fd2 = (losses_by_row("msbve", up)[0]
                       - losses_by_row("msbve", down)[0]) / (2 * h)
                assert abs(g2 - fd2) / (1 + abs(fd2)) < 1e-6
            checked += 1


# each loss at its fewest points per path, worked by hand for the linear
# family at theta = 0, where J = x and dJ/dtheta = (1 - t) x:
# (times, states, loss, gradient)
MIN_WIDTH_EXAMPLES = {
    # J = [1, 2]: diff 1, d(diff)/dtheta = -1, grad = 2 * 1 * (-1)
    "mstde": ([0.0, 1.0], [1.0, 2.0], 1.0, -2.0),
    # J = [0, 1, 0]: |1| |-1| = 1; d(diff)/dtheta = [0.5, -0.5], so the
    # gradient is (-0.5) |1| sgn(-1) + 0.5 |-1| sgn(1) = 1
    "msbve": ([0.0, 0.5, 1.0], [0.0, 1.0, 0.0], 1.0, 1.0),
}
MIN_POINTS = {"mstde": 2, "msbve": 3}


class TestDerivativeBroadcast:
    """A theta-derivative that does not depend on the path may come back as
    one (1, n+1) row; the family's out= broadcasts it to the values' shape,
    and grads_by_row takes only that shape."""

    @staticmethod
    def value(theta, t, x):
        return theta * (1.0 - t) + x

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_row_derivative_trains_as_the_full_one(self, kind, study_spec, grid_100):
        row = CustomValue(value_fn=self.value, dtheta_fn=lambda theta, t, x: 1.0 - t)
        full = CustomValue(value_fn=self.value, dtheta_fn=lambda theta, t, x:
                           np.broadcast_to(1.0 - t, np.shape(x)).copy())
        config = TrainConfig(kind, 0.01, 3, 4, 0.5, master_seed=11, record_every=1)
        got, want = (train(model, study_spec, grid_100, config) for model in (row, full))
        assert got.trace == want.trace
        assert len(got.trace) == 4 and got.theta_final != 0.5

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_shape_that_cannot_broadcast_names_both(self, kind):
        with pytest.raises(ConfigurationError, match=r"^dvalues of shape \(4, 10\) do not "
                                                     r"match the values' shape \(4, 11\)$"):
            grads_by_row(kind, np.zeros((4, 11)), np.zeros((4, 10)))


class TestKernelBoundaries:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    @pytest.mark.parametrize("kernel", ["losses_by_row", "grads_by_row"])
    def test_width_and_kind(self, kernel, kind):
        # the hand example at the fewest points works, one point fewer
        # raises, and so does an unknown kind
        run = grads_by_row if kernel == "grads_by_row" else (
            lambda kind, J, dJ: losses_by_row(kind, J))
        times, x, loss, grad = MIN_WIDTH_EXAMPLES[kind]
        J, dJ = fitted(LinearValue(), 0.0, times, x)
        assert J.shape == (1, MIN_POINTS[kind])
        want = loss if kernel == "losses_by_row" else grad
        assert run(kind, J, dJ)[0] == pytest.approx(want)
        with pytest.raises(InsufficientDataError, match=f"{kind} needs"):
            run(kind, J[:, :-1], dJ[:, :-1])
        with pytest.raises(ConfigurationError, match="unknown loss kind 'huber'"):
            run("huber", J, dJ)


def _losses_expression(kind, values):
    d = np.diff(values, axis=1)
    if kind == "mstde":
        return np.sum(d * d, axis=1)
    a = np.abs(d)
    return np.sum(a[:, 1:] * a[:, :-1], axis=1)


def _grads_expression(kind, values, dvalues):
    d = np.diff(values, axis=1)
    g = np.diff(dvalues, axis=1)
    if kind == "mstde":
        return 2.0 * np.sum(d * g, axis=1)
    s = np.sign(d)
    a = np.abs(d)
    return np.sum(g[:, 1:] * a[:, :-1] * s[:, 1:] + g[:, :-1] * a[:, 1:] * s[:, :-1],
                  axis=1)


# rows longer than numpy's 128-entry pairwise-summation block, the benchmark's
# backtest (126 x 80) and desk (32 x 101) shapes, no rows at all, and rows
# narrower than msbve (5 x 2) and than both losses (3 x 1) need
KERNEL_SHAPES = ((7, 12), (1, 12), (5, 2), (5, 3), (1, 3), (3, 129), (2, 1001),
                 (4, 200), (126, 80), (32, 101), (0, 5), (3, 1))


def kernel_matrices(rng):
    """(values, dvalues) of every tested shape: random entries with +-inf,
    NaN and signed zeros, and about a third of the value differences exactly
    zero, where msbve's sgn(0) = 0 applies."""
    special = [np.inf, -np.inf, np.nan, 0.0, -0.0]
    for rows, cols in KERNEL_SHAPES:
        for spiked in (False, True):
            values = rng.uniform(-3.0, 3.0, (rows, cols))
            dvalues = rng.uniform(-3.0, 3.0, (rows, cols))
            if spiked:
                for arr in (values, dvalues):
                    picks = rng.random((rows, cols)) < 0.2
                    arr[picks] = rng.choice(special, int(picks.sum()))
            repeat = np.flatnonzero(rng.random(cols - 1) < 0.35) + 1
            values[:, repeat] = values[:, repeat - 1]
            yield values, dvalues
            yield values, -dvalues


def layouts(a):
    """a's entries as a Fortran-ordered copy, a column slice of a wider
    matrix and every other column of one."""
    rows, cols = a.shape
    wide = np.full((rows, 2 * cols + 1), 7.0)
    wide[:, 1:cols + 1] = a
    stepped = np.full((rows, 2 * cols), 7.0)
    stepped[:, ::2] = a
    return [np.asfortranarray(a), wide[:, 1:cols + 1], stepped[:, ::2]]


class TestInPlaceKernelBits:
    """losses_by_row and grads_by_row give the bits of the expressions they
    replaced, and never write into their inputs; rows narrower than the loss
    needs raise."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_match_expression(self, kind):
        rng = np.random.default_rng(21)
        for values, dvalues in kernel_matrices(rng):
            if values.shape[1] < MIN_POINTS[kind]:
                with pytest.raises(InsufficientDataError):
                    losses_by_row(kind, values)
                with pytest.raises(InsufficientDataError):
                    grads_by_row(kind, values, dvalues)
                continue
            assert_same_bits(losses_by_row(kind, values), _losses_expression(kind, values))
            assert_same_bits(grads_by_row(kind, values, dvalues),
                             _grads_expression(kind, values, dvalues))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_layout_independent(self, kind):
        # the reference is the expression on the C-ordered input: np.sum over
        # a Fortran-ordered difference matrix adds each row in another order
        rng = np.random.default_rng(23)
        for values, dvalues in kernel_matrices(rng):
            if values.shape[1] < MIN_POINTS[kind]:
                continue  # the kernels raise; see test_match_expression
            losses = _losses_expression(kind, values)
            grads = _grads_expression(kind, values, dvalues)
            for v, dv in zip(layouts(values), layouts(dvalues)):
                assert_same_bits(losses_by_row(kind, v), losses)
                assert_same_bits(grads_by_row(kind, v, dv), grads)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_read_only_inputs_unchanged(self, kind):
        rng = np.random.default_rng(22)
        for values, dvalues in kernel_matrices(rng):
            if values.shape[1] < MIN_POINTS[kind]:
                continue
            before = values.copy(), dvalues.copy()
            values.setflags(write=False)
            dvalues.setflags(write=False)
            losses_by_row(kind, values)
            grads_by_row(kind, values, dvalues)
            assert_same_bits(values, before[0])
            assert_same_bits(dvalues, before[1])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_workspace_across_shapes_gives_fresh_bits(self, kind):
        # the backtest's shape, a smaller one, the first again, then its
        # leading rows: each call into the one workspace gives the bits of a
        # call without it
        rng = np.random.default_rng(24)
        workspace = Workspace()
        for rows, cols in ((126, 80), (4, 7), (126, 80), (50, 80)):
            values = rng.uniform(-3.0, 3.0, (rows, cols))
            values[:, 3] = values[:, 2]  # sgn(0) = 0 applies
            values[0, :2] = np.nan, -np.inf
            dvalues = rng.uniform(-3.0, 3.0, (rows, cols))
            assert_same_bits(grads_by_row(kind, values, dvalues, workspace),
                             grads_by_row(kind, values, dvalues))
            assert_same_bits(losses_by_row(kind, values, workspace),
                             losses_by_row(kind, values))


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

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", np.inf), ("learning_rate", np.nan), ("theta0", np.inf),
        ("theta0", -np.inf), ("theta0", np.nan), ("grad_clip", np.inf),
        ("grad_clip", np.nan), ("grad_clip", 0.0)])
    def test_rejects_non_finite_or_nonpositive_field(self, field, value):
        fields = dict(loss_kind="mstde", learning_rate=0.1, episodes=10,
                      paths_per_episode=4, theta0=0.5, master_seed=0, grad_clip=1.0)
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            TrainConfig(**{**fields, field: value})

    @pytest.mark.parametrize("seed", [-1, 1.0, True, "3", None],
                             ids=["negative", "float", "bool", "str", "None"])
    def test_rejects_seed_that_is_not_a_non_negative_integer(self, seed):
        # refused when the config is built, not by the stream derivation at episode 1
        with pytest.raises(ConfigurationError) as info:
            TrainConfig("mstde", 0.1, 10, 4, 0.5, master_seed=seed)
        assert str(info.value) == f"master_seed must be a non-negative integer, got {seed!r}"


class TestTrain:
    def test_zero_learning_rate_keeps_theta(self, study_spec, grid_100):
        cfg = TrainConfig("mstde", 1e-12, 1, 4, 0.5, master_seed=0)
        result = train(LinearValue(), study_spec, grid_100, cfg)
        assert result.theta_final == pytest.approx(0.5, abs=1e-9)
        assert result.trace[0] == [0, 0.5, None]

    def test_deterministic_trace(self, study_spec, grid_100):
        cfg = TrainConfig("msbve", 5e-4, 200, 8, 0.5, master_seed=12, record_every=50)
        a = train(LinearValue(), study_spec, grid_100, cfg)
        b = train(LinearValue(), study_spec, grid_100, cfg)
        assert a.trace == b.trace

    def test_divergence_raises_with_context(self, study_spec, grid_100):
        cfg = TrainConfig("mstde", 1e30, 50, 4, 0.5, master_seed=0)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
            train(ExponentialValue(), study_spec, grid_100, cfg)
        assert err.value.episode >= 1
        assert np.isfinite(err.value.last_theta)

    def test_state_overflow_raises_divergence_with_context(self, grid_100):
        # a jump doubles a state near the float maximum, so the first batch overflows
        cfg = TrainConfig("mstde", 1e-3, 5, 4, 0.5, master_seed=0)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
            train(LinearValue(), doubling_jump_spec(1e308), grid_100, cfg)
        assert isinstance(err.value.__cause__, SimulationOverflowError)
        assert (err.value.episode, err.value.last_theta) == (1, 0.5)
        assert err.value.trace == [[0, 0.5, None]]

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

    @pytest.mark.parametrize("record_every", [1, 7, 20, 25])
    def test_trace_rows_at_record_points(self, study_spec, grid_100, record_every):
        # rows at episode 0, each multiple of record_every and the last
        # episode, each as the every-episode trace has it
        def run(every):
            cfg = TrainConfig("msbve", 5e-4, 20, 4, 0.5, master_seed=3, record_every=every)
            return train(LinearValue(), study_spec, grid_100, cfg)

        result, full = run(record_every), run(1)
        episodes = [row[0] for row in result.trace]
        assert episodes == sorted({0, *range(record_every, 21, record_every), 20})
        assert result.trace == [full.trace[e] for e in episodes]
        assert [row[2] is None for row in result.trace] == [True] + [False] * (len(episodes) - 1)
        assert result.trace[-1] == [20, result.theta_final, full.trace[20][2]]


class TestJumpRobustnessRatio:
    def test_small_grid_ratio_positive(self):
        ratio = jump_robustness_ratio(1e-2, n_seeds=50)
        assert ratio > 0.0

    @pytest.mark.parametrize("kwargs, name", [
        (dict(dt=0.0), "dt"), (dict(dt=-0.01), "dt"), (dict(dt=np.nan), "dt"),
        (dict(dt=np.inf), "dt"), (dict(dt=5e-324), "dt"), (dict(dt=0.9), "dt"),
        (dict(dt=1e-2, n_seeds=0), "n_seeds")])
    def test_bad_argument_raises_before_any_path(self, kwargs, name, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(estimators, "stream", no_draws)
        with pytest.raises(ConfigurationError, match=f"^{name} must"):
            jump_robustness_ratio(**kwargs)
