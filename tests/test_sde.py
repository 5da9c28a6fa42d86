import hashlib
import io
import math

import numpy as np
import pytest

from jumprl import sde
from jumprl.errors import ConfigurationError, SimulationOverflowError
from jumprl.estimators import LOSS_KINDS, grads_by_row
from jumprl.rng import path_rng, stream
from jumprl.sde import (JumpDiffusionSpec, NoJumps, PoissonRate, SingleUniformJump,
                        Workspace, build_grid, doubling_jump_spec, grid_for_step,
                        path_to_csv, sample_single_jump_time, simulate_batch)
from conftest import BATCH_ARRAYS, batch_buffers, jump_ledger


class TestBuildGrid:
    def test_paper_grid(self):
        grid = build_grid(1.0, 1000)
        assert grid.dt == pytest.approx(0.001, abs=0)
        assert grid.times[1000] == 1.0
        assert grid.times[0] == 0.0

    def test_two_steps(self):
        grid = build_grid(1.0, 2)
        np.testing.assert_array_equal(grid.times, [0.0, 0.5, 1.0])

    def test_intraday_grid(self):
        grid = build_grid(1.0, 79)
        assert grid.dt == pytest.approx(1 / 79, rel=1e-15)

    def test_uniform_spacing_within_ulp(self):
        grid = build_grid(1.0, 1000)
        gaps = np.diff(grid.times)
        assert np.all(np.abs(gaps - grid.dt) <= np.spacing(grid.horizon))

    @pytest.mark.parametrize("horizon,n", [(0.0, 10), (-1.0, 10), (1.0, 1), (1.0, 0),
                                           (1.0, math.inf)])
    def test_rejects_bad_arguments(self, horizon, n):
        with pytest.raises(ConfigurationError):
            build_grid(horizon, n)

    @pytest.mark.parametrize("n, shown", [(10**300, "1e+300"), (2**62, "4.61169e+18"),
                                          (2**63 - 1, "9.22337e+18"), (2**63, "9.22337e+18")],
                             ids=["1e300", "2**62", "2**63-1", "2**63"])
    def test_unallocatable_step_count_names_n_steps(self, n, shown):
        # refused before anything is allocated; numpy's linspace would wrap a
        # count of 2**63 or more to an empty array
        with pytest.raises(ConfigurationError) as info:
            build_grid(1.0, n)
        assert f"n_steps = {shown} is too large to allocate a grid" in str(info.value)


class TestGridForStep:
    @pytest.mark.parametrize("dt, n_steps", [(0.01, 100), (0.001, 1000), (0.3, 3), (0.5, 2),
                                             (1 / 79, 79)])
    def test_rounds_horizon_over_dt(self, dt, n_steps):
        grid = grid_for_step(1.0, dt)
        assert grid.n_steps == n_steps
        np.testing.assert_array_equal(grid.times, build_grid(1.0, n_steps).times)

    @pytest.mark.parametrize("dt, message", [
        (0.0, "dt must be positive and finite, got 0.0"),
        (-0.1, "dt must be positive and finite, got -0.1"),
        (math.nan, "dt must be positive and finite, got nan"),
        (math.inf, "dt must be positive and finite, got inf"),
        (0.7, "dt must leave at least 2 grid steps on the horizon 1.0, got 0.7"),
        (5e-324, "dt must leave a finite number of grid steps on the horizon 1.0, got 5e-324"),
        (1e-300, "n_steps = 1e+300 is too large to allocate a grid")])
    def test_bad_step_names_the_rule(self, dt, message):
        with pytest.raises(ConfigurationError) as info:
            grid_for_step(1.0, dt)
        assert str(info.value) == message


class TestSingleJumpTime:
    def test_in_open_interval(self, rng):
        u = sample_single_jump_time(rng)
        assert 0.0 < u < 1.0

    def test_deterministic(self):
        a = sample_single_jump_time(stream(5, 0, 0))
        b = sample_single_jump_time(stream(5, 0, 0))
        assert a == b

    def test_mean_near_half(self):
        # law of large numbers oracle: sample mean of Uniform(0,1)
        rng = stream(17, 0, 0)
        draws = np.array([sample_single_jump_time(rng) for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.005


class TestSimulatePath:
    def test_doubles_at_jump(self, study_spec, grid_1000):
        path = simulate_batch(study_spec, grid_1000, 7, 0, 1)
        assert path.jump_step.size == 1
        pre_state = path.jump_pre[0]
        k = int(np.searchsorted(grid_1000.times, path.jump_time[0]))
        assert path.jump_step[0] == k
        np.testing.assert_array_equal(path.observed[0, :k], path.continuous[0, :k])
        np.testing.assert_array_equal(path.observed[0, k:], path.continuous[0, k:] + pre_state)
        assert path.observed[0, k] == 2 * pre_state
        # under every law, each landing holds twice its pre-jump state and its
        # left limit is that state, both exactly; elsewhere the left limits
        # are the observed states. The Poisson rows have 0 to 3+ jumps.
        for law, n_paths, fewest, most in ((SingleUniformJump(), 16, 1, 1),
                                           (PoissonRate(rate=2.0), 12, 0, 3),
                                           (NoJumps(), 4, 0, 0)):
            spec = JumpDiffusionSpec(drift=-0.2, diffusion=0.9, jump_law=law, x0=0.3)
            batch = simulate_batch(spec, build_grid(1.0, 100), 97, 2, n_paths)
            rows, steps = batch.jump_path, batch.jump_step
            np.testing.assert_array_equal(batch.observed[rows, steps], 2 * batch.jump_pre)
            np.testing.assert_array_equal(batch.pre_jump[rows, steps], batch.jump_pre)
            off = np.ones(batch.observed.shape, dtype=bool)
            off[rows, steps] = False
            np.testing.assert_array_equal(batch.pre_jump[off], batch.observed[off])
            counts = np.bincount(rows, minlength=n_paths)
            assert (counts.min(), min(counts.max(), 3)) == (fewest, most)

    def test_degenerate_constant_path(self, grid_100):
        spec = JumpDiffusionSpec(drift=0.0, diffusion=0.0, jump_law=NoJumps(), x0=0.1)
        path = simulate_batch(spec, grid_100, 3, 0, 1)
        np.testing.assert_array_equal(path.observed[0], np.full(101, 0.1))

    def test_terminal_variance_of_brownian(self):
        # Var(W_1) = 1; oracle is the sample variance over seeded paths
        spec = JumpDiffusionSpec(drift=0.0, diffusion=1.0, jump_law=NoJumps(), x0=0.0)
        grid = build_grid(1.0, 200)
        batch = simulate_batch(spec, grid, 11, 0, 10_000)
        var = batch.observed[:, -1].var()
        assert abs(var - 1.0) < 0.05

    def test_determinism_bit_identical(self, study_spec, grid_100):
        a = simulate_batch(study_spec, grid_100, 99, 4, 1, path_offset=2)
        b = simulate_batch(study_spec, grid_100, 99, 4, 1, path_offset=2)
        np.testing.assert_array_equal(a.observed, b.observed)
        np.testing.assert_array_equal(a.continuous, b.continuous)
        assert jump_ledger(a) == jump_ledger(b)

    def test_overflow_reports_step(self, grid_100):
        spec = JumpDiffusionSpec(drift=1e308, diffusion=0.0, jump_law=NoJumps(), x0=1e308)
        with np.errstate(over="ignore"), pytest.raises(SimulationOverflowError) as err:
            simulate_batch(spec, grid_100, 0, 0, 1)
        assert err.value.step_index >= 1

    @pytest.mark.parametrize("drift,sigma", [(0.0, 1.0), (0.3, 0.7), (-2.5, 1e-3)])
    def test_constant_recursion_matches_reference(self, drift, sigma):
        # reference: x0 + cumsum(b dt + sigma sqrt(dt) z) on stream (seed, e, p), then
        # the jump drawn from the same generator at its exact, off-grid time,
        # adding the state at the grid point it snaps to
        grid = build_grid(2.0, 137)
        spec = JumpDiffusionSpec(drift=drift, diffusion=sigma, jump_law=SingleUniformJump(),
                                 x0=0.4)
        for episode, p in [(0, 0), (3, 5), (7, 2**33 + 1)]:
            rng = stream(19, episode, p)
            z = rng.standard_normal(grid.n_steps)
            increments = drift * grid.dt + sigma * math.sqrt(grid.dt) * z
            continuous = np.concatenate([[spec.x0], spec.x0 + np.cumsum(increments)])
            jump_time = sample_single_jump_time(rng) * grid.horizon
            k = int(np.searchsorted(grid.times, jump_time))
            path = simulate_batch(spec, grid, 19, episode, 1, path_offset=p)
            np.testing.assert_array_equal(path.continuous[0], continuous)
            assert jump_ledger(path) == [(0, k, jump_time, continuous[k])]
            assert jump_time != grid.times[k]
            observed = continuous.copy()
            observed[k:] += continuous[k]
            np.testing.assert_array_equal(path.observed[0], observed)


class TestPathInvariants:
    def test_quadratic_variation_near_sigma2_t(self):
        # summed squared increments -> sigma^2 T for a continuous path
        sigma = 0.8
        spec = JumpDiffusionSpec(drift=0.0, diffusion=sigma, jump_law=NoJumps(), x0=0.0)
        grid = build_grid(1.0, 10_000)
        batch = simulate_batch(spec, grid, 23, 0, 50)
        qv = np.sum(np.diff(batch.observed, axis=1) ** 2, axis=1)
        assert abs(qv.mean() - sigma ** 2) < 0.05 * sigma ** 2

    def test_jump_ledger_reconstructs_observed(self, study_spec, grid_1000):
        path = simulate_batch(study_spec, grid_1000, 31, 0, 1)
        rebuilt = path.continuous[0].copy()
        for time, size in zip(path.jump_time, path.jump_pre):
            k = int(np.searchsorted(grid_1000.times, time))
            rebuilt[k:] += size
        np.testing.assert_allclose(rebuilt, path.observed[0], rtol=1e-12, atol=1e-15)

    def test_single_jump_law_always_one_event(self, study_spec, grid_100):
        for path_idx in range(50):
            path = simulate_batch(study_spec, grid_100, 41, 0, 1, path_offset=path_idx)
            assert path.jump_step.size == 1
            assert 0.0 < path.jump_time[0] <= 1.0

    def test_no_jump_at_time_zero(self, study_spec, grid_100):
        path = simulate_batch(study_spec, grid_100, 43, 0, 1)
        assert path.observed[0, 0] == path.continuous[0, 0]


class TestPoissonRate:
    def test_rejects_coarse_grid(self, grid_100):
        spec = JumpDiffusionSpec(drift=0.0, diffusion=1.0, jump_law=PoissonRate(rate=50.0),
                                 x0=0.0)
        with pytest.raises(ConfigurationError):
            simulate_batch(spec, grid_100, 0, 0, 1)

    def test_mean_jump_count(self):
        rate = 2.0
        spec = JumpDiffusionSpec(drift=0.0, diffusion=1.0, jump_law=PoissonRate(rate=rate),
                                 x0=0.0)
        grid = build_grid(1.0, 500)
        batch = simulate_batch(spec, grid, 87, 0, 2000)
        mean_count = batch.jump_step.size / 2000
        assert abs(mean_count - rate) < 0.1


class TestSpecCheck:
    @pytest.mark.parametrize("field", ["drift", "diffusion"])
    @pytest.mark.parametrize("value", [lambda t, x: 0.5, True, "0.5", None],
                             ids=["callable", "bool", "str", "None"])
    def test_coefficient_that_is_not_a_number_names_the_field(self, field, value):
        fields = dict(drift=0.0, diffusion=1.0, jump_law=NoJumps(), x0=0.0)
        fields[field] = value
        with pytest.raises(ConfigurationError, match=f"^{field} must be a real number, got "):
            JumpDiffusionSpec(**fields)

    def test_numpy_and_integer_coefficients_give_the_float_bits(self, grid_100):
        def batch(drift, diffusion):
            spec = JumpDiffusionSpec(drift=drift, diffusion=diffusion,
                                     jump_law=SingleUniformJump(), x0=0.1)
            return simulate_batch(spec, grid_100, 21, 0, 3)

        want = batch(0.3, 2.0)
        for drift, diffusion in ((np.float64(0.3), np.int64(2)), (0.3, 2)):
            got = batch(drift, diffusion)
            for name in BATCH_ARRAYS:
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


# one jump per row, and several jumps per row
BATCH_SPECS = [
    JumpDiffusionSpec(drift=0.3, diffusion=0.7, jump_law=SingleUniformJump(), x0=0.2),
    JumpDiffusionSpec(drift=0.1, diffusion=1.3, jump_law=PoissonRate(rate=8.0), x0=1.0),
]


def assert_matches_sequential_reference(spec, grid, seed, episode, offset, n_paths):
    """Check a constant-coefficient Poisson batch against its rows built one
    at a time, and return each row's jump count.

    Reference: each row's normals, then its Bernoulli jump flags, from
    stream(seed, e, p); jumps applied one at a time as observed[k:] += observed[k].
    """
    batch = simulate_batch(spec, grid, seed, episode, n_paths, path_offset=offset)
    ledger = []
    for i in range(n_paths):
        rng = stream(seed, episode, offset + i)
        z = rng.standard_normal(grid.n_steps)
        flags = rng.random(grid.n_steps) < spec.jump_law.rate * grid.dt
        increments = spec.drift * grid.dt + spec.diffusion * math.sqrt(grid.dt) * z
        continuous = np.concatenate([[spec.x0], spec.x0 + np.cumsum(increments)])
        observed = continuous.copy()
        for k in np.flatnonzero(flags) + 1:
            pre = observed[k]
            observed[k:] += pre
            ledger.append((i, k, grid.times[k], pre))
        np.testing.assert_array_equal(batch.continuous[i], continuous)
        np.testing.assert_array_equal(batch.observed[i], observed)
    assert jump_ledger(batch) == ledger
    return np.bincount(batch.jump_path, minlength=n_paths)


class TestBatch:
    def test_rows_match_single_path_api(self, study_spec, grid_100):
        batch = simulate_batch(study_spec, grid_100, 59, 3, 8)
        for p in range(8):
            single = simulate_batch(study_spec, grid_100, 59, 3, 1, path_offset=p)
            np.testing.assert_array_equal(batch.observed[p], single.observed[0])
            np.testing.assert_array_equal(batch.continuous[p], single.continuous[0])

    def test_offset_gives_chunk_independence(self, study_spec, grid_100):
        whole = simulate_batch(study_spec, grid_100, 61, 0, 10)
        left = simulate_batch(study_spec, grid_100, 61, 0, 4)
        right = simulate_batch(study_spec, grid_100, 61, 0, 6, path_offset=4)
        np.testing.assert_array_equal(whole.observed,
                                      np.vstack([left.observed, right.observed]))

    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=["constant", "poisson"])
    def test_rows_match_seeded_paths_at_offset(self, spec):
        grid = build_grid(1.0, 200)
        offset = 2**33 + 5
        batch = simulate_batch(spec, grid, 2**40 + 3, 7, 6, path_offset=offset)
        events = jump_ledger(batch)
        for p in range(6):
            single = simulate_batch(spec, grid, 2**40 + 3, 7, 1, path_offset=offset + p)
            np.testing.assert_array_equal(batch.observed[p], single.observed[0])
            np.testing.assert_array_equal(batch.continuous[p], single.continuous[0])
            assert [event[1:] for event in events if event[0] == p] == [
                event[1:] for event in jump_ledger(single)]
        # each ledger step is its drawn time snapped to the grid
        np.testing.assert_array_equal(batch.jump_step, grid.times.searchsorted(batch.jump_time))
        assert batch.jump_step.size > 0

    def test_poisson_rows_match_sequential_reference(self):
        spec = JumpDiffusionSpec(drift=0.1, diffusion=1.3, jump_law=PoissonRate(rate=8.0),
                                 x0=1.0)
        counts = assert_matches_sequential_reference(spec, build_grid(1.0, 200), seed=83,
                                                     episode=4, offset=2**32 - 3, n_paths=6)
        assert (counts >= 2).sum() >= 2

    def test_constant_poisson_rows_with_zero_to_many_jumps_match_sequential_reference(self):
        # a round applies the r-th jump of every row with more than r jumps;
        # rows without any and rows with three or more must both come out as
        # the one-jump-at-a-time reference
        spec = JumpDiffusionSpec(drift=-0.2, diffusion=0.9, jump_law=PoissonRate(rate=2.0),
                                 x0=0.3)
        counts = assert_matches_sequential_reference(spec, build_grid(1.0, 100), seed=97,
                                                     episode=2, offset=0, n_paths=12)
        assert counts.min() == 0 and counts.max() >= 3

    def test_negative_zero_start_keeps_its_sign(self):
        # a jump writes only the columns from its step on, so x0 = -0.0 stays
        # -0.0 in column 0; adding a masked-out +0.0 there would make it +0.0
        spec = JumpDiffusionSpec(drift=0.0, diffusion=1.0, jump_law=SingleUniformJump(),
                                 x0=-0.0)
        batch = simulate_batch(spec, build_grid(1.0, 50), 89, 0, 8)
        assert batch.jump_step.size == 8
        for array in (batch.observed, batch.continuous, batch.pre_jump):
            assert np.signbit(array[:, 0]).all()

    def test_arrays_are_read_only(self, study_spec, grid_100):
        batch = simulate_batch(study_spec, grid_100, 73, 0, 3)
        for name in BATCH_ARRAYS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(batch, name)[0] = 0

    def test_pre_jump_backs_out_landing(self, study_spec, grid_100):
        batch = simulate_batch(study_spec, grid_100, 67, 0, 5)
        for path, step, pre in zip(batch.jump_path, batch.jump_step, batch.jump_pre):
            assert batch.pre_jump[path, step] == pytest.approx(pre, rel=1e-12)


class TestTraceContract:
    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=["constant", "poisson"])
    def test_path_rng_called_through_module_once_per_row(self, spec, monkeypatch):
        # the benchmark's tracer rebinds sde.path_rng and counts one stream per
        # call, so each row must call it through that global: a binding taken
        # when the module loads (an alias, a default argument) hides every row
        calls = []

        def counting(master_seed, episode, path, reuse, key):
            calls.append((master_seed, episode, path, list(key)))
            return path_rng(master_seed, episode, path, reuse, key)

        monkeypatch.setattr(sde, "path_rng", counting)
        grid = build_grid(1.0, 200)
        for offset, n_paths in ((0, 5), (2**32 - 2, 4)):
            calls.clear()
            simulate_batch(spec, grid, 29, 3, n_paths, path_offset=offset)
            # in row order, each row re-pointed to its own stream's key
            assert calls == [
                (29, 3, offset + i, np.random.SeedSequence(29, spawn_key=(3, offset + i))
                 .generate_state(2, np.uint64).tolist()) for i in range(n_paths)]


class TestWorkspaceTake:
    """Workspace.take returns the held array, its leading rows, or a new one."""

    def test_same_shape_and_dtype_return_the_held_array(self):
        workspace = Workspace()
        held = workspace.take("a", (4, 3))
        assert held.shape == (4, 3) and held.dtype == np.float64
        assert workspace.take("a", (4, 3)) is held
        assert workspace.take("a", (4, 3), np.float64) is held
        ints = workspace.take("b", (5,), np.int64)
        assert workspace.take("b", (5,), np.int64) is ints

    @pytest.mark.parametrize("rows", [0, 1, 4])
    def test_fewer_rows_return_the_leading_rows(self, rows):
        workspace = Workspace()
        held = workspace.take("a", (5, 3))
        leading = workspace.take("a", (rows, 3))
        assert leading.shape == (rows, 3) and leading.base is held
        assert leading.flags.c_contiguous
        assert leading.__array_interface__["data"] == held.__array_interface__["data"]
        # the held array keeps all its rows
        assert workspace.take("a", (5, 3)) is held

    @pytest.mark.parametrize("shape, dtype", [((6, 3), float), ((5, 4), float),
                                              ((5, 3, 1), float), ((5,), float),
                                              ((5, 3), np.float32), ((2, 3), np.int64)],
                             ids=["more-rows", "columns", "trailing-axis", "fewer-axes",
                                  "float32", "int64-fewer-rows"])
    def test_another_shape_or_dtype_reallocates(self, shape, dtype):
        workspace = Workspace()
        held = workspace.take("a", (5, 3))
        new = workspace.take("a", shape, dtype)
        assert new.shape == shape and new.dtype == dtype
        assert not np.shares_memory(new, held)
        assert workspace.take("a", shape, dtype) is new  # and it is held from now on

    def test_a_refused_shape_raises_like_numpy(self):
        workspace = Workspace()
        workspace.take("a", (5, 3))
        for shape in ((-1, 3), (2**60, 3)):
            with pytest.raises(ValueError):
                workspace.take("a", shape)

    def test_arrays_under_different_names_never_alias(self, study_spec, grid_100):
        workspace = Workspace()
        batch = simulate_batch(study_spec, grid_100, 1, 0, 6, workspace=workspace)
        shape = batch.observed.shape
        # the names train forms its values and kernel temporaries under
        taken = {name: workspace.take(name, shape) for name in ("J", "dJ", "d", "g", "sign")}
        taken["J"] = workspace.take("J", (3, shape[1]))     # leading rows
        taken["dJ"] = workspace.take("dJ", (6, 7))          # reallocated
        taken["term"] = workspace.take("term", (8, shape[1]))
        taken.update(zip(("normals", "continuous", "observed", "pre_jump"),
                         batch_buffers(workspace, 6, grid_100.n_steps)))
        names = list(taken)
        for i, a in enumerate(names):
            assert taken[a].flags.writeable
            for b in names[i + 1:]:
                assert not np.shares_memory(taken[a], taken[b]), (a, b)


class TestWorkspace:
    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=["constant", "poisson"])
    def test_batch_equals_fresh_batch_and_is_read_only(self, spec):
        grid, workspace = build_grid(1.0, 200), Workspace()
        # a larger batch first, so the second uses the leading rows of dirty arrays
        simulate_batch(spec, grid, 3, 1, 9, workspace=workspace)
        got = simulate_batch(spec, grid, 2**40 + 3, 7, 6, path_offset=2**33, workspace=workspace)
        want = simulate_batch(spec, grid, 2**40 + 3, 7, 6, path_offset=2**33)
        for name in BATCH_ARRAYS:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            with pytest.raises(ValueError, match="read-only"):
                getattr(got, name)[0] = 0
        held = batch_buffers(workspace, 9, 200)
        for array in held:
            assert array.flags.writeable
        for name, array in zip(("continuous", "observed", "pre_jump"), held[1:]):
            assert np.shares_memory(getattr(got, name), array)

    def test_fresh_batches_share_no_memory(self, study_spec, grid_100):
        first = simulate_batch(study_spec, grid_100, 5, 0, 4)
        second = simulate_batch(study_spec, grid_100, 5, 0, 4)
        for a in BATCH_ARRAYS:
            for b in BATCH_ARRAYS:
                assert not np.shares_memory(getattr(first, a), getattr(second, b))

    def test_buffers_reused_for_same_shape_and_replaced_on_shape_change(self, study_spec):
        workspace = Workspace()

        simulate_batch(study_spec, build_grid(1.0, 100), 1, 0, 8, workspace=workspace)
        held = batch_buffers(workspace, 8, 100)
        assert [b.shape for b in held] == [(8, 100)] + [(8, 101)] * 3
        batch = simulate_batch(study_spec, build_grid(1.0, 100), 2, 0, 8, workspace=workspace)
        assert all(now is before for now, before in zip(batch_buffers(workspace, 8, 100), held))
        assert np.shares_memory(batch.observed, held[2])
        # fewer paths use the leading rows
        simulate_batch(study_spec, build_grid(1.0, 100), 3, 0, 5, workspace=workspace)
        assert all(now is before for now, before in zip(batch_buffers(workspace, 8, 100), held))
        for n_paths, n_steps in ((9, 100), (9, 50)):
            simulate_batch(study_spec, build_grid(1.0, n_steps), 4, 0, n_paths,
                           workspace=workspace)
            now = batch_buffers(workspace, n_paths, n_steps)
            assert not any(np.shares_memory(a, b) for a in now for b in held)
            assert now[0].shape == (n_paths, n_steps)
            held = now

    def test_unallocatable_batch_names_n_paths_and_n_steps(self, study_spec, grid_100):
        # numpy refuses 2^60 rows without allocating anything
        for workspace in (None, Workspace()):
            with pytest.raises(ConfigurationError, match=r"cannot allocate a batch of "
                               r"n_paths = 1152921504606846976 x n_steps = 100: "):
                simulate_batch(study_spec, grid_100, 1, 0, 2**60, workspace=workspace)


class TestWorkspaceGenerator:
    """A workspace holds the generator its batches re-point to each path's stream."""

    def test_each_workspace_owns_one_generator(self, study_spec, grid_100):
        first, second = Workspace(), Workspace()
        assert isinstance(first.generator.bit_generator, np.random.Philox)
        assert first.generator is first.generator
        assert first.generator is not second.generator
        assert first.generator.bit_generator is not second.generator.bit_generator
        untouched = second.generator.bit_generator.state["state"]
        simulate_batch(study_spec, grid_100, 5, 2, 3, path_offset=4, workspace=first)
        # the batch re-pointed its own workspace's generator, last to row 3's stream
        last = np.random.SeedSequence(5, spawn_key=(2, 6)).generate_state(2, np.uint64)
        np.testing.assert_array_equal(first.generator.bit_generator.state["state"]["key"],
                                      last)
        for word in ("key", "counter"):
            np.testing.assert_array_equal(second.generator.bit_generator.state["state"][word],
                                          untouched[word])

    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=["constant", "poisson"])
    def test_batch_after_draws_mid_stream_equals_fresh_batch(self, spec):
        grid, workspace = build_grid(1.0, 200), Workspace()
        workspace.generator.standard_normal(7)
        workspace.generator.integers(0, 10, dtype=np.uint32)  # leaves a buffered 32-bit half
        got = simulate_batch(spec, grid, 41, 3, 6, path_offset=5, workspace=workspace)
        want = simulate_batch(spec, grid, 41, 3, 6, path_offset=5)
        for name in BATCH_ARRAYS:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_grads_by_row_refuses_a_row_derivative(self, kind):
        with pytest.raises(ConfigurationError, match=r"^dvalues of shape \(1, 11\) do not "
                                                     r"match the values' shape \(4, 11\)$"):
            grads_by_row(kind, np.zeros((4, 11)), np.zeros((1, 11)))


def batch_digest(batch) -> str:
    """sha256 over the name, dtype, shape and bytes of every PathBatch array."""
    digest = hashlib.sha256()
    for name in BATCH_ARRAYS:
        array = np.ascontiguousarray(getattr(batch, name))
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


# (spec, n_steps, master seed, episode, n_paths, path offset)
PINNED_BATCHES = {
    "doubling-32x100": (doubling_jump_spec(), 100, 20240101, 7, 32, 0),
    "doubling-128x1000-offset128": (doubling_jump_spec(), 1000, 31415, 3, 128, 128),
    "doubling-straddling-2^32": (doubling_jump_spec(), 100, 5, 1, 16, 2**32 - 8),
    "poisson-0-to-many": (JumpDiffusionSpec(drift=-0.2, diffusion=0.9,
                                            jump_law=PoissonRate(rate=2.0), x0=0.3),
                          100, 97, 2, 12, 0),
    "no-jumps": (JumpDiffusionSpec(drift=0.3, diffusion=0.7,
                                   jump_law=NoJumps(), x0=0.2), 100, 13, 0, 8, 0),
    "negative-zero-x0": (JumpDiffusionSpec(drift=0.0, diffusion=1.0,
                                           jump_law=SingleUniformJump(), x0=-0.0),
                         50, 89, 0, 8, 0),
}


class TestPinnedBits:
    """Every array of these batches is pinned bit for bit while the random
    streams stay as they are; the digests were recorded with numpy 2.4 on x86-64."""

    DIGESTS = {
        "doubling-128x1000-offset128":
            "891baf951322d6e77e12c6737291a6e803c16bb4e565d702cf1507a7458dd70c",
        "doubling-32x100": "a924c7e44570f56d3b144030851b51ba017df868ccfe52f2ee841be1b6eb06ba",
        "doubling-straddling-2^32":
            "a425d24a9acfbd10ef27d7a2eb512baec4fa5001d85939e8c9b820eece42de4b",
        "negative-zero-x0": "99e07a145a0605c4cb14550e7ada7f8f2bc3d927dfff3c35ab770e77e45a6c2e",
        "no-jumps": "62e320ba86629959c719510d77f1789c506022f5f4a2828d2104902b20901410",
        "poisson-0-to-many": "a125513b86e8152ec3def9df7a7b0b0ae510fd5d72d81cc4406dcb45ef75576b",
    }

    @pytest.mark.parametrize("case", sorted(PINNED_BATCHES))
    def test_batch_arrays_match_recorded_digest(self, case):
        spec, n_steps, seed, episode, n_paths, offset = PINNED_BATCHES[case]
        grid = build_grid(1.0, n_steps)
        batch = simulate_batch(spec, grid, seed, episode, n_paths, path_offset=offset)
        assert batch_digest(batch) == self.DIGESTS[case]
        # the same bits from a workspace left dirty by a larger batch
        workspace = Workspace()
        simulate_batch(spec, grid, seed + 1, episode, n_paths + 3, workspace=workspace)
        batch = simulate_batch(spec, grid, seed, episode, n_paths, path_offset=offset,
                               workspace=workspace)
        assert batch_digest(batch) == self.DIGESTS[case]


class TestCsvExport:
    def test_round_trip(self, study_spec, grid_100):
        path = simulate_batch(study_spec, grid_100, 71, 0, 1)
        buf = io.StringIO()
        path_to_csv(path, 0, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,observed,continuous,jump_flag"
        assert len(lines) == grid_100.n_steps + 2
        data = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
        np.testing.assert_array_equal(data[:, 0], grid_100.times)
        np.testing.assert_array_equal(data[:, 1], path.observed[0])
        np.testing.assert_array_equal(data[:, 2], path.continuous[0])
        assert data[:, 3].sum() == path.jump_step.size

    def test_jump_flag_matches_ledger_steps(self):
        spec = JumpDiffusionSpec(drift=0.1, diffusion=1.3, jump_law=PoissonRate(rate=8.0),
                                 x0=1.0)
        batch = simulate_batch(spec, build_grid(1.0, 200), 79, 2, 6)
        counts = np.bincount(batch.jump_path, minlength=6)
        assert counts.max() >= 2
        for row in range(6):
            buf = io.StringIO()
            path_to_csv(batch, row, buf)
            flags = [int(line.rsplit(",", 1)[1])
                     for line in buf.getvalue().splitlines()[1:]]
            np.testing.assert_array_equal(np.flatnonzero(flags),
                                          batch.jump_step[batch.jump_path == row])
