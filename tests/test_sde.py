import hashlib
import io
import math

import numpy as np
import pytest

from jumprl import sde
from jumprl.errors import ConfigurationError, SimulationOverflowError
from jumprl.rng import path_rng, stream
from jumprl.sde import (JumpDiffusionSpec, NoJumps, PathWorkspace, PoissonRate,
                        SingleUniformJump, build_grid, doubling_jump_spec, path_to_csv,
                        sample_single_jump_time, simulate_batch)
from conftest import jump_ledger


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

    @pytest.mark.parametrize("horizon,n", [(0.0, 10), (-1.0, 10), (1.0, 1), (1.0, 0)])
    def test_rejects_bad_arguments(self, horizon, n):
        with pytest.raises(ConfigurationError):
            build_grid(horizon, n)

    @pytest.mark.parametrize("n, shown", [(10**300, "1e+300"), (math.inf, "inf")],
                             ids=["1e300", "inf"])
    def test_unallocatable_step_count_names_n_steps(self, n, shown):
        # both sizes are refused before anything is allocated
        with pytest.raises(ConfigurationError) as info:
            build_grid(1.0, n)
        assert f"n_steps = {shown} is too large to allocate a grid" in str(info.value)


class TestSingleJumpTime:
    def test_in_open_interval(self, rng):
        u = sample_single_jump_time(rng)
        assert 0.0 < u < 1.0

    def test_deterministic(self):
        a = sample_single_jump_time(path_rng(5, 0, 0))
        b = sample_single_jump_time(path_rng(5, 0, 0))
        assert a == b

    def test_mean_near_half(self):
        # law of large numbers oracle: sample mean of Uniform(0,1)
        rng = path_rng(17, 0, 0)
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
        np.testing.assert_allclose(path.observed[0, k:],
                                   path.continuous[0, k:] + pre_state,
                                   rtol=1e-12)
        assert path.observed[0, k] == pytest.approx(2 * pre_state, rel=1e-12)

    def test_degenerate_constant_path(self, grid_100):
        spec = JumpDiffusionSpec(drift=0.0, diffusion=0.0,
                                 jump_size=lambda t, x: x, jump_law=NoJumps(), x0=0.1)
        path = simulate_batch(spec, grid_100, 3, 0, 1)
        np.testing.assert_array_equal(path.observed[0], np.full(101, 0.1))

    def test_terminal_variance_of_brownian(self):
        # Var(W_1) = 1; oracle is the sample variance over seeded paths
        spec = JumpDiffusionSpec(drift=0.0, diffusion=1.0,
                                 jump_size=lambda t, x: x, jump_law=NoJumps(), x0=0.0)
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
        for spec in [
            JumpDiffusionSpec(drift=lambda t, x: x * 1e8, diffusion=lambda t, x: 0.0,
                              jump_size=lambda t, x: x, jump_law=NoJumps(), x0=1e300),
            JumpDiffusionSpec(drift=1e308, diffusion=0.0,
                              jump_size=lambda t, x: x, jump_law=NoJumps(), x0=1e308),
        ]:
            with np.errstate(over="ignore"), pytest.raises(SimulationOverflowError) as err:
                simulate_batch(spec, grid_100, 0, 0, 1)
            assert err.value.step_index >= 1

    def test_callable_coefficients_match_constants(self, grid_100):
        const = JumpDiffusionSpec(drift=0.3, diffusion=0.7,
                                  jump_size=lambda t, x: x,
                                  jump_law=SingleUniformJump(), x0=0.1)
        called = JumpDiffusionSpec(drift=lambda t, x: 0.3, diffusion=lambda t, x: 0.7,
                                   jump_size=lambda t, x: x,
                                   jump_law=SingleUniformJump(), x0=0.1)
        a = simulate_batch(const, grid_100, 21, 0, 1)
        b = simulate_batch(called, grid_100, 21, 0, 1)
        np.testing.assert_allclose(a.observed, b.observed, rtol=1e-12)

    @pytest.mark.parametrize("drift,sigma", [(0.0, 1.0), (0.3, 0.7), (-2.5, 1e-3)])
    def test_constant_recursion_matches_reference(self, drift, sigma):
        # reference: x0 + cumsum(b dt + sigma sqrt(dt) z) on stream (seed, e, p), then
        # the jump drawn from the same generator at its exact, off-grid time
        grid = build_grid(2.0, 137)
        spec = JumpDiffusionSpec(drift=drift, diffusion=sigma, jump_size=lambda t, x: t - x,
                                 jump_law=SingleUniformJump(), x0=0.4)
        for episode, p in [(0, 0), (3, 5), (7, 2**33 + 1)]:
            rng = stream(19, episode, p)
            z = rng.standard_normal(grid.n_steps)
            increments = drift * grid.dt + sigma * math.sqrt(grid.dt) * z
            continuous = np.concatenate([[spec.x0], spec.x0 + np.cumsum(increments)])
            jump_time = sample_single_jump_time(rng) * grid.horizon
            k = int(np.searchsorted(grid.times, jump_time))
            path = simulate_batch(spec, grid, 19, episode, 1, path_offset=p)
            np.testing.assert_array_equal(path.continuous[0], continuous)
            assert jump_ledger(path) == [
                (0, k, jump_time, continuous[k], jump_time - continuous[k])]
            assert jump_time != grid.times[k]
            observed = continuous.copy()
            observed[k:] += jump_time - continuous[k]
            np.testing.assert_array_equal(path.observed[0], observed)


class TestPathInvariants:
    def test_quadratic_variation_near_sigma2_t(self):
        # summed squared increments -> sigma^2 T for a continuous path
        sigma = 0.8
        spec = JumpDiffusionSpec(drift=0.0, diffusion=sigma,
                                 jump_size=lambda t, x: x, jump_law=NoJumps(), x0=0.0)
        grid = build_grid(1.0, 10_000)
        batch = simulate_batch(spec, grid, 23, 0, 50)
        qv = np.sum(np.diff(batch.observed, axis=1) ** 2, axis=1)
        assert abs(qv.mean() - sigma ** 2) < 0.05 * sigma ** 2

    def test_jump_ledger_reconstructs_observed(self, study_spec, grid_1000):
        path = simulate_batch(study_spec, grid_1000, 31, 0, 1)
        rebuilt = path.continuous[0].copy()
        for time, size in zip(path.jump_time, path.jump_size):
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
        spec = JumpDiffusionSpec(drift=0.0, diffusion=1.0,
                                 jump_size=lambda t, x: 1.0,
                                 jump_law=PoissonRate(rate=50.0), x0=0.0)
        with pytest.raises(ConfigurationError):
            simulate_batch(spec, grid_100, 0, 0, 1)

    def test_mean_jump_count(self):
        rate = 2.0
        spec = JumpDiffusionSpec(drift=0.0, diffusion=1.0,
                                 jump_size=lambda t, x: 1.0,
                                 jump_law=PoissonRate(rate=rate), x0=0.0)
        grid = build_grid(1.0, 500)
        batch = simulate_batch(spec, grid, 87, 0, 2000)
        mean_count = batch.jump_step.size / 2000
        assert abs(mean_count - rate) < 0.1


BATCH_ARRAYS = ("observed", "continuous", "pre_jump", "jump_path", "jump_step",
                "jump_time", "jump_pre", "jump_size")
# constant coefficients, callable coefficients (the looped branch), several jumps per row
BATCH_SPECS = [
    JumpDiffusionSpec(drift=0.3, diffusion=0.7, jump_size=lambda t, x: x,
                      jump_law=SingleUniformJump(), x0=0.2),
    JumpDiffusionSpec(drift=lambda t, x: -x, diffusion=lambda t, x: 0.5 + t,
                      jump_size=lambda t, x: 0.25, jump_law=SingleUniformJump(), x0=0.5),
    JumpDiffusionSpec(drift=0.1, diffusion=1.3, jump_size=lambda t, x: -0.5 * x,
                      jump_law=PoissonRate(rate=8.0), x0=1.0),
]


def assert_matches_sequential_reference(spec, grid, seed, episode, offset, n_paths):
    """Check a constant-coefficient Poisson batch against its rows built one
    at a time, and return each row's jump count.

    Reference: each row's normals, then its Bernoulli jump flags, from
    stream(seed, e, p); jumps applied one at a time as observed[k:] += size.
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
            t, pre = grid.times[k], observed[k]
            size = spec.jump_size(t, pre)
            observed[k:] += size
            ledger.append((i, k, t, pre, size))
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

    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=["constant", "callable", "poisson"])
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
        spec = JumpDiffusionSpec(drift=0.1, diffusion=1.3,
                                 jump_size=lambda t, x: t - 0.5 * x,
                                 jump_law=PoissonRate(rate=8.0), x0=1.0)
        counts = assert_matches_sequential_reference(spec, build_grid(1.0, 200), seed=83,
                                                     episode=4, offset=2**32 - 3, n_paths=6)
        assert (counts >= 2).sum() >= 2

    def test_constant_poisson_rows_with_zero_to_many_jumps_match_sequential_reference(self):
        # a round applies the r-th jump of every row with more than r jumps;
        # rows without any and rows with three or more must both come out as
        # the one-jump-at-a-time reference
        spec = JumpDiffusionSpec(drift=-0.2, diffusion=0.9,
                                 jump_size=lambda t, x: 0.5 - x * t,
                                 jump_law=PoissonRate(rate=2.0), x0=0.3)
        counts = assert_matches_sequential_reference(spec, build_grid(1.0, 100), seed=97,
                                                     episode=2, offset=0, n_paths=12)
        assert counts.min() == 0 and counts.max() >= 3

    def test_negative_zero_start_keeps_its_sign(self):
        # a jump writes only the columns from its step on, so x0 = -0.0 stays
        # -0.0 in column 0; adding a masked-out +0.0 there would make it +0.0
        spec = JumpDiffusionSpec(drift=0.0, diffusion=1.0, jump_size=lambda t, x: 1.0,
                                 jump_law=SingleUniformJump(), x0=-0.0)
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
    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=["constant", "callable", "poisson"])
    def test_path_rng_called_through_module_once_per_row(self, spec, monkeypatch):
        # the benchmark's tracer rebinds sde.path_rng and counts one stream per
        # call, so each row must call it through that global: a binding taken
        # when the module loads (an alias, a default argument) hides every row
        calls = []

        def counting(master_seed, episode, path, **kwargs):
            calls.append((master_seed, episode, path))
            return path_rng(master_seed, episode, path, **kwargs)

        monkeypatch.setattr(sde, "path_rng", counting)
        grid = build_grid(1.0, 200)
        for offset, n_paths in ((0, 5), (2**32 - 2, 4)):
            calls.clear()
            simulate_batch(spec, grid, 29, 3, n_paths, path_offset=offset)
            assert calls == [(29, 3, offset + i) for i in range(n_paths)]


class TestWorkspace:
    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=["constant", "callable", "poisson"])
    def test_batch_equals_fresh_batch_and_is_read_only(self, spec):
        grid, workspace = build_grid(1.0, 200), PathWorkspace()
        # a larger batch first, so the second uses the leading rows of dirty arrays
        simulate_batch(spec, grid, 3, 1, 9, workspace=workspace)
        got = simulate_batch(spec, grid, 2**40 + 3, 7, 6, path_offset=2**33, workspace=workspace)
        want = simulate_batch(spec, grid, 2**40 + 3, 7, 6, path_offset=2**33)
        for name in BATCH_ARRAYS:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            with pytest.raises(ValueError, match="read-only"):
                getattr(got, name)[0] = 0
        for name in ("z", "continuous", "observed", "pre_jump"):
            assert getattr(workspace, name).flags.writeable

    def test_fresh_batches_share_no_memory(self, study_spec, grid_100):
        first = simulate_batch(study_spec, grid_100, 5, 0, 4)
        second = simulate_batch(study_spec, grid_100, 5, 0, 4)
        for a in BATCH_ARRAYS:
            for b in BATCH_ARRAYS:
                assert not np.shares_memory(getattr(first, a), getattr(second, b))

    def test_buffers_reused_for_same_shape_and_replaced_on_shape_change(self, study_spec):
        workspace = PathWorkspace()

        def buffers():
            return [getattr(workspace, name)
                    for name in ("z", "continuous", "observed", "pre_jump")]

        simulate_batch(study_spec, build_grid(1.0, 100), 1, 0, 8, workspace=workspace)
        held = buffers()
        assert [b.shape for b in held] == [(8, 100)] + [(8, 101)] * 3
        batch = simulate_batch(study_spec, build_grid(1.0, 100), 2, 0, 8, workspace=workspace)
        assert all(now is before for now, before in zip(buffers(), held))
        assert np.shares_memory(batch.observed, workspace.observed)
        # fewer paths use the leading rows
        simulate_batch(study_spec, build_grid(1.0, 100), 3, 0, 5, workspace=workspace)
        assert all(now is before for now, before in zip(buffers(), held))
        for n_paths, n_steps in ((9, 100), (9, 50)):
            simulate_batch(study_spec, build_grid(1.0, n_steps), 4, 0, n_paths,
                           workspace=workspace)
            assert not any(np.shares_memory(now, before)
                           for now in buffers() for before in held)
            assert buffers()[0].shape == (n_paths, n_steps)
            held = buffers()

    def test_unallocatable_batch_names_n_paths_and_n_steps(self, study_spec, grid_100):
        # numpy refuses 2^60 rows without allocating anything
        for workspace in (None, PathWorkspace()):
            with pytest.raises(ConfigurationError, match=r"cannot allocate a batch of "
                               r"n_paths = 1152921504606846976 x n_steps = 100: "):
                simulate_batch(study_spec, grid_100, 1, 0, 2**60, workspace=workspace)


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
                                            jump_size=lambda t, x: 0.5 - x * t,
                                            jump_law=PoissonRate(rate=2.0), x0=0.3),
                          100, 97, 2, 12, 0),
    "no-jumps": (JumpDiffusionSpec(drift=0.3, diffusion=0.7, jump_size=lambda t, x: x,
                                   jump_law=NoJumps(), x0=0.2), 100, 13, 0, 8, 0),
    "callable-single": (BATCH_SPECS[1], 200, 2**40 + 3, 7, 6, 2**33),
    "callable-poisson": (JumpDiffusionSpec(drift=lambda t, x: 0.1 - x, diffusion=lambda t, x: 1.3,
                                           jump_size=lambda t, x: -0.5 * x,
                                           jump_law=PoissonRate(rate=8.0), x0=1.0),
                         200, 79, 2, 6, 0),
    "negative-zero-x0": (JumpDiffusionSpec(drift=0.0, diffusion=1.0, jump_size=lambda t, x: 1.0,
                                           jump_law=SingleUniformJump(), x0=-0.0),
                         50, 89, 0, 8, 0),
}


class TestPinnedBits:
    """Every array of these batches is pinned bit for bit while the random
    streams stay as they are; the digests were recorded with numpy 2.4 on x86-64."""

    DIGESTS = {
        "callable-poisson": "bcfee41c47939b23878accb1b3426bc75edf23e0c998e32bbbdae4be8ebf1a10",
        "callable-single": "8442d1ccebb17a33b33e14aea4fc58f67d859bbeab23556a2c81abf61c38be70",
        "doubling-128x1000-offset128":
            "7f23ee0ec5126a67663d73a76205602c730862212aaf37ca94d9ddba33b10247",
        "doubling-32x100": "cecba93455470da8942302d254d2fdb474c3ef356f4f8ab2091ebb5924f70843",
        "doubling-straddling-2^32":
            "7f1dbe25ce06fecbeb31c5e84c84b9ee4a04878f7c60f62dc61fed6e8c6514c0",
        "negative-zero-x0": "35b431cb92400ca0b3afa254c7c0450f45a065a10c0e34c1ececa46a1e18090b",
        "no-jumps": "9c6f498a527c729d2a1c2f3866fa235b0484a9d2538a7019518c5c1f65417e89",
        "poisson-0-to-many": "59320f531f084b56f7a905e776169ec790276a571407b0eb40a005c7de8b3b36",
    }

    @pytest.mark.parametrize("case", sorted(PINNED_BATCHES))
    def test_batch_arrays_match_recorded_digest(self, case):
        spec, n_steps, seed, episode, n_paths, offset = PINNED_BATCHES[case]
        grid = build_grid(1.0, n_steps)
        batch = simulate_batch(spec, grid, seed, episode, n_paths, path_offset=offset)
        assert batch_digest(batch) == self.DIGESTS[case]
        # the same bits from a workspace left dirty by a larger batch
        workspace = PathWorkspace()
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
        spec = JumpDiffusionSpec(drift=0.1, diffusion=1.3, jump_size=lambda t, x: -0.5 * x,
                                 jump_law=PoissonRate(rate=8.0), x0=1.0)
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
