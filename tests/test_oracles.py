import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from jumprl import oracles
from jumprl.errors import ConfigurationError, NonConvexError
from jumprl.models import CustomValue, ExponentialValue, LinearValue, QuadraticValue
from jumprl.oracles import (QuadraticObjective, _decay_moment, _thread_workspace,
                            argmin_quadratic, closed_form_objective, golden_section_min,
                            mc_argmin, mc_objective_samples, reference_minimizers)
from jumprl.sde import (JumpDiffusionSpec, NoJumps, SingleUniformJump, build_grid,
                        doubling_jump_spec, simulate_batch)
from conftest import (BATCH_ARRAYS, assert_same_bits, batch_buffers,
                      exponential_quadratic_by_gauss_legendre, left_limits)


class TestArgminQuadratic:
    def test_linear_family_minimizer(self):
        assert argmin_quadratic(QuadraticObjective(1 / 3, 1.0, 1.0)) == pytest.approx(-1.5)

    def test_linear_family_jump_biased_minimizer(self):
        obj = QuadraticObjective(21 / 50, 403 / 300, 151 / 100)
        assert argmin_quadratic(obj) == pytest.approx(-403 / 252, rel=1e-12)

    def test_symmetric(self):
        assert argmin_quadratic(QuadraticObjective(1.0, 0.0, 5.0)) == 0.0

    def test_rejects_nonconvex(self):
        with pytest.raises(NonConvexError):
            argmin_quadratic(QuadraticObjective(0.0, 1.0, 0.0))
        with pytest.raises(NonConvexError):
            argmin_quadratic(QuadraticObjective(-2.0, 1.0, 0.0))


class TestDecayMoment:
    @pytest.mark.parametrize("c", [0.5, 2.0, 4.5, 8.0])
    @pytest.mark.parametrize("p", range(4))
    def test_recurrence_against_gauss_legendre(self, p, c):
        # the recurrence subtracts 1 and divides by c at each step; at the
        # smallest c it must not lose digits to cancellation
        x, w = np.polynomial.legendre.leggauss(64)
        u = (x + 1.0) / 2.0
        expected = float(w / 2.0 @ ((1.0 - u) ** p * np.exp(c * u)))
        assert _decay_moment(p, c) == pytest.approx(expected, rel=1e-13, abs=0.0)


class TestClosedFormObjectives:
    def test_exponential_oracle_ratio(self):
        # -0.901 printed; test_exponential_cells_match_gauss_legendre checks
        # the coefficients against an independent rule
        obj = closed_form_objective("exponential", "oracle")
        assert argmin_quadratic(obj) == pytest.approx(-0.901233, abs=5e-5)

    def test_exponential_continuous_coefficients_match_printed(self):
        obj = closed_form_objective("exponential", "msbve")
        assert obj.a == pytest.approx(3.190451, abs=1e-4)
        assert obj.b == pytest.approx(1.657057, abs=1e-4)
        assert argmin_quadratic(obj) == pytest.approx(-0.260, abs=1e-3)

    def test_exponential_jump_objective_honest_values(self):
        # Closed form of the published jump-term integrands. The printed
        # constants 7.607 / 2.965 / 1.505 do not follow from those integrands;
        # the values below agree with a Gauss-Legendre rule over
        # E[(theta (1-u)(e^{2W+0.2} - e^{W+0.1}) + W + 0.1)^2].
        obj = closed_form_objective("exponential", "mstde")
        assert obj.a == pytest.approx(16.64442, abs=2e-4)
        assert obj.b == pytest.approx(3.76043, abs=2e-4)
        assert obj.c == pytest.approx(1.51, abs=1e-9)
        assert argmin_quadratic(obj) == pytest.approx(-0.112964, abs=1e-4)

    @pytest.mark.parametrize("method", ["mstde", "msbve", "oracle"])
    def test_exponential_cells_match_gauss_legendre(self, method):
        obj = closed_form_objective("exponential", method)
        a, b = exponential_quadratic_by_gauss_legendre(method)
        assert obj.a == pytest.approx(a, rel=1e-12, abs=0.0)
        assert obj.b == pytest.approx(b, rel=1e-12, abs=0.0)

    def test_jump_constant_matches_linear_family_value(self):
        # the same expectation E[(W_u + 0.1)^2] integrates to 0.51 in both
        # the linear and the exponential derivations
        linear_c = closed_form_objective("linear", "mstde").c
        exp_c = closed_form_objective("exponential", "mstde").c
        assert linear_c - 1.0 == pytest.approx(0.51, abs=1e-12)
        assert exp_c - 1.0 == pytest.approx(0.51, abs=1e-9)


class TestReferenceMinimizers:
    def test_all_nine_cells_present(self):
        table = reference_minimizers()
        assert len(table.entries) == 9

    def test_linear_cells(self):
        table = reference_minimizers()
        assert table.get("linear", "msbve") == pytest.approx(-1.5)
        assert table.get("linear", "mstde") == pytest.approx(-403 / 252, rel=1e-12)
        assert table.get("linear", "oracle") == pytest.approx(-1.5)

    def test_quadratic_cells(self):
        table = reference_minimizers()
        assert table.get("quadratic", "msbve") == pytest.approx(-40 / 167, rel=1e-12)
        assert table.get("quadratic", "mstde") == pytest.approx(-8545 / 45059, rel=1e-12)
        assert table.get("quadratic", "oracle") == pytest.approx(-15 / 52, rel=1e-12)

    def test_exponential_cells(self):
        table = reference_minimizers()
        assert table.get("exponential", "msbve") == pytest.approx(-0.260, abs=1e-3)
        assert table.get("exponential", "oracle") == pytest.approx(-0.901, abs=1e-3)
        assert table.get("exponential", "mstde") == pytest.approx(-0.112964, abs=1e-4)

    def test_bias_ordering_msbve_closer_than_mstde(self):
        table = reference_minimizers()
        for family in ("quadratic", "exponential"):
            oracle = table.get(family, "oracle")
            gap_msbve = abs(table.get(family, "msbve") - oracle)
            gap_mstde = abs(table.get(family, "mstde") - oracle)
            assert gap_msbve < gap_mstde
        assert table.get("linear", "msbve") == table.get("linear", "oracle")

    def test_quadratic_bias_magnitudes(self):
        table = reference_minimizers()
        oracle = table.get("quadratic", "oracle")
        assert abs(table.get("quadratic", "msbve") - oracle) == pytest.approx(0.0489, abs=5e-4)
        assert abs(table.get("quadratic", "mstde") - oracle) == pytest.approx(0.0988, abs=5e-4)

    def test_rational_cells_recoverable_from_polynomial_integrals(self):
        # the jump additions to the linear-family objective are polynomial
        # moments of the uniform jump time; re-derive them by exact integration
        one_minus_u = Polynomial([1.0, -1.0])
        jump_var = Polynomial([0.01, 1.0])
        a_jump = (one_minus_u ** 2 * jump_var).integ(lbnd=0.0)(1.0)
        b_jump = (2 * one_minus_u * jump_var).integ(lbnd=0.0)(1.0)
        assert 1 / 3 + a_jump == pytest.approx(21 / 50, abs=1e-12)
        assert 1.0 + b_jump == pytest.approx(403 / 300, abs=1e-12)

    def test_json_shape(self):
        doc = reference_minimizers().to_json_dict()
        assert set(doc) == {"linear", "quadratic", "exponential"}
        assert set(doc["linear"]) == {"mstde", "msbve", "oracle"}


class TestMcObjectives:
    def test_linear_no_jump_matches_integral(self, grid_1000):
        # deterministic integrand: one path suffices; left Riemann sum of
        # (theta (1-t) + 1)^2 over [0, 1]
        spec = JumpDiffusionSpec(drift=0.0, diffusion=1.0, jump_law=NoJumps(), x0=0.0)
        got = np.mean(mc_objective_samples(LinearValue(), -1.5, spec, grid_1000, 1, seed=0))
        assert got == pytest.approx(0.25, abs=1e-3)

    def test_quadratic_theta_zero_is_one(self, study_spec, grid_1000):
        # gradient reduces to the constant 1, so the Riemann sum is exactly T
        got = np.mean(mc_objective_samples(QuadraticValue(), 0.0, study_spec, grid_1000, 4,
                                           seed=1))
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_linear_with_jump_term_matches_closed_form(self, study_spec, grid_1000):
        theta = -1.5
        samples = mc_objective_samples(LinearValue(), theta, study_spec, grid_1000,
                                       10_000, seed=97, include_jump_term=True)
        expected = closed_form_objective("linear", "mstde")(theta)
        stderr = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - expected) < 2 * stderr + 2e-3

    def test_oracle_equals_limit_without_jumps(self, grid_100):
        spec = JumpDiffusionSpec(drift=0.0, diffusion=1.0, jump_law=NoJumps(), x0=0.1)
        a = np.mean(mc_objective_samples(QuadraticValue(), 0.3, spec, grid_100, 64, seed=5))
        b = np.mean(mc_objective_samples(QuadraticValue(), 0.3, spec, grid_100, 64, seed=5,
                                         state="continuous"))
        assert a == b

    def test_linear_oracle_equals_limit_with_jumps(self, study_spec, grid_100):
        # the linear family's state gradient is x-free
        a = np.mean(mc_objective_samples(LinearValue(), -0.7, study_spec, grid_100, 64,
                                         seed=6))
        b = np.mean(mc_objective_samples(LinearValue(), -0.7, study_spec, grid_100, 64,
                                         seed=6, state="continuous"))
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_rejects_empty_ensemble(self, study_spec, grid_100, n_paths):
        with pytest.raises(ConfigurationError, match=f"n_paths must be >= 1, got {n_paths}"):
            mc_objective_samples(LinearValue(), -1.0, study_spec, grid_100, n_paths, seed=9)

    def test_unknown_state_names_both_states(self, study_spec, grid_100):
        # a misspelled state used to give the continuous flavor's values
        with pytest.raises(ConfigurationError) as info:
            mc_objective_samples(LinearValue(), -1.0, study_spec, grid_100, 4, seed=9,
                                 state="pre_jmp")
        assert str(info.value) == ("state must be one of ('pre_jump', 'continuous'), "
                                   "got 'pre_jmp'")

    def test_unknown_method_names_the_methods(self, study_spec, grid_100):
        with pytest.raises(ConfigurationError) as info:
            mc_argmin(LinearValue(), "mstd", study_spec, grid_100, 4, seed=9)
        assert str(info.value) == ("method must be one of ('mstde', 'msbve', 'oracle'), "
                                   "got 'mstd'")

    def test_chunk_independence(self, monkeypatch, study_spec, grid_100):
        monkeypatch.setattr(oracles, "CHUNK_PATHS", 17)
        small = mc_objective_samples(LinearValue(), -1.0, study_spec, grid_100, 100, seed=9)
        monkeypatch.setattr(oracles, "CHUNK_PATHS", 100)
        big = mc_objective_samples(LinearValue(), -1.0, study_spec, grid_100, 100, seed=9)
        np.testing.assert_array_equal(small, big)


# the model each method flavor's pass runs on: linear, the oracle's continuous
# states, and quadratic with the jump term
PASSES = {"msbve": LinearValue(), "oracle": QuadraticValue(), "mstde": QuadraticValue()}


class TestManyThetas:
    """One pass evaluates several thetas on one ensemble, as one call per theta would."""

    THETAS = [-1.5, -0.3, 0.0, 0.5]

    @pytest.mark.parametrize("method", sorted(PASSES))
    def test_rows_equal_single_theta_calls(self, monkeypatch, study_spec, grid_100, method):
        model, (state, jump_term) = PASSES[method], oracles.METHOD_FLAVORS[method]
        monkeypatch.setattr(oracles, "CHUNK_PATHS", 16)  # three chunks, the last short
        many = mc_objective_samples(model, self.THETAS, study_spec, grid_100, 40, seed=8,
                                    state=state, include_jump_term=jump_term)
        for row, theta in zip(many, self.THETAS):
            one = mc_objective_samples(model, theta, study_spec, grid_100, 40, seed=8,
                                       state=state, include_jump_term=jump_term)
            np.testing.assert_array_equal(row, one)

    @pytest.mark.parametrize("theta, shape", [(-1.0, (12,)), (np.float64(0.5), (12,)),
                                              ([0.5], (1, 12)), ([-1.0, 0.0, 0.5], (3, 12)),
                                              (np.linspace(-1, 1, 5), (5, 12))])
    def test_shape_is_theta_shape_then_paths(self, study_spec, grid_100, theta, shape):
        got = mc_objective_samples(LinearValue(), theta, study_spec, grid_100, 12, seed=2)
        assert got.shape == shape

    @pytest.mark.parametrize("method", sorted(PASSES))
    def test_means_do_not_depend_on_chunk_size(self, monkeypatch, study_spec, grid_100,
                                               method):
        # every mean is taken over all paths at once, so the chunk size, 7
        # against one chunk for the whole ensemble, changes no bit
        model, (state, jump_term) = PASSES[method], oracles.METHOD_FLAVORS[method]
        thetas = np.linspace(-3.0, 1.0, 41)
        means, argmins = [], []
        for chunk in (7, 2048):
            monkeypatch.setattr(oracles, "CHUNK_PATHS", chunk)
            means.append(np.mean(mc_objective_samples(
                model, thetas, study_spec, grid_100, 100, seed=20, state=state,
                include_jump_term=jump_term), axis=1))
            argmins.append(mc_argmin(model, method, study_spec, grid_100, 100, seed=20))
        np.testing.assert_array_equal(means[0], means[1])
        assert argmins[0].hex() == argmins[1].hex()


class TestWorkspaceReuse:
    """The chunk pass simulates into this thread's workspace; results stay fresh."""

    def test_results_share_no_memory(self, monkeypatch, study_spec, grid_100):
        monkeypatch.setattr(oracles, "CHUNK_PATHS", 16)
        results = [
            mc_objective_samples(QuadraticValue(), -0.3, study_spec, grid_100, 40, seed=3,
                                 include_jump_term=True),
            mc_objective_samples(QuadraticValue(), -0.3, study_spec, grid_100, 40, seed=3,
                                 include_jump_term=True),
            mc_objective_samples(LinearValue(), [-1.0, 0.5], study_spec, grid_100, 40, seed=3),
            mc_objective_samples(LinearValue(), [-1.0, 0.5], study_spec, grid_100, 40, seed=3),
        ]
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[2], results[3])
        held = batch_buffers(_thread_workspace(), 16, grid_100.n_steps)
        for i, result in enumerate(results):
            assert not any(np.shares_memory(result, other) for other in results[i + 1:])
            assert not any(np.shares_memory(result, array) for array in held)

    @pytest.mark.parametrize("state", ["pre_jump", "continuous"])
    def test_model_returning_its_input(self, monkeypatch, study_spec, grid_100, state):
        # dvalue_dx returns the states array itself; the pass must form the
        # squared terms elsewhere, leave the batch as simulated and give
        # sum((dJ/dx sigma)^2) dt over left endpoints
        identity = CustomValue(value_fn=lambda theta, t, x: x, dx_fn=lambda theta, t, x: x)
        monkeypatch.setattr(oracles, "CHUNK_PATHS", 5)
        got = mc_objective_samples(identity, 0.0, study_spec, grid_100, 12, seed=21,
                                   state=state)
        batches = [simulate_batch(study_spec, grid_100, 21, 0, hi - lo, path_offset=lo)
                   for lo, hi in ((0, 5), (5, 10), (10, 12))]
        left = np.vstack([left_limits(b) if state == "pre_jump" else b.continuous[:, :-1]
                          for b in batches])
        prod = left * 1.0  # sigma = 1
        np.testing.assert_array_equal(got, np.sum(prod * prod, axis=1) * grid_100.dt)
        for name in ("observed", "continuous"):
            last = _thread_workspace().take(name, (2, grid_100.n_steps + 1))
            np.testing.assert_array_equal(last, getattr(batches[-1], name))


class TestLeftLimits:
    """The pre_jump flavor evaluates dJ/dx at the left limits X(t_i-)."""

    @pytest.mark.parametrize("spec, n_steps", [
        (doubling_jump_spec(), 2), (doubling_jump_spec(), 100),
        (JumpDiffusionSpec(drift=0.0, diffusion=1.0, jump_law=SingleUniformJump(), x0=-0.0), 50),
        (JumpDiffusionSpec(drift=-0.0, diffusion=0.0, jump_law=SingleUniformJump(), x0=-0.0), 3),
    ], ids=["study-2-steps", "study-100-steps", "negative-zero-x0", "signed-zeros"])
    def test_pre_jump_flavor_reads_the_left_limits(self, monkeypatch, spec, n_steps):
        # the states handed to dvalue_dx are the left limits built by hand from
        # observed, continuous and jump_step, bit for bit and signed zeros
        # included, on every chunk
        seen = []
        spy = CustomValue(value_fn=lambda theta, t, x: x,
                          dx_fn=lambda theta, t, x: seen.append(np.array(x)) or x)
        monkeypatch.setattr(oracles, "CHUNK_PATHS", 5)
        grid = build_grid(1.0, n_steps)
        got = mc_objective_samples(spy, 0.0, spec, grid, 12, seed=21)
        batches = [simulate_batch(spec, grid, 21, 0, hi - lo, path_offset=lo)
                   for lo, hi in ((0, 5), (5, 10), (10, 12))]
        want = np.vstack([left_limits(b) for b in batches])
        assert_same_bits(np.vstack(seen), want)
        prod = want * spec.diffusion
        np.testing.assert_array_equal(got, np.sum(prod * prod, axis=1) * grid.dt)
        if n_steps == 2:
            steps = np.concatenate([b.jump_step for b in batches])
            assert (steps == 2).any() and (steps < 2).any()


class TestThreadDeterminism:
    """Results do not depend on JUMPRL_THREADS when chunks run in parallel."""

    def test_samples_same_with_two_threads(self, monkeypatch, study_spec, grid_100):
        monkeypatch.setattr(oracles, "CHUNK_PATHS", 7)

        def run():
            return mc_objective_samples(QuadraticValue(), -0.3, study_spec, grid_100, 40,
                                        seed=13, include_jump_term=True)

        monkeypatch.delenv("JUMPRL_THREADS", raising=False)
        sequential = run()
        monkeypatch.setenv("JUMPRL_THREADS", "2")
        np.testing.assert_array_equal(run(), sequential)

    def test_grid_same_with_two_threads(self, monkeypatch, study_spec, grid_100):
        # a theta grid on one ensemble, each chunk on a worker
        monkeypatch.setattr(oracles, "CHUNK_PATHS", 9)

        def run():
            return mc_objective_samples(LinearValue(), [-1.5, 0.0, 0.5], study_spec,
                                        grid_100, 40, seed=13, state="continuous")

        monkeypatch.delenv("JUMPRL_THREADS", raising=False)
        sequential = run()
        monkeypatch.setenv("JUMPRL_THREADS", "2")
        np.testing.assert_array_equal(run(), sequential)


    def test_workers_keep_their_own_workspaces(self, monkeypatch, study_spec, grid_100):
        # more workers than cores, switching often: a workspace shared between
        # threads would let one chunk's batch overwrite another's
        monkeypatch.setattr(oracles, "CHUNK_PATHS", 8)

        def run():
            return mc_objective_samples(QuadraticValue(), -0.3, study_spec, grid_100, 480,
                                        seed=17, include_jump_term=True)

        monkeypatch.delenv("JUMPRL_THREADS", raising=False)
        sequential = run()
        monkeypatch.setenv("JUMPRL_THREADS", "4")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            concurrent = run()
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(concurrent, sequential)

    def test_concurrent_batches_match_sequential(self, study_spec, grid_100):
        # each thread re-points its own generator, so two threads simulating
        # at once, switching often, give the sequential arrays
        args = [(study_spec, grid_100, 97, episode, 16) for episode in range(40)]
        sequential = [simulate_batch(*a) for a in args]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                concurrent = list(pool.map(lambda a: simulate_batch(*a), args, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(sequential, concurrent):
            for name in BATCH_ARRAYS:
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


class TestExponentialScanAgreement:
    def test_mc_scan_tracks_quadrature_cells(self, study_spec):
        # independent Monte-Carlo route to the exponential-family minimizers.
        # The jump-inclusive (mstde) cell is heavy-tailed, hence its looser
        # tolerance: its value jumps scale like e^{2X}, and 0.1% of the paths
        # carry 55% of its sample sum, so estimates at practical path counts
        # scatter below the exact argmin. The finite-step bias is small by
        # comparison: 7e-5 at 1000 steps.
        grid = build_grid(1.0, 1000)
        quadrature = reference_minimizers()
        est = mc_argmin(ExponentialValue(), "msbve", study_spec, grid, 20_000,
                        seed=31415, lo=-1.5, hi=0.5)
        assert abs(est - quadrature.get("exponential", "msbve")) < 0.02
        est = mc_argmin(ExponentialValue(), "mstde", study_spec, grid, 20_000,
                        seed=31415, lo=-1.5, hi=0.5)
        assert abs(est - quadrature.get("exponential", "mstde")) < 0.045


class TestGoldenSection:
    def test_parabola(self):
        got = golden_section_min(lambda x: (x - 0.3) ** 2, -2.0, 2.0, tol=1e-8)
        assert got == pytest.approx(0.3, abs=1e-6)

    def test_shifted_quartic(self):
        # the quartic's flat bottom limits attainable resolution near 2 + eps
        got = golden_section_min(lambda x: (x + 1.2) ** 4 + 2, -3.0, 3.0, tol=1e-8)
        assert got == pytest.approx(-1.2, abs=1e-3)
