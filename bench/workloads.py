"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed, runs one operation
per call to `run` (a public jumprl call plus rendering its report the way the
CLI does), checks each operation's output, and states the exact per-layer
call counts a traced pass over `n_ops` operations must record.

Operation k uses cell k mod len(cells), so a run made of whole cycles always
has the same mix of cells. A traced run makes one cycle of op pairs
(untraced, traced) per TRACE_CYCLE_S seconds of --seconds, at least one.
"""

from __future__ import annotations

import math

import numpy as np

from jumprl import estimators, oracles, portfolio, serialize
from jumprl.models import ExponentialValue, LinearValue, QuadraticValue
from jumprl.portfolio import BacktestConfig, synthetic_gbm_jump_series
from jumprl.sde import build_grid, doubling_jump_spec

FAMILIES = {"linear": LinearValue(), "quadratic": QuadraticValue(),
            "exponential": ExponentialValue()}


def derived_seed(seed: int, *key: int) -> int:
    """A library seed for input `key` of the run seeded with `seed`."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def zero_counts() -> dict:
    return {"rng.streams": 0, "sde.batches": 0, "sde.paths": 0, "models.calls": 0,
            "estimators.kernel_calls": 0, "oracles.passes": 0,
            "portfolio.grad_steps": 0, "portfolio.bipower_calls": 0}


class TrainDesk:
    """`train()` over the six cells of acceptance criteria 1-3."""

    name = "train_desk"
    rate_name = "episodes_per_s"
    unit = "episodes"
    TRACE_CYCLE_S = 10.0
    EPISODES = 200
    PATHS = 32
    STEPS = 100
    ALPHA = 5e-4
    THETA0 = 0.5
    EXP_GRAD_CLIP = 25.0

    def __init__(self, seed: int, table):
        self.seed = seed
        self.table = table
        self.spec = doubling_jump_spec()
        self.grid = build_grid(1.0, self.STEPS)
        self.cells = [(family, loss) for family in ("linear", "quadratic", "exponential")
                      for loss in ("msbve", "mstde")]
        self.units_per_op = self.EPISODES

    def inputs(self, k: int):
        family, loss = self.cells[k % len(self.cells)]
        config = estimators.TrainConfig(
            loss_kind=loss, learning_rate=self.ALPHA, episodes=self.EPISODES,
            paths_per_episode=self.PATHS, theta0=self.THETA0,
            master_seed=derived_seed(self.seed, k),
            grad_clip=self.EXP_GRAD_CLIP if family == "exponential" else None)
        return family, loss, config

    def run(self, inp):
        family, _, config = inp
        result = estimators.train(FAMILIES[family], self.spec, self.grid, config)
        return result, serialize.dump_json(result.to_json_dict())

    def check(self, inp, result):
        family, loss, _ = inp
        theta = result.theta_final
        ref = self.table.get(family, loss)
        numbers = {"theta_final": theta, "reference": ref}
        problems = []
        if not math.isfinite(theta):
            problems.append("theta_final is not finite")
        elif not abs(theta - ref) < abs(self.THETA0 - ref):
            problems.append(f"theta_final {theta!r} is not closer than theta0 to {ref!r}")
        return numbers, problems

    def expected_counts(self, n_ops: int) -> dict:
        episodes = n_ops * self.EPISODES
        counts = zero_counts()
        counts.update({
            "rng.streams": episodes * self.PATHS,   # one stream per simulated path
            "sde.batches": episodes,                # one batch per episode
            "sde.paths": episodes * self.PATHS,
            "models.calls": episodes * 2,           # value and dvalue_dtheta
            "estimators.kernel_calls": episodes * 2,  # grads_by_row and losses_by_row
        })
        return counts


class MCScan:
    """`mc_argmin` over the six linear/quadratic cells of criterion 4."""

    name = "mc_scan"
    rate_name = "argmins_per_s"
    unit = "argmins"
    TRACE_CYCLE_S = 5.0
    N_PATHS = 128
    STEPS = 1000
    LO, HI, N_COARSE, TOL = -3.0, 1.0, 41, 1e-3
    BAND = 0.03   # acceptance criterion 4
    SE_MULTIPLE = 5.0
    CHECK_THETAS = (-1.0, 0.0, 1.0)

    def __init__(self, seed: int, table):
        self.seed = seed
        self.table = table
        self.spec = doubling_jump_spec()
        self.grid = build_grid(1.0, self.STEPS)
        self.cells = [(family, method) for family in ("linear", "quadratic")
                      for method in ("mstde", "msbve", "oracle")]
        self.units_per_op = 1
        self._ensemble = {}

    def inputs(self, k: int):
        # one path ensemble per cell and run: later cycles repeat the same
        # inputs, so each cell's check is computed once
        cell = k % len(self.cells)
        return (*self.cells[cell], derived_seed(self.seed, cell))

    def run(self, inp):
        family, method, mc_seed = inp
        estimate = oracles.mc_argmin(FAMILIES[family], method, self.spec, self.grid,
                                     self.N_PATHS, mc_seed, lo=self.LO, hi=self.HI,
                                     n_coarse=self.N_COARSE, tol=self.TOL)
        report = {"family": family, "method": method, "n_paths": self.N_PATHS,
                  "seed": mc_seed, "estimate": estimate}
        return estimate, serialize.dump_json(report)

    def ensemble_argmin(self, family, method, mc_seed):
        """Exact argmin of the same Monte-Carlo objective, and its standard error.

        For the linear and quadratic families each path's objective is an
        exact quadratic in theta, so three evaluations per path give its
        coefficients; the argmin of the path mean is -B / 2A, with the
        delta-method standard error over paths.
        """
        state, jump_term = oracles.METHOD_FLAVORS[method]
        lo, mid, hi = (oracles.mc_objective_samples(
            FAMILIES[family], theta, self.spec, self.grid, self.N_PATHS, mc_seed,
            state=state, include_jump_term=jump_term) for theta in self.CHECK_THETAS)
        a = 0.5 * (hi + lo) - mid
        b = 0.5 * (hi - lo)
        big_a, big_b = float(np.mean(a)), float(np.mean(b))
        argmin = -big_b / (2.0 * big_a)
        se = float(np.std(b + 2.0 * argmin * a, ddof=1)) / (2.0 * big_a * math.sqrt(a.size))
        return argmin, se

    def check(self, inp, estimate):
        family, method, mc_seed = inp
        estimate = float(estimate)
        ref = self.table.get(family, method)
        if inp not in self._ensemble:
            self._ensemble[inp] = self.ensemble_argmin(family, method, mc_seed)
        exact, se = self._ensemble[inp]
        numbers = {"estimate": estimate, "ensemble_argmin": exact, "se": se,
                   "reference": ref}
        problems = []
        if not math.isfinite(estimate):
            problems.append("estimate is not finite")
        elif abs(estimate - exact) > self.TOL:
            problems.append(f"estimate {estimate!r} misses the ensemble argmin "
                            f"{exact!r} by more than {self.TOL}")
        elif abs(estimate - ref) > self.BAND + self.SE_MULTIPLE * se:
            problems.append(f"estimate {estimate!r} is outside {ref!r} +- "
                            f"({self.BAND} + {self.SE_MULTIPLE} SE {se:.4g})")
        return numbers, problems

    def golden_evaluations(self) -> int:
        """Objective passes of the golden-section refinement inside one bracket."""
        width = 2.0 * (self.HI - self.LO) / (self.N_COARSE - 1)
        steps = 0
        while width >= self.TOL:
            width *= (math.sqrt(5.0) - 1.0) / 2.0
            steps += 1
        return 2 + steps

    def expected_counts(self, n_ops: int) -> dict:
        golden = self.golden_evaluations()
        passes = 1 + golden   # one coarse grid pass, then one pass per golden point
        counts = zero_counts()
        per_pass_models = {"mstde": 3, "msbve": 1, "oracle": 1}  # dvalue_dx (+ 2 value)
        models = 0
        for k in range(n_ops):
            _, method = self.cells[k % len(self.cells)]
            models += (self.N_COARSE + golden) * per_pass_models[method]
        # N_PATHS fits one 2048-path chunk, so each pass simulates one batch
        counts.update({
            "rng.streams": n_ops * passes * self.N_PATHS,
            "sde.batches": n_ops * passes,
            "sde.paths": n_ops * passes * self.N_PATHS,
            "models.calls": models,
            "oracles.passes": n_ops * passes,
        })
        return counts


class BacktestRolling:
    """`rolling_backtest` over the four CLI cells at the CLI defaults."""

    name = "backtest_rolling"
    rate_name = "test_days_per_s"
    unit = "test days"
    TRACE_CYCLE_S = 10.0
    TRAIN_DAYS = 126
    TEST_DAYS = 20
    BARS = 79
    ALPHA = 50.0
    STEPS_PER_DAY = 20
    THETA0 = 1.0
    Z = 1.01

    def __init__(self, seed: int, table):
        self.seed = seed
        self.table = table
        self.series = synthetic_gbm_jump_series(self.TRAIN_DAYS + self.TEST_DAYS,
                                                bars_per_day=self.BARS,
                                                seed=derived_seed(seed, 0))
        learning = estimators.TrainConfig(
            loss_kind="msbve", learning_rate=self.ALPHA, episodes=self.STEPS_PER_DAY,
            paths_per_episode=1, theta0=self.THETA0, master_seed=0)
        self.configs = {mode: BacktestConfig(
            learning=learning, train_days=self.TRAIN_DAYS, steps_per_day=self.BARS,
            target_wealth=self.Z, initial_wealth=1.0, risk_free_daily=0.0,
            threshold_mode=mode) for mode in ("raw", "thresholded")}
        self.cells = [(loss, mode) for loss in ("mstde", "msbve")
                      for mode in ("raw", "thresholded")]
        self.units_per_op = self.TEST_DAYS

    def inputs(self, k: int):
        return self.cells[k % len(self.cells)]

    def run(self, inp):
        loss, mode = inp
        result = portfolio.rolling_backtest(self.series, self.configs[mode], loss)
        report = {"cells": {f"{loss}_{mode}": result.to_json_dict()}}
        return result, serialize.dump_json(report)

    def check(self, inp, result):
        config = self.configs[inp[1]]
        ratio = result.sharpe_annualized
        numbers = {"sharpe": ratio, "theta_min": min(result.theta_per_day, default=None),
                   "theta_max": max(result.theta_per_day, default=None)}
        problems = []
        if result.degenerate or ratio is None or not math.isfinite(ratio):
            problems.append(f"Sharpe ratio {ratio!r} is degenerate or not finite")
        if len(result.theta_per_day) != self.TEST_DAYS:
            problems.append(f"{len(result.theta_per_day)} test days, "
                            f"expected {self.TEST_DAYS}")
        # the risk bounds clamp |theta| and keep its sign
        outside = [t for t in result.theta_per_day
                   if not config.theta_min <= abs(t) <= config.theta_max]
        if outside:
            problems.append(f"{len(outside)} |theta| outside "
                            f"[{config.theta_min}, {config.theta_max}]: {outside[:3]}")
        return numbers, problems

    def expected_counts(self, n_ops: int) -> dict:
        days = n_ops * self.TEST_DAYS
        steps = days * self.STEPS_PER_DAY
        counts = zero_counts()
        counts.update({
            "models.calls": steps * 2,            # value and dvalue_dtheta per step
            "estimators.kernel_calls": steps,     # grads_by_row per step
            "portfolio.grad_steps": steps,
            # bipower of every window row, on prices and then on log returns
            "portfolio.bipower_calls": days * 2 * self.TRAIN_DAYS,
        })
        return counts


WORKLOADS = {cls.name: cls for cls in (TrainDesk, MCScan, BacktestRolling)}
