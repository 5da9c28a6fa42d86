"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines and timings. Two reference values printed with the paper do not
follow from their own definitions: the exponential-family mstde coefficients
in criterion 3 and the 2% bipower-shift bound in criterion 5. Those clauses
check values derived here by plain reckoning instead, and the report lines
still show the printed ones. The README section "Printed values that do not
reproduce" lists each printed value beside its derived value.
"""

import math
import time

import numpy as np
import pytest

from jumprl.estimators import (TrainConfig, jump_robustness_ratio, msbve_grad,
                               msbve_loss, mstde_grad, mstde_loss, train)
from jumprl.models import (ExponentialValue, LinearValue, MeanVarianceValue,
                           QuadraticValue, path_values, target_anchor)
from jumprl.oracles import closed_form_objective, mc_argmin, reference_minimizers
from jumprl.portfolio import (BacktestConfig, bipower_sigma2, rolling_backtest,
                              synthetic_gbm_jump_series, threshold_series)
from jumprl.rng import stream
from jumprl.sde import (JumpDiffusionSpec, NoJumps, build_grid, doubling_jump_spec,
                        simulate_batch, simulate_seeded)
from conftest import exponential_quadratic_by_gauss_legendre, synthetic_path

DESK_GRID = build_grid(1.0, 100)
STUDY_SPEC = doubling_jump_spec()


def report(number, name, ok, detail=""):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} {detail}")


def desk_train(model, loss_kind, grad_clip=None, seed=20240101):
    config = TrainConfig(loss_kind=loss_kind, learning_rate=0.0005, episodes=20000,
                         paths_per_episode=32, theta0=0.5, master_seed=seed,
                         record_every=1000, grad_clip=grad_clip)
    start = time.perf_counter()
    result = train(model, STUDY_SPEC, DESK_GRID, config)
    return result, time.perf_counter() - start


def test_criterion_1_linear_convergence():
    """Desk-scale SGD reaches the linear-family limits within +-0.1."""
    msbve, t1 = desk_train(LinearValue(), "msbve")
    mstde, t2 = desk_train(LinearValue(), "mstde")
    gap_b = abs(msbve.theta_final - (-1.5))
    gap_t = abs(mstde.theta_final - (-403 / 252))
    ok = gap_b < 0.1 and gap_t < 0.1
    report(1, "linear convergence", ok,
           f"msbve {msbve.theta_final:+.4f} (gap {gap_b:.4f}), "
           f"mstde {mstde.theta_final:+.4f} (gap {gap_t:.4f}), "
           f"runtimes {t1:.0f}s/{t2:.0f}s (budget 120s each)")
    assert gap_b < 0.1
    assert gap_t < 0.1
    assert max(t1, t2) < 240  # 2x the stated per-run budget


def test_criterion_2_quadratic_convergence():
    """Quadratic family: both limits within +-0.1 and msbve closer to oracle."""
    msbve, _ = desk_train(QuadraticValue(), "msbve")
    mstde, _ = desk_train(QuadraticValue(), "mstde")
    oracle = -15 / 52
    gap_b = abs(msbve.theta_final - (-40 / 167))
    gap_t = abs(mstde.theta_final - (-8545 / 45059))
    ordered = abs(msbve.theta_final - oracle) < abs(mstde.theta_final - oracle)
    ok = gap_b < 0.1 and gap_t < 0.1 and ordered
    report(2, "quadratic convergence", ok,
           f"msbve {msbve.theta_final:+.4f} (gap {gap_b:.4f}), "
           f"mstde {mstde.theta_final:+.4f} (gap {gap_t:.4f}), "
           f"msbve-closer-to-oracle {ordered}")
    assert gap_b < 0.1
    assert gap_t < 0.1
    assert ordered


def test_criterion_3_exponential_convergence():
    """Exponential family: both training bands and the reference coefficients.

    The paper prints 7.607/2.965 for the mstde quadratic and centres the mstde
    band on its argmin -0.195; neither follows from the defining integrands
    (README, "Printed values that do not reproduce"). The expected mstde
    coefficients and band centre are derived here instead, by a Gauss-Legendre
    rule over the defining integrands, independently of the program's closed
    forms.
    """
    exp_a, exp_b = exponential_quadratic_by_gauss_legendre("mstde")
    mstde_centre = -exp_b / (2.0 * exp_a)
    msbve, _ = desk_train(ExponentialValue(), "msbve", grad_clip=25.0)
    mstde, _ = desk_train(ExponentialValue(), "mstde", grad_clip=25.0)
    gap_b = abs(msbve.theta_final - (-0.260))
    gap_t = abs(mstde.theta_final - mstde_centre)
    cont = closed_form_objective("exponential", "msbve")
    jump = closed_form_objective("exponential", "mstde")
    coeffs_ok = (abs(cont.a - 3.190) < 5e-4 and abs(cont.b - 1.657) < 5e-4
                 and abs(jump.a - exp_a) < 5e-4 and abs(jump.b - exp_b) < 5e-4)
    ok = gap_b < 0.1 and gap_t < 0.1 and coeffs_ok
    report(3, "exponential convergence", ok,
           f"msbve {msbve.theta_final:+.4f} (gap {gap_b:.4f}, clips {msbve.clip_events}), "
           f"mstde {mstde.theta_final:+.4f} (gap {gap_t:.4f} to {mstde_centre:+.4f}), "
           f"coefficients {cont.a:.4f}/{cont.b:.4f}/{jump.a:.4f}/{jump.b:.4f} "
           f"vs expected 3.190/1.657/{exp_a:.4f}/{exp_b:.4f} "
           f"(paper printed 3.190/1.657/7.607/2.965)")
    assert gap_b < 0.1
    assert gap_t < 0.1
    assert abs(cont.a - 3.190) < 5e-4
    assert abs(cont.b - 1.657) < 5e-4
    assert abs(jump.a - exp_a) < 5e-4 and abs(jump.b - exp_b) < 5e-4, (
        f"mstde coefficients {jump.a:.5f}/{jump.b:.5f} differ from the "
        f"Gauss-Legendre values {exp_a:.5f}/{exp_b:.5f}; the paper's 7.607/2.965 do "
        "not reproduce, see the README section \"Printed values that do not "
        "reproduce\"")


def test_criterion_4_limit_objective_scans():
    """Theta scans of the Monte-Carlo limit objectives reproduce all six
    linear/quadratic reference minimizers within +-0.03."""
    grid = build_grid(1.0, 1000)
    table = reference_minimizers()
    models = {"linear": LinearValue(), "quadratic": QuadraticValue()}
    start = time.perf_counter()
    rows = []
    worst = 0.0
    for family, model in models.items():
        for method in ("mstde", "msbve", "oracle"):
            est = mc_argmin(model, method, STUDY_SPEC, grid, 20000, seed=31415)
            ref = table.get(family, method)
            gap = abs(est - ref)
            worst = max(worst, gap)
            rows.append(f"{family}/{method} {est:+.4f} vs {ref:+.4f}")
    elapsed = time.perf_counter() - start
    ok = worst < 0.03
    report(4, "limit-objective verification", ok,
           f"worst gap {worst:.4f} over six cells in {elapsed:.0f}s (budget 600s); "
           + "; ".join(rows))
    assert worst < 0.03
    assert elapsed < 1200  # 2x the stated budget


def test_criterion_5_bipower_consistency():
    """Bipower estimate is consistent on Brownian paths and jump-robust.

    A unit jump in increment r_k moves (pi/2) sum |r_i||r_{i+1}| by
    (pi/2)(|r_{k-1}| + |r_{k+1}|)(|r_k + 1| - |r_k|). With r ~ N(0, dt) and
    m1 = E|r| = sqrt(2 dt / pi), its mean is
    (pi/2) 2 m1 (E|1 + sqrt(dt) Z| - m1), about 2.49% of the unit integrated
    variance at dt = 1e-4. The paper's 2% bound sits below that mean (README,
    "Printed values that do not reproduce"), so the clause checks that the
    observed shift lies within 4 standard errors of the analytic mean.
    """
    spec = JumpDiffusionSpec(drift=0.0, diffusion=1.0, jump_size=lambda t, x: x,
                             jump_law=NoJumps(), x0=0.0)
    grid = build_grid(1.0, 10_000)
    k = grid.n_steps // 2
    estimates, shifts, qv_shifts = [], [], []
    for chunk in range(2):
        batch = simulate_batch(spec, grid, 1303, 0, 50, path_offset=50 * chunk)
        for row in batch.observed:
            inc = np.diff(row)
            base = bipower_sigma2(inc)
            estimates.append(base)
            jumped = row.copy()
            jumped[k:] += 1.0
            shifts.append(abs(bipower_sigma2(np.diff(jumped)) - base))
            qv_shifts.append(float(np.sum(np.diff(jumped) ** 2) - np.sum(inc ** 2)))
    mean_est = float(np.mean(estimates[:50]))
    rel_shift = float(np.mean(shifts)) / float(np.mean(estimates))
    rel_se = (float(np.std(shifts, ddof=1)) / math.sqrt(len(shifts))
              / float(np.mean(estimates)))
    qv_mean = float(np.mean(qv_shifts))
    dt = 1.0 / grid.n_steps
    sd = math.sqrt(dt)
    m1 = math.sqrt(2.0 * dt / math.pi)
    # E|1 + sd Z| for Z ~ N(0, 1)
    abs_jump_mean = (sd * math.sqrt(2.0 / math.pi) * math.exp(-0.5 / dt)
                     + math.erf(1.0 / (sd * math.sqrt(2.0))))
    analytic_shift = math.pi / 2.0 * 2.0 * m1 * (abs_jump_mean - m1)
    z_shift = (rel_shift - analytic_shift) / rel_se
    ok = abs(mean_est - 1.0) < 0.05 and abs(z_shift) < 4.0 and abs(qv_mean - 1.0) < 0.1
    report(5, "bipower consistency", ok,
           f"mean sigma^2 {mean_est:.4f} (within 5% of 1: {abs(mean_est-1)<0.05}), "
           f"jump shift {100*rel_shift:.2f}% +- {100*rel_se:.2f}% vs analytic "
           f"{100*analytic_shift:.3f}% (z {z_shift:+.2f}, clause |z| < 4; "
           f"paper printed <2%), QV shift {qv_mean:.3f}")
    assert abs(mean_est - 1.0) < 0.05
    assert abs(qv_mean - 1.0) < 0.1
    assert abs(z_shift) < 4.0, (
        f"mean bipower shift is {100*rel_shift:.2f}% (SE {100*rel_se:.2f}%), "
        f"{z_shift:+.2f} SE from the analytic {100*analytic_shift:.3f}%; the "
        "paper's 2% bound does not reproduce, see the README section \"Printed "
        "values that do not reproduce\"")


def test_criterion_6_jump_robustness_ratio():
    """R(dt) decreases in dt and R(1e-4) < 0.05 over 200 seeds."""
    ratios = {dt: jump_robustness_ratio(dt, n_seeds=200, master_seed=2024)
              for dt in (1e-2, 1e-3, 1e-4)}
    monotone = ratios[1e-2] > ratios[1e-3] > ratios[1e-4]
    small = ratios[1e-4] < 0.05
    ok = monotone and small
    report(6, "jump-robustness ratio", ok,
           f"R(1e-2)={ratios[1e-2]:.4f} R(1e-3)={ratios[1e-3]:.4f} "
           f"R(1e-4)={ratios[1e-4]:.4f}")
    assert monotone
    assert small


def test_criterion_7_gradient_oracles():
    """Analytic gradients match central finite differences to 1e-6 relative."""
    h = 1e-6
    rng = stream(707)
    worst_loss = 0.0
    models = [LinearValue(), QuadraticValue(), ExponentialValue()]
    for idx in range(200):
        model = models[idx % 3]
        path = simulate_seeded(STUDY_SPEC, DESK_GRID, 909, 0, idx)
        theta = float(rng.uniform(-1.5, 1.5))
        fd = (mstde_loss(path_values(model, theta + h, path))
              - mstde_loss(path_values(model, theta - h, path))) / (2 * h)
        err = abs(mstde_grad(model, theta, path) - fd) / (1 + abs(fd))
        worst_loss = max(worst_loss, err)
        J = path_values(model, theta, path)
        if np.abs(np.diff(J)).min() > 1e-8:
            fd2 = (msbve_loss(path_values(model, theta + h, path))
                   - msbve_loss(path_values(model, theta - h, path))) / (2 * h)
            err2 = abs(msbve_grad(model, theta, path) - fd2) / (1 + abs(fd2))
            worst_loss = max(worst_loss, err2)
    worst_model = 0.0
    families = models + [MeanVarianceValue(z=2.0, x0=1.0, horizon=1.0)]
    for model in families:
        for _ in range(100):
            theta = float(rng.uniform(0.05, 2.0)) * (1 if rng.random() < 0.5 else -1)
            t = float(rng.uniform(0.0, 1.0))
            x = float(rng.uniform(-2.0, 2.0))
            fd = (model.value(theta + h, t, x) - model.value(theta - h, t, x)) / (2 * h)
            err = abs(model.dvalue_dtheta(theta, t, x) - fd) / (1 + abs(fd))
            worst_model = max(worst_model, err)
    ok = worst_loss < 1e-6 and worst_model < 1e-6
    report(7, "gradient oracles", ok,
           f"worst loss-gradient error {worst_loss:.2e}, "
           f"worst model-gradient error {worst_model:.2e}")
    assert worst_loss < 1e-6
    assert worst_model < 1e-6


def test_criterion_8_property_suites():
    """Module invariants hold over >= 1000 random cases each."""
    rng = stream(808)
    # loss properties
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        values = rng.uniform(-100, 100, n)
        shift = float(rng.uniform(-50, 50))
        scale = float(rng.uniform(-8, 8))
        lt, lb = mstde_loss(values), msbve_loss(values)
        assert lt >= 0.0 and lb >= 0.0
        assert mstde_loss(values + shift) == pytest.approx(lt, abs=1e-7)
        assert msbve_loss(values + shift) == pytest.approx(lb, abs=1e-7)
        assert mstde_loss(scale * values) == pytest.approx(scale ** 2 * lt,
                                                           rel=1e-9, abs=1e-9)
        assert msbve_loss(scale * values) == pytest.approx(scale ** 2 * lb,
                                                           rel=1e-9, abs=1e-9)
    # threshold idempotence
    from jumprl.portfolio import PriceSeries
    base_stamps = (np.datetime64("2021-03-01T09:30", "s")
                   + np.arange(30) * np.timedelta64(300, "s"))
    for _ in range(1000):
        n = int(rng.integers(2, 30))
        prices = 1000.0 + np.concatenate([[0.0], np.cumsum(rng.uniform(-5, 5, n - 1))])
        series = PriceSeries(base_stamps[:n].copy(), prices, n - 1)
        tau = float(rng.uniform(0.0, 8.0))
        once = threshold_series(series, tau)
        twice = threshold_series(once, tau)
        np.testing.assert_array_equal(once.prices, twice.prices)
    # policy fixed point
    from jumprl.portfolio import _excess_returns, _wealth_matrix
    for _ in range(1000):
        theta = float(rng.uniform(0.2, 3.0))
        z = float(rng.uniform(1.001, 1.1))
        anchor = target_anchor(theta, z, 1.0, 1.0)
        day = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.002, 12)))[None, :]
        wealth = _wealth_matrix(theta, 0.5, _excess_returns(day, 0.0, 1.0 / 11), z, 1.0,
                                1.0, start_wealth=anchor)
        assert np.all(wealth == anchor)
    # determinism: simulate
    small_grid = build_grid(1.0, 50)
    for i in range(1000):
        a = simulate_seeded(STUDY_SPEC, small_grid, 111, 0, i)
        b = simulate_seeded(STUDY_SPEC, small_grid, 111, 0, i)
        assert np.array_equal(a.observed, b.observed)
        assert a.jump_events == b.jump_events
    # determinism: train
    for i in range(1000):
        cfg = TrainConfig("msbve" if i % 2 else "mstde", 5e-4, 3, 2,
                          0.5, master_seed=i, record_every=1)
        grid = build_grid(1.0, 20)
        r1 = train(LinearValue(), STUDY_SPEC, grid, cfg)
        r2 = train(LinearValue(), STUDY_SPEC, grid, cfg)
        assert r1.theta_trace == r2.theta_trace
    # determinism: backtest
    series = synthetic_gbm_jump_series(10, bars_per_day=8, seed=77)
    for i in range(1000):
        cfg = BacktestConfig(learning=TrainConfig("msbve", 10.0, 2, 1, 0.5 + i * 1e-4,
                                                  master_seed=0),
                             train_days=7, steps_per_day=8)
        r1 = rolling_backtest(series, cfg, "msbve" if i % 2 else "mstde")
        r2 = rolling_backtest(series, cfg, "msbve" if i % 2 else "mstde")
        assert r1.daily_return == r2.daily_return
        assert r1.theta_per_day == r2.theta_per_day
    report(8, "property suites", True, "6 invariant families x 1000 cases")


def test_criterion_9_backtest_direction():
    """On the jumpy synthetic fixture the msbve cells beat mstde in >= 70% of
    20 seeded replications (raw) and thresholding shrinks the Sharpe gap to
    under half. Harness: z=1.01, theta0=0.5, theta in [0.3, 3], alpha=1500,
    20 steps/day, 40 train + 20 test days, fixture seeds 1000..1019."""
    start = time.perf_counter()
    wins = 0
    raw_gaps, thr_gaps = [], []
    for rep in range(20):
        series = synthetic_gbm_jump_series(60, seed=1000 + rep)
        cell = {}
        for mode in ("raw", "thresholded"):
            config = BacktestConfig(
                learning=TrainConfig("msbve", 1500.0, 20, 1, 0.5, master_seed=0),
                train_days=40, steps_per_day=79, threshold_mode=mode,
                warm_start=True, theta_min=0.3, theta_max=3.0, target_wealth=1.01)
            for loss in ("mstde", "msbve"):
                cell[(loss, mode)] = rolling_backtest(series, config, loss).sharpe_annualized
        if cell[("msbve", "raw")] >= cell[("mstde", "raw")]:
            wins += 1
        raw_gaps.append(abs(cell[("msbve", "raw")] - cell[("mstde", "raw")]))
        thr_gaps.append(abs(cell[("msbve", "thresholded")] - cell[("mstde", "thresholded")]))
    raw_gap = float(np.mean(raw_gaps))
    thr_gap = float(np.mean(thr_gaps))
    elapsed = time.perf_counter() - start
    ok = wins >= 14 and thr_gap < 0.5 * raw_gap
    report(9, "backtest direction", ok,
           f"msbve wins {wins}/20 raw (need >=14), mean |gap| raw {raw_gap:.3f} "
           f"vs thresholded {thr_gap:.3f} (ratio {thr_gap/raw_gap:.2f}, need <0.5) "
           f"in {elapsed:.0f}s")
    assert wins >= 14
    assert thr_gap < 0.5 * raw_gap
