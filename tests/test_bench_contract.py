"""The benchmark's traced run still matches the library's call structure.

`bench/run.py --trace 1` wraps jumprl's layer functions by name, requires the
traced reports to equal the untraced ones, and checks the per-layer call
counts each workload derives from its parameters. A refactor that renames a
traced function or changes how often a layer runs fails here.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from jumprl.estimators import TrainConfig
from jumprl.portfolio import BacktestConfig, rolling_backtest, synthetic_gbm_jump_series

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    """bench/tracer.py as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", ["raw", "thresholded"])
def test_backtest_trace_points_see_every_call(mode):
    # portfolio.threshold_s is the one traced time no count check pins: a
    # renamed threshold_series would read zero without failing the bench
    series = synthetic_gbm_jump_series(7, bars_per_day=6, seed=3, jump_prob_per_day=0.5)
    config = BacktestConfig(learning=TrainConfig("msbve", 50.0, 2, 1, 1.0, master_seed=0),
                            train_days=4, steps_per_day=6, threshold_mode=mode)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        result = rolling_backtest(series, config, "msbve")
    finally:
        tracer.restore()
    counts = {name: row["count"] for name, row in tracer.totals().items()}
    test_days = len(result.test_days)
    assert test_days == 3
    assert counts.get("portfolio.threshold_series", 0) == (
        test_days if mode == "thresholded" else 0)
    assert counts["portfolio.bipower_sigma2"] == 2 * config.train_days * test_days


@pytest.mark.parametrize("workload", ["train_desk", "mc_scan", "backtest_rolling"])
def test_traced_run_is_exact_and_correct(workload):
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "count check: exact" in lines, result.stdout
    assert "traced reports: bit-identical to untraced" in lines, result.stdout
    assert json.loads(lines[-1])["correct"] is True
