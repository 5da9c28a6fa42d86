"""The benchmark's traced run still matches the library's call structure.

`bench/run.py --trace 1` wraps jumprl's layer functions by name, requires the
traced reports to equal the untraced ones, and checks the per-layer call
counts each workload derives from its parameters. A refactor that renames a
traced function or changes how often a layer runs fails here.
"""

import ast
import importlib
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


def listed_points(source: str) -> list:
    """(owner, attribute) of every trace point that trace_points() in source
    lists, read from its AST: trace_points() itself returns only the points
    the library defines. An owner is a jumprl module, or module.Class for a
    point listed as getattr(module, name) in a loop over class names."""
    fn = next(node for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.FunctionDef) and node.name == "trace_points")
    loops = {node.target.id: [e.value for e in node.iter.elts]
             for node in ast.walk(fn) if isinstance(node, ast.For)}

    def names(node):
        if isinstance(node, ast.Constant):
            return [node.value]
        if isinstance(node, ast.Name):
            return loops.get(node.id, [node.id])
        module, attr = node.args  # getattr(module, name)
        return [f"{module.id}.{name}" for name in names(attr)]

    return [(owner, attr) for node in ast.walk(fn)
            if isinstance(node, ast.Tuple) and len(node.elts) == 4
            for owner in names(node.elts[0]) for attr in names(node.elts[1])]


def missing_points(source: str) -> set:
    """owner.attribute of each listed trace point that the library lacks."""
    def lacks(owner, attr):
        module, _, cls = owner.partition(".")
        target = importlib.import_module(f"jumprl.{module}")
        return not hasattr(getattr(target, cls) if cls else target, attr)
    return {f"{owner}.{attr}" for owner, attr in listed_points(source) if lacks(owner, attr)}


def test_skipped_trace_points_are_known():
    # a skipped point records nothing; a renamed timing-only point, such as
    # portfolio.threshold_series, would read 0 with no count check failing
    source = (ROOT / "bench" / "tracer.py").read_text()
    assert len(listed_points(source)) == 31
    assert missing_points(source) == {"portfolio.losses_by_row",
                                      "models.MeanVarianceValue.dvalue_dx",
                                      "oracles.mc_objective_grid"}


def test_missing_trace_point_is_found():
    source = (
        "def trace_points():\n"
        "    points = [(oracles, 'mc_argmin', 'oracles.mc_argmin', None),\n"
        "              (serialize, 'dump_jsn', 'serialize.dump_json', None)]\n"
        "    for family in ('LinearValue', 'MeanVarianceValue'):\n"
        "        for method in ('value', 'dvalue_dx'):\n"
        "            points.append((getattr(models, family), method, 'm', None))\n")
    assert len(listed_points(source)) == 6
    assert missing_points(source) == {"serialize.dump_jsn",
                                      "models.MeanVarianceValue.dvalue_dx"}


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
    # one value, one theta-derivative and one kernel call per gradient step
    steps = config.learning.episodes * test_days
    for name in ("models.value", "models.dvalue_dtheta", "portfolio.grads_by_row"):
        assert counts[name] == steps, name


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
