"""The benchmark's traced run still matches the library's call structure.

`bench/run.py --trace 1` wraps jumprl's layer functions by name, requires the
traced reports to equal the untraced ones, and checks the per-layer call
counts each workload derives from its parameters. A refactor that renames a
traced function or changes how often a layer runs fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
