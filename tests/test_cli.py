import hashlib
import json
import os
import subprocess
import sys
from datetime import timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import jumprl
from jumprl import cli
from jumprl.cli import main
from jumprl.errors import IngestionError
from jumprl.models import QuadraticValue
from jumprl.oracles import mc_argmin
from jumprl.portfolio import read_price_csv, synthetic_gbm_jump_series, write_price_csv
from jumprl.sde import build_grid, doubling_jump_spec
from conftest import falling_after_jump_series


@pytest.fixture
def runner():
    return CliRunner()


def read_json(path):
    return json.loads(path.read_text())


class TestSimulate:
    def test_paper_preset_writes_paths_and_manifest(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--preset", "paper-sim", "--paths", "3",
                                      "--seed", "7", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        manifest = read_json(tmp_path / "manifest.json")
        assert manifest["paths"] == 3
        assert manifest["grid"] == {"horizon": 1.0, "n_steps": 1000, "dt": 0.001}
        assert manifest["spec"]["x0"] == 0.1
        for name in manifest["files"]:
            lines = (tmp_path / name).read_text().strip().splitlines()
            assert lines[0] == "t,observed,continuous,jump_flag"
            assert len(lines) == 1002

    def test_zero_paths_manifest_only(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--paths", "0", "--seed", "1",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0
        assert (tmp_path / "manifest.json").exists()
        assert not list(tmp_path.glob("path_*.csv"))

    def test_negative_paths_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--paths", "-1", "--seed", "1",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "paths must be >= 0, got -1" in result.output
        assert not (tmp_path / "manifest.json").exists()

    def test_invalid_preset_exits_2_and_lists(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--preset", "nope", "--seed", "1",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "paper-sim" in result.output

    def test_missing_seed_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--paths", "1", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "seed" in result.output.lower()


# --dt values and the message each exits 2 with; 1e-300 asks for 1e300 grid
# steps, which numpy refuses before allocating anything
BAD_DT = {
    "0": "dt must be positive and finite, got 0.0",
    "nan": "dt must be positive and finite, got nan",
    "0.7": "dt must leave at least 2 grid steps on the horizon 1.0, got 0.7",
    "1e-300": "n_steps = 1e+300 is too large to allocate a grid",
}


class TestTrain:
    def test_zero_alpha_keeps_theta0(self, runner, tmp_path):
        result = runner.invoke(main, ["train", "--family", "linear", "--loss", "msbve",
                                      "--episodes", "1", "--alpha", "1e-12",
                                      "--theta0", "0.5", "--dt", "0.1",
                                      "--seed", "3", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        doc = read_json(tmp_path / "train_result.json")
        assert doc["theta_final"] == pytest.approx(0.5, abs=1e-9)
        assert "nearest reference" in result.output
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "episode,theta,loss"

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = ["train", "--family", "linear", "--loss", "mstde", "--episodes", "20",
                "--paths", "4", "--alpha", "0.001", "--dt", "0.05",
                "--seed", "11", "--out", str(tmp_path)]
        assert runner.invoke(main, args).exit_code == 0
        first = (tmp_path / "train_result.json").read_bytes()
        assert runner.invoke(main, args).exit_code == 0
        assert (tmp_path / "train_result.json").read_bytes() == first

    def test_divergence_exits_3_with_partial_trace(self, runner, tmp_path):
        with np.errstate(over="ignore", invalid="ignore"):
            result = runner.invoke(main, ["train", "--family", "exponential",
                                          "--loss", "mstde", "--episodes", "50",
                                          "--paths", "4", "--alpha", "1e30",
                                          "--dt", "0.05", "--seed", "5",
                                          "--record-every", "1", "--out", str(tmp_path)])
        assert result.exit_code == 3
        doc = read_json(tmp_path / "train_result.json")
        assert "error" in doc
        # every episode before the divergence at 11 is recorded with its loss.
        # Episode 0 has none, and from episode 6 the batch loss overflows to
        # inf, which JSON writes as null
        assert doc["episode"] == 11
        assert [row[0] for row in doc["trace"]] == list(range(11))
        losses = [row[2] for row in doc["trace"]]
        assert losses[0] is None and losses[6:] == [None] * 5
        assert all(isinstance(loss, float) for loss in losses[1:6])

    def test_state_overflow_exits_3_with_partial_trace(self, runner, tmp_path):
        # the first jump doubles a state near the float maximum
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x0 = 1e308\n")
        with np.errstate(over="ignore"):
            result = runner.invoke(main, ["train", "--config", str(cfg), "--family", "linear",
                                          "--episodes", "3", "--paths", "2", "--dt", "0.1",
                                          "--theta0", "0.25", "--seed", "1",
                                          "--out", str(tmp_path)])
        assert result.exit_code == 3, result.output
        assert "became non-finite" in result.output
        doc = read_json(tmp_path / "train_result.json")
        assert "became non-finite" in doc["error"]
        assert (doc["episode"], doc["last_theta"]) == (1, 0.25)
        assert doc["trace"] == [[0, 0.25, None]]
        assert not (tmp_path / "trace.csv").exists()

    def test_state_overflow_prints_no_numpy_warning(self, tmp_path):
        # a fresh process, where numpy's warning would reach standard error
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x0 = 1e308\n")
        env = dict(os.environ, PYTHONPATH=str(Path(jumprl.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "jumprl.cli", "train", "--config", str(cfg),
             "--family", "linear", "--episodes", "3", "--paths", "2", "--dt", "0.1",
             "--theta0", "0.25", "--seed", "1", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 3, result.stderr
        assert read_json(tmp_path / "train_result.json")["trace"] == [[0, 0.25, None]]
        assert "RuntimeWarning" not in result.stderr
        assert result.stderr.startswith("divergence: simulated state overflowed")

    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = linear\nloss = msbve\nepisodes = 5\n"
                       "paths = 2\nalpha = 1e-12\ntheta0 = 0.25  # comment\ndt = 0.1\n"
                       f"out = {tmp_path}\n")
        result = runner.invoke(main, ["train", "--config", str(cfg), "--seed", "2",
                                      "--theta0", "0.75"])
        assert result.exit_code == 0, result.output
        doc = read_json(tmp_path / "train_result.json")
        # the flag wins over the file value
        assert doc["theta_final"] == pytest.approx(0.75, abs=1e-9)

    @pytest.mark.parametrize("line,family", [("family = Linear", "linear"),
                                             ("family =  QUADRATIC ", "quadratic")])
    def test_config_family_spelling_finds_its_reference(self, runner, tmp_path, line, family):
        # the family is matched as family_by_name matches it, so the reference
        # lookup must use the resolved family's name, not the raw string
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\nloss = msbve\nepisodes = 1\nalpha = 1e-12\ndt = 0.1\n"
                       f"out = {tmp_path}\n")
        result = runner.invoke(main, ["train", "--config", str(cfg), "--seed", "2"])
        assert result.exit_code == 0, result.output
        assert f"nearest reference: {family}/" in result.output
        assert "no reference minimizer" not in result.output

    def test_other_x0_has_no_closed_form_reference(self, runner, tmp_path):
        # the closed forms assume the study process starts at 0.1
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x0 = 0.3\n")
        result = runner.invoke(main, ["train", "--config", str(cfg), "--family", "quadratic",
                                      "--episodes", "2", "--paths", "2", "--dt", "0.1",
                                      "--seed", "4", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "no closed-form reference for x0 = 0.3" in result.output
        assert "nearest reference" not in result.output

    def test_negative_seed_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["train", "--episodes", "1", "--seed", "-1",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "seed must be a non-negative integer, got -1" in result.output

    def test_unknown_preset_exits_2_and_lists(self, runner, tmp_path):
        result = runner.invoke(main, ["train", "--preset", "nope", "--seed", "1",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "paper-linear" in result.output

    @pytest.mark.parametrize("dt", list(BAD_DT))
    def test_bad_dt_exits_2(self, runner, tmp_path, dt):
        result = runner.invoke(main, ["train", "--episodes", "1", "--dt", dt,
                                      "--seed", "1", "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert BAD_DT[dt] in result.output

    def test_unallocatable_paths_exit_2(self, runner, tmp_path):
        # numpy refuses 2^60 rows without allocating anything
        result = runner.invoke(main, ["train", "--family", "linear", "--loss", "msbve",
                                      "--episodes", "1", "--paths", str(2**60),
                                      "--dt", "0.01", "--seed", "1", "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert ("cannot allocate a batch of n_paths = 1152921504606846976 x "
                "n_steps = 100: ") in result.output

    @pytest.mark.parametrize("line", ["seed = 1.7", "seed = -3", "seed = abc", "seed = true"])
    def test_malformed_config_seed_exits_2(self, runner, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"episodes = 1\n{line}\n")
        result = runner.invoke(main, ["train", "--config", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "seed must be a non-negative integer" in result.output

    @pytest.mark.parametrize("line, message", [
        ("alpha = abc", "alpha must be a number, got 'abc'"),
        ("episodes = x", "episodes must be an integer, got 'x'"),
        ("family = 1", "family must be a string, got 1"),
        ("family = null", "family must be a string, got None"),
        ("out = true", "out must be a string, got True"),
        ("episodes = 2.7", "episodes must be an integer, got 2.7"),
        ("paths = true", "paths must be an integer, got True"),
        ("episods = 5", "unknown config key 'episods'")])
    def test_malformed_config_number_exits_2(self, runner, tmp_path, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"episodes = 1\ndt = 0.1\nout = {tmp_path}\n{line}\n")
        result = runner.invoke(main, ["train", "--config", str(cfg), "--seed", "1"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.output


    def test_unknown_config_family_exits_2(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = foo\nepisodes = 1\ndt = 0.1\n")
        result = runner.invoke(main, ["train", "--config", str(cfg), "--seed", "1",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "unknown value family 'foo'" in result.output

    def test_singular_theta0_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["train", "--family", "mean_variance", "--theta0", "0",
                                      "--episodes", "1", "--dt", "0.1", "--seed", "1",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "below singularity floor" in result.output


# command: (preset table, a cheap preset, flag, config key, reader of the report)
PRESET_CASES = {
    "simulate": ("SIM_PRESETS",
                 dict(x0=0.3, horizon=2.0, n_steps=50, drift=0.5, sigma=0.8, law="none"),
                 "--n-steps", "n_steps",
                 lambda out: read_json(out / "manifest.json")["grid"]["n_steps"]),
    "train": ("TRAIN_PRESETS",
              dict(family="linear", dt=0.1, alpha=0.001, episodes=3, paths=2, theta0=0.25),
              "--episodes", "episodes",
              lambda out: read_json(out / "train_result.json")["config"]["episodes"]),
}


@pytest.mark.parametrize("winner", ["flag", "config", "preset"])
@pytest.mark.parametrize("command", sorted(PRESET_CASES))
def test_preset_precedence(runner, tmp_path, monkeypatch, command, winner):
    """Flag beats config file beats preset beats default (1000 steps, 20000 episodes)."""
    table, preset, flag, key, read = PRESET_CASES[command]
    monkeypatch.setitem(getattr(cli, table), "tiny", preset)
    out = tmp_path / "out"
    args = [command, "--seed", "1", "--out", str(out)]
    if winner == "preset":
        args += ["--preset", "tiny"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"preset = tiny\n{key} = {preset[key] + 1}\n")
        args += ["--config", str(cfg)]
    if winner == "flag":
        args += [flag, str(preset[key] + 2)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    expected = {"flag": preset[key] + 2, "config": preset[key] + 1, "preset": preset[key]}
    assert read(out) == expected[winner]


class TestCompare:
    def test_empty_families_empty_report(self, runner, tmp_path):
        result = runner.invoke(main, ["compare", "--families", "", "--out", str(tmp_path)])
        assert result.exit_code == 0
        doc = read_json(tmp_path / "compare_report.json")
        assert doc == {"families": {}}

    def test_linear_cells_and_gap_fields(self, runner, tmp_path):
        result = runner.invoke(main, ["compare", "--families", "linear",
                                      "--episodes", "10", "--paths", "4",
                                      "--alpha", "0.001", "--dt", "0.05",
                                      "--seed", "4", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        doc = read_json(tmp_path / "compare_report.json")
        cell = doc["families"]["linear"]
        assert set(cell) >= {"mstde", "msbve", "oracle_reference"}
        assert cell["msbve"]["theta_reference"] == pytest.approx(-1.5)
        assert cell["mstde"]["theta_reference"] == pytest.approx(-403 / 252)
        assert cell["oracle_reference"] == pytest.approx(-1.5)
        assert doc["reference_minimizers"]["quadratic"]["oracle"] == pytest.approx(-15 / 52)
        assert (tmp_path / "trace_linear_msbve.csv").exists()

    def test_oracle_scan_cell(self, runner, tmp_path):
        result = runner.invoke(main, ["compare", "--families", "linear",
                                      "--episodes", "5", "--paths", "2",
                                      "--alpha", "0.001", "--dt", "0.1",
                                      "--oracle-scan", "--scan-paths", "500",
                                      "--scan-steps", "100",
                                      "--seed", "4", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        doc = read_json(tmp_path / "compare_report.json")
        # small-sample scan still lands in the right neighborhood
        assert doc["families"]["linear"]["oracle_scan"] == pytest.approx(-1.5, abs=0.15)

    def test_oracle_scan_follows_config_x0(self, runner, tmp_path):
        # the scan runs on the spec the two losses train on, from the configured x0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x0 = 0.3\n")
        result = runner.invoke(main, ["compare", "--families", "quadratic", "--config", str(cfg),
                                      "--episodes", "1", "--paths", "2", "--dt", "0.1",
                                      "--oracle-scan", "--scan-paths", "400",
                                      "--scan-steps", "100",
                                      "--seed", "4", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        scan = read_json(tmp_path / "compare_report.json")["families"]["quadratic"]["oracle_scan"]
        grid = build_grid(1.0, 100)
        assert scan == mc_argmin(QuadraticValue(), "oracle", doubling_jump_spec(0.3),
                                 grid, 400, 4)
        assert scan != mc_argmin(QuadraticValue(), "oracle", doubling_jump_spec(), grid, 400, 4)


    def test_other_x0_writes_null_references(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x0 = 0.3\n")
        result = runner.invoke(main, ["compare", "--families", "quadratic", "--config", str(cfg),
                                      "--episodes", "2", "--paths", "2", "--dt", "0.1",
                                      "--seed", "4", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "no closed-form reference for x0 = 0.3" in result.stderr
        assert json.loads(result.stdout) == read_json(tmp_path / "compare_report.json")
        doc = read_json(tmp_path / "compare_report.json")
        assert doc["reference_minimizers"] is None
        cell = doc["families"]["quadratic"]
        assert cell["oracle_reference"] is None
        for loss in ("mstde", "msbve"):
            assert cell[loss]["theta_reference"] is None and cell[loss]["gap"] is None
            assert isinstance(cell[loss]["theta_final"], float)

    def test_default_x0_keeps_references(self, runner, tmp_path):
        result = runner.invoke(main, ["compare", "--families", "quadratic",
                                      "--episodes", "2", "--paths", "2", "--dt", "0.1",
                                      "--seed", "4", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        cell = read_json(tmp_path / "compare_report.json")["families"]["quadratic"]
        assert cell["oracle_reference"] == pytest.approx(-15 / 52)
        assert cell["msbve"]["gap"] == pytest.approx(
            abs(cell["msbve"]["theta_final"] - cell["msbve"]["theta_reference"]))

    def test_state_overflow_writes_error_per_cell(self, runner, tmp_path):
        # an overflow is recorded per cell, as a divergence is, and the report is written
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x0 = 1e308\n")
        with np.errstate(over="ignore"):
            result = runner.invoke(main, ["compare", "--families", "linear,quadratic",
                                          "--config", str(cfg), "--episodes", "2",
                                          "--paths", "2", "--dt", "0.1", "--seed", "4",
                                          "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        doc = read_json(tmp_path / "compare_report.json")
        for family in ("linear", "quadratic"):
            for loss in ("mstde", "msbve"):
                cell = doc["families"][family][loss]
                assert list(cell) == ["error"] and "became non-finite" in cell["error"]
        assert not list(tmp_path.glob("trace_*.csv"))

    @pytest.mark.parametrize("dt", list(BAD_DT))
    def test_bad_dt_exits_2(self, runner, tmp_path, dt):
        result = runner.invoke(main, ["compare", "--families", "linear", "--episodes", "1",
                                      "--dt", dt, "--seed", "1", "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert BAD_DT[dt] in result.output

    def test_config_key_of_another_command_ignored(self, runner, tmp_path):
        # one config file can serve both train and compare
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = linear\n")
        result = runner.invoke(main, ["compare", "--families", "", "--config", str(cfg),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output

    def test_zero_scan_paths_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["compare", "--families", "linear",
                                      "--episodes", "1", "--paths", "2", "--dt", "0.1",
                                      "--oracle-scan", "--scan-paths", "0",
                                      "--scan-steps", "10",
                                      "--seed", "4", "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "n_paths >= 1" in result.output


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "prices.csv"
    series = synthetic_gbm_jump_series(14, bars_per_day=10, seed=42)
    write_price_csv(series, path)
    return path


class TestBacktest:
    def test_runs_both_losses(self, runner, tmp_path, fixture_csv):
        result = runner.invoke(main, ["backtest", "--data", str(fixture_csv),
                                      "--bars-per-day", "10", "--train-days", "8",
                                      "--mode", "both", "--loss", "both",
                                      "--steps-per-update", "2",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        doc = read_json(tmp_path / "backtest_report.json")
        assert set(doc["cells"]) == {"mstde_raw", "mstde_thresholded",
                                     "msbve_raw", "msbve_thresholded"}
        assert set(doc["sharpe_table"]) == {"mstde", "msbve"}
        csv_lines = (tmp_path / "backtest_msbve_raw.csv").read_text().splitlines()
        assert csv_lines[0] == "date,theta,terminal_wealth,daily_return"

    def test_insufficient_days_exits_2(self, runner, tmp_path, fixture_csv):
        result = runner.invoke(main, ["backtest", "--data", str(fixture_csv),
                                      "--bars-per-day", "10", "--train-days", "126",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "127" in result.output

    def test_divergence_exits_3_naming_the_test_day(self, runner, tmp_path, fixture_csv):
        # a target wealth of 1e300 overflows the first gradient of the first
        # window, which trains for the ninth day
        result = runner.invoke(main, ["backtest", "--data", str(fixture_csv),
                                      "--bars-per-day", "10", "--train-days", "8",
                                      "--z", "1e300", "--out", str(tmp_path)])
        assert result.exit_code == 3, result.output
        assert result.stderr == ("numerical failure: test day 2020-01-09: "
                                 "non-finite gradient at daily step 0\n")

    def test_missing_data_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["backtest", "--out", str(tmp_path)])
        assert result.exit_code == 2

    def test_unreadable_data_file_exits_2(self, runner, tmp_path):
        missing = tmp_path / "missing.csv"
        result = runner.invoke(main, ["backtest", "--data", str(missing),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert str(missing) in result.output

    def test_infinite_price_exits_2(self, runner, tmp_path, fixture_csv):
        # a price that is not positive and finite is named with its line
        lines = fixture_csv.read_text().splitlines()
        stamp = lines[5].split(",")[0]
        for price in ("inf", "0", "-1"):
            lines[5] = f"{stamp},{price}"
            data = tmp_path / "bad_price.csv"
            data.write_text("\n".join(lines) + "\n")
            result = runner.invoke(main, ["backtest", "--data", str(data), "--bars-per-day",
                                          "10", "--train-days", "8", "--out", str(tmp_path)])
            assert result.exit_code == 2, result.output
            assert f"line 6: price '{price}' must be positive and finite" in result.output

    @pytest.mark.parametrize("args, cfg_line", [(["--seed", "-1"], ""),
                                                ([], "seed = 1.7\n"),
                                                ([], "seed = false\n"),
                                                ([], "seed =\n")])
    def test_malformed_seed_exits_2(self, runner, tmp_path, fixture_csv, args, cfg_line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {fixture_csv}\nbars_per_day = 10\n{cfg_line}")
        result = runner.invoke(main, ["backtest", "--config", str(cfg), *args,
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "seed must be a non-negative integer" in result.output

    @pytest.mark.parametrize("line, message", [
        ("alpha = abc", "alpha must be a number, got 'abc'"),
        ("train_days = x", "train_days must be an integer, got 'x'"),
        ("data = 0", "data must be a string, got 0")])
    def test_malformed_config_number_exits_2(self, runner, tmp_path, fixture_csv, line,
                                             message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {fixture_csv}\nbars_per_day = 10\n{line}\n")
        result = runner.invoke(main, ["backtest", "--config", str(cfg),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.output


    def test_unknown_config_loss_exits_2(self, runner, tmp_path, fixture_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {fixture_csv}\nbars_per_day = 10\ntrain_days = 8\n"
                       "loss = foo\n")
        result = runner.invoke(main, ["backtest", "--config", str(cfg),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "loss_kind must be one of ('mstde', 'msbve'), got 'foo'" in result.output


    @pytest.mark.parametrize("bars", [1, 2])
    def test_one_bar_days_exit_2(self, runner, tmp_path, bars):
        # two prices a day leave one increment, and the bipower variance needs two
        data = tmp_path / "one_bar.csv"
        write_price_csv(synthetic_gbm_jump_series(8, bars_per_day=1, seed=3), data)
        result = runner.invoke(main, ["backtest", "--data", str(data), "--bars-per-day",
                                      str(bars), "--train-days", "5", "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert (f"each day needs at least 3 prices (2 bars) for the bipower variance; "
                f"the days have 2 at bars per day = {bars}") in result.output

    @pytest.mark.parametrize("stamp, message", [
        ("inf", "unparseable timestamp 'inf'"),
        ("-inf", "unparseable timestamp '-inf'"),
        ("1e30", "timestamp '1e30' is outside the years 1 to 9999 UTC"),
        ("-1e30", "timestamp '-1e30' is outside the years 1 to 9999 UTC"),
        ("9223372036854775807",
         "timestamp '9223372036854775807' is outside the years 1 to 9999 UTC")])
    def test_out_of_range_timestamp_exits_2(self, runner, tmp_path, fixture_csv, stamp,
                                            message):
        lines = fixture_csv.read_text().splitlines()
        lines[5] = f"{stamp},{lines[5].split(',')[1]}"
        data = tmp_path / "stamp.csv"
        data.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["backtest", "--data", str(data), "--bars-per-day",
                                      "10", "--train-days", "8", "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert f"line 6: {message}" in result.output

    def test_non_utf8_file_exits_2(self, runner, tmp_path, fixture_csv):
        data = tmp_path / "latin1.csv"
        data.write_bytes(fixture_csv.read_bytes() + b"2021-12-31T09:30,100\xe9\n")
        result = runner.invoke(main, ["backtest", "--data", str(data), "--bars-per-day",
                                      "10", "--train-days", "8", "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert f"price file {data} is not UTF-8 text" in result.output

    def test_thresholded_window_losing_positivity_exits_2(self, runner, tmp_path):
        data = tmp_path / "falling.csv"
        write_price_csv(falling_after_jump_series(), data)
        args = ["backtest", "--data", str(data), "--bars-per-day", "10", "--train-days",
                "8", "--steps-per-update", "2", "--out", str(tmp_path)]
        assert runner.invoke(main, [*args, "--mode", "raw"]).exit_code == 0
        result = runner.invoke(main, [*args, "--mode", "thresholded"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "thresholded window for test day 2021-01-12 lost positivity" in result.output


# one CSV field: floats (infinite, NaN, huge), integers near +-2^63, ISO-8601
# times with a UTC offset or Z, and random text
CSV_FIELD = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["inf", "-inf", "nan", "1e300", "-1e300", "Infinity"]),
    st.integers(2**63 - 2**10, 2**63 + 2**10).map(str),
    st.integers(-2**63 - 2**10, -2**63 + 2**10).map(str),
    st.builds(lambda t, minutes: t.replace(tzinfo=timezone(timedelta(minutes=minutes)))
              .isoformat(), st.datetimes(), st.integers(-1439, 1439)),
    st.datetimes().map(lambda t: t.isoformat() + "Z"),
    st.text(max_size=12))
CSV_FILE = st.one_of(
    st.lists(st.tuples(CSV_FIELD, CSV_FIELD).map(",".join), max_size=6)
    .map(lambda rows: "\n".join(["timestamp,price", *rows]).encode()),
    st.binary(max_size=48).map(lambda raw: b"timestamp,price\n" + raw))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(content=CSV_FILE)
def test_fuzzed_csv_rows_exit_0_or_2_without_traceback(fuzz_dir, content):
    data = fuzz_dir / "rows.csv"
    data.write_bytes(content)
    try:
        read_price_csv(data, 2)
    except IngestionError:
        pass
    result = CliRunner().invoke(main, ["backtest", "--data", str(data), "--bars-per-day",
                                       "2", "--train-days", "2", "--out",
                                       str(fuzz_dir / "out")])
    assert result.exit_code in (0, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


# numbers that are not finite, or not whole where an integer is due, by flag or
# config line, and the message each exits 2 with
NON_FINITE = [
    (["train", "--theta0", "inf"], "", "theta0 must be finite, got inf"),
    (["train", "--theta0", "nan"], "", "theta0 must be finite, got nan"),
    (["train", "--alpha", "inf"], "", "learning_rate must be positive and finite, got inf"),
    (["train"], "alpha = NaN", "learning_rate must be positive and finite, got nan"),
    (["backtest", "--z", "nan"], "", "target_wealth must be finite, got nan"),
    (["backtest", "--rf", "inf"], "", "risk_free_daily must be finite, got inf"),
    (["backtest"], "x0 = -Infinity", "initial_wealth must be finite, got -inf"),
    (["backtest", "--theta0", "-inf"], "", "theta0 must be finite, got -inf"),
    (["backtest", "--alpha", "inf"], "", "learning_rate must be positive and finite, got inf"),
    (["simulate", "--sigma", "nan"], "", "constant diffusion must be finite, got nan"),
    (["simulate", "--drift", "inf"], "", "constant drift must be finite, got inf"),
    (["simulate", "--law", "poisson", "--poisson-rate", "nan"], "",
     "Poisson rate must be >= 0 and finite, got nan"),
    (["train", "--family", "mean_variance"], "z = NaN", "z must be finite, got nan"),
    (["simulate"], "n_steps = 10.5", "n_steps must be an integer, got 10.5"),
]


@pytest.mark.parametrize("args, cfg_line, message", NON_FINITE)
def test_non_finite_number_exits_2(runner, tmp_path, fixture_csv, args, cfg_line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{cfg_line}\n")
    rest = {"simulate": ["--paths", "1", "--seed", "1"],
            "train": ["--episodes", "1", "--dt", "0.1", "--seed", "1"],
            "backtest": ["--data", str(fixture_csv), "--bars-per-day", "10",
                         "--train-days", "8"]}[args[0]]
    result = runner.invoke(main, [*args, "--config", str(cfg), *rest, "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert message in result.output


@pytest.mark.parametrize("command", sorted(cli.KEYS))
def test_every_flag_is_a_key(command):
    # _resolve reads flags by key, so a flag named otherwise would go unread
    flags = {param.name for param in main.commands[command].params}
    assert flags - {"config", "oracle_scan"} <= set(cli.KEYS[command])


def test_readme_lists_every_config_key():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = text[text.index("Config files are"):text.index("Presets (")]
    keys = set().union(*cli.KEYS.values())
    assert {key for key in keys if f"`{key}`" not in paragraph} == set()


def output_digest(directory) -> str:
    """sha256 over the names and bytes of every file a command wrote."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class TestReportBytes:
    """Report bytes are pinned while the random streams stay as they are.

    The digests were recorded with numpy 2.4 on x86-64. A change that alters
    the sampled numbers on purpose must re-record them and say why.
    """

    RUNS = {
        "simulate": ["simulate", "--paths", "3", "--n-steps", "400", "--law", "poisson",
                     "--poisson-rate", "20", "--seed", "21"],
        "train": ["train", "--family", "quadratic", "--loss", "mstde", "--episodes", "30",
                  "--paths", "8", "--alpha", "0.001", "--dt", "0.02", "--seed", str(2**40)],
        "compare": ["compare", "--families", "linear", "--episodes", "5", "--paths", "2",
                    "--alpha", "0.001", "--dt", "0.1", "--oracle-scan", "--scan-paths",
                    "300", "--scan-steps", "100", "--seed", "4"],
        "backtest": ["backtest", "--bars-per-day", "10", "--train-days", "8",
                     "--mode", "both", "--loss", "both", "--steps-per-update", "3"],
    }
    DIGESTS = {
        "simulate": "6d9e8fb6c2b25d4f80d440b6bad498d98910888a18e78fb9e5341289dedbb6a1",
        "train": "0a1278da8a00ce1b35d56e9b8f2ee76ea292b8d3b1a3954f22fa4d0dbc826cc7",
        "compare": "69e03df91b063672e88f74f9114d9c5f7cd1d62de38e6aaae1fde3feb59428e4",
        "backtest": "c62ff3f2c188f690551f0d037599453bb66c750ddd09a1163c3dd9bdd2a51d34",
    }

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_reports_byte_identical(self, runner, tmp_path, fixture_csv, command):
        args = list(self.RUNS[command])
        if command == "backtest":
            args += ["--data", str(fixture_csv)]
        out = tmp_path / "out"
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert output_digest(out) == self.DIGESTS[command]
