"""Configuration-driven experiment runner.

Subcommands: simulate, train, compare, backtest. Options can come from a
`key = value` config file (see README) with command-line flags taking
precedence. Exit codes: 0 success, 2 configuration or ingestion error,
3 numerical divergence.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click

from . import oracles
from .errors import (ConfigurationError, DivergenceError, IngestionError,
                     SimulationOverflowError)
from .estimators import TrainConfig, train
from .models import family_by_name
from .portfolio import BacktestConfig, read_price_csv, rolling_backtest
from .sde import (JumpDiffusionSpec, NoJumps, PoissonRate, SingleUniformJump,
                  build_grid, doubling_jump_spec, path_to_csv, simulate_seeded)
from .serialize import dump_json, write_json

SIM_PRESETS = {
    "paper-sim": dict(x0=0.1, horizon=1.0, n_steps=1000, drift=0.0, sigma=1.0,
                      law="single_uniform"),
}

TRAIN_PRESETS = {
    "paper-linear": dict(family="linear", dt=0.001, alpha=0.0005, episodes=100000,
                         paths=32, theta0=0.5),
    "paper-quadratic": dict(family="quadratic", dt=0.001, alpha=0.0005, episodes=100000,
                            paths=32, theta0=0.5),
    "paper-exponential": dict(family="exponential", dt=0.001, alpha=0.0005,
                              episodes=100000, paths=32, theta0=0.5),
}


def load_config_file(path) -> dict:
    """Parse `key = value` lines; '#' starts a comment; values are JSON scalars
    when they parse, raw strings otherwise."""
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        value = value.strip()
        try:
            out[key.strip()] = json.loads(value)
        except json.JSONDecodeError:
            out[key.strip()] = value
    return out


def _merged(cfg: dict, key: str, flag_value, default):
    """Flag beats config file beats default."""
    if flag_value is not None:
        return flag_value
    if key in cfg:
        return cfg[key]
    return default


def _number(cfg: dict, key: str, flag_value, default, kind=float):
    """_merged value converted by kind (float or int); ConfigurationError
    naming the key and the value when it does not convert."""
    value = _merged(cfg, key, flag_value, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{key} must be {noun}, got {value!r}") from exc


def _with_preset(cfg: dict, flag_value, presets: dict) -> dict:
    """Config-file keys laid over the preset named by the flag or by config
    `preset`; cfg unchanged when no preset is named."""
    name = _merged(cfg, "preset", flag_value, None)
    if name is None:
        return cfg
    if name not in presets:
        raise ConfigurationError(f"unknown preset {name!r}; available: {sorted(presets)}")
    return {**presets[name], **cfg}


def _seed_value(seed) -> int:
    """A master seed as an int; ConfigurationError unless a non-negative integer."""
    if isinstance(seed, float) and seed.is_integer():
        seed = int(seed)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _require_seed(seed) -> int:
    if seed is None:
        raise ConfigurationError("a --seed (or config `seed`) is required for "
                                 "stochastic commands")
    return _seed_value(seed)


def _out_dir(out) -> Path:
    directory = Path(out)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output dir {out}: {exc}") from exc
    return directory


def _build_spec(x0, drift, sigma, law, poisson_rate) -> JumpDiffusionSpec:
    laws = {
        "none": NoJumps(),
        "single_uniform": SingleUniformJump(),
        "poisson": PoissonRate(rate=poisson_rate),
    }
    if law not in laws:
        raise ConfigurationError(f"unknown jump law {law!r}; expected {sorted(laws)}")
    if law == "single_uniform" and drift == 0.0 and sigma == 1.0:
        return doubling_jump_spec(x0)
    return JumpDiffusionSpec(drift=drift, diffusion=sigma,
                             jump_size=lambda t, x_pre: x_pre,
                             jump_law=laws[law], x0=x0)


def _spec_echo(x0, drift, sigma, law, poisson_rate) -> dict:
    echo = {"x0": x0, "drift": drift, "sigma": sigma, "jump_law": law,
            "jump_size": "pre_jump_state"}
    if law == "poisson":
        echo["poisson_rate"] = poisson_rate
    return echo


@click.group()
def main():
    """Jump-robust value-function estimation experiments."""


def _shared_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="key = value config file; flags override it.")(fn)
    fn = click.option("--seed", type=int, default=None, help="Master seed.")(fn)
    fn = click.option("--out", default=None, help="Output directory.")(fn)
    return fn


@main.command("simulate")
@_shared_options
@click.option("--preset", default=None, help=f"One of {sorted(SIM_PRESETS)}.")
@click.option("--paths", "n_paths", type=int, default=None, help="Paths to export.")
@click.option("--x0", type=float, default=None)
@click.option("--horizon", type=float, default=None)
@click.option("--n-steps", type=int, default=None)
@click.option("--drift", type=float, default=None)
@click.option("--sigma", type=float, default=None)
@click.option("--law", default=None,
              type=click.Choice(["none", "single_uniform", "poisson"]))
@click.option("--poisson-rate", type=float, default=None)
def cmd_simulate(config_path, seed, out, preset, n_paths, x0, horizon, n_steps,
                 drift, sigma, law, poisson_rate):
    """Export simulated paths as CSV plus a manifest."""
    def body():
        cfg = _with_preset(load_config_file(config_path) if config_path else {},
                           preset, SIM_PRESETS)
        base = SIM_PRESETS["paper-sim"]
        params = dict(
            x0=_number(cfg, "x0", x0, base["x0"]),
            drift=_number(cfg, "drift", drift, base["drift"]),
            sigma=_number(cfg, "sigma", sigma, base["sigma"]),
            law=_merged(cfg, "law", law, base["law"]),
            poisson_rate=_number(cfg, "poisson_rate", poisson_rate, 1.0),
        )
        grid = build_grid(_number(cfg, "horizon", horizon, base["horizon"]),
                          _number(cfg, "n_steps", n_steps, base["n_steps"], kind=int))
        count = _number(cfg, "paths", n_paths, 1, kind=int)
        master = _require_seed(_merged(cfg, "seed", seed, None))
        directory = _out_dir(_merged(cfg, "out", out, "out"))

        spec = _build_spec(**params)
        files = []
        for p in range(count):
            sample = simulate_seeded(spec, grid, master, episode=0, path=p)
            name = f"path_{p:03d}.csv"
            path_to_csv(sample, directory / name)
            files.append(name)
        manifest = {
            "command": "simulate",
            "seed": master,
            "paths": count,
            "spec": _spec_echo(**params),
            "grid": {"horizon": grid.horizon, "n_steps": grid.n_steps, "dt": grid.dt},
            "files": files,
        }
        write_json(manifest, directory / "manifest.json")
        click.echo(f"wrote {count} path file(s) and manifest.json to {directory}")

    _run(body)


def _nearest_reference(family: str, theta_final: float):
    cells = [(abs(theta_final - v), fam, method, v)
             for (fam, method), v in oracles.reference_minimizers().entries.items()
             if fam == family]
    if not cells:
        return None
    gap, fam, method, ref = min(cells)
    return {"family": fam, "method": method, "theta_reference": ref, "gap": gap}


def _train_once(cfg, family, loss, episodes, paths, alpha, theta0, dt,
                record_every, seed):
    family_name = _merged(cfg, "family", family, "linear")
    z = _number(cfg, "z", None, 1.01)
    x0_wealth = _number(cfg, "wealth_x0", None, 1.0)
    horizon = 1.0
    model = family_by_name(family_name, z=z, x0=x0_wealth, horizon=horizon)
    step = _number(cfg, "dt", dt, 0.01)
    if not 0 < step < math.inf:
        raise ConfigurationError(f"dt must be positive and finite, got {step}")
    grid = build_grid(horizon, round(horizon / step))
    spec = doubling_jump_spec(_number(cfg, "x0", None, 0.1))
    train_config = TrainConfig(
        loss_kind=_merged(cfg, "loss", loss, "msbve"),
        learning_rate=_number(cfg, "alpha", alpha, 0.0005),
        episodes=_number(cfg, "episodes", episodes, 20000, kind=int),
        paths_per_episode=_number(cfg, "paths", paths, 32, kind=int),
        theta0=_number(cfg, "theta0", theta0, 0.5),
        master_seed=_require_seed(_merged(cfg, "seed", seed, None)),
        record_every=_number(cfg, "record_every", record_every, 100, kind=int),
    )
    return family_name, model, spec, grid, train_config


@main.command("train")
@_shared_options
@click.option("--preset", default=None, help=f"One of {sorted(TRAIN_PRESETS)}.")
@click.option("--family", default=None,
              type=click.Choice(["linear", "quadratic", "exponential", "mean_variance"]))
@click.option("--loss", default=None, type=click.Choice(["mstde", "msbve"]))
@click.option("--episodes", type=int, default=None)
@click.option("--paths", type=int, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--theta0", type=float, default=None)
@click.option("--dt", type=float, default=None)
@click.option("--record-every", type=int, default=None)
def cmd_train(config_path, seed, out, preset, family, loss, episodes, paths,
              alpha, theta0, dt, record_every):
    """Run one SGD estimation and report the fitted parameter."""
    def body():
        cfg = _with_preset(load_config_file(config_path) if config_path else {},
                           preset, TRAIN_PRESETS)
        family_name, model, spec, grid, train_config = _train_once(
            cfg, family, loss, episodes, paths, alpha, theta0, dt, record_every, seed)
        directory = _out_dir(_merged(cfg, "out", out, "out"))
        try:
            result = train(model, spec, grid, train_config)
        except DivergenceError as exc:
            partial = {
                "error": str(exc),
                "episode": exc.episode,
                "last_theta": exc.last_theta,
                "trace": [[e, th, None] for e, th in exc.theta_trace],
            }
            write_json(partial, directory / "train_result.json")
            click.echo(f"divergence: {exc}", err=True)
            sys.exit(3)
        write_json(result.to_json_dict(), directory / "train_result.json")
        (directory / "trace.csv").write_text(result.trace_csv())
        click.echo(f"theta_final = {result.theta_final:.6f}")
        near = _nearest_reference(family_name, result.theta_final)
        if near is None:
            click.echo("no reference minimizer for this family")
        else:
            click.echo(f"nearest reference: {near['family']}/{near['method']} "
                       f"theta* = {near['theta_reference']:.6f} "
                       f"gap = {near['gap']:.6f}")

    _run(body)


@main.command("compare")
@_shared_options
@click.option("--families", default=None,
              help="Comma-separated families (empty string allowed).")
@click.option("--episodes", type=int, default=None)
@click.option("--paths", type=int, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--theta0", type=float, default=None)
@click.option("--dt", type=float, default=None)
@click.option("--oracle-scan/--no-oracle-scan", default=False)
@click.option("--scan-paths", type=int, default=None)
@click.option("--scan-steps", type=int, default=None)
def cmd_compare(config_path, seed, out, families, episodes, paths, alpha, theta0,
                dt, oracle_scan, scan_paths, scan_steps):
    """Train both losses per family and report gaps to reference minimizers."""
    def body():
        cfg = load_config_file(config_path) if config_path else {}
        raw = _merged(cfg, "families", families, "linear,quadratic,exponential")
        names = [f.strip() for f in str(raw).split(",") if f.strip()]
        unknown = [n for n in names if n not in oracles.FAMILIES]
        if unknown:
            raise ConfigurationError(
                f"no reference minimizers for {unknown}; choose from {list(oracles.FAMILIES)}")
        directory = _out_dir(_merged(cfg, "out", out, "out"))
        report = {"families": {}}
        if names:
            master = _require_seed(_merged(cfg, "seed", seed, None))
            table = oracles.reference_minimizers()
            report["reference_minimizers"] = table.to_json_dict()
            for family_name in names:
                cell: dict = {}
                for loss_kind in ("mstde", "msbve"):
                    _, model, spec, grid, train_config = _train_once(
                        cfg, family_name, loss_kind, episodes, paths, alpha,
                        theta0, dt, None, master)
                    try:
                        result = train(model, spec, grid, train_config)
                        ref = table.get(family_name, loss_kind)
                        cell[loss_kind] = {
                            "theta_final": result.theta_final,
                            "theta_reference": ref,
                            "gap": abs(result.theta_final - ref),
                        }
                        trace_name = f"trace_{family_name}_{loss_kind}.csv"
                        (directory / trace_name).write_text(result.trace_csv())
                        cell[loss_kind]["trace_csv"] = trace_name
                    except DivergenceError as exc:
                        cell[loss_kind] = {"error": str(exc)}
                cell["oracle_reference"] = table.get(family_name, "oracle")
                if oracle_scan:
                    grid = build_grid(
                        1.0, _number(cfg, "scan_steps", scan_steps, 1000, kind=int))
                    n_scan = _number(cfg, "scan_paths", scan_paths, 20000, kind=int)
                    model = family_by_name(family_name, z=1.01, x0=1.0, horizon=1.0)
                    cell["oracle_scan"] = oracles.mc_argmin(
                        model, "oracle", doubling_jump_spec(), grid, n_scan, master)
                report["families"][family_name] = cell
        write_json(report, directory / "compare_report.json")
        click.echo(dump_json(report), nl=False)

    _run(body)


@main.command("backtest")
@_shared_options
@click.option("--data", "data_path", type=click.Path(), default=None, required=False)
@click.option("--mode", default=None,
              type=click.Choice(["raw", "thresholded", "both"]))
@click.option("--loss", default=None, type=click.Choice(["mstde", "msbve", "both"]))
@click.option("--train-days", type=int, default=None)
@click.option("--bars-per-day", type=int, default=None)
@click.option("--z", type=float, default=None)
@click.option("--rf", type=float, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--steps-per-update", type=int, default=None,
              help="Gradient steps per trading day.")
@click.option("--theta0", type=float, default=None)
def cmd_backtest(config_path, seed, out, data_path, mode, loss, train_days,
                 bars_per_day, z, rf, alpha, steps_per_update, theta0):
    """Rolling-window backtest over (loss, threshold mode) cells."""
    def body():
        cfg = load_config_file(config_path) if config_path else {}
        path = _merged(cfg, "data", data_path, None)
        if path is None:
            raise ConfigurationError("--data (or config `data`) is required")
        bars = _number(cfg, "bars_per_day", bars_per_day, 79, kind=int)
        series = read_price_csv(path, bars)
        directory = _out_dir(_merged(cfg, "out", out, "out"))
        mode_req = _merged(cfg, "mode", mode, "raw")
        loss_req = _merged(cfg, "loss", loss, "both")
        modes = ["raw", "thresholded"] if mode_req == "both" else [mode_req]
        losses = ["mstde", "msbve"] if loss_req == "both" else [loss_req]
        learning = TrainConfig(
            loss_kind="msbve",
            learning_rate=_number(cfg, "alpha", alpha, 50.0),
            episodes=_number(cfg, "steps_per_update", steps_per_update, 20, kind=int),
            paths_per_episode=1,
            theta0=_number(cfg, "theta0", theta0, 1.0),
            master_seed=_seed_value(_merged(cfg, "seed", seed, 0)),
        )
        report = {"cells": {}, "sharpe_table": {}}
        for loss_kind in losses:
            report["sharpe_table"][loss_kind] = {}
            for mode_name in modes:
                config = BacktestConfig(
                    learning=learning,
                    train_days=_number(cfg, "train_days", train_days, 126, kind=int),
                    steps_per_day=bars,
                    target_wealth=_number(cfg, "z", z, 1.01),
                    initial_wealth=_number(cfg, "x0", None, 1.0),
                    risk_free_daily=_number(cfg, "rf", rf, 0.0),
                    threshold_mode=mode_name,
                )
                result = rolling_backtest(series, config, loss_kind)
                key = f"{loss_kind}_{mode_name}"
                report["cells"][key] = result.to_json_dict()
                report["sharpe_table"][loss_kind][mode_name] = result.sharpe_annualized
                (directory / f"backtest_{key}.csv").write_text(result.per_day_csv())
        write_json(report, directory / "backtest_report.json")
        for loss_kind, row in report["sharpe_table"].items():
            cells = ", ".join(f"{m}: {v if v is not None else 'degenerate'}"
                              for m, v in row.items())
            click.echo(f"{loss_kind}: {cells}")

    _run(body)


def _run(body) -> None:
    try:
        body()
    except (IngestionError, ConfigurationError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except (DivergenceError, SimulationOverflowError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
