"""Configuration-driven experiment runner.

Subcommands: simulate, train, compare, backtest. `KEYS` lists the keys each
one reads, with their kind and default; a key comes from its flag, else a
`key = value` config file (see README), else the named preset, else the
default. A value that does not fit its kind, or a config key that no
subcommand reads, is a configuration error. Exit codes: 0 success, 2
configuration, ingestion or singular-parameter error, 3 numerical divergence.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from . import oracles
from .errors import (ConfigurationError, DivergenceError, SimulationOverflowError,
                     SingularParameterError)
from .estimators import LOSS_KINDS, TrainConfig, trace_rows, train
from .models import BUILTIN_FAMILIES, HORIZON, family_by_name
from .portfolio import THRESHOLD_MODES, BacktestConfig, read_price_csv, rolling_backtest
from .sde import (JumpDiffusionSpec, NoJumps, PoissonRate, SingleUniformJump,
                  build_grid, doubling_jump_spec, grid_for_step, path_to_csv, simulate_batch)
from .serialize import dump_json, write_json

_TRAINING = {  # keys train and compare share
    "seed": ("seed", None), "out": ("str", "out"), "x0": ("float", 0.1),
    "dt": ("float", 0.01), "alpha": ("float", 0.0005), "episodes": ("int", 20000),
    "paths": ("int", 32), "theta0": ("float", 0.5), "record_every": ("int", 100),
}

# subcommand: {key: (kind, default)}; kinds are int, float, str and seed
KEYS = {
    "simulate": {
        "seed": ("seed", None), "out": ("str", "out"), "preset": ("str", None),
        "paths": ("int", 1), "x0": ("float", 0.1), "horizon": ("float", 1.0),
        "n_steps": ("int", 1000), "drift": ("float", 0.0), "sigma": ("float", 1.0),
        "law": ("str", "single_uniform"), "poisson_rate": ("float", 1.0),
    },
    "train": {
        **_TRAINING, "preset": ("str", None), "family": ("str", "linear"),
        "loss": ("str", "msbve"), "z": ("float", 1.01), "wealth_x0": ("float", 1.0),
    },
    "compare": {
        **_TRAINING, "families": ("str", "linear,quadratic,exponential"),
        "scan_paths": ("int", 20000), "scan_steps": ("int", 1000),
    },
    "backtest": {
        "seed": ("seed", 0), "out": ("str", "out"), "data": ("str", None),
        "mode": ("str", "raw"), "loss": ("str", "both"), "train_days": ("int", 126),
        "bars_per_day": ("int", 79), "z": ("float", 1.01), "x0": ("float", 1.0),
        "rf": ("float", 0.0), "alpha": ("float", 50.0), "steps_per_update": ("int", 20),
        "theta0": ("float", 1.0),
    },
}

SIM_PRESETS = {"paper-sim": {}}  # the simulate defaults are the paper's process

_PAPER_TRAINING = dict(dt=0.001, alpha=0.0005, episodes=100000, paths=32, theta0=0.5)
TRAIN_PRESETS = {f"paper-{family}": dict(_PAPER_TRAINING, family=family)
                 for family in ("linear", "quadratic", "exponential")}

_NOUNS = {"int": "an integer", "float": "a number", "str": "a string",
          "seed": "a non-negative integer"}


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


def _typed(key: str, kind: str, value):
    """value as kind; ConfigurationError naming the key and the value unless it
    fits. Number kinds refuse bools; int and seed take integral floats; float
    also parses strings such as `inf`."""
    if kind == "str":
        if isinstance(value, str):
            return value
    elif isinstance(value, bool):
        pass
    elif kind == "float":
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    else:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, int) and (kind == "int" or value >= 0):
            return value
    raise ConfigurationError(f"{key} must be {_NOUNS[kind]}, got {value!r}")


def _resolve(command: str, flags: dict) -> dict:
    """Every key of KEYS[command], typed: flag over config file over preset
    over default. Flags left unset are None."""
    cfg = load_config_file(flags["config"]) if flags["config"] else {}
    known = set().union(*KEYS.values())
    for key in cfg:
        if key not in known:
            raise ConfigurationError(
                f"unknown config key {key!r}; {command} reads {sorted(KEYS[command])}")
    layers = [{k: v for k, v in flags.items() if v is not None}, cfg]

    def pick(key, kind, default):
        for layer in layers:
            if key in layer:
                return _typed(key, kind, layer[key])
        return default

    presets = {"simulate": SIM_PRESETS, "train": TRAIN_PRESETS}.get(command)
    name = pick("preset", "str", None) if presets is not None else None
    if name is not None:
        if name not in presets:
            raise ConfigurationError(f"unknown preset {name!r}; available: {sorted(presets)}")
        layers.append(presets[name])
    return {key: pick(key, kind, default) for key, (kind, default) in KEYS[command].items()}


def _require_seed(seed) -> int:
    if seed is None:
        raise ConfigurationError("a --seed (or config `seed`) is required for "
                                 "stochastic commands")
    return seed


def _out_dir(out) -> Path:
    directory = Path(out)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output dir {out}: {exc}") from exc
    return directory


def _build_spec(x0, drift, sigma, law, poisson_rate) -> JumpDiffusionSpec:
    laws = {
        "none": NoJumps,
        "single_uniform": SingleUniformJump,
        "poisson": lambda: PoissonRate(rate=poisson_rate),
    }
    if law not in laws:
        raise ConfigurationError(f"unknown jump law {law!r}; expected {sorted(laws)}")
    return JumpDiffusionSpec(drift=drift, diffusion=sigma, jump_law=laws[law](), x0=x0)


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
    fn = click.option("--config", type=click.Path(), default=None,
                      help="key = value config file; flags override it.")(fn)
    fn = click.option("--seed", type=int, default=None, help="Master seed.")(fn)
    fn = click.option("--out", default=None, help="Output directory.")(fn)
    return fn


@main.command("simulate")
@_shared_options
@click.option("--preset", default=None, help=f"One of {sorted(SIM_PRESETS)}.")
@click.option("--paths", type=int, default=None, help="Paths to export.")
@click.option("--x0", type=float, default=None)
@click.option("--horizon", type=float, default=None)
@click.option("--n-steps", type=int, default=None)
@click.option("--drift", type=float, default=None)
@click.option("--sigma", type=float, default=None)
@click.option("--law", default=None,
              type=click.Choice(["none", "single_uniform", "poisson"]))
@click.option("--poisson-rate", type=float, default=None)
def cmd_simulate(**flags):
    """Export simulated paths as CSV plus a manifest."""
    def body(v):
        params = {key: v[key] for key in ("x0", "drift", "sigma", "law", "poisson_rate")}
        spec = _build_spec(**params)
        grid = build_grid(v["horizon"], v["n_steps"])
        count = v["paths"]
        if count < 0:
            raise ConfigurationError(f"paths must be >= 0, got {count}")
        master = _require_seed(v["seed"])
        directory = _out_dir(v["out"])
        files = []
        for p in range(count):  # one row at a time keeps memory flat in --paths
            name = f"path_{p:03d}.csv"
            path_to_csv(simulate_batch(spec, grid, master, 0, 1, path_offset=p), 0,
                        directory / name)
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

    _run("simulate", flags, body)


def _reference_minimizers(x0: float):
    """The closed-form reference minimizers, or None when the study process
    starts at an x0 they do not assume."""
    return oracles.reference_minimizers() if x0 == oracles.CLOSED_FORM_X0 else None


def _no_reference(x0: float) -> str:
    return f"no closed-form reference for x0 = {x0}"


def _nearest_reference(table, family: str, theta_final: float):
    cells = [(abs(theta_final - v), fam, method, v)
             for (fam, method), v in table.entries.items() if fam == family]
    if not cells:
        return None
    gap, fam, method, ref = min(cells)
    return {"family": fam, "method": method, "theta_reference": ref, "gap": gap}


def _training(v: dict, loss: str):
    """The doubling-jump spec, the grid that dt leaves on HORIZON, and the
    TrainConfig of one training run."""
    grid = grid_for_step(HORIZON, v["dt"])
    spec = doubling_jump_spec(v["x0"])
    return spec, grid, TrainConfig(
        loss_kind=loss, learning_rate=v["alpha"], episodes=v["episodes"],
        paths_per_episode=v["paths"], theta0=v["theta0"],
        master_seed=_require_seed(v["seed"]), record_every=v["record_every"])


@main.command("train")
@_shared_options
@click.option("--preset", default=None, help=f"One of {sorted(TRAIN_PRESETS)}.")
@click.option("--family", default=None, type=click.Choice(BUILTIN_FAMILIES))
@click.option("--loss", default=None, type=click.Choice(LOSS_KINDS))
@click.option("--episodes", type=int, default=None)
@click.option("--paths", type=int, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--theta0", type=float, default=None)
@click.option("--dt", type=float, default=None)
@click.option("--record-every", type=int, default=None)
def cmd_train(**flags):
    """Run one SGD estimation and report the fitted parameter."""
    def body(v):
        try:
            model = family_by_name(v["family"], z=v["z"], x0=v["wealth_x0"])
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        spec, grid, train_config = _training(v, v["loss"])
        directory = _out_dir(v["out"])
        try:
            result = train(model, spec, grid, train_config)
        except DivergenceError as exc:
            partial = {
                "error": str(exc),
                "episode": exc.episode,
                "last_theta": exc.last_theta,
                "trace": trace_rows(exc.theta_trace, exc.loss_trace),
            }
            write_json(partial, directory / "train_result.json")
            click.echo(f"divergence: {exc}", err=True)
            sys.exit(3)
        write_json(result.to_json_dict(), directory / "train_result.json")
        (directory / "trace.csv").write_text(result.trace_csv())
        click.echo(f"theta_final = {result.theta_final:.6f}")
        table = _reference_minimizers(v["x0"])
        near = table and _nearest_reference(table, model.name, result.theta_final)
        if table is None:
            click.echo(_no_reference(v["x0"]))
        elif near is None:
            click.echo("no reference minimizer for this family")
        else:
            click.echo(f"nearest reference: {near['family']}/{near['method']} "
                       f"theta* = {near['theta_reference']:.6f} "
                       f"gap = {near['gap']:.6f}")

    _run("train", flags, body)


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
def cmd_compare(**flags):
    """Train both losses per family and report gaps to reference minimizers."""
    def body(v):
        names = [f.strip() for f in v["families"].split(",") if f.strip()]
        unknown = [n for n in names if n not in oracles.FAMILIES]
        if unknown:
            raise ConfigurationError(
                f"no reference minimizers for {unknown}; choose from {list(oracles.FAMILIES)}")
        directory = _out_dir(v["out"])
        report = {"families": {}}
        if names:
            master = _require_seed(v["seed"])
            table = _reference_minimizers(v["x0"])
            if table is None:
                click.echo(_no_reference(v["x0"]), err=True)  # stdout carries the report
            report["reference_minimizers"] = table and table.to_json_dict()
            for family_name in names:
                model = family_by_name(family_name)
                cell: dict = {}
                for loss_kind in LOSS_KINDS:
                    spec, grid, train_config = _training(v, loss_kind)
                    try:
                        result = train(model, spec, grid, train_config)
                        ref = table and table.get(family_name, loss_kind)
                        cell[loss_kind] = {
                            "theta_final": result.theta_final,
                            "theta_reference": ref,
                            "gap": None if ref is None else abs(result.theta_final - ref),
                        }
                        trace_name = f"trace_{family_name}_{loss_kind}.csv"
                        (directory / trace_name).write_text(result.trace_csv())
                        cell[loss_kind]["trace_csv"] = trace_name
                    except DivergenceError as exc:
                        cell[loss_kind] = {"error": str(exc)}
                cell["oracle_reference"] = table and table.get(family_name, "oracle")
                if flags["oracle_scan"]:
                    cell["oracle_scan"] = oracles.mc_argmin(
                        model, "oracle", spec,
                        build_grid(HORIZON, v["scan_steps"]), v["scan_paths"], master)
                report["families"][family_name] = cell
        write_json(report, directory / "compare_report.json")
        click.echo(dump_json(report), nl=False)

    _run("compare", flags, body)


@main.command("backtest")
@_shared_options
@click.option("--data", type=click.Path(), default=None, required=False)
@click.option("--mode", default=None, type=click.Choice([*THRESHOLD_MODES, "both"]))
@click.option("--loss", default=None, type=click.Choice([*LOSS_KINDS, "both"]))
@click.option("--train-days", type=int, default=None)
@click.option("--bars-per-day", type=int, default=None)
@click.option("--z", type=float, default=None)
@click.option("--rf", type=float, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--steps-per-update", type=int, default=None,
              help="Gradient steps per trading day.")
@click.option("--theta0", type=float, default=None)
def cmd_backtest(**flags):
    """Rolling-window backtest over (loss, threshold mode) cells."""
    def body(v):
        if v["data"] is None:
            raise ConfigurationError("--data (or config `data`) is required")
        series = read_price_csv(v["data"], v["bars_per_day"])
        directory = _out_dir(v["out"])
        modes = THRESHOLD_MODES if v["mode"] == "both" else [v["mode"]]
        losses = LOSS_KINDS if v["loss"] == "both" else [v["loss"]]
        learning = TrainConfig(
            loss_kind="msbve", learning_rate=v["alpha"], episodes=v["steps_per_update"],
            paths_per_episode=1, theta0=v["theta0"], master_seed=v["seed"])
        report = {"cells": {}, "sharpe_table": {}}
        for loss_kind in losses:
            report["sharpe_table"][loss_kind] = {}
            for mode_name in modes:
                config = BacktestConfig(
                    learning=learning, train_days=v["train_days"],
                    steps_per_day=v["bars_per_day"], target_wealth=v["z"],
                    initial_wealth=v["x0"], risk_free_daily=v["rf"],
                    threshold_mode=mode_name)
                result = rolling_backtest(series, config, loss_kind)
                key = f"{loss_kind}_{mode_name}"
                report["cells"][key] = result.to_json_dict()
                report["sharpe_table"][loss_kind][mode_name] = result.sharpe_annualized
                (directory / f"backtest_{key}.csv").write_text(result.per_day_csv())
        write_json(report, directory / "backtest_report.json")
        for loss_kind, row in report["sharpe_table"].items():
            cells = ", ".join(f"{m}: {s if s is not None else 'degenerate'}"
                              for m, s in row.items())
            click.echo(f"{loss_kind}: {cells}")

    _run("backtest", flags, body)


def _run(command: str, flags: dict, body) -> None:
    """body(resolved keys of command), with library errors mapped to exit codes.

    numpy's overflow and invalid-value warnings are silenced for the whole
    command: the library checks its results for non-finite values and exits 3
    with its own message, which a warning naming a library source line would
    only precede.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            body(_resolve(command, flags))
    except (ConfigurationError, SingularParameterError) as exc:  # ingestion errors included
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except (DivergenceError, SimulationOverflowError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
