"""MSTDE and MSBVE losses, their analytic gradients, and the batched SGD loop.

Per path with fitted values J_0 .. J_n along the grid:

    mstde = sum_{i=0}^{n-1} (J_{i+1} - J_i)^2
    msbve = sum_{i=1}^{n-1} |J_{i+1} - J_i| |J_i - J_{i-1}|

Gradients in theta follow by the chain rule; for msbve the subgradient
convention sgn(0) = 0 is used, which coincides with the true gradient wherever
no consecutive difference vanishes. Training simulates a fresh batch of paths
each episode and applies one step with the batch-mean gradient.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import math
import numpy as np

from .errors import ConfigurationError, DivergenceError, InsufficientDataError
from .models import LinearValue, path_values
from .rng import stream
from .sde import JumpDiffusionSpec, PathBatch, TimeGrid, build_grid, simulate_batch

LOSS_KINDS = ("mstde", "msbve")


def mstde_loss(values) -> float:
    """Sum of squared consecutive differences; needs at least 2 values."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise InsufficientDataError(f"mstde needs >= 2 values, got {v.size}")
    return float(losses_by_row("mstde", v[None, :])[0])


def msbve_loss(values) -> float:
    """Sum of adjacent products of absolute differences; needs at least 3 values."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 3:
        raise InsufficientDataError(f"msbve needs >= 3 values, got {v.size}")
    return float(losses_by_row("msbve", v[None, :])[0])


def losses_by_row(kind: str, values: np.ndarray) -> np.ndarray:
    """Per-row loss for a (paths, n+1) matrix of fitted values."""
    d = np.diff(values, axis=1)
    if kind == "mstde":
        return np.sum(d * d, axis=1)
    if kind == "msbve":
        a = np.abs(d)
        return np.sum(a[:, 1:] * a[:, :-1], axis=1)
    raise ConfigurationError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")


def grads_by_row(kind: str, values: np.ndarray, dvalues: np.ndarray) -> np.ndarray:
    """Per-row theta-gradient for matrices of values and their theta-derivatives."""
    d = np.diff(values, axis=1)
    g = np.diff(dvalues, axis=1)
    if kind == "mstde":
        return 2.0 * np.sum(d * g, axis=1)
    if kind == "msbve":
        s = np.sign(d)
        a = np.abs(d)
        return np.sum(g[:, 1:] * a[:, :-1] * s[:, 1:] + g[:, :-1] * a[:, 1:] * s[:, :-1],
                      axis=1)
    raise ConfigurationError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")


def mstde_grad(model, theta: float, batch: PathBatch) -> np.ndarray:
    """Exact gradient of each row's mstde_loss(values) with respect to theta."""
    if batch.observed.shape[1] < 2:
        raise InsufficientDataError("mstde gradient needs paths with >= 2 points")
    dJ = model.dvalue_dtheta(theta, batch.grid.times, batch.observed)
    return grads_by_row("mstde", path_values(model, theta, batch), np.asarray(dJ, dtype=float))


def msbve_grad(model, theta: float, batch: PathBatch) -> np.ndarray:
    """Subgradient of each row's msbve_loss(values) with sgn(0) = 0."""
    if batch.observed.shape[1] < 3:
        raise InsufficientDataError("msbve gradient needs paths with >= 3 points")
    dJ = model.dvalue_dtheta(theta, batch.grid.times, batch.observed)
    return grads_by_row("msbve", path_values(model, theta, batch), np.asarray(dJ, dtype=float))


@dataclass(frozen=True)
class TrainConfig:
    loss_kind: str
    learning_rate: float
    episodes: int
    paths_per_episode: int
    theta0: float
    master_seed: int
    record_every: int = 100
    grad_clip: Optional[float] = None
    plateau_tol: Optional[float] = None
    plateau_window: int = 1000

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigurationError(
                f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if not (self.learning_rate > 0):
            raise ConfigurationError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.episodes < 1:
            raise ConfigurationError(f"episodes must be >= 1, got {self.episodes}")
        if self.paths_per_episode < 1:
            raise ConfigurationError(
                f"paths_per_episode must be >= 1, got {self.paths_per_episode}")
        if self.record_every < 1:
            raise ConfigurationError(f"record_every must be >= 1, got {self.record_every}")


@dataclass
class TrainResult:
    theta_final: float
    theta_trace: list  # [(episode, theta)], first entry (0, theta0)
    loss_trace: list   # [(episode, batch-mean loss)]
    config: TrainConfig
    clip_events: int = 0
    episodes_run: int = 0

    def to_json_dict(self) -> dict:
        losses = dict(self.loss_trace)
        trace = [[e, th, losses.get(e)] for e, th in self.theta_trace]
        return {
            "theta_final": self.theta_final,
            "trace": trace,
            "clip_events": self.clip_events,
            "episodes_run": self.episodes_run,
            "config": asdict(self.config),
        }

    def trace_csv(self) -> str:
        losses = dict(self.loss_trace)
        lines = ["episode,theta,loss"]
        for e, th in self.theta_trace:
            loss = losses.get(e)
            lines.append(f"{e},{th:.17g},{'' if loss is None else format(loss, '.17g')}")
        return "\n".join(lines) + "\n"


def train(model, spec: JumpDiffusionSpec, grid: TimeGrid, config: TrainConfig) -> TrainResult:
    """Run the SGD loop; deterministic given the config.

    Episode e simulates paths with streams (master_seed, e, path index),
    averages the per-path gradient over the batch, and takes one step.
    """
    theta = float(config.theta0)
    theta_trace = [(0, theta)]
    loss_trace: list = []
    times = grid.times[None, :]
    clip_events = 0
    plateau_buf = [theta] if config.plateau_tol is not None else None
    episodes_run = 0

    for e in range(1, config.episodes + 1):
        batch = simulate_batch(spec, grid, config.master_seed, e - 1,
                               config.paths_per_episode)
        J = np.asarray(model.value(theta, times, batch.observed), dtype=float)
        dJ = np.asarray(model.dvalue_dtheta(theta, times, batch.observed), dtype=float)
        grad = float(np.mean(grads_by_row(config.loss_kind, J, dJ)))
        loss = float(np.mean(losses_by_row(config.loss_kind, J)))
        if config.grad_clip is not None and abs(grad) > config.grad_clip:
            grad = math.copysign(config.grad_clip, grad)
            clip_events += 1
        new_theta = theta - config.learning_rate * grad
        if not (math.isfinite(grad) and math.isfinite(new_theta)):
            raise DivergenceError(
                f"non-finite update at episode {e} (last finite theta {theta:.6g})",
                episode=e, last_theta=theta,
                theta_trace=theta_trace, loss_trace=loss_trace)
        theta = new_theta
        episodes_run = e
        if e % config.record_every == 0 or e == config.episodes:
            theta_trace.append((e, theta))
            loss_trace.append((e, loss))
        if plateau_buf is not None:
            plateau_buf.append(theta)
            if len(plateau_buf) > config.plateau_window:
                oldest = plateau_buf.pop(0)
                if abs(theta - oldest) < config.plateau_tol:
                    break

    if theta_trace[-1][0] != episodes_run:
        theta_trace.append((episodes_run, theta))
    return TrainResult(theta_final=theta, theta_trace=theta_trace, loss_trace=loss_trace,
                       config=config, clip_events=clip_events, episodes_run=episodes_run)


def jump_robustness_ratio(dt: float, n_seeds: int = 200, theta: float = 0.5,
                          master_seed: int = 0, x0: float = 0.1) -> float:
    """Ratio of the msbve to mstde loss inflation caused by one injected jump.

    Pairs of paths share Brownian increments on a grid of step dt over [0, 1];
    the jump path additionally gains +1 from the midpoint grid index onward.
    Returns mean(msbve inflation) / mean(mstde inflation) over the seeds,
    using the linear family at the given theta.
    """
    n = round(1.0 / dt)
    grid = build_grid(1.0, n)
    model = LinearValue()
    k = n // 2
    sq = math.sqrt(grid.dt)
    sums = {"mstde_c": 0.0, "mstde_j": 0.0, "msbve_c": 0.0, "msbve_j": 0.0}
    for s in range(n_seeds):
        z = stream(master_seed, s).standard_normal(n)
        xc = np.empty(n + 1)
        xc[0] = x0
        np.cumsum(sq * z, out=xc[1:])
        xc[1:] += x0
        xj = xc.copy()
        xj[k:] += 1.0
        Jc = model.value(theta, grid.times, xc)
        Jj = model.value(theta, grid.times, xj)
        sums["mstde_c"] += mstde_loss(Jc)
        sums["mstde_j"] += mstde_loss(Jj)
        sums["msbve_c"] += msbve_loss(Jc)
        sums["msbve_j"] += msbve_loss(Jj)
    return (sums["msbve_j"] - sums["msbve_c"]) / (sums["mstde_j"] - sums["mstde_c"])
