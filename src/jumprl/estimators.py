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

from .errors import (ConfigurationError, DivergenceError, InsufficientDataError,
                     SimulationOverflowError)
from .models import HORIZON, LinearValue
from .rng import stream
from .sde import (STUDY_X0, JumpDiffusionSpec, TimeGrid, Workspace, grid_for_step,
                  simulate_batch)

# the fewest fitted values per path each loss is defined on
_MIN_POINTS = {"mstde": 2, "msbve": 3}
LOSS_KINDS = tuple(_MIN_POINTS)
RATIO_THETA = 0.5  # jump_robustness_ratio: the linear family's theta


def mstde_loss(values) -> float:
    """Sum of squared consecutive differences; needs at least 2 values."""
    return float(losses_by_row("mstde", np.asarray(values, dtype=float)[None, ...])[0])


def msbve_loss(values) -> float:
    """Sum of adjacent products of absolute differences; needs at least 3 values."""
    return float(losses_by_row("msbve", np.asarray(values, dtype=float)[None, ...])[0])


def _shifted(op, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """op(a[:, j + 1], b[:, j]) for every column j of two C-contiguous
    (rows, cols) arrays, as one flat pass over their raveled rows into out,
    a C-contiguous array of the same shape.

    Column cols - 1 pairs a row's first entry with the previous row's last
    (and holds 0 in the last row), so only the first cols - 1 columns of a
    difference, and the first cols - 2 of a product of differences, belong
    to one row; the kernels sum no others. Every pass thus runs over
    contiguous memory, and the row sums see one layout whatever the layout
    of the kernels' inputs.
    """
    flat = out.reshape(-1)
    op(a.reshape(-1)[1:], b.reshape(-1)[:-1], out=flat[:-1])
    flat[-1:] = 0.0
    return out


def _rows(kind: str, values) -> np.ndarray:
    """values as a C-contiguous (paths, points) matrix, once kind is a loss
    kind and each path has the points that loss needs."""
    if kind not in _MIN_POINTS:
        raise ConfigurationError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    v = np.ascontiguousarray(values)
    if v.ndim != 2 or v.shape[1] < _MIN_POINTS[kind]:
        raise InsufficientDataError(
            f"{kind} needs a (paths, points) matrix with >= {_MIN_POINTS[kind]} points "
            f"per path, got shape {v.shape}")
    return v


def losses_by_row(kind: str, values: np.ndarray,
                  workspace: Workspace | None = None) -> np.ndarray:
    """Per-row loss for a (paths, n+1) matrix of fitted values; the
    temporaries are formed in the workspace, a fresh one unless given, as
    "d" and "term". The workspace must not hold the values under those names."""
    v = _rows(kind, values)
    ws = Workspace() if workspace is None else workspace
    d = _shifted(np.subtract, v, v, ws.take("d", v.shape, v.dtype))
    cols = d.shape[1]
    if kind == "mstde":
        d *= d
        return np.add.reduce(d[:, :cols - 1], axis=1)
    np.abs(d, out=d)
    term = _shifted(np.multiply, d, d, ws.take("term", d.shape, d.dtype))
    return np.add.reduce(term[:, :cols - 2], axis=1)


def grads_by_row(kind: str, values: np.ndarray, dvalues: np.ndarray,
                 workspace: Workspace | None = None) -> np.ndarray:
    """Per-row theta-gradient for a matrix of values and their theta-derivatives
    of the same shape; the temporaries are formed in the workspace, a fresh
    one unless given, as "d", "g", "sign" and "term". The workspace must not
    hold the values or their derivatives under those names.
    """
    v, dv = _rows(kind, values), np.ascontiguousarray(dvalues)
    if dv.shape != v.shape:
        raise ConfigurationError(f"dvalues of shape {dv.shape} do not match "
                                 f"the values' shape {v.shape}")
    ws = Workspace() if workspace is None else workspace
    d = _shifted(np.subtract, v, v, ws.take("d", v.shape, v.dtype))
    g = _shifted(np.subtract, dv, dv, ws.take("g", dv.shape, dv.dtype))
    cols = d.shape[1]
    if kind == "mstde":
        d *= g
        return 2.0 * np.add.reduce(d[:, :cols - 1], axis=1)
    # g |d'| sgn(d) is formed as (g sgn(d)) |d'|: with sgn in {-1, 0, 1} and
    # sign-symmetric rounding the two orders give the same bits
    s = np.sign(d, out=ws.take("sign", d.shape, d.dtype))
    g *= s
    np.abs(d, out=d)
    term = _shifted(np.multiply, g, d, ws.take("term", g.shape, g.dtype))
    # plus g[:, j] |d[:, j + 1]|, formed in s, whose last flat entry stays sgn(0) = 0
    np.multiply(g.reshape(-1)[:-1], d.reshape(-1)[1:], out=s.reshape(-1)[:-1])
    term += s
    return np.add.reduce(term[:, :cols - 2], axis=1)


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
        if not 0 < self.learning_rate < math.inf:
            raise ConfigurationError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not math.isfinite(self.theta0):
            raise ConfigurationError(f"theta0 must be finite, got {self.theta0}")
        if self.grad_clip is not None and not 0 < self.grad_clip < math.inf:
            raise ConfigurationError(
                f"grad_clip must be positive and finite, got {self.grad_clip}")
        if self.episodes < 1:
            raise ConfigurationError(f"episodes must be >= 1, got {self.episodes}")
        if self.paths_per_episode < 1:
            raise ConfigurationError(
                f"paths_per_episode must be >= 1, got {self.paths_per_episode}")
        if self.record_every < 1:
            raise ConfigurationError(f"record_every must be >= 1, got {self.record_every}")


def trace_rows(theta_trace: list, loss_trace: list) -> list:
    """[episode, theta, batch-mean loss] per recorded theta, with None where
    no loss was recorded (episode 0, and an early stop off the record)."""
    losses = dict(loss_trace)
    return [[e, th, losses.get(e)] for e, th in theta_trace]


@dataclass
class TrainResult:
    theta_final: float
    theta_trace: list  # [(episode, theta)], first entry (0, theta0)
    loss_trace: list   # [(episode, batch-mean loss)]
    config: TrainConfig
    clip_events: int
    episodes_run: int

    def to_json_dict(self) -> dict:
        return {
            "theta_final": self.theta_final,
            "trace": trace_rows(self.theta_trace, self.loss_trace),
            "clip_events": self.clip_events,
            "episodes_run": self.episodes_run,
            "config": asdict(self.config),
        }

    def trace_csv(self) -> str:
        lines = ["episode,theta,loss"]
        for e, th, loss in trace_rows(self.theta_trace, self.loss_trace):
            lines.append(f"{e},{th:.17g},{'' if loss is None else format(loss, '.17g')}")
        return "\n".join(lines) + "\n"


def train(model, spec: JumpDiffusionSpec, grid: TimeGrid, config: TrainConfig) -> TrainResult:
    """Run the SGD loop; deterministic given the config.

    Episode e simulates paths with streams (master_seed, e, path index),
    averages the per-path gradient over the batch, and takes one step. Every
    episode simulates its batch and forms its values, derivatives and kernel
    temporaries in the same workspace. A non-finite update, or a simulated
    state that overflows, raises DivergenceError with the trace so far.
    """
    theta = float(config.theta0)
    theta_trace = [(0, theta)]
    loss_trace: list = []
    times = grid.times[None, :]
    clip_events = 0
    plateau_buf = [theta] if config.plateau_tol is not None else None
    episodes_run = 0
    workspace = Workspace()

    for e in range(1, config.episodes + 1):
        try:
            batch = simulate_batch(spec, grid, config.master_seed, e - 1,
                                   config.paths_per_episode, workspace=workspace)
        except SimulationOverflowError as exc:
            raise DivergenceError(
                f"simulated state overflowed at episode {e} (last finite theta {theta:.6g}): "
                f"{exc}", episode=e, last_theta=theta,
                theta_trace=theta_trace, loss_trace=loss_trace) from exc
        shape = batch.observed.shape
        J = model.value(theta, times, batch.observed, out=workspace.take("J", shape))
        dJ = model.dvalue_dtheta(theta, times, batch.observed, out=workspace.take("dJ", shape))
        # batch means, with np.mean's bits and without its dispatch
        grads = grads_by_row(config.loss_kind, J, dJ, workspace)
        grad = float(np.add.reduce(grads) / grads.size)
        losses = losses_by_row(config.loss_kind, J, workspace)
        loss = float(np.add.reduce(losses) / losses.size)
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


def jump_robustness_ratio(dt: float, n_seeds: int = 200, master_seed: int = 0) -> float:
    """Ratio of the msbve to mstde loss inflation caused by one injected jump.

    Pairs of paths share Brownian increments on a grid of step dt over [0, 1];
    the jump path additionally gains +1 from the midpoint grid index onward.
    Returns mean(msbve inflation) / mean(mstde inflation) over the seeds,
    using the linear family at theta = RATIO_THETA on paths from STUDY_X0.
    Raises ConfigurationError, before any path is drawn, unless dt leaves 2
    or more steps on [0, 1] and n_seeds >= 1.
    """
    grid = grid_for_step(HORIZON, dt)
    if n_seeds < 1:
        raise ConfigurationError(f"n_seeds must be >= 1, got {n_seeds}")
    model = LinearValue()
    n = grid.n_steps
    sq = math.sqrt(grid.dt)
    x = np.empty((2, n + 1))  # the continuous path, then the jump path
    x[:, 0] = STUDY_X0
    workspace = Workspace()  # every seed's values and kernel temporaries
    totals = {kind: np.zeros(2) for kind in LOSS_KINDS}  # continuous, jump
    for s in range(n_seeds):
        z = stream(master_seed, s).standard_normal(n)
        np.cumsum(sq * z, out=x[0, 1:])
        x[0, 1:] += STUDY_X0
        x[1] = x[0]
        x[1, n // 2:] += 1.0
        J = model.value(RATIO_THETA, grid.times, x, out=workspace.take("J", x.shape))
        for kind, total in totals.items():
            total += losses_by_row(kind, J, workspace)
    (mstde_c, mstde_j), (msbve_c, msbve_j) = totals["mstde"], totals["msbve"]
    return float((msbve_j - msbve_c) / (mstde_j - mstde_c))
