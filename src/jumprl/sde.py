"""Seedable simulation of Brownian and jump-diffusion paths on uniform time grids.

Paths are generated by the Euler recursion

    X(i+1) = X(i) + b dt + sigma sqrt(dt) Z_i

with at most one jump per path, dX = b dt + sigma dW + X- dN: the jump adds the
pre-jump state, so the state doubles. A path's jump time is snapped to the
first grid point at or after it, and the jump is applied after that step's
diffusion increment. Alongside the observed path we retain the jump-free
accumulation of the same realized increments (the latent continuous component),
which downstream oracle computations evaluate in place of the observed states,
and each path's landing grid index, from which its jump's size and its left
limits follow.

Drift and diffusion are constants, so every path's increments come from one
vectorized pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Union, get_args

import numpy as np

from .errors import ConfigurationError, SimulationOverflowError
from .rng import path_rng, philox_keys
from .serialize import dump_csv


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, horizon] into n_steps steps."""

    horizon: float
    n_steps: int
    dt: float
    times: np.ndarray  # (n_steps + 1,), times[0] = 0, times[-1] = horizon

    def __post_init__(self):
        self.times.setflags(write=False)


def build_grid(horizon: float, n_steps: int) -> TimeGrid:
    """Build the uniform grid with dt = horizon / n_steps.

    Raises ConfigurationError for horizon <= 0, n_steps < 2, or a step count
    too large to allocate.
    """
    if not math.isfinite(horizon) or horizon <= 0:
        raise ConfigurationError(f"horizon must be positive and finite, got {horizon}")
    if not (2 <= n_steps < math.inf and int(n_steps) == n_steps):
        raise ConfigurationError(f"n_steps must be an integer >= 2, got {n_steps}")
    n_steps = int(n_steps)
    too_large = f"n_steps = {n_steps:.6g} is too large to allocate a grid"
    if n_steps >= np.iinfo(np.intp).max:  # linspace wraps such a count to an empty grid
        raise ConfigurationError(too_large)
    try:
        times = np.linspace(0.0, float(horizon), n_steps + 1)
    except (OverflowError, ValueError, MemoryError) as exc:
        raise ConfigurationError(too_large) from exc
    return TimeGrid(horizon=float(horizon), n_steps=n_steps,
                    dt=float(horizon) / n_steps, times=times)


def grid_for_step(horizon: float, dt: float) -> TimeGrid:
    """The uniform grid on [0, horizon] with round(horizon / dt) steps.

    Raises ConfigurationError for a dt that is not positive and finite, that
    is so small that horizon / dt overflows, or that leaves fewer than 2 steps.
    """
    if not 0 < dt < math.inf:
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    n_steps = horizon / dt
    if n_steps == math.inf:
        raise ConfigurationError(
            f"dt must leave a finite number of grid steps on the horizon {horizon}, got {dt}")
    n_steps = round(n_steps)
    if n_steps < 2:
        raise ConfigurationError(
            f"dt must leave at least 2 grid steps on the horizon {horizon}, got {dt}")
    return build_grid(horizon, n_steps)


@dataclass(frozen=True)
class NoJumps:
    pass


@dataclass(frozen=True)
class SingleUniformJump:
    """Exactly one jump per path, at a time uniform over the horizon."""


JumpLaw = Union[NoJumps, SingleUniformJump]


@dataclass(frozen=True)
class JumpDiffusionSpec:
    """Coefficients, jump law, and initial state of a scalar jump diffusion
    whose every jump adds the pre-jump state."""

    drift: float
    diffusion: float
    jump_law: JumpLaw
    x0: float

    def __post_init__(self):
        if not isinstance(self.jump_law, get_args(JumpLaw)):
            raise ConfigurationError(f"unknown jump law {self.jump_law!r}; expected one of "
                                     f"{[law.__name__ for law in get_args(JumpLaw)]}")
        for name in ("x0", "drift", "diffusion"):
            value = getattr(self, name)
            if not isinstance(value, Real) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                what = name if name == "x0" else f"constant {name}"
                raise ConfigurationError(f"{what} must be finite, got {value}")
        if self.diffusion < 0:
            raise ConfigurationError(f"constant diffusion must be >= 0, got {self.diffusion}")


def sample_single_jump_time(rng: np.random.Generator) -> float:
    """Uniform draw on the open interval (0, 1)."""
    u = float(rng.random())
    while u == 0.0:
        u = float(rng.random())
    return u


class Workspace:
    """Everything one loop reuses from step to step: named arrays, and the
    Philox generator that simulate_batch re-points to each path's stream.
    Arrays under different names never alias; a workspace must not be shared
    between threads."""

    def __init__(self):
        self._arrays = {}
        self.generator = np.random.Generator(np.random.Philox(0))

    def take(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        """An uninitialised array under name: the one held there if it has this
        shape and dtype, its leading rows if it has more rows of the same
        trailing shape and dtype, else a new one that replaces it."""
        held = self._arrays.get(name)
        if held is not None and held.dtype == dtype:
            if held.shape == shape:
                return held
            if held.shape[1:] == shape[1:] and 0 <= shape[0] <= held.shape[0]:
                return held[:shape[0]]
        held = self._arrays[name] = None  # free before allocating
        array = self._arrays[name] = np.empty(shape, dtype)
        return array


@dataclass(frozen=True)
class PathBatch:
    """Dense arrays for a batch of paths sharing one spec and grid.

    A row's jump lands at grid index jump_step[row]; every row has one, or
    none does. Its pre-jump state, which is also its size, is
    continuous[row, step], and its left limit there is observed less that
    state. Every array is read-only.
    """

    grid: TimeGrid
    observed: np.ndarray    # (paths, n+1)
    continuous: np.ndarray  # (paths, n+1)
    jump_step: np.ndarray   # (paths,) landing grid index of each row's jump, or (0,)

    def __post_init__(self):
        for array in (self.observed, self.continuous, self.jump_step):
            array.setflags(write=False)


def simulate_batch(spec: JumpDiffusionSpec, grid: TimeGrid, master_seed: int,
                   episode: int, n_paths: int, path_offset: int = 0, *,
                   workspace: Workspace | None = None) -> PathBatch:
    """Simulate n_paths paths with per-path streams (master_seed, episode, offset+i).

    Each row depends only on its own stream, so results do not depend on
    batch or chunk boundaries. All rows' keys are derived at once, and the
    workspace's generator is re-pointed to each row's stream in turn. The
    batch's state arrays are read-only views of the workspace's
    "continuous" and "observed" arrays, valid until their names are next
    taken, and its normals are left in "normals"; without a workspace the
    batch gets a fresh one, so it owns its arrays. The values are the same
    either way. Raises ConfigurationError, before any path is drawn, if the
    batch cannot be allocated.
    """
    n = grid.n_steps
    ws = Workspace() if workspace is None else workspace
    state = (n_paths, n + 1)
    try:
        held = (ws.take("normals", (n_paths, n)), ws.take("continuous", state),
                ws.take("observed", state))
    except (MemoryError, ValueError) as exc:
        raise ConfigurationError(f"cannot allocate a batch of n_paths = {n_paths} x "
                                 f"n_steps = {n}: {exc}") from exc
    # views, so that PathBatch marks them read-only and the held arrays stay writable
    z, cont, observed = (array[:n_paths] for array in held)
    keys = philox_keys(master_seed, episode, path_offset, n_paths).tolist()
    rng = ws.generator
    draw_normals = rng.standard_normal
    jumps = isinstance(spec.jump_law, SingleUniformJump)
    times = []
    for path, key, row in zip(range(path_offset, path_offset + n_paths), keys, z):
        # path_rng is read from this module's globals, where tracing rebinds it
        path_rng(master_seed, episode, path, reuse=rng, key=key)
        draw_normals(out=row)
        if jumps:  # after the normals, so a row's Brownian part is the same under both laws
            times.append(sample_single_jump_time(rng) * grid.horizon)
    # one jump in every row, or none; each lands on the first grid point >= its time
    jump_step = grid.times.searchsorted(np.array(times, dtype=float))

    # increments in place; bitwise equal to b*dt + (s*sqrt(dt))*z
    z *= float(spec.diffusion) * math.sqrt(grid.dt)
    z += float(spec.drift) * grid.dt
    # x0 + cumsum, with column 0 formed as -0.0 + x0 == x0, so that one
    # contiguous pass adds x0 to every column
    cont[:, 0] = -0.0
    np.add.accumulate(z, axis=1, out=cont[:, 1:])  # np.cumsum's sum, less call overhead
    cont += spec.x0
    observed[...] = cont
    # a jump adds the state it lands on to its row's columns from its step on,
    # and writes no other element
    jumped = observed[:jump_step.size]  # every row, or none
    pre = cont[np.arange(jump_step.size), jump_step]  # the states the jumps land on
    np.add(jumped, pre[:, None], out=jumped, where=np.arange(n + 1) >= jump_step[:, None])
    if not np.isfinite(observed).all():
        bad = np.argwhere(~np.isfinite(observed))[0]
        raise SimulationOverflowError(
            f"path {path_offset + bad[0]} became non-finite at step {bad[1]}",
            step_index=int(bad[1]))
    return PathBatch(grid=grid, observed=observed, continuous=cont, jump_step=jump_step)


STUDY_X0 = 0.1  # the study process's start, which every closed form assumes


def doubling_jump_spec(x0: float = STUDY_X0) -> JumpDiffusionSpec:
    """Standard Brownian state that doubles at one uniformly placed jump.

    dX = dW + X dN with a single uniform jump time. This is the process
    driving the simulation study.
    """
    return JumpDiffusionSpec(drift=0.0, diffusion=1.0, jump_law=SingleUniformJump(), x0=x0)


def path_to_csv(batch: PathBatch, row: int, destination) -> None:
    """Write one row of a batch as a `t,observed,continuous,jump_flag` report
    CSV; jump_flag is 1 where the row's jump landed."""
    flags = np.zeros(batch.grid.n_steps + 1, dtype=int)
    if batch.jump_step.size:
        flags[batch.jump_step[row]] = 1
    text = dump_csv(("t", "observed", "continuous", "jump_flag"),
                    zip(batch.grid.times, batch.observed[row], batch.continuous[row], flags))
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w") as fh:
            fh.write(text)
