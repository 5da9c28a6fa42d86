"""Independent reference values for the limiting objectives and their minimizers.

Three routes that never touch the SGD estimators:

  * exact rational quadratics in theta for the linear and quadratic families,
  * exact closed forms for the exponential family, as short sums of the moments
    I_p(c) = int_0^1 (1 - u)^p e^{c u} du with p <= 3,
  * Monte-Carlo estimation of the limit functionals on simulated paths, with a
    coarse theta scan refined by golden section.

The limit functional estimated from paths is the Riemann sum of
|dJ/dx(t_i, X_i) sigma|^2 dt over left endpoints, with X_i taken as
the pre-jump (left limit) state, optionally plus the summed squared value jumps
(J(t_k, X_post) - J(t_k, X_pre))^2 over the path's jump ledger. Evaluating the
same sum at the latent continuous states instead gives the oracle objective.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NonConvexError
from .rng import thread_cap
from .sde import JumpDiffusionSpec, PathWorkspace, TimeGrid, simulate_batch

FAMILIES = ("linear", "quadratic", "exponential")
METHODS = ("mstde", "msbve", "oracle")
CLOSED_FORM_X0 = 0.1  # the study process's start, which every closed form assumes
_local = threading.local()  # each thread's path workspace, see _thread_workspace


@dataclass(frozen=True)
class QuadraticObjective:
    """a theta^2 + b theta + c."""

    a: float
    b: float
    c: float

    def __call__(self, theta):
        return self.a * theta * theta + self.b * theta + self.c


def argmin_quadratic(obj: QuadraticObjective) -> float:
    """-b / 2a; requires a > 0."""
    if not obj.a > 0:
        raise NonConvexError(f"leading coefficient must be > 0, got {obj.a}")
    return -obj.b / (2.0 * obj.a)


# Exponential-family integrands. The state starts at 0.1, doubles at the jump
# time u ~ U(0, 1), and is a Brownian motion otherwise, giving lognormal moments
#   E e^{k X_t} = e^{0.1 k + k^2 t / 2}          before the jump (t < u),
#   E e^{k X_t} = e^{0.2 k + k^2 (3u + t) / 2}   after it (t >= u),
# since X_t = 2 X_{u-} + W_t - W_u has mean 0.2 and variance 4u + (t - u).
# The squared value jump needs two moments of the pre-jump state
# Y = X_{u-} ~ N(0.1, u):
#   E e^{k Y} = e^{0.1 k + k^2 u / 2},
#   E[Y e^{k Y}] = (0.1 + k u) e^{0.1 k + k^2 u / 2}.
# Every coefficient is then a sum of moments I_p(c) = int_0^1 (1-u)^p e^{cu} du.
# In the continuous term's double integral over u and t, swapping the order
# turns the pre-jump piece into a (1 - t) weight and the post-jump piece into
# an (e^{c t} - 1) / c weight.

def _decay_moment(p: int, c: float) -> float:
    """Exact integral of (1 - u)^p e^{c u} over [0, 1], c != 0.

    Integrating by parts gives I_0 = (e^c - 1) / c and
    I_p = (p I_{p-1} - 1) / c for p >= 1.
    """
    value = math.expm1(c) / c
    for q in range(1, p + 1):
        value = (q * value - 1.0) / c
    return value


def _exponential_coefficients(method: str) -> tuple[float, float, float]:
    """(a, b, c) of the exponential-family limit objective for one method."""
    e, m = math.exp, _decay_moment
    if method == "oracle":
        # the latent continuous state never jumps: only the pre-jump moments apply
        return e(0.2) * m(2, 2.0), 2.0 * e(0.1) * m(1, 0.5), 1.0
    a = e(0.2) * m(3, 2.0) + e(0.4) / 6.0 * (m(2, 8.0) - m(2, 2.0))
    b = 2.0 * e(0.1) * m(2, 0.5) + 2.0 / 1.5 * e(0.2) * (m(1, 2.0) - m(1, 0.5))
    if method == "msbve":
        return a, b, 1.0
    # squared value jump E[(J(u, 2Y) - J(u, Y))^2]; its constant E[(W_u + 0.1)^2]
    # is 0.51 over u ~ U(0, 1)
    a += e(0.4) * m(2, 8.0) - 2.0 * e(0.3) * m(2, 4.5) + e(0.2) * m(2, 2.0)
    b += 2.0 * (e(0.2) * (2.1 * m(1, 2.0) - 2.0 * m(2, 2.0))
                - e(0.1) * (1.1 * m(1, 0.5) - m(2, 0.5)))
    return a, b, 1.51


def closed_form_objective(family: str, method: str) -> QuadraticObjective:
    """Limit objective as a quadratic in theta, per family and method.

    Linear and quadratic cells are exact rationals; exponential cells are
    exact sums of the moments I_p(c).
    """
    key = (family, method)
    exact = {
        ("linear", "msbve"): (1 / 3, 1.0, 1.0),
        ("linear", "oracle"): (1 / 3, 1.0, 1.0),
        ("linear", "mstde"): (21 / 50, 403 / 300, 151 / 100),
        ("quadratic", "msbve"): (167 / 300, 4 / 15, 1.0),
        ("quadratic", "oracle"): (26 / 75, 1 / 5, 1.0),
        ("quadratic", "mstde"): (45059 / 30000, 1709 / 3000, 151 / 100),
    }
    if key in exact:
        return QuadraticObjective(*exact[key])
    if family != "exponential" or method not in METHODS:
        raise KeyError(f"no closed-form objective for {key}")
    return QuadraticObjective(*_exponential_coefficients(method))


@dataclass(frozen=True)
class MinimizerTable:
    """Reference minimizer per (family, method) cell."""

    entries: dict

    def get(self, family: str, method: str) -> float:
        return self.entries[(family, method)]

    def to_json_dict(self) -> dict:
        out: dict = {}
        for (family, method), theta in self.entries.items():
            out.setdefault(family, {})[method] = theta
        return out


def reference_minimizers() -> MinimizerTable:
    """All nine (family, method) reference minimizers."""
    return MinimizerTable(entries={
        (family, method): argmin_quadratic(closed_form_objective(family, method))
        for family in FAMILIES for method in METHODS})


def _evaluate_samples(model, thetas, batch, state: str, include_jump_term: bool,
                      sigma: float, scratch: np.ndarray) -> np.ndarray:
    """Per-path objective values for each theta; shape (len(thetas), paths).

    scratch is a writable (paths, n) float array that dvalue_dx writes into
    and the squared gradient terms are formed in.
    """
    grid = batch.grid
    states = batch.pre_jump if state == "pre_jump" else batch.continuous
    left = states[:, :-1]
    t_left = grid.times[:-1][None, :]
    t_jump = grid.times[batch.jump_step] if batch.jump_step.size else None
    out = np.empty((len(thetas), states.shape[0]))
    for j, theta in enumerate(thetas):
        model.dvalue_dx(theta, t_left, left, out=scratch)
        scratch *= sigma
        scratch *= scratch
        vals = np.sum(scratch, axis=1) * grid.dt
        if include_jump_term and batch.jump_step.size:
            post = np.asarray(model.value(theta, t_jump, batch.jump_pre + batch.jump_pre),
                              dtype=float)
            pre = np.asarray(model.value(theta, t_jump, batch.jump_pre), dtype=float)
            np.add.at(vals, batch.jump_path, (post - pre) ** 2)
        out[j] = vals
    return out


def _thread_workspace() -> PathWorkspace:
    """This thread's path workspace; a pool worker's dies with its thread."""
    try:
        return _local.workspace
    except AttributeError:
        _local.workspace = PathWorkspace()
        return _local.workspace


def _chunk_pass(model, thetas, spec: JumpDiffusionSpec, grid: TimeGrid, n_paths: int,
                seed: int, state: str, include_jump_term: bool, chunk: int,
                reduce: Callable[[np.ndarray], np.ndarray]) -> list:
    """reduce(per-theta, per-path values) of each chunk of paths, in path order.

    Path i always uses stream (seed, 0, i); chunks run on up to thread_cap()
    workers.
    """
    if n_paths < 1 or chunk < 1:
        raise ConfigurationError(f"need n_paths >= 1 and chunk >= 1, got "
                                 f"n_paths={n_paths}, chunk={chunk}")

    def run(lo: int) -> np.ndarray:
        hi = min(lo + chunk, n_paths)
        workspace = _thread_workspace()
        batch = simulate_batch(spec, grid, seed, 0, hi - lo, path_offset=lo,
                               workspace=workspace)
        # the normals are dead once the batch is built
        return reduce(_evaluate_samples(model, thetas, batch, state, include_jump_term,
                                        float(spec.diffusion), workspace.z[:hi - lo]))

    starts = range(0, n_paths, chunk)
    workers = thread_cap()
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, starts))
    return [run(lo) for lo in starts]


def mc_objective_samples(model, theta: float, spec: JumpDiffusionSpec, grid: TimeGrid,
                         n_paths: int, seed: int, *, state: str = "pre_jump",
                         include_jump_term: bool = False,
                         chunk: int = 2048) -> np.ndarray:
    """Per-path values of the limit functional; mean of these is the estimate.

    Path i always uses stream (seed, 0, i), so the result is independent of
    chunking and of the JUMPRL_THREADS worker count.
    """
    parts = _chunk_pass(model, [theta], spec, grid, n_paths, seed, state,
                        include_jump_term, chunk, lambda values: values[0])
    return np.concatenate(parts)


def mc_objective_grid(model, thetas, spec: JumpDiffusionSpec, grid: TimeGrid,
                      n_paths: int, seed: int, *, state: str = "pre_jump",
                      include_jump_term: bool = False, chunk: int = 2048) -> np.ndarray:
    """Objective estimates over a theta grid, sharing one path ensemble."""
    parts = _chunk_pass(model, list(thetas), spec, grid, n_paths, seed, state,
                        include_jump_term, chunk, lambda values: np.sum(values, axis=1))
    return np.sum(parts, axis=0) / n_paths


def golden_section_min(f: Callable[[float], float], lo: float, hi: float,
                       tol: float = 1e-3, max_iter: int = 200) -> float:
    """Golden-section minimum of a unimodal function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


METHOD_FLAVORS = {
    "mstde": ("pre_jump", True),
    "msbve": ("pre_jump", False),
    "oracle": ("continuous", False),
}


def mc_argmin(model, method: str, spec: JumpDiffusionSpec, grid: TimeGrid,
              n_paths: int, seed: int, *, lo: float = -3.0, hi: float = 1.0,
              n_coarse: int = 41, tol: float = 1e-3) -> float:
    """Scan-based argmin of the Monte-Carlo objective for a method flavor.

    A coarse grid pass (one shared path ensemble) brackets the minimum, then
    golden section refines inside the bracket. Deterministic for a fixed seed:
    every evaluation regenerates the same paths.
    """
    state, jump_term = METHOD_FLAVORS[method]
    thetas = np.linspace(lo, hi, n_coarse)
    values = mc_objective_grid(model, thetas, spec, grid, n_paths, seed,
                               state=state, include_jump_term=jump_term)
    best = int(np.argmin(values))
    a = thetas[max(best - 1, 0)]
    b = thetas[min(best + 1, n_coarse - 1)]

    def f(theta: float) -> float:
        samples = mc_objective_samples(model, theta, spec, grid, n_paths, seed,
                                       state=state, include_jump_term=jump_term)
        return float(np.mean(samples))

    return golden_section_min(f, a, b, tol=tol)
