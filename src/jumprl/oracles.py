"""Independent reference values for the limiting objectives and their minimizers.

Three routes that never touch the SGD estimators:

  * exact rational quadratics in theta for the linear and quadratic families,
  * adaptive Simpson quadrature for the exponential-family integrands,
  * Monte-Carlo estimation of the limit functionals on simulated paths, with a
    coarse theta scan refined by golden section.

The limit functional estimated from paths is the Riemann sum of
|dJ/dx(t_i, X_i) sigma(t_i, X_i)|^2 dt over left endpoints, with X_i taken as
the pre-jump (left limit) state, optionally plus the summed squared value jumps
(J(t_k, X_post) - J(t_k, X_pre))^2 over the path's jump ledger. Evaluating the
same sum at the latent continuous states instead gives the oracle objective.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NonConvexError, QuadratureError
from .rng import thread_cap
from .sde import JumpDiffusionSpec, TimeGrid, simulate_batch

FAMILIES = ("linear", "quadratic", "exponential")
METHODS = ("mstde", "msbve", "oracle")


@dataclass(frozen=True)
class QuadraticObjective:
    """a theta^2 + b theta + c."""

    a: float
    b: float
    c: float

    def __call__(self, theta):
        return self.a * theta * theta + self.b * theta + self.c

    @property
    def argmin(self) -> float:
        return argmin_quadratic(self)


def argmin_quadratic(obj: QuadraticObjective) -> float:
    """-b / 2a; requires a > 0."""
    if not obj.a > 0:
        raise NonConvexError(f"leading coefficient must be > 0, got {obj.a}")
    return -obj.b / (2.0 * obj.a)


def integrate(f: Callable[[float], float], lo: float, hi: float,
              tol: float = 1e-9, max_depth: int = 50) -> float:
    """Adaptive Simpson quadrature with absolute tolerance `tol`.

    Raises QuadratureError if the depth cap is hit before the local error
    estimate meets the tolerance.
    """
    if lo == hi:
        return 0.0
    if lo > hi:
        raise QuadratureError(f"need lo <= hi, got [{lo}, {hi}]")
    if not tol > 0:
        raise QuadratureError(f"tol must be > 0, got {tol}")

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, eps, depth):
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        left = simpson(fa, flm, fm, m - a)
        right = simpson(fm, frm, fb, b - m)
        err = (left + right - whole) / 15.0
        if abs(err) <= eps:
            return left + right + err
        if depth >= max_depth:
            raise QuadratureError(
                f"no convergence on [{a:.6g}, {b:.6g}] after depth {max_depth}")
        return (recurse(a, m, fa, flm, fm, left, eps / 2.0, depth + 1)
                + recurse(m, b, fm, frm, fb, right, eps / 2.0, depth + 1))

    fa, fb, fm = f(lo), f(hi), f(0.5 * (lo + hi))
    whole = simpson(fa, fm, fb, hi - lo)
    return recurse(lo, hi, fa, fm, fb, whole, tol, 0)


# Exponential-family integrands. The state starts at 0.1, doubles at the jump
# time u ~ U(0, 1), and is a Brownian motion otherwise, giving lognormal moments
#   E e^{k X_t} = e^{0.1 k + k^2 t / 2}          before the jump (t < u),
#   E e^{k X_t} = e^{0.2 k + k^2 (3u + t) / 2}   after it (t >= u),
# since X_t = 2 X_{u-} + W_t - W_u has mean 0.2 and variance 4u + (t - u).
# The squared value jump needs two moments of the pre-jump state
# Y = X_{u-} ~ N(0.1, u):
#   E e^{k Y} = e^{0.1 k + k^2 u / 2},
#   E[Y e^{k Y}] = (0.1 + k u) e^{0.1 k + k^2 u / 2}.

def _exp_continuous_coefficients(tol: float = 1e-10) -> tuple[float, float]:
    """Quadratic and linear coefficients of the jump-free variation term."""
    def inner_a(u):
        pre = integrate(lambda t: (1 - t) ** 2 * math.exp(2 * t + 0.2), 0.0, u, tol)
        post = integrate(lambda t: (1 - t) ** 2 * math.exp(6 * u + 2 * t + 0.4), u, 1.0, tol)
        return pre + post

    def inner_b(u):
        pre = integrate(lambda t: 2 * (1 - t) * math.exp(0.5 * t + 0.1), 0.0, u, tol)
        post = integrate(lambda t: 2 * (1 - t) * math.exp(0.5 * (3 * u + t) + 0.2), u, 1.0, tol)
        return pre + post

    a = integrate(inner_a, 0.0, 1.0, tol * 10)
    b = integrate(inner_b, 0.0, 1.0, tol * 10)
    return a, b


def _exp_jump_coefficients(tol: float = 1e-10) -> tuple[float, float, float]:
    """Coefficients added by the squared value jump at the doubling time."""
    a = integrate(lambda u: (1 - u) ** 2 * (math.exp(8 * u + 0.4)
                                            - 2 * math.exp(4.5 * u + 0.3)
                                            + math.exp(2 * u + 0.2)), 0.0, 1.0, tol)
    b = integrate(lambda u: 2 * (1 - u) * ((2 * u + 0.1) * math.exp(2 * u + 0.2)
                                           - (u + 0.1) * math.exp(0.5 * u + 0.1)),
                  0.0, 1.0, tol)
    c = integrate(lambda u: u + 0.01, 0.0, 1.0, tol)
    return a, b, c


def _exp_oracle_coefficients(tol: float = 1e-10) -> tuple[float, float]:
    """Coefficients of the latent-continuous-state objective."""
    a = integrate(lambda t: (1 - t) ** 2 * math.exp(2 * t + 0.2), 0.0, 1.0, tol)
    b = 2.0 * integrate(lambda t: (1 - t) * math.exp(0.5 * t + 0.1), 0.0, 1.0, tol)
    return a, b


@lru_cache(maxsize=None)
def closed_form_objective(family: str, method: str) -> QuadraticObjective:
    """Limit objective as a quadratic in theta, per family and method.

    Linear and quadratic cells are exact rationals; exponential cells are
    computed by quadrature.
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
    try:
        ac, bc = _exp_continuous_coefficients()
        if method == "msbve":
            return QuadraticObjective(ac, bc, 1.0)
        if method == "oracle":
            ao, bo = _exp_oracle_coefficients()
            return QuadraticObjective(ao, bo, 1.0)
        aj, bj, cj = _exp_jump_coefficients()
        return QuadraticObjective(ac + aj, bc + bj, 1.0 + cj)
    except QuadratureError as exc:
        raise QuadratureError(f"exponential cell {key} unavailable: {exc}") from exc


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
    entries = {}
    missing = []
    for family in FAMILIES:
        for method in METHODS:
            try:
                entries[(family, method)] = argmin_quadratic(
                    closed_form_objective(family, method))
            except QuadratureError:
                missing.append((family, method))
    if missing:
        raise QuadratureError(f"reference table incomplete; failed cells: {missing}")
    return MinimizerTable(entries=entries)


def _evaluate_samples(model, thetas, batch, state: str, include_jump_term: bool,
                      spec: JumpDiffusionSpec) -> np.ndarray:
    """Per-path objective values for each theta; shape (len(thetas), paths)."""
    grid = batch.grid
    states = batch.pre_jump if state == "pre_jump" else batch.continuous
    left = states[:, :-1]
    t_left = grid.times[:-1][None, :]
    if callable(spec.diffusion):
        sigma = np.vectorize(spec.diffusion)(np.broadcast_to(t_left, left.shape), left)
    else:
        sigma = float(spec.diffusion)
    t_jump = grid.times[batch.jump_step] if batch.jump_step.size else None
    out = np.empty((len(thetas), states.shape[0]))
    for j, theta in enumerate(thetas):
        gx = np.asarray(model.dvalue_dx(theta, t_left, left), dtype=float)
        prod = gx * sigma
        vals = np.sum(prod * prod, axis=1) * grid.dt
        if include_jump_term and batch.jump_step.size:
            post = np.asarray(model.value(theta, t_jump, batch.jump_pre + batch.jump_size),
                              dtype=float)
            pre = np.asarray(model.value(theta, t_jump, batch.jump_pre), dtype=float)
            np.add.at(vals, batch.jump_path, (post - pre) ** 2)
        out[j] = vals
    return out


def _chunk_pass(model, thetas, spec: JumpDiffusionSpec, grid: TimeGrid, n_paths: int,
                seed: int, state: str, include_jump_term: bool, chunk: int,
                reduce: Callable[[np.ndarray], np.ndarray]) -> list:
    """reduce(per-theta, per-path values) of each chunk of paths, in path order.

    Path i always uses stream (seed, 0, i); chunks run on up to thread_cap()
    workers.
    """
    def run(lo: int) -> np.ndarray:
        hi = min(lo + chunk, n_paths)
        batch = simulate_batch(spec, grid, seed, 0, hi - lo, path_offset=lo)
        return reduce(_evaluate_samples(model, thetas, batch, state, include_jump_term, spec))

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


def mc_limit_objective(model, theta: float, spec: JumpDiffusionSpec, grid: TimeGrid,
                       n_paths: int, seed: int, include_jump_term: bool = False) -> float:
    """Monte-Carlo estimate of the limit objective at observed pre-jump states."""
    samples = mc_objective_samples(model, theta, spec, grid, n_paths, seed,
                                   state="pre_jump", include_jump_term=include_jump_term)
    return float(np.mean(samples))


def mc_oracle_objective(model, theta: float, spec: JumpDiffusionSpec, grid: TimeGrid,
                        n_paths: int, seed: int) -> float:
    """Same functional evaluated at the latent continuous states."""
    samples = mc_objective_samples(model, theta, spec, grid, n_paths, seed,
                                   state="continuous", include_jump_term=False)
    return float(np.mean(samples))


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
