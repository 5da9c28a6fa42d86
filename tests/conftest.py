import dataclasses

import numpy as np
import pytest

from jumprl.portfolio import build_price_series
from jumprl.sde import PathBatch, build_grid, doubling_jump_spec

# every array of a PathBatch, in field order
BATCH_ARRAYS = tuple(f.name for f in dataclasses.fields(PathBatch) if f.name != "grid")


def assert_same_bits(got, ref):
    """got and ref have the same type, shape, values, NaN positions and signs
    (signed zeros included). A NaN's sign bit is not compared: IEEE leaves it
    to whichever operand the hardware propagates."""
    assert type(got) is type(ref)
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got, ref, equal_nan=True)
    real = ~np.isnan(ref)
    assert np.array_equal(np.signbit(got[real]), np.signbit(ref[real]))


def falling_after_jump_series():
    """Nine days of ten bars: +50 on the first bar, then -1.3 a bar. The raw
    prices stay positive; with the jump zeroed they fall below zero on day 8."""
    bars, days = 10, 9
    steps = np.full(days * (bars + 1) - 1, -1.3)
    steps[0] = 50.0
    stamps = np.concatenate([
        np.datetime64("2021-01-04T09:30", "s")
        + np.timedelta64(d, "D").astype("timedelta64[s]")
        + np.arange(bars + 1) * np.timedelta64(300, "s") for d in range(days)])
    return build_price_series(stamps, 100.0 + np.concatenate([[0.0], np.cumsum(steps)]),
                              bars)


def batch_buffers(workspace, n_paths: int, n_steps: int) -> list:
    """The normals and state arrays a workspace holds after batches of at most
    n_paths paths on n_steps steps, taken at the shape they were made with."""
    return [workspace.take("normals", (n_paths, n_steps))] + [
        workspace.take(name, (n_paths, n_steps + 1))
        for name in ("continuous", "observed")]


def jump_ledger(batch) -> list:
    """The batch's jumps as (row, landing grid step) pairs, in row order."""
    return list(enumerate(batch.jump_step.tolist()))


def left_limits(batch) -> np.ndarray:
    """The left limits X(t_i-) at the left endpoints, built row by row: the
    observed states, less each jump's size, its row's continuous state there,
    where it lands. A jump on the last grid point lands on no left endpoint."""
    left = np.array(batch.observed[:, :-1])
    for row, step in jump_ledger(batch):
        if step < batch.grid.n_steps:
            left[row, step] -= batch.continuous[row, step]
    return left


def exponential_quadratic_by_gauss_legendre(method, nodes=200):
    """(a, b) of an exponential-family limit objective by a Gauss-Legendre rule
    over its defining integrands, independently of the library's closed forms.

    J = theta (1 - t) e^x + x on dX = dW + X dN, X_0 = 0.1, one jump at
    u ~ U(0, 1) that doubles the state. Before the jump
    E e^{k X_t} = e^{0.1k + k^2 t/2}; after it E e^{k X_t} = e^{0.2k + k^2 (3u + t)/2}.
    The continuous term is a double integral over u and t, split at t = u into
    a pre-jump and a post-jump piece. The jump term E[(J(u, 2Y) - J(u, Y))^2]
    needs E e^{kY} = e^{0.1k + k^2 u/2} and E[Y e^{kY}] = (0.1 + k u) e^{0.1k + k^2 u/2}
    for Y = X_{u-} ~ N(0.1, u).
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    s, ws = (x + 1.0) / 2.0, w / 2.0  # the rule on [0, 1]
    e = np.exp
    if method == "oracle":
        return (ws @ ((1 - s) ** 2 * e(2 * s + 0.2)),
                2.0 * (ws @ ((1 - s) * e(0.5 * s + 0.1))))

    u = s[:, None]
    t_pre, t_post = u * s, u + (1 - u) * s

    def split(pre, post):
        inner = (pre(t_pre) * ws).sum(axis=1) * s + (post(t_post) * ws).sum(axis=1) * (1 - s)
        return ws @ inner

    a = split(lambda t: (1 - t) ** 2 * e(2 * t + 0.2),
              lambda t: (1 - t) ** 2 * e(6 * u + 2 * t + 0.4))
    b = split(lambda t: 2 * (1 - t) * e(0.5 * t + 0.1),
              lambda t: 2 * (1 - t) * e(0.5 * (3 * u + t) + 0.2))
    if method == "msbve":
        return a, b
    a += ws @ ((1 - s) ** 2 * (e(8 * s + 0.4) - 2 * e(4.5 * s + 0.3) + e(2 * s + 0.2)))
    b += ws @ (2 * (1 - s) * ((2 * s + 0.1) * e(2 * s + 0.2) - (s + 0.1) * e(0.5 * s + 0.1)))
    return a, b


@pytest.fixture(scope="session")
def study_spec():
    """The simulation-study process: dX = dW + X dN, one uniform jump, x0 = 0.1."""
    return doubling_jump_spec()


@pytest.fixture(scope="session")
def grid_100():
    return build_grid(1.0, 100)


@pytest.fixture(scope="session")
def grid_1000():
    return build_grid(1.0, 1000)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
