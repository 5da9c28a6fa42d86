import numpy as np
import pytest

from jumprl.sde import PathBatch, TimeGrid, build_grid, doubling_jump_spec


def synthetic_path(times, observed) -> PathBatch:
    """One-row PathBatch with prescribed grid points and observations, no jumps."""
    times = np.asarray(times, dtype=float)
    observed = np.asarray(observed, dtype=float)[None, :]
    grid = TimeGrid(horizon=float(times[-1]), n_steps=times.size - 1,
                    dt=float(times[1] - times[0]), times=times)
    steps, values = np.empty(0, dtype=int), np.empty(0)
    return PathBatch(grid=grid, observed=observed, continuous=observed.copy(),
                     pre_jump=observed.copy(), jump_path=steps, jump_step=steps,
                     jump_time=values, jump_pre=values, jump_size=values)


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


def jump_ledger(batch) -> list:
    """The batch's jumps as (row, step, time, pre-jump state, size) tuples."""
    return list(zip(batch.jump_path.tolist(), batch.jump_step.tolist(),
                    batch.jump_time.tolist(), batch.jump_pre.tolist(),
                    batch.jump_size.tolist()))


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
