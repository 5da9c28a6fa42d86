"""Parametric value-function families with analytic parameter and state gradients.

Each family exposes a scalar parameter theta and three vectorized evaluations:

    value(theta, t, x)          the family formula
    dvalue_dtheta(theta, t, x)  exact derivative in theta
    dvalue_dx(theta, t, x)      exact derivative in x (used by oracle objectives)

The three study families (linear, quadratic, exponential) anchor the terminal
value at t = 1 independently of theta. The mean-variance family is singular at
theta = 0 and rejects parameters below a configurable magnitude floor.

The built-in evaluations never write into their arguments and return a fresh
array (a numpy scalar for scalar inputs). Those formed in place keep the
plain formula's order of operations, so they give its bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import SingularParameterError
from .sde import PathBatch


def _scalar_if_0d(out: np.ndarray):
    """A 0-d result as a numpy scalar, the type plain arithmetic gives."""
    return out if out.ndim else out[()]


def _reusable(fresh, other):
    """fresh itself when it is an array already of the shape and dtype of its
    product with other, so a ufunc can write that product there; else None."""
    if (isinstance(fresh, np.ndarray)
            and np.broadcast_shapes(fresh.shape, np.shape(other)) == fresh.shape
            and np.result_type(fresh, other) == fresh.dtype):
        return fresh
    return None


def _offset(x, w, t_shaped) -> np.ndarray:
    """x - w in a fresh float array of the broadcast shape of x and t_shaped."""
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(t_shaped)))
    return np.subtract(x, w, out=out)


@dataclass(frozen=True)
class LinearValue:
    """value = (theta (1 - t) + 1) x"""

    name: str = "linear"

    def value(self, theta, t, x):
        return (theta * (1.0 - t) + 1.0) * x

    def dvalue_dtheta(self, theta, t, x):
        return (1.0 - t) * x

    def dvalue_dx(self, theta, t, x):
        coef = theta * (1.0 - t) + 1.0
        return _scalar_if_0d(np.full(np.broadcast_shapes(np.shape(coef), np.shape(x)),
                                     coef, dtype=float))


@dataclass(frozen=True)
class QuadraticValue:
    """value = theta (1 - t) x^2 + x"""

    name: str = "quadratic"

    def value(self, theta, t, x):
        return theta * (1.0 - t) * x * x + x

    def dvalue_dtheta(self, theta, t, x):
        return (1.0 - t) * x * x

    def dvalue_dx(self, theta, t, x):
        out = 2.0 * theta * (1.0 - t) * x
        out += 1.0
        return out


@dataclass(frozen=True)
class ExponentialValue:
    """value = theta (1 - t) e^x + x"""

    name: str = "exponential"

    def value(self, theta, t, x):
        return theta * (1.0 - t) * np.exp(x) + x

    def dvalue_dtheta(self, theta, t, x):
        return (1.0 - t) * np.exp(x)

    def dvalue_dx(self, theta, t, x):
        coef = theta * (1.0 - t)
        ex = np.exp(x)
        out = np.multiply(coef, ex, out=_reusable(ex, coef))
        out += 1.0
        return out


def target_anchor(theta: float, z: float, x0: float, horizon: float,
                  floor: float = 1e-6) -> float:
    """w(theta) = (z e^{theta^2 T} - x0) / (e^{theta^2 T} - 1).

    Evaluated in the overflow-safe form z + (z - x0)/expm1(theta^2 T).
    Raises SingularParameterError when |theta| falls below the floor.
    """
    if abs(theta) < floor:
        raise SingularParameterError(
            f"|theta| = {abs(theta):.3g} below singularity floor {floor:.3g}")
    with np.errstate(over="ignore"):  # expm1 -> inf collapses w to z, by design
        return z + (z - x0) / np.expm1(theta * theta * horizon)


def _anchor_slope(theta: float, z: float, x0: float, horizon: float) -> float:
    """d w / d theta in the overflow-safe form 2 theta T (x0-z) e^{-a} / expm1(-a)^2."""
    a = theta * theta * horizon
    return 2.0 * theta * horizon * (x0 - z) * np.exp(-a) / np.expm1(-a) ** 2


@dataclass(frozen=True)
class MeanVarianceValue:
    """value = (x - w)^2 e^{theta^2 (t - T)} - (w - z)^2 with w = w(theta).

    Static parameters: target wealth z, initial wealth x0, horizon T.
    """

    z: float
    x0: float
    horizon: float
    theta_floor: float = 1e-6
    name: str = "mean_variance"

    def anchor(self, theta):
        return target_anchor(theta, self.z, self.x0, self.horizon, self.theta_floor)

    def value(self, theta, t, x):
        w = self.anchor(theta)
        decay = np.exp(theta * theta * (np.asarray(t, dtype=float) - self.horizon))
        out = _offset(x, w, decay)
        np.square(out, out=out)
        out *= decay
        out -= (w - self.z) ** 2
        return _scalar_if_0d(out)

    def dvalue_dtheta(self, theta, t, x):
        w = self.anchor(theta)
        dw = _anchor_slope(theta, self.z, self.x0, self.horizon)
        t = np.asarray(t, dtype=float)
        decay = np.exp(theta * theta * (t - self.horizon))
        out = _offset(x, w, decay)
        curv = np.square(out)  # (x - w)^2 decay 2 theta (t - T)
        curv *= decay
        curv *= 2.0
        curv *= theta
        curv *= t - self.horizon
        out *= -2.0            # -2 (x - w) dw decay
        out *= dw
        out *= decay
        out += curv
        out -= 2.0 * (w - self.z) * dw
        return _scalar_if_0d(out)

    def dvalue_dx(self, theta, t, x):
        w = self.anchor(theta)
        decay = np.exp(theta * theta * (np.asarray(t, dtype=float) - self.horizon))
        return 2.0 * (x - w) * decay


@dataclass(frozen=True)
class CustomValue:
    """User-supplied family: value callable plus optional analytic gradients.

    Missing gradients fall back to central finite differences with h = 1e-6.
    Built-in invariants (terminal anchoring etc.) are not implied.
    """

    value_fn: Callable
    dtheta_fn: Optional[Callable] = None
    dx_fn: Optional[Callable] = None
    name: str = "custom"

    def value(self, theta, t, x):
        return self.value_fn(theta, t, x)

    def dvalue_dtheta(self, theta, t, x, h: float = 1e-6):
        if self.dtheta_fn is not None:
            return self.dtheta_fn(theta, t, x)
        return (self.value_fn(theta + h, t, x) - self.value_fn(theta - h, t, x)) / (2 * h)

    def dvalue_dx(self, theta, t, x, h: float = 1e-6):
        if self.dx_fn is not None:
            return self.dx_fn(theta, t, x)
        x = np.asarray(x, dtype=float)
        return (self.value_fn(theta, t, x + h) - self.value_fn(theta, t, x - h)) / (2 * h)


BUILTIN_FAMILIES = ("linear", "quadratic", "exponential", "mean_variance")


def family_by_name(name: str, *, z: float | None = None, x0: float | None = None,
                   horizon: float | None = None):
    """Resolve a family from its config-file name."""
    key = name.strip().lower()
    if key == "linear":
        return LinearValue()
    if key == "quadratic":
        return QuadraticValue()
    if key == "exponential":
        return ExponentialValue()
    if key == "mean_variance":
        if z is None or x0 is None or horizon is None:
            raise ValueError("mean_variance requires z, x0 and horizon")
        return MeanVarianceValue(z=z, x0=x0, horizon=horizon)
    raise ValueError(f"unknown value family {name!r}; expected one of {BUILTIN_FAMILIES}")


def path_values(model, theta: float, batch: PathBatch) -> np.ndarray:
    """model.value along each row of a batch; shape (paths, n_steps + 1).

    A failing evaluation re-raises the original exception, type and fields
    intact, with the first failing grid point added to its message.
    """
    times = batch.grid.times
    try:
        return np.asarray(model.value(theta, times, batch.observed), dtype=float)
    except SingularParameterError:
        raise
    except Exception as exc:
        for i, t in enumerate(times):
            try:
                model.value(theta, t, batch.observed[:, i])
            except Exception:
                exc.args = (f"{exc} (at path index {i}, t={t:.6g})",)
                break
        raise
