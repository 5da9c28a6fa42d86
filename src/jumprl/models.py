"""Parametric value-function families with analytic parameter and state gradients.

Each family exposes a scalar parameter theta and vectorized evaluations:

    value(theta, t, x)          the family formula
    dvalue_dtheta(theta, t, x)  exact derivative in theta
    dvalue_dx(theta, t, x)      exact derivative in x (used by oracle objectives)

Every family lives on [0, T] with T = HORIZON = 1, bound here and nowhere
else. The three study families (linear, quadratic, exponential) anchor the
terminal value at t = 1 independently of theta; they and the custom family
have all three evaluations. The mean-variance family, which only the
backtest trains, has no dvalue_dx. It is singular at theta = 0 and rejects
parameters with |theta| below THETA_FLOOR.

The built-in evaluations never write into their arguments and return a fresh
array (a numpy scalar for scalar inputs). Those formed in place keep the
plain formula's order of operations, so they give its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from .errors import ConfigurationError, SingularParameterError

HORIZON = 1.0       # T: the end of every value function's time interval
THETA_FLOOR = 1e-6  # the smallest |theta| the mean-variance anchor accepts
_FD_STEP = 1e-6     # CustomValue's central-difference step


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

    name: ClassVar[str] = "linear"

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

    name: ClassVar[str] = "quadratic"

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

    name: ClassVar[str] = "exponential"

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


def target_anchor(theta: float, z: float, x0: float) -> float:
    """w(theta) = (z e^{theta^2 T} - x0) / (e^{theta^2 T} - 1).

    Evaluated in the overflow-safe form z + (z - x0)/expm1(theta^2 T).
    Raises SingularParameterError when |theta| falls below THETA_FLOOR.
    """
    if abs(theta) < THETA_FLOOR:
        raise SingularParameterError(
            f"|theta| = {abs(theta):.3g} below singularity floor {THETA_FLOOR:.3g}")
    with np.errstate(over="ignore"):  # expm1 -> inf collapses w to z, by design
        return z + (z - x0) / np.expm1(theta * theta * HORIZON)


def _anchor_slope(theta: float, z: float, x0: float) -> float:
    """d w / d theta in the overflow-safe form 2 theta T (x0-z) e^{-a} / expm1(-a)^2."""
    a = theta * theta * HORIZON
    return 2.0 * theta * HORIZON * (x0 - z) * np.exp(-a) / np.expm1(-a) ** 2


@dataclass(frozen=True)
class MeanVarianceValue:
    """value = (x - w)^2 e^{theta^2 (t - T)} - (w - z)^2 with w = w(theta).

    Static parameters: target wealth z and initial wealth x0; T = HORIZON.
    """

    z: float
    x0: float
    name: ClassVar[str] = "mean_variance"

    def __post_init__(self):
        for name in ("z", "x0"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")

    def anchor(self, theta):
        return target_anchor(theta, self.z, self.x0)

    def value(self, theta, t, x):
        w = self.anchor(theta)
        decay = np.exp(theta * theta * (np.asarray(t, dtype=float) - HORIZON))
        out = _offset(x, w, decay)
        np.square(out, out=out)
        out *= decay
        out -= (w - self.z) ** 2
        return _scalar_if_0d(out)

    def dvalue_dtheta(self, theta, t, x):
        w = self.anchor(theta)
        dw = _anchor_slope(theta, self.z, self.x0)
        t = np.asarray(t, dtype=float)
        decay = np.exp(theta * theta * (t - HORIZON))
        out = _offset(x, w, decay)
        curv = np.square(out)  # (x - w)^2 decay 2 theta (t - T)
        curv *= decay
        curv *= 2.0
        curv *= theta
        curv *= t - HORIZON
        out *= -2.0            # -2 (x - w) dw decay
        out *= dw
        out *= decay
        out += curv
        out -= 2.0 * (w - self.z) * dw
        return _scalar_if_0d(out)


@dataclass(frozen=True)
class CustomValue:
    """User-supplied family: value callable plus optional analytic gradients.

    Missing gradients fall back to central finite differences with step 1e-6.
    Built-in invariants (terminal anchoring etc.) are not implied.
    """

    value_fn: Callable
    dtheta_fn: Optional[Callable] = None
    dx_fn: Optional[Callable] = None
    name: ClassVar[str] = "custom"

    def value(self, theta, t, x):
        return self.value_fn(theta, t, x)

    def dvalue_dtheta(self, theta, t, x):
        if self.dtheta_fn is not None:
            return self.dtheta_fn(theta, t, x)
        h = _FD_STEP
        return (self.value_fn(theta + h, t, x) - self.value_fn(theta - h, t, x)) / (2 * h)

    def dvalue_dx(self, theta, t, x):
        if self.dx_fn is not None:
            return self.dx_fn(theta, t, x)
        h = _FD_STEP
        x = np.asarray(x, dtype=float)
        return (self.value_fn(theta, t, x + h) - self.value_fn(theta, t, x - h)) / (2 * h)


_STUDY_FAMILIES = {cls.name: cls for cls in (LinearValue, QuadraticValue, ExponentialValue)}
BUILTIN_FAMILIES = (*_STUDY_FAMILIES, MeanVarianceValue.name)


def family_by_name(name: str, *, z: float | None = None, x0: float | None = None):
    """Resolve a family from its config-file name."""
    key = name.strip().lower()
    if key in _STUDY_FAMILIES:
        return _STUDY_FAMILIES[key]()
    if key == MeanVarianceValue.name:
        if z is None or x0 is None:
            raise ValueError("mean_variance requires z and x0")
        return MeanVarianceValue(z=z, x0=x0)
    raise ValueError(f"unknown value family {name!r}; expected one of {BUILTIN_FAMILIES}")
