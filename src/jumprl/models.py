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

Every evaluation takes `out=None`. Given an array of the shape and dtype the
call would return, it writes the result there and returns `out`; without one
it returns a fresh array (a numpy scalar for scalar inputs, as plain
arithmetic gives). Either way the arguments are never written into. The
built-in evaluations form their first full-size operation in `out`, or in a
fresh array, and run every later pass in place in the plain formula's order
of operations, so they give its bits with and without `out`.
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
_EXPM1_SAFE = 700.0  # expm1(a) is finite for every a below ln(float max) = 709.78


def _times(a, b, out):
    """a * b, written into out when one is given."""
    return a * b if out is None else np.multiply(a, b, out=out)


def _target(out, *operands) -> np.ndarray:
    """out, or a fresh float array of the operands' broadcast shape."""
    if out is not None:
        return out
    return np.empty(np.broadcast_shapes(*(np.shape(a) for a in operands)))


def _finish(result: np.ndarray, out):
    """The result of an evaluation formed in _target(out, ...): out itself
    when one was given, else result, with a 0-d array as a numpy scalar."""
    return result if out is not None or result.ndim else result[()]


@dataclass(frozen=True)
class LinearValue:
    """value = (theta (1 - t) + 1) x"""

    name: ClassVar[str] = "linear"

    def value(self, theta, t, x, out=None):
        return _times(theta * (1.0 - t) + 1.0, x, out)

    def dvalue_dtheta(self, theta, t, x, out=None):
        return _times(1.0 - t, x, out)

    def dvalue_dx(self, theta, t, x, out=None):
        coef = theta * (1.0 - t) + 1.0
        result = _target(out, coef, x)
        result[...] = coef
        return _finish(result, out)


@dataclass(frozen=True)
class QuadraticValue:
    """value = theta (1 - t) x^2 + x"""

    name: ClassVar[str] = "quadratic"

    def value(self, theta, t, x, out=None):
        result = _times(theta * (1.0 - t), x, out)
        result *= x
        result += x
        return result

    def dvalue_dtheta(self, theta, t, x, out=None):
        result = _times(1.0 - t, x, out)
        result *= x
        return result

    def dvalue_dx(self, theta, t, x, out=None):
        result = _times(2.0 * theta * (1.0 - t), x, out)
        result += 1.0
        return result


def _exp_times(coef, x, out):
    """coef * np.exp(x), formed in out when one is given."""
    return np.multiply(coef, np.exp(x, out=out), out=out)


@dataclass(frozen=True)
class ExponentialValue:
    """value = theta (1 - t) e^x + x"""

    name: ClassVar[str] = "exponential"

    def value(self, theta, t, x, out=None):
        result = _exp_times(theta * (1.0 - t), x, out)
        result += x
        return result

    def dvalue_dtheta(self, theta, t, x, out=None):
        return _exp_times(1.0 - t, x, out)

    def dvalue_dx(self, theta, t, x, out=None):
        result = _exp_times(theta * (1.0 - t), x, out)
        result += 1.0
        return result


def target_anchor(theta: float, z: float, x0: float) -> float:
    """w(theta) = (z e^{theta^2 T} - x0) / (e^{theta^2 T} - 1).

    Evaluated in the overflow-safe form z + (z - x0)/expm1(theta^2 T).
    Raises SingularParameterError when |theta| falls below THETA_FLOOR.
    """
    if abs(theta) < THETA_FLOOR:
        raise SingularParameterError(
            f"|theta| = {abs(theta):.3g} below singularity floor {THETA_FLOOR:.3g}")
    a = theta * theta * HORIZON
    if a < _EXPM1_SAFE:
        return z + (z - x0) / np.expm1(a)
    with np.errstate(over="ignore"):  # expm1 -> inf collapses w to z, by design
        return z + (z - x0) / np.expm1(a)


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

    def value(self, theta, t, x, out=None):
        w = self.anchor(theta)
        decay = np.exp(theta * theta * (np.asarray(t, dtype=float) - HORIZON))
        result = np.subtract(x, w, out=_target(out, x, decay))
        np.square(result, out=result)
        result *= decay
        result -= (w - self.z) ** 2
        return _finish(result, out)

    def dvalue_dtheta(self, theta, t, x, out=None):
        """The one evaluation that allocates with out given: the two terms
        below are full-size arrays at once, since summing them in any other
        order would change the bits."""
        w = self.anchor(theta)
        dw = _anchor_slope(theta, self.z, self.x0)
        since_end = np.asarray(t, dtype=float) - HORIZON  # t - T
        decay = np.exp(theta * theta * since_end)
        result = np.subtract(x, w, out=_target(out, x, decay))
        curv = np.square(result)  # (x - w)^2 decay 2 theta (t - T)
        curv *= decay
        curv *= 2.0
        curv *= theta
        curv *= since_end
        result *= -2.0            # -2 (x - w) dw decay
        result *= dw
        result *= decay
        result += curv
        result -= 2.0 * (w - self.z) * dw
        return _finish(result, out)


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

    def value(self, theta, t, x, out=None):
        return _copied(self.value_fn(theta, t, x), out)

    def dvalue_dtheta(self, theta, t, x, out=None):
        if self.dtheta_fn is not None:
            return _copied(self.dtheta_fn(theta, t, x), out)
        h = _FD_STEP
        return _copied((self.value_fn(theta + h, t, x) - self.value_fn(theta - h, t, x))
                       / (2 * h), out)

    def dvalue_dx(self, theta, t, x, out=None):
        if self.dx_fn is not None:
            return _copied(self.dx_fn(theta, t, x), out)
        h = _FD_STEP
        x = np.asarray(x, dtype=float)
        return _copied((self.value_fn(theta, t, x + h) - self.value_fn(theta, t, x - h))
                       / (2 * h), out)


def _copied(result, out):
    """result, copied into out when one is given: a user callable may return
    its input, which out must not alias."""
    if out is None:
        return result
    out[...] = result
    return out


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
