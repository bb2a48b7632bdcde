"""Averaged Orlicz norms for the complementary pair

    psi(t) = (1 + t) log(1 + t) - t,      phi(t) = e^t - 1 - t.

On an atomized measure the averaged norm of a weight V over a set E is

    sup { |sum w_i V_i g_i| : sum w_i phi(|g_i|) <= mass_E },

computed exactly by convex duality: the optimizer is
g_i = sign(V_i) log(1 + |V_i| / tau) with tau > 0 the unique root of the
constraint.  Since phi(log1p x) = x - log1p x, the constraint is a closed
form in x_i = |V_i| / tau, convex and decreasing in s = log tau; its root is
found by a safeguarded Newton iteration in s.  Signs of V are absorbed into
g, so only |V| enters the root-finding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, OutOfRangeError
from .geometry import support_atoms

# bracket for the duality multiplier, relative to max|V|
_TAU_BRACKET = (1e-12, 1e12)
# Newton stops after a step in log tau below this times max(1, |log tau|):
# convergence is quadratic, so the last iterate is at rounding level
_NEWTON_STEP_RTOL = 1e-9
# safeguard only: bisection alone resolves the bracket in about 60 steps
_MAX_STEPS = 100


def psi(t):
    """(1+t) log(1+t) - t, elementwise, stable near 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise InvalidArgumentError("psi is defined for t >= 0")
    return (1.0 + t) * np.log1p(t) - t


def phi(t):
    """e^t - 1 - t, elementwise, stable near 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise InvalidArgumentError("phi is defined for t >= 0")
    return np.expm1(t) - t


@dataclass(frozen=True)
class OrliczNormResult:
    value: float
    multiplier_tau: float | None
    optimal_g: np.ndarray
    constraint_residual: float


def averaged_norm(V, weights, mass_E: float) -> OrliczNormResult:
    """Averaged norm of V on weighted atoms with budget ``mass_E``.

    The multiplier tau solves sum w_i (x_i - log1p x_i) = mass_E with
    x_i = |V_i| / tau.  The left side is convex and decreasing in
    s = log tau, so Newton's method started right of the root (at
    s = log(sum w |V| / mass_E), where the left side is below mass_E) lands
    left of it after one step and then rises monotonically to it.  A
    bracket kept from the sign of the constraint guards every step: a
    Newton step that leaves it is replaced by a bisection step.

    Parameters
    ----------
    V : array_like
        Weight values on the atoms; may change sign.
    weights : array_like
        Positive atom masses.
    mass_E : float
        The measure of the set E; following the zero-measure convention the
        result is 0 when it vanishes.
    """
    V = np.asarray(V, dtype=float)
    w = np.asarray(weights, dtype=float)
    if V.shape != w.shape or V.ndim != 1:
        raise InvalidArgumentError("V and weights must be equal-length vectors")
    if np.any(w <= 0.0):
        raise InvalidArgumentError("weights must be positive")
    if mass_E < 0.0:
        raise InvalidArgumentError("mass_E must be nonnegative")
    if mass_E == 0.0 or V.size == 0:
        return OrliczNormResult(0.0, None, np.zeros_like(V), 0.0)

    absV = np.abs(V)
    vmax = absV.max()
    if vmax == 0.0:
        return OrliczNormResult(0.0, None, np.zeros_like(V), 0.0)

    # the root search runs on |V| / max|V| and scales tau back: exact by
    # homogeneity, and the bracket stays finite at any scale of V
    u = absV / vmax

    def excess(log_tau: float) -> tuple[float, float]:
        """Constraint minus budget at tau = exp(log_tau), and its slope."""
        x = u * np.exp(-log_tau)
        return (float(w @ (x - np.log1p(x))) - mass_E,
                -float(w @ (x * x / (1.0 + x))))

    lo = np.log(_TAU_BRACKET[0])
    hi = np.log(_TAU_BRACKET[1])
    if excess(lo)[0] < 0.0 or excess(hi)[0] > 0.0:
        raise OutOfRangeError(
            "duality multiplier outside bracket: degenerate scaling of V/mass")
    # x - log1p x < x: the constraint at sum(w u) / mass_E is below budget
    s = min(max(float(np.log(float(w @ u) / mass_E)), lo), hi)
    for _ in range(_MAX_STEPS):
        f, slope = excess(s)
        if f > 0.0:
            lo = s
        else:
            hi = s
        # a slope lost to underflow (atoms of negligible mass) forces bisection
        step = -f / slope if slope < 0.0 else np.inf
        if lo <= s + step <= hi:
            s += step
            if abs(step) < _NEWTON_STEP_RTOL * max(1.0, abs(s)):
                break
        else:
            s = 0.5 * (lo + hi)
    scaled_tau = float(np.exp(s))
    g = np.sign(V) * np.log1p(u / scaled_tau)
    value = float(np.sum(w * V * g))
    residual = float(np.sum(w * phi(np.abs(g))) - mass_E)
    return OrliczNormResult(value, vmax * scaled_tau, g, residual)


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube given by center and side length."""

    center: np.ndarray
    side: float

    def __post_init__(self):
        object.__setattr__(self, "center",
                           np.asarray(self.center, dtype=float))
        if self.side < 0.0 or not np.all(np.isfinite(self.center)):
            raise InvalidArgumentError("cube must have finite center, side >= 0")

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points in the closed cube."""
        return np.all(
            np.abs(points - self.center[None, :]) <= self.side / 2.0, axis=1)


def _weight_values(V, obj, points):
    if hasattr(V, "values_on"):
        return V.values_on(obj)
    V = np.asarray(V, dtype=float)
    if V.ndim == 0:
        return np.full(len(points), float(V))
    if V.shape != (len(points),):
        raise InvalidArgumentError("tabulated V must match the atom count")
    return V


def j_functional(V, measure, cube: Cube, a2: float = 1.0) -> float:
    """Cube functional A2 * averaged norm of V restricted to the cube.

    The mass budget is the restricted mass; an empty intersection gives 0 by
    the zero-measure convention.  A2 is a configured constant (default 1):
    the bound experiments report empirical constants against it.
    """
    points, masses = support_atoms(measure)
    vals = _weight_values(V, measure, points)
    inside = cube.contains(points)
    if not inside.any():
        return 0.0
    res = averaged_norm(vals[inside], masses[inside],
                        float(masses[inside].sum()))
    return a2 * res.value


def surface_norm(V, obj) -> float:
    """Averaged norm of V over the whole support of a mesh or measure."""
    points, masses = support_atoms(obj)
    vals = _weight_values(V, obj, points)
    return averaged_norm(vals, masses, float(masses.sum())).value
