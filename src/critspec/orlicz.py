"""Averaged Orlicz norms for the complementary pair

    psi(t) = (1 + t) log(1 + t) - t,      phi(t) = e^t - 1 - t.

On an atomized measure the averaged norm of a weight V over a set E is

    sup { |sum w_i V_i g_i| : sum w_i phi(|g_i|) <= mass_E },

computed exactly by convex duality: the optimizer is
g_i = sign(V_i) log(1 + |V_i| / tau) with tau > 0 the unique root of the
constraint.  Since phi(log1p x) = x - log1p x, the constraint is a closed
form in x_i = |V_i| / tau, convex and decreasing in s = log tau; its root is
found by a safeguarded Newton iteration in s, run on many sets in lockstep
when the cube coverings need them; the crossing search stops each set as
soon as two duality bounds settle whether its norm reaches a level.  Signs
of V are absorbed into g, so only |V| enters the root-finding.
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
# a row's two bounds settle it against a floor once both clear the floor by
# this relative margin, far above the rounding of the sums that form the
# bounds and J
_SETTLE_RTOL = 1e-13


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


def _weighted_sums(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w_j a[r, j] for every row r, with w shared (n,) or per row."""
    return a @ w if w.ndim == 1 else np.vecdot(a, w)


def _weighted_products(a: np.ndarray, b: np.ndarray,
                       w: np.ndarray) -> np.ndarray:
    """sum_j w_j a[r, j] b[r, j] for every row r, with no temporary."""
    return np.einsum("ij,ij,ij->i" if w.ndim == 2 else "ij,ij,j->i", a, b, w)


def _dual_rows(u: np.ndarray, w: np.ndarray, mass: np.ndarray, floor=None):
    """Duality multipliers of many averaged norms at once, one per row.

    Row r holds u_r = |V| / max|V| on its atoms and 0 off them; its
    multiplier solves sum_j w_j (x_j - log1p x_j) = mass[r] for
    x = u_r e^-s, s = log(tau / max|V|).  The left side is convex and
    decreasing in s, so Newton's method started right of the root (at
    s = log(sum w u / mass), where the left side is below mass) lands left
    of it after one step and then rises monotonically to it.  A bracket
    kept from the sign of the constraint guards every step: a Newton step
    that leaves it is replaced by a bisection step.  The rows run in
    lockstep, every pass through two reused (rows, atoms) buffers; a row
    whose Newton step falls below the tolerance is frozen and leaves the
    working set.

    Given a ``floor`` per row, the iteration also settles whether the
    row's norm over max|V|, J = sum_j w_j u_j log1p(u_j e^-s) at the root,
    reaches it.  At every iterate, with f the constraint minus mass and
    S = sum_j w_j x_j log1p x_j:

    - J <= e^s (S - f), by Young's inequality u g <= tau (phi(g) +
      psi(u / tau)) for the complementary pair;
    - J >= e^s S min(1, mass / (mass + f)), since g = log1p x scaled by
      that factor is feasible (phi is convex with phi(0) = 0).

    A row whose two bounds lie on one side of its floor, clear of it by
    the relative ``_SETTLE_RTOL``, leaves the working set with that
    answer.  Both bounds meet J at the root.

    Parameters
    ----------
    u : ndarray, shape (m, n)
        Nonnegative rows, each |V| over its own maximum, so 1 at its
        largest; a zero entry is an atom outside the row's set (it adds
        nothing to either sum).  The scaling is exact by homogeneity, and
        it keeps the bracket finite at any scale of V.
    w : ndarray, shape (n,) or (m, n)
        Positive atom masses: one vector shared by the rows, or one row of
        masses per row of ``u`` when each row holds its own atoms (the
        crossing search gathers every row's atoms in its own order).  The
        shared vector enters the sums as matrix-vector products.
    mass : ndarray, shape (m,)
        Positive budget of each row.
    floor : ndarray, shape (m,), optional
        The level each row's J is compared with, in the units of u.

    Returns
    -------
    s : ndarray, shape (m,)
        log(tau / max|V|) of each row; a row settled by its bounds keeps
        the iterate it settled at.
    verdict : ndarray of int8, shape (m,)
        1 where the bounds put J above the floor, -1 where below, 0 where
        the row converged unsettled (every row without a floor).
    """
    m, n = u.shape
    x_buf, t_buf = np.empty((m, n)), np.empty((m, n))

    def excess(u, s, w, mass, bounds=False):
        """Constraint minus budget at tau = exp(s), its slope and, with
        ``bounds``, S; the live rows use the top of the buffers."""
        x, t = x_buf[:len(s)], t_buf[:len(s)]
        np.multiply(u, np.exp(-s)[:, None], out=x)
        np.log1p(x, out=t)
        products = _weighted_products(x, t, w) if bounds else None
        f = _weighted_sums(np.subtract(x, t, out=t), w) - mass
        # x^2 / (1 + x), in the order of the plain expression
        np.add(x, 1.0, out=t)
        np.multiply(x, x, out=x)
        return f, -_weighted_sums(np.divide(x, t, out=x), w), products

    lo = np.full(m, np.log(_TAU_BRACKET[0]))
    hi = np.full(m, np.log(_TAU_BRACKET[1]))
    if (np.any(excess(u, lo, w, mass)[0] < 0.0)
            or np.any(excess(u, hi, w, mass)[0] > 0.0)):
        raise OutOfRangeError(
            "duality multiplier outside bracket: degenerate scaling of V/mass")
    # x - log1p x < x: the constraint at sum(w u) / mass is below budget
    s = np.minimum(np.maximum(np.log(_weighted_sums(u, w) / mass), lo), hi)
    out = s.copy()
    verdict = np.zeros(m, dtype=np.int8)
    bounds = floor is not None
    # the rows still iterating: their indices and working copies
    rows, u_live, w_live = np.arange(m), u, w
    for _ in range(_MAX_STEPS):
        f, slope, products = excess(u_live, s, w_live, mass, bounds)
        if bounds:
            scale = np.exp(s)
            verdict[rows[scale * products * mass / np.maximum(mass, mass + f)
                         >= floor * (1.0 + _SETTLE_RTOL)]] = 1
            verdict[rows[scale * (products - f)
                         < floor * (1.0 - _SETTLE_RTOL)]] = -1
        above = f > 0.0
        lo = np.where(above, s, lo)
        hi = np.where(above, hi, s)
        # a slope lost to underflow (atoms of negligible mass) forces bisection
        step = np.full(len(s), np.inf)
        np.divide(-f, slope, out=step, where=slope < 0.0)
        trial = s + step
        newton = (lo <= trial) & (trial <= hi)
        s = np.where(newton, trial, 0.5 * (lo + hi))
        out[rows] = s
        live = (verdict[rows] == 0) & ~(newton & (
            np.abs(step) < _NEWTON_STEP_RTOL * np.maximum(1.0, np.abs(s))))
        if not live.any():
            break
        if not live.all():
            rows, s, lo, hi, u_live, mass = (
                rows[live], s[live], lo[live], hi[live], u_live[live],
                mass[live])
            if w.ndim == 2:
                w_live = w_live[live]
            if bounds:
                floor = floor[live]
    return out, verdict


def averaged_norm(V, weights, mass_E: float) -> OrliczNormResult:
    """Averaged norm of V on weighted atoms with budget ``mass_E``.

    The multiplier tau solves sum w_i (x_i - log1p x_i) = mass_E with
    x_i = |V_i| / tau: the one-row case of ``_dual_rows``, which
    describes the safeguarded Newton iteration.

    Parameters
    ----------
    V : array_like
        Weight values on the atoms; may change sign, and must be finite.
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
    bad = np.flatnonzero(~np.isfinite(V))
    if bad.size:
        raise InvalidArgumentError(
            "V must be finite, got %r" % float(V[bad[0]]))
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

    u = absV[None, :] / vmax
    s, _ = _dual_rows(u, w, np.array([mass_E], dtype=float))
    scaled_tau = float(np.exp(s[0]))
    gain = np.log1p(u[0] / scaled_tau)
    g = np.sign(V) * gain
    # V g = max|V| u log1p(u / tau'), summed in the units of u: a
    # subnormal V loses no digits to the products
    value = float(vmax * np.sum(w * u[0] * gain))
    residual = float(np.sum(w * phi(np.abs(g))) - mass_E)
    return OrliczNormResult(value, vmax * scaled_tau, g, residual)


def _norms_on_sets(absv: np.ndarray, w: np.ndarray,
                   inside: np.ndarray) -> np.ndarray:
    """Averaged norms of V on many atom sets at once.

    Row r of the boolean ``inside`` (m, n) selects a set E_r; the result
    is ``averaged_norm(V[E_r], w[E_r], w[E_r].sum()).value`` for every row,
    up to the order of the floating-point sums.  ``absv`` = |V| and the
    masses ``w`` are either one (n,) vector of the atoms, shared by the
    rows, or (m, n) with row r holding the atoms that ``inside[r]`` refers
    to, in that row's own order (as the crossing search's probes hold
    each row's atoms, sorted by distance, for ``_norms_reach``).
    A row whose set is empty or carries V = 0 gives 0.
    """
    rows = np.where(inside, absv, 0.0)
    out = np.zeros(len(rows))
    vmax = rows.max(axis=1, initial=0.0)
    live = vmax > 0.0
    if live.any():
        rows = rows[live]
        if w.ndim == 2:
            w = w[live]
        mass = np.where(inside[live], w, 0.0).sum(axis=1)
        u = rows / vmax[live, None]
        s, _ = _dual_rows(u, w, mass)
        # in the units of u, as in averaged_norm
        out[live] = vmax[live] * _weighted_sums(
            u * np.log1p(u / np.exp(s)[:, None]), w)
    return out


def _norms_reach(absv: np.ndarray, w: np.ndarray, floor: float) -> np.ndarray:
    """Whether the averaged norm of V on each row's set reaches ``floor``.

    Row r of ``absv`` = |V| and of the masses ``w``, both (m, n), holds
    the atoms of its set E_r with every entry past them zeroed (the
    crossing search's sorted prefixes).  The answer is, row for row,
    ``_norms_on_sets(absv, w, inside) >= floor`` with ``inside`` the
    unzeroed entries, for a positive ``floor``: a row that ``_dual_rows``
    settles from its two bounds takes their answer, and any other compares
    J at its converged root, computed as ``_norms_on_sets`` computes it.
    A row with V = 0 gives False.  ``absv`` is overwritten.
    """
    vmax = absv.max(axis=1)
    reach = np.zeros(len(absv), dtype=bool)
    live = vmax > 0.0
    if not live.any():
        return reach
    if not live.all():
        absv, w, vmax = absv[live], w[live], vmax[live]
    u = np.divide(absv, vmax[:, None], out=absv)
    s, verdict = _dual_rows(u, w, w.sum(axis=1), floor / vmax)
    open_rows = np.flatnonzero(verdict == 0)
    if open_rows.size:
        u, w, s = u[open_rows], w[open_rows], s[open_rows]
        j = vmax[open_rows] * _weighted_sums(
            u * np.log1p(u / np.exp(s)[:, None]), w)
        verdict[open_rows] = np.where(j >= floor, 1, -1)
    reach[live] = verdict > 0
    return reach


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
    """V on the atoms: a ``WeightFn``, or one tabulated value per atom."""
    if hasattr(V, "values_on"):
        return V.values_on(obj)
    V = np.asarray(V, dtype=float)
    if V.shape != (len(points),):
        raise InvalidArgumentError("tabulated V must match the atom count")
    return V


def j_functional(V, measure, cube: Cube) -> float:
    """Cube functional: the averaged norm of V restricted to the cube.

    The mass budget is the restricted mass; an empty intersection gives 0 by
    the zero-measure convention.  The paper's constant A2 in front of the
    norm is taken as 1: the bound experiments report empirical constants
    against that normalisation.
    """
    points, masses = support_atoms(measure)
    vals = _weight_values(V, measure, points)
    inside = cube.contains(points)
    if not inside.any():
        return 0.0
    res = averaged_norm(vals[inside], masses[inside],
                        float(masses[inside].sum()))
    return res.value


def surface_norm(V, obj) -> float:
    """Averaged norm of V over the whole support of a mesh or measure."""
    points, masses = support_atoms(obj)
    vals = _weight_values(V, obj, points)
    return averaged_norm(vals, masses, float(masses.sum())).value
