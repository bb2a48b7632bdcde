"""Cube coverings driven by the Orlicz cube functional.

For a target level, every support point X gets the smallest cube side t(X)
at which the cube functional rho_X(t) = J(Q_X(t)) first reaches the level;
a greedy selection (largest mass first, then largest cube) then extracts a
finite sub-covering of the support and reports its observed multiplicity,
cube count and the induced eigenvalue-count bound.

On atomized measures rho_X is a step function of t, so the exact-level
equation is relaxed to the first crossing; the crossing sides are found
exactly by binary search over the sorted Chebyshev distances.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb, ceil

import numpy as np

from .errors import InvalidArgumentError, OutOfRangeError
from .geometry import support_atoms
from .orlicz import Cube, averaged_norm, j_functional, _weight_values

# relative slack when comparing J against the target: the crossing may land
# on the target exactly up to root-finding rounding
_CROSSING_RTOL = 1e-12


def poly_space_dim(ambient_dim: int, order_l: float) -> int:
    """Dimension of the space of polynomials of degree < l in N variables."""
    deg_max = ceil(order_l) - 1
    return comb(deg_max + ambient_dim, ambient_dim)


@dataclass(frozen=True)
class CoveringReport:
    lam: float
    kappa_config: int
    target: float
    cubes: tuple[Cube, ...]
    covered_per_cube: tuple[int, ...]
    family_count: int
    multiplicity_observed: int
    cube_count: int
    max_j: float
    bound_value: float

    def to_text(self) -> str:
        lines = [
            "# covering lambda=%.17g kappa=%d cubes=%d multiplicity=%d "
            "families=%d max_j=%.17g bound=%.17g"
            % (self.lam, self.kappa_config, self.cube_count,
               self.multiplicity_observed, self.family_count, self.max_j,
               self.bound_value)
        ]
        for cube, cov in zip(self.cubes, self.covered_per_cube):
            lines.append("%s %.17g %d"
                         % (" ".join("%.17g" % c for c in cube.center),
                            cube.side, cov))
        return "\n".join(lines) + "\n"


def rho(measure, V, center, side: float, a2: float = 1.0) -> float:
    """Cube functional of the side-``side`` cube centered at ``center``."""
    if side <= 0.0:
        raise InvalidArgumentError("cube side must be positive")
    return j_functional(V, measure, Cube(np.asarray(center, float), side), a2=a2)


def _prefix_values(measure, V, center, a2):
    """Sorted unique Chebyshev distances from center and J on each prefix."""
    points, masses = support_atoms(measure)
    vals = _weight_values(V, measure, points)
    dist = np.max(np.abs(points - np.asarray(center, float)[None, :]), axis=1)
    order = np.argsort(dist, kind="stable")
    dist_sorted = dist[order]
    uniq = np.unique(dist_sorted)

    def j_of_prefix(i: int) -> float:
        sel = order[dist_sorted <= uniq[i]]
        return a2 * averaged_norm(vals[sel], masses[sel],
                                  float(masses[sel].sum())).value

    return uniq, j_of_prefix


def solve_t(measure, V, center, target: float, a2: float = 1.0) -> float:
    """Smallest cube side t with rho_X(t) >= target (first crossing).

    The crossing is located exactly: atoms enter the cube in order of their
    Chebyshev distance from the center, so a binary search over distance
    prefixes finds the jump, and the returned side is twice the distance of
    the last atom to enter.
    """
    if target <= 0.0:
        raise InvalidArgumentError("target must be positive")
    uniq, j_of_prefix = _prefix_values(measure, V, center, a2)
    slack = target * (1.0 - _CROSSING_RTOL)
    if j_of_prefix(len(uniq) - 1) < slack:
        raise OutOfRangeError(
            "target %g exceeds the stabilized cube functional" % target)
    lo, hi = -1, len(uniq) - 1
    if j_of_prefix(0) >= slack:
        hi = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if j_of_prefix(mid) >= slack:
            hi = mid
        else:
            lo = mid
    return float(2.0 * uniq[hi]) if uniq[hi] > 0.0 else 0.0


def build_covering(measure, V, lam: float, kappa_config: int = 4,
                   a2: float = 1.0,
                   multiplicity_cap: int = 16) -> CoveringReport:
    """Greedy finite sub-covering at level ``lam``.

    Each atom gets its first-crossing cube for the target lam / kappa; the
    greedy pass picks the uncovered atom of largest mass (ties: largest
    cube, then the most extremal atom) and retires every atom inside its
    cube.  When the target is unattainable even globally, a single cube
    covering the whole support is returned.  An observed multiplicity above
    ``multiplicity_cap`` (the geometric expectation in the plane) is
    reported through a warning, never hidden.
    """
    if lam <= 0.0:
        raise InvalidArgumentError("lambda must be positive")
    if kappa_config < 1:
        raise InvalidArgumentError("kappa_config must be >= 1")
    points, masses = support_atoms(measure)
    vals = _weight_values(V, measure, points)
    n = len(points)
    target = lam / kappa_config

    lo_corner = points.min(axis=0)
    hi_corner = points.max(axis=0)
    center_global = 0.5 * (lo_corner + hi_corner)
    # inflate so boundary atoms stay inside under rounding
    side_global = float(np.max(hi_corner - lo_corner)) * (1.0 + 1e-12) + 1e-300
    rho_inf = a2 * averaged_norm(vals, masses, float(masses.sum())).value

    if target >= rho_inf * (1.0 - _CROSSING_RTOL):
        cube = Cube(center_global, side_global)
        return _report(measure, V, lam, kappa_config, target,
                       [cube], [n], a2, multiplicity_cap)

    sides = np.array([solve_t(measure, V, points[i], target, a2=a2)
                      for i in range(n)])
    # selection order: heaviest atom first; ties broken by the larger cube,
    # then by distance from the barycenter (extremal points first), which
    # keeps symmetric configurations on their clean dyadic splits
    barycenter = np.average(points, axis=0, weights=masses)
    extremality = np.linalg.norm(points - barycenter[None, :], axis=1)
    order = np.lexsort((np.arange(n), -extremality, -sides, -masses))
    covered = np.zeros(n, dtype=bool)
    cubes: list[Cube] = []
    covered_per_cube: list[int] = []
    for i in order:
        if covered[i]:
            continue
        cube = Cube(points[i], sides[i])
        inside = cube.contains(points)
        cubes.append(cube)
        covered_per_cube.append(int(inside.sum()))
        covered |= inside
    return _report(measure, V, lam, kappa_config, target, cubes,
                   covered_per_cube, a2, multiplicity_cap)


def _report(measure, V, lam, kappa_config, target, cubes, covered_per_cube,
            a2, multiplicity_cap) -> CoveringReport:
    points, _ = support_atoms(measure)
    membership = np.zeros(len(points), dtype=int)
    for cube in cubes:
        membership += cube.contains(points)
    if membership.max() > multiplicity_cap:
        warnings.warn(
            "observed covering multiplicity %d exceeds the cap %d"
            % (int(membership.max()), multiplicity_cap), RuntimeWarning)
    js = [j_functional(V, measure, cube, a2=a2) for cube in cubes]
    return CoveringReport(
        lam=lam,
        kappa_config=kappa_config,
        target=target,
        cubes=tuple(cubes),
        covered_per_cube=tuple(covered_per_cube),
        family_count=int(_family_colors(cubes).max()) + 1,
        multiplicity_observed=int(membership.max()),
        cube_count=len(cubes),
        max_j=float(max(js)),
        bound_value=float(len(cubes) * poly_space_dim(points.shape[1], points.shape[1] / 2.0)),
    )


def _family_colors(cubes) -> np.ndarray:
    """Greedy coloring of the cube overlap graph into disjoint families.

    Closed cubes overlap when they are within half their summed sides of
    each other on every axis (touching counts); each cube in turn takes the
    smallest color none of its earlier neighbours holds.
    """
    n = len(cubes)
    colors = np.zeros(n, dtype=int)
    centers = np.array([cube.center for cube in cubes])
    sides = np.array([cube.side for cube in cubes])
    gap = (np.abs(centers[:, None, :] - centers[None, :, :])
           - (sides[:, None] + sides[None, :])[:, :, None] / 2.0)
    overlap = np.all(gap <= 0.0, axis=2)
    for i in range(1, n):
        taken = np.zeros(i + 1, dtype=bool)
        taken[colors[:i][overlap[i, :i]]] = True
        colors[i] = int(np.argmin(taken))
    return colors


def empirical_estimate_constant(spectrum, v_norm: float, lambda_grid) -> float:
    """Measured constant sup over the grid of lambda n(lambda) / v_norm.

    Counting here is inclusive (eigenvalues of magnitude >= lambda), the
    convention under which a grid through the eigenvalues attains the sup.
    """
    if v_norm <= 0.0:
        raise InvalidArgumentError("v_norm must be positive")
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.size == 0:
        raise InvalidArgumentError("empty lambda grid")
    mags = np.concatenate([np.asarray(spectrum.positives),
                           -np.asarray(spectrum.negatives)])
    if mags.size == 0:
        raise InvalidArgumentError("empty spectrum")
    mags = np.sort(mags)
    counts = mags.size - np.searchsorted(mags, grid * (1.0 - 1e-12), side="left")
    return float(np.max(grid * counts) / v_norm)
