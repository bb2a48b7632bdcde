"""Cube coverings driven by the Orlicz cube functional.

For a target level, every support point X gets the smallest cube side t(X)
at which the cube functional rho_X(t) = J(Q_X(t)) first reaches the level;
a greedy selection (largest mass first, then largest cube) then extracts a
finite sub-covering of the support and reports its observed multiplicity,
cube count and the induced eigenvalue-count bound.

On atomized measures rho_X is a step function of t, so the exact-level
equation is relaxed to the first crossing; the crossing sides are found
exactly by binary search over the sorted Chebyshev distances.  A point's
candidate cubes are prefixes of its atoms sorted by distance, so each point
sorts once and gathers |V| and the masses into its own order.  All support
points are searched together: the binary searches run in lockstep, and each
of their steps evaluates J on every point's candidate prefix in one
row-batched duality solve (``orlicz._norms_on_sets`` with per-row masses),
as wide as the longest prefix probed, in serial blocks of points each of
whose (points, atoms) arrays holds about _BLOCK_BYTES.  About ten such
arrays are live at once, so a search peaks near ten _BLOCK_BYTES: 0.65 MB
at 64 KB for 64 centres on 4096 atoms.  The largest candidate
of every point is the whole support, checked once per search.  The report's
largest cube functional comes from one masked full-width solve over all
cubes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb, ceil

import numpy as np

from .errors import InvalidArgumentError, OutOfRangeError
from .geometry import support_atoms
# j_functional is not called here; perfbench/tracer.py counts the calls made
# through this module's name for it
from .orlicz import (Cube, averaged_norm, j_functional, _norms_on_sets,
                     _weight_values)

# relative slack when comparing J against the target: the crossing may land
# on the target exactly up to root-finding rounding
_CROSSING_RTOL = 1e-12
# budget of one (centers, atoms) float temporary of the batched search
_BLOCK_BYTES = 64 * 1024
# observed covering multiplicity above which a warning is raised: the
# geometric expectation for cube coverings in the plane
_MULTIPLICITY_CAP = 16


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


def _row_blocks(m: int, n: int):
    """Slices of at most _BLOCK_BYTES // (8 n) rows (at least one) of m."""
    rows = max(1, _BLOCK_BYTES // (8 * n))
    return (slice(r0, min(r0 + rows, m)) for r0 in range(0, m, rows))


def _chebyshev(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Distances max_k |points[j, k] - centers[i, k]|, shape (m, n)."""
    dist = np.abs(points[None, :, 0] - centers[:, 0, None])
    for k in range(1, points.shape[1]):
        np.maximum(dist, np.abs(points[None, :, k] - centers[:, k, None]),
                   out=dist)
    return dist


def _crossing_sides(points, absv, masses, centers, target):
    """First-crossing sides of the rows ``centers``, found in lockstep.

    Each row sorts its atoms by Chebyshev distance (a stable sort, so tied
    atoms keep their order) and gathers |V| and the masses into that
    order.  A candidate cube ends at the last atom of a run of tied
    distances, so the candidates of row r are the prefixes of its sorted
    atoms that end a run, at distances d_r[0] < d_r[1] < ...  Every row
    runs the same binary search over its candidate index: its nearest run
    first, then halving [lo, hi] until the crossing is pinned; the whole
    support, every row's last candidate, reaches the target (``solve_t``
    and ``build_covering`` check it once for all rows).  One
    ``_norms_on_sets`` call evaluates J for all rows still searching at
    each halving, on the first ``width`` sorted atoms of each, ``width``
    the longest probed prefix, with the atoms past a row's own prefix
    masked out.
    """
    slack = target * (1.0 - _CROSSING_RTOL)
    dist = _chebyshev(points, centers)
    order = np.argsort(dist, axis=1, kind="stable")
    ordered = np.take_along_axis(dist, order, axis=1)
    ends = np.ones(ordered.shape, dtype=bool)
    ends[:, :-1] = ordered[:, 1:] != ordered[:, :-1]
    # every row's runs, row after row: distance and prefix length
    uniq = ordered[ends]
    length = np.flatnonzero(ends) % ordered.shape[1] + 1
    count = ends.sum(axis=1)
    start = np.cumsum(count) - count
    # from here on, row r's atoms in its own sorted order
    absv, masses = absv[order], masses[order]

    def reaches(rows, index):
        prefix = length[start[rows] + index]
        width = prefix.max()
        inside = np.arange(width) < prefix[:, None]
        return _norms_on_sets(absv[rows, :width], masses[rows, :width],
                              inside) >= slack

    everyone = np.arange(len(centers))
    lo = np.full(len(centers), -1)
    hi = np.where(reaches(everyone, np.zeros_like(count)), 0, count - 1)
    while True:
        rows = np.flatnonzero(hi - lo > 1)
        if not rows.size:
            break
        mid = (lo[rows] + hi[rows]) // 2
        hit = reaches(rows, mid)
        hi[rows[hit]] = mid[hit]
        lo[rows[~hit]] = mid[~hit]
    side = uniq[start + hi]
    return np.where(side > 0.0, 2.0 * side, 0.0)


def solve_t(measure, V, center, target: float):
    """Smallest cube side t with rho_X(t) >= target (first crossing).

    The crossing is located exactly: atoms enter the cube in order of their
    Chebyshev distance from the center, so a binary search over distance
    prefixes finds the jump, and the returned side is twice the distance of
    the last atom to enter.  ``center`` is one point, for which the side is
    returned as a float, or an (m, N) array of points, for which the m
    sides are returned as an array; the rows are searched in lockstep, in
    serial blocks of rows, each (rows, atoms) array about _BLOCK_BYTES and
    about ten of them live at once.
    Every center's largest cube holds the whole support, so the range
    check (the target is reached at all) is one averaged norm per call.
    """
    if not target > 0.0:
        raise InvalidArgumentError("target must be positive, got %r"
                                   % (target,))
    points, masses = support_atoms(measure)
    vals = _weight_values(V, measure, points)
    centers = np.asarray(center, dtype=float)
    rows = np.atleast_2d(centers)
    if centers.ndim > 2 or rows.shape[1] != points.shape[1]:
        raise InvalidArgumentError(
            "centers must be points of the measure's dimension")
    if not np.isfinite(rows).all():
        raise InvalidArgumentError("centers must be finite")
    # raises on a non-finite V
    whole = averaged_norm(vals, masses, float(masses.sum())).value
    if whole < target * (1.0 - _CROSSING_RTOL):
        raise OutOfRangeError(
            "target %g exceeds the stabilized cube functional" % target)
    sides = _first_crossings(points, vals, masses, rows, target)
    return float(sides[0]) if centers.ndim == 1 else sides


def _first_crossings(points, vals, masses, centers, target):
    """First-crossing sides of every row of ``centers``, searched in
    serial blocks of rows, each (rows, atoms) array about _BLOCK_BYTES and
    about ten of them live at once.  The caller has checked that the whole
    support reaches the target."""
    absv = np.abs(vals)
    sides = np.empty(len(centers))
    for block in _row_blocks(len(centers), len(points)):
        sides[block] = _crossing_sides(points, absv, masses, centers[block],
                                       target)
    return sides


def build_covering(measure, V, lam: float,
                   kappa_config: int = 4) -> CoveringReport:
    """Greedy finite sub-covering at level ``lam``.

    Each atom gets its first-crossing cube for the target lam / kappa; the
    greedy pass picks the uncovered atom of largest mass (ties: largest
    cube, then the most extremal atom) and retires every atom inside its
    cube.  When the target is unattainable even globally, a single cube
    covering the whole support is returned.  An observed multiplicity above
    ``_MULTIPLICITY_CAP`` (the geometric expectation in the plane) is
    reported through a warning, never hidden.
    """
    if not lam > 0.0:
        raise InvalidArgumentError("lambda must be positive, got %r" % (lam,))
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
    rho_inf = averaged_norm(vals, masses, float(masses.sum())).value

    if target >= rho_inf * (1.0 - _CROSSING_RTOL):
        cube = Cube(center_global, side_global)
        return _report(measure, V, lam, kappa_config, target, [cube], [n])

    # the whole support reaches the target, which is solve_t's range check
    sides = _first_crossings(points, vals, masses, points, target)
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
                   covered_per_cube)


def _report(measure, V, lam, kappa_config, target, cubes,
            covered_per_cube) -> CoveringReport:
    points, masses = support_atoms(measure)
    absv = np.abs(_weight_values(V, measure, points))
    centers = np.array([cube.center for cube in cubes])
    half = np.array([cube.side for cube in cubes]) / 2.0
    membership = np.zeros(len(points), dtype=int)
    js = np.empty(len(cubes))
    for block in _row_blocks(len(cubes), len(points)):
        inside = _chebyshev(points, centers[block]) <= half[block, None]
        membership += inside.sum(axis=0)
        js[block] = _norms_on_sets(absv, masses, inside)
    if membership.max() > _MULTIPLICITY_CAP:
        warnings.warn(
            "observed covering multiplicity %d exceeds the cap %d"
            % (int(membership.max()), _MULTIPLICITY_CAP), RuntimeWarning)
    return CoveringReport(
        lam=lam,
        kappa_config=kappa_config,
        target=target,
        cubes=tuple(cubes),
        covered_per_cube=tuple(covered_per_cube),
        family_count=int(_family_colors(cubes).max()) + 1,
        multiplicity_observed=int(membership.max()),
        cube_count=len(cubes),
        max_j=float(js.max()),
        bound_value=float(len(cubes) * poly_space_dim(points.shape[1], points.shape[1] / 2.0)),
    )


def _family_colors(cubes) -> np.ndarray:
    """Greedy coloring of the cube overlap graph into disjoint families.

    Closed cubes overlap when they are within half their summed sides of
    each other on every axis (touching counts); each cube in turn takes the
    smallest color none of its earlier neighbours holds.  The overlaps are
    tested one row at a time, so memory stays linear in the cube count.
    """
    n = len(cubes)
    colors = np.zeros(n, dtype=int)
    centers = np.array([cube.center for cube in cubes])
    sides = np.array([cube.side for cube in cubes])
    for i in range(1, n):
        gap = (np.abs(centers[i] - centers[:i])
               - (sides[i] + sides[:i])[:, None] / 2.0)
        taken = np.zeros(i + 1, dtype=bool)
        taken[colors[:i][np.all(gap <= 0.0, axis=1)]] = True
        colors[i] = int(np.argmin(taken))
    return colors


def empirical_estimate_constant(spectrum, v_norm: float, lambda_grid) -> float:
    """Measured constant sup over the grid of lambda n(lambda) / v_norm.

    Counting here is inclusive (eigenvalues of magnitude >= lambda), the
    convention under which a grid through the eigenvalues attains the sup.
    ``v_norm`` and every grid value must be positive and finite.
    """
    if not 0.0 < v_norm < np.inf:
        raise InvalidArgumentError(
            "v_norm must be positive and finite, got %r" % (v_norm,))
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.size == 0:
        raise InvalidArgumentError("empty lambda grid")
    bad = np.flatnonzero(~((grid > 0.0) & (grid < np.inf)))
    if bad.size:
        raise InvalidArgumentError(
            "lambda grid values must be positive and finite, got %r"
            % float(grid.flat[bad[0]]))
    mags = np.concatenate([np.asarray(spectrum.positives),
                           -np.asarray(spectrum.negatives)])
    if mags.size == 0:
        raise InvalidArgumentError("empty spectrum")
    mags = np.sort(mags)
    counts = mags.size - np.searchsorted(mags, grid * (1.0 - 1e-12), side="left")
    return float(np.max(grid * counts) / v_norm)
