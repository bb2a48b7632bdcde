"""Independent high-precision oracles for frozen expected values.

The Bessel oracle is built from scratch in arbitrary precision: the
ascending series for I_n and adaptive (tanh-sinh) quadrature of the
cosh-integral representation for K_n, cross-verified against each other
through the Wronskian identity.  Running this file as a script regenerates
tests/_frozen_bessel.py with correctly rounded double values on the grid
used by the acceptance suite.

The averaged-norm oracle is the plain 80-step bisection in log tau that the
package's Newton solve replaced, evaluating the constraint through phi.  Of
the two family-coloring oracles, one tests every cube pair in a Python loop
and the other is the package's coloring as it was before it tested the
overlaps one row at a time: all pairs at once, in (cubes, cubes, N) arrays.

``solve_t_prefix`` is the first-crossing search as it was before the
lockstep search over many centers: one center at a time, its distinct
Chebyshev distances from ``np.unique``, and one ``averaged_norm`` call on
the compacted atoms of every prefix the binary search visits (the norm
function is a parameter, so the bisection oracle can stand in for the
Newton solve).  ``rho`` is the cube functional of one cube, the quantity
the search crosses.

The curve-kernel oracles are the smooth-curve and polygon effective kernels
as they were before the fused split: full n x n matrices built from two
kernel calls (``profile`` and ``log_factor``) and a subtraction.  The
``K_0`` oracle is ``bessel_k(0, .)`` of the same release, with its three
branches (log series, cosh-integral trapezoid summed by a matrix-vector
product, asymptotic expansion); it computed K_1 alongside, which does not
change K_0.

The lower-order kernel oracle is the subordination integral that the
package evaluated before it took the closed form e^{-r} / (2 pi), on the
same fixed log-time trapezoid grid.

The ``*_pairs`` oracles are the smooth-curve, polygon and point effective
kernels as they were before the blocked upper-triangle pass: one gather of
all n (n - 1) / 2 pair distances through ``triu_indices``, one kernel call
on them, and a scatter into the symmetric matrix; the polygon panel
integrals are full n x n arrays.  The blocked pass evaluates the same
elementwise expressions, so the two agree bit for bit.

``assemble_mixed_pairs`` is ``assemble_mixed`` as it was before the
threaded pass, on its list of (support, weight) blocks: every diagonal
kernel block built on its own and copied into a second matrix, each cross
block one ``profile`` call on all its pairs (refused, as the package
refuses it, where two supports share an atom), and the scaling of all n^2
entries followed by a row-by-row mirror (the package's fold, which returns
an upper triangle, is mirrored the same way).  Its diagonal blocks come
from the ``*_pairs`` oracles above.

``upper_invariants`` is the trace and squared Frobenius norm of a finished
matrix, its upper triangle, as ``spectra`` summed them over row blocks for
a dense operator before every operator carried its invariants from its
kernel rows; ``upper_invariants_rows`` is the same sums one row at a time,
as ``spectra`` took them before the row blocks.  ``one_block`` hands a
hand-made matrix to the eigensolve as the one block of an operator.

``cholesky_fold_full`` is the sign fold as it was before its column-blocked
upper-triangle product: the full product L^T (diag(V w) L), then a
row-by-row mirror.

``kress_weight_vector_table`` is the Kress weight vector as the package
summed it before it took one inverse real FFT: the (n, n/2 - 1) cosine
table of nodes and frequencies over 32-row blocks, each block one
matrix-vector product, except that each argument 2 pi k d / n has its k d
reduced mod n in integers.  The package took the cosine of the unreduced
product, whose rounding grew with k d: it was off the exact weights by up
to 4.8e-14 of max |R_d| at n = 2048, where the FFT and this table both
stay within 1e-15.

``real_fourier`` is the real Fourier transform the package took of the
cross blocks between equispaced circles, evaluated in full, before it wrote
their kept modes from the kernel's addition theorem: one real FFT along an
axis, into the orthonormal real basis (1, cos t, sin t, ..., cos (n/2) t).

``unit_square_log_energy_dblquad`` and ``r_symbol_quadrature_quad`` are the
SciPy quadratures the package used before it took the closed form of the
square's log energy and the Gauss-Legendre rule of the ``r_symbol``
cross-check; the package itself imports nothing from SciPy.
"""

from __future__ import annotations

import math
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy.integrate import dblquad, quad

from critspec.assemble import (BlockOperator, OperatorMatrix, _cholesky_fold,
                               _kress_weight_vector, _pairwise_dist,
                               _panel_ends)
from critspec.asymptotics import sphere_surface
from critspec.bessel import EULER_GAMMA
from critspec.kernels import self_cell_coefficient
from critspec.errors import InvalidArgumentError, OutOfRangeError
from critspec.geometry import SurfaceMesh, support_atoms
from critspec.orlicz import (Cube, OrliczNormResult, _weight_values,
                             averaged_norm, j_functional, phi)

mp.mp.dps = 30

BESSEL_ORDERS = (0, 1, 2, 3, 5, 7, 10)
BESSEL_ARGS = (1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 2.19, 2.21, 3.0,
               5.0, 8.0, 10.0, 14.9, 15.1, 20.0)


def bessel_i_series(n: int, x) -> mp.mpf:
    """I_n by its ascending series in arbitrary precision."""
    x = mp.mpf(x)
    term = (x / 2) ** n / mp.factorial(n)
    total = term
    k = 1
    while True:
        term *= (x * x / 4) / (k * (k + n))
        total += term
        if abs(term) < abs(total) * mp.mpf(10) ** (-mp.mp.dps - 5):
            return total
        k += 1


def bessel_k_quadrature(n: int, x) -> mp.mpf:
    """K_n by adaptive quadrature of its cosh-integral representation."""
    xf = float(x)
    x = mp.mpf(x)
    # truncation point: the integrand must be below the working precision
    target = (mp.mp.dps + 15) * math.log(10) + abs(
        n * math.log(2.0 / min(xf, 2.0)) + math.lgamma(max(n, 1)))
    upper = 20.0
    for _ in range(4):
        upper = math.acosh((target + n * upper) / xf + 1.0)
    points = [0.0] + [t for t in (0.5, 1.0, 2.0, 4.0, 8.0, 12.0)
                      if t < upper] + [upper]
    return mp.quad(lambda t: mp.exp(-x * mp.cosh(t)) * mp.cosh(n * t), points)


def wronskian_defect(n: int, x) -> float:
    """| x (I_n K_{n+1} + I_{n+1} K_n) - 1 |, should vanish identically."""
    x = mp.mpf(x)
    val = x * (bessel_i_series(n, x) * bessel_k_quadrature(n + 1, x)
               + bessel_i_series(n + 1, x) * bessel_k_quadrature(n, x))
    return float(abs(val - 1))


def bisect_increasing(f, lo: float, hi: float, steps: int = 200) -> float:
    """Root of an increasing function by plain bisection."""
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def t_star() -> float:
    """Root of e^t - t = 2: the constant-weight norm factor."""
    return bisect_increasing(lambda t: mp.e ** t - t - 2, 0.5, 2.0)


def phi_inverse(y: float) -> float:
    """Inverse of phi(t) = e^t - 1 - t on [0, inf)."""
    return bisect_increasing(lambda t: mp.e ** t - 1 - t - y, 0.0, 50.0)


def averaged_norm_bisection(V, weights, mass_E: float) -> OrliczNormResult:
    """Averaged norm by 80 bisection steps in log tau on [1e-12, 1e12]
    (relative to max|V|), the constraint evaluated through phi."""
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
    u = absV / vmax

    def budget(log_tau: float) -> float:
        return float(np.sum(w * phi(np.log1p(u / np.exp(log_tau)))))

    lo, hi = np.log(1e-12), np.log(1e12)
    if budget(lo) < mass_E or budget(hi) > mass_E:
        raise OutOfRangeError(
            "duality multiplier outside bracket: degenerate scaling of V/mass")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if budget(mid) > mass_E:
            lo = mid
        else:
            hi = mid
    scaled_tau = float(np.exp(0.5 * (lo + hi)))
    g = np.sign(V) * np.log1p(u / scaled_tau)
    value = float(np.sum(w * V * g))
    residual = float(np.sum(w * phi(np.abs(g))) - mass_E)
    return OrliczNormResult(value, vmax * scaled_tau, g, residual)


def rho(measure, V, center, side: float) -> float:
    """Cube functional of the side-``side`` cube centered at ``center``."""
    if side <= 0.0:
        raise InvalidArgumentError("cube side must be positive")
    return j_functional(V, measure, Cube(np.asarray(center, float), side))


def solve_t_prefix(measure, V, center, target: float,
                   norm=averaged_norm) -> float:
    """First-crossing cube side at one center by binary search over the
    sorted distinct Chebyshev distances, one ``norm`` call per prefix."""
    if target <= 0.0:
        raise InvalidArgumentError("target must be positive")
    points, masses = support_atoms(measure)
    vals = _weight_values(V, measure, points)
    dist = np.max(np.abs(points - np.asarray(center, float)[None, :]), axis=1)
    order = np.argsort(dist, kind="stable")
    dist_sorted = dist[order]
    uniq = np.unique(dist_sorted)

    def j_of_prefix(i: int) -> float:
        sel = order[dist_sorted <= uniq[i]]
        return norm(vals[sel], masses[sel], float(masses[sel].sum())).value

    slack = target * (1.0 - 1e-12)
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


def family_colors_loop(cubes) -> np.ndarray:
    """Greedy coloring of the cube overlap graph, one cube pair at a time."""
    n = len(cubes)
    colors = np.full(n, -1, dtype=int)
    for i in range(n):
        taken = set()
        for j in range(i):
            gap = (np.abs(cubes[i].center - cubes[j].center)
                   - (cubes[i].side + cubes[j].side) / 2.0)
            if np.all(gap <= 0.0):
                taken.add(colors[j])
        c = 0
        while c in taken:
            c += 1
        colors[i] = c
    return colors


def family_colors_all_pairs(cubes) -> np.ndarray:
    """Greedy coloring of the cube overlap graph from one all-pairs test."""
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


def smooth_curve_effective_kernel_two_calls(mesh, kernel) -> np.ndarray:
    """Periodic log quadrature on a smooth closed curve, the kernel split by
    ``profile - log_factor * log(4 sin^2)`` on every off-diagonal pair."""
    TWO_PI = 2.0 * np.pi
    n = mesh.n_nodes
    t = mesh.param_values
    speed = mesh.weights / (TWO_PI / n)
    r = _pairwise_dist(mesh.nodes, mesh.nodes)
    off = ~np.eye(n, dtype=bool)

    half_log_factor = np.empty_like(r)
    half_log_factor[off] = 0.5 * kernel.log_factor(r[off])
    half_log_factor[~off] = 0.5 * kernel.log_coefficient

    dt = t[:, None] - t[None, :]
    log4sin = np.zeros_like(r)
    log4sin[off] = np.log(4.0 * np.sin(dt[off] / 2.0) ** 2)

    smooth = np.empty_like(r)
    smooth[off] = kernel.profile(r[off]) - half_log_factor[off] * log4sin[off]
    smooth[~off] = (kernel.remainder_at_zero
                    + kernel.log_coefficient * np.log(speed))

    idx = np.arange(n)
    rw = _kress_weight_vector(n)[(idx[:, None] - idx[None, :]) % n]
    return (half_log_factor * rw + (TWO_PI / n) * smooth) * (n / TWO_PI)


def _panel_log_integrals(targets: np.ndarray, centers: np.ndarray,
                         tangents: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Exact integral of log|x - y| over flat panels, all target/panel pairs."""
    px = targets[:, 0, None] - centers[None, :, 0]
    py = targets[:, 1, None] - centers[None, :, 1]
    tx, ty = tangents[None, :, 0], tangents[None, :, 1]
    along = px * tx + py * ty
    # the offsets turn into the perpendicular distance in place
    px -= along * tx
    py -= along * ty
    px *= px
    py *= py
    px += py
    perp = np.sqrt(px, out=px)
    del py
    v1 = -lengths[None, :] / 2.0 - along
    v2 = lengths[None, :] / 2.0 - along
    del along
    # the pieces both panel ends share
    flat = perp <= 1e-14
    safe_b = np.where(flat, 1.0, perp)
    b2 = perp * perp

    def antiderivative(v):
        general = (v * np.log(v * v + b2) - 2.0 * v
                   + 2.0 * perp * np.arctan(v / safe_b))
        vabs = np.maximum(np.abs(v), 1e-300)
        online = 2.0 * (v * np.log(vabs) - v)
        return np.where(flat, online, general)

    return 0.5 * (antiderivative(v2) - antiderivative(v1))


def panel_log_mean_mp(x, center, tangent, width) -> mp.mpf:
    """The mean of log|x - y| over the flat panel of ``center``,
    ``tangent`` and ``width``, its ends center -+ width tangent / 2 taken
    from the doubles exactly, at 30 digits: the antiderivative
    v log(v^2 + b^2) - 2 v + 2 b atan(v / b) of log(v^2 + b^2) at both
    ends, halved."""
    x, c, t = ([mp.mpf(float(a)) for a in p] for p in (x, center, tangent))
    w = mp.mpf(float(width))
    a = (x[0] - c[0]) * t[0] + (x[1] - c[1]) * t[1]
    b = abs((x[0] - c[0]) * t[1] - (x[1] - c[1]) * t[0])

    def antiderivative(v):
        if b == 0:
            return v * mp.log(v * v) - 2 * v
        return v * mp.log(v * v + b * b) - 2 * v + 2 * b * mp.atan(v / b)

    return (antiderivative(w / 2 - a) - antiderivative(-w / 2 - a)) / (2 * w)


def polygon_effective_kernel_two_calls(mesh, kernel,
                                      per_panel: bool = False) -> np.ndarray:
    """Panel collocation on a polygon, the kernel split by
    ``profile - log_factor * log r`` on every off-diagonal pair.  The log
    integrals are the assembler's, from the chained panel ends, or, with
    ``per_panel``, each panel's own from its centre and width
    (``_panel_log_integrals``)."""
    n = mesh.n_nodes
    w = mesh.weights
    r = _pairwise_dist(mesh.nodes, mesh.nodes)
    off = ~np.eye(n, dtype=bool)

    log_factor = np.empty_like(r)
    log_factor[off] = kernel.log_factor(r[off])
    log_factor[~off] = kernel.log_coefficient
    smooth = np.empty_like(r)
    smooth[off] = kernel.profile(r[off]) - log_factor[off] * np.log(r[off])
    smooth[~off] = kernel.remainder_at_zero

    if per_panel:
        intlog = _panel_log_integrals(mesh.nodes, mesh.nodes, mesh.tangents,
                                      w)
    else:
        intlog = _panel_means_pairs(mesh) * w[None, :]
    # self panel: integral of log|x_i - y| over the own panel, exactly
    np.fill_diagonal(intlog, w * (np.log(w / 2.0) - 1.0))
    entries = log_factor * intlog + smooth * w[None, :]
    ktil = entries / w[None, :]
    return 0.5 * (ktil + ktil.T)


def _upper_pairs(points: np.ndarray):
    """Index pairs i < j of the strict upper triangle and their distances."""
    iu, ju = np.triu_indices(len(points), 1)
    return iu, ju, np.linalg.norm(points[iu] - points[ju], axis=1)


def _symmetric(n: int, iu: np.ndarray, ju: np.ndarray, upper: np.ndarray,
               diagonal) -> np.ndarray:
    """n x n symmetric matrix from its strict upper triangle and diagonal."""
    out = np.empty((n, n))
    out[iu, ju] = upper
    out[ju, iu] = upper
    np.fill_diagonal(out, diagonal)
    return out


def smooth_curve_effective_kernel_pairs(mesh, kernel) -> np.ndarray:
    TWO_PI = 2.0 * np.pi
    n = mesh.n_nodes
    t = mesh.param_values
    speed = mesh.weights / (TWO_PI / n)
    iu, ju, r = _upper_pairs(mesh.nodes)
    log_factor, smooth = kernel.split(r)
    # the Kress weights integrate log_factor * log(4 sin^2((t-s)/2)) / 2;
    # the rest of log_factor * log(r) joins the smooth remainder
    half_sin = np.abs(np.sin((t[iu] - t[ju]) / 2.0))
    smooth = smooth + log_factor * np.log(r / (2.0 * half_sin))

    rw = _kress_weight_vector(n)
    upper = (0.5 * log_factor * rw[(iu - ju) % n]
             + (TWO_PI / n) * smooth) * (n / TWO_PI)
    diagonal = (0.5 * kernel.log_coefficient * rw[0]
                + (TWO_PI / n) * (kernel.remainder_at_zero
                                  + kernel.log_coefficient * np.log(speed))
                ) * (n / TWO_PI)
    return _symmetric(n, iu, ju, upper, diagonal)


def _panel_means_pairs(mesh) -> np.ndarray:
    """The mean of log|x_i - y| over panel j, all node/panel pairs: the
    antiderivative v log q - 2 v + 2 b atan(v / b), q = v^2 + b^2, at
    every node and chained panel end of ``_panel_ends``, differenced per
    panel, its -2 v term and each panel's own upper end closed per
    panel."""
    first, s, frame, origins, axes, closing = _panel_ends(mesh)
    delta, scale, shift = closing[:, first]
    dx = mesh.nodes[:, 0, None] - origins[None, :, 0]
    dy = mesh.nodes[:, 1, None] - origins[None, :, 1]
    along = dx * axes[:, 0] + dy * axes[:, 1]
    perp = np.abs(dy * axes[:, 0] - dx * axes[:, 1])
    perp[perp <= 1e-14] = 0.0
    v = s[None, :] - along[:, frame]
    b = perp[:, frame]
    log_q = np.log(np.maximum(v * v + b * b, np.finfo(float).tiny))
    vlog = v * log_q
    # the angle the end and its frame's origin subtend, v0 = -along
    angle = 2.0 * b * np.arctan2(b * s[None, :],
                                 b * b - along[:, frame] * v)
    lo, hi = first, first + 1
    return (((vlog[:, hi] - vlog[:, lo]) + (angle[:, hi] - angle[:, lo])
             + delta * log_q[:, hi]) * scale + shift)


def polygon_effective_kernel_pairs(mesh, kernel) -> np.ndarray:
    n = mesh.n_nodes
    w = mesh.weights
    iu, ju, r = _upper_pairs(mesh.nodes)
    upper_log, upper_smooth = kernel.split(r)
    log_factor = _symmetric(n, iu, ju, upper_log, kernel.log_coefficient)
    smooth = _symmetric(n, iu, ju, upper_smooth, kernel.remainder_at_zero)
    # the pair arrays are dead: free them before the panel integrals, whose
    # temporaries set the peak memory of the assembly
    del iu, ju, r, upper_log, upper_smooth

    means = _panel_means_pairs(mesh)
    out = smooth + log_factor * ((means + means.T) * 0.5)
    # self panel: integral of log|x_i - y| over the own panel, exactly
    intlog = w * (np.log(w / 2.0) - 1.0)
    np.fill_diagonal(out, (kernel.log_coefficient * intlog
                           + kernel.remainder_at_zero * w) / w)
    return out


def point_effective_kernel_pairs(points, kernel, cell_kind: str,
                                 cell_size) -> np.ndarray:
    """Pointwise kernel with the cell-averaged diagonal closure."""
    iu, ju, r = _upper_pairs(points)
    if kernel.log_coefficient != 0.0:
        diag = self_cell_coefficient(cell_kind, float(cell_size))
    else:
        diag = kernel.remainder_at_zero
    return _symmetric(len(points), iu, ju, kernel.profile(r), diag)


def _dist_norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)


def kress_weight_vector_table(n: int) -> np.ndarray:
    m = n // 2
    d = np.arange(n)
    ks = np.arange(1, m)
    series = np.empty(n)
    for i0 in range(0, n, 32):
        phases = np.outer(d[i0:i0 + 32], ks) % n
        series[i0:i0 + 32] = np.cos(2.0 * np.pi * phases / n) @ (1.0 / ks)
    nyquist = 1.0 - 2.0 * (d % 2)
    return -(2.0 * np.pi / m) * series - (np.pi / m ** 2) * nyquist


def _mirror_rows(m: np.ndarray) -> np.ndarray:
    for i in range(1, len(m)):
        m[i, :i] = m[:i, i]
    return m


def curve_kernel_pairs(mesh, kernel) -> np.ndarray:
    """The all-pairs oracle of a curve's effective-kernel matrix."""
    if mesh.kind == "smooth-closed":
        return smooth_curve_effective_kernel_pairs(mesh, kernel)
    return polygon_effective_kernel_pairs(mesh, kernel)


def assemble_mixed_pairs(supports, kernel) -> OperatorMatrix:
    supports = list(supports)
    if not supports:
        raise InvalidArgumentError("nothing to assemble")
    blocks_points = []
    blocks_weights = []
    blocks_vvals = []
    kernel_blocks = []

    meshes = [s for s, _ in supports if isinstance(s, SurfaceMesh)]
    for support, vfn in supports:
        if isinstance(support, SurfaceMesh):
            points, weights = support.nodes, support.weights
            kernel_blocks.append(curve_kernel_pairs(support, kernel))
        else:
            for mesh in meshes:
                d = _dist_norm(support.atoms, mesh.nodes).min()
                if d <= support.cell_size * np.sqrt(2.0):
                    raise InvalidArgumentError(
                        "measure atoms violate the one-cell-diagonal "
                        "separation from curve nodes")
            points, weights = support.atoms, support.masses
            shape = "square" if support.alpha_nominal == 2 else "segment"
            kernel_blocks.append(point_effective_kernel_pairs(
                points, kernel, shape, support.cell_size))
        blocks_points.append(points)
        blocks_weights.append(weights)
        blocks_vvals.append(vfn.values_on(support))

    sizes = [len(p) for p in blocks_points]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    ktil = np.empty((total, total))
    for i in range(len(blocks_points)):
        si = slice(offsets[i], offsets[i + 1])
        ktil[si, si] = kernel_blocks[i]
        for j in range(i + 1, len(blocks_points)):
            sj = slice(offsets[j], offsets[j + 1])
            r = _dist_norm(blocks_points[i], blocks_points[j])
            if np.any(r == 0.0):
                raise InvalidArgumentError(
                    "two supports share an atom: supports %d and %d"
                    % (i + 1, j + 1))
            cross = kernel.profile(r)
            ktil[si, sj] = cross
            ktil[sj, si] = cross.T
    v_all = np.concatenate(blocks_vvals)
    w_all = np.concatenate(blocks_weights)
    if np.any(v_all < 0.0):
        entries = _mirror_rows(_cholesky_fold(ktil, v_all, w_all))
    else:
        s = np.sqrt(np.abs(v_all) * w_all)
        ktil *= s[:, None]
        ktil *= s[None, :]
        entries = _mirror_rows(ktil)
    return OperatorMatrix(entries=entries)


def cholesky_fold_full(kernel_matrix: np.ndarray, v_vals: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
    low = np.linalg.cholesky(kernel_matrix)
    scaled = np.multiply((v_vals * weights)[:, None], low, out=kernel_matrix)
    return _mirror_rows(low.T @ scaled)


def _k0_log_series(x: np.ndarray) -> np.ndarray:
    """K_0 by the classical log series; accurate for x <= 2.2."""
    q = x * x / 4.0
    lg = -(np.log(x / 2.0) + EULER_GAMMA)

    term = np.ones_like(x)
    i0 = np.ones_like(x)
    s0 = np.zeros_like(x)
    hk = 0.0
    for k in range(1, 80):
        term = term * q / (k * k)
        hk += 1.0 / k
        i0 = i0 + term
        s0 = s0 + term * hk
        if np.all(term * (hk + 1.0) <= 1e-18 * i0):
            break
    return lg * i0 + s0


def k0_log_series_tested_per_step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I_0(x) and s_0(x) = sum_k h_k (x^2/4)^k / (k!)^2, h_k = 1 + ... + 1/k.

    The log series with its stop test run on every step: the reference
    ``bessel.k0_log_series`` must match bit for bit.
    """
    q = x * x / 4.0
    term = np.ones_like(x)
    i0 = np.ones_like(x)
    s0 = np.zeros_like(x)
    hk = 0.0
    for k in range(1, 80):
        term *= q
        term /= k * k
        hk += 1.0 / k
        i0 += term
        s0 += term * hk
        if np.all(term * (hk + 1.0) <= 1e-18 * i0):
            break
    return i0, s0


def _k_band_matvec(n: int, x: np.ndarray) -> np.ndarray:
    """Trapezoid on the cosh-integral representation; for the middle band."""
    t = np.arange(0.0, 7.6 + 0.18 / 2, 0.18)
    w = np.full_like(t, 0.18)
    w[0] = 0.18 / 2.0
    vals = np.exp(-x[..., None] * np.cosh(t)) * np.cosh(n * t)
    return vals @ w


def k_band_row_by_row(n: int, x: np.ndarray) -> np.ndarray:
    """The band trapezoid of K_n in ``bessel``'s order of operations.

    All 43 terms e^{-x cosh t} (times cosh(n t) for n > 0) times the weight,
    for every point at once, added row after row from the last node back
    to t = 0, in one pass with no chunks.  ``bessel_k`` matches it bit for
    bit for n = 0, 1.
    """
    t = np.arange(0.0, 7.6 + 0.18 / 2, 0.18)[:, None]
    w = np.full_like(t, 0.18)
    w[0] = 0.18 / 2.0
    # cosh of contiguous nodes: NumPy may round a strided cosh differently
    terms = np.exp(-np.asarray(x, dtype=float)[None, :] * np.cosh(t))
    if n:
        terms = terms * np.cosh(n * t)
    terms = (terms * w)[::-1]
    total = terms[0].copy()
    for row in terms[1:]:
        total = total + row
    return total


def _k_asym(n: int, x: np.ndarray) -> np.ndarray:
    mu = 4.0 * n * n
    total = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(1, 40):
        term = term * (mu - (2 * k - 1) ** 2) / (8.0 * x * k)
        total = total + term
        if np.all(np.abs(term) <= 1e-18 * np.abs(total)):
            break
    return np.sqrt(np.pi / (2.0 * x)) * np.exp(-x) * total


def bessel_k0_matvec(x) -> np.ndarray:
    """K_0 on the series (x < 2.2), band (x < 15) and asymptotic branches,
    the band trapezoid summed by a matrix-vector product."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    series, asym = x < 2.2, x >= 15.0
    band = ~series & ~asym
    out[series] = _k0_log_series(x[series])
    out[band] = _k_band_matvec(0, x[band])
    out[asym] = _k_asym(0, x[asym])
    return out


# fixed trapezoid in log-time for the subordination integral; the
# substituted integrand decays double-exponentially on the right and
# exponentially on the left, so this grid is accurate to ~4e-14 uniformly
_SUB_S = np.arange(-70.0, 6.0 + 0.075, 0.15)
_SUB_T = np.exp(_SUB_S)
_SUB_W = np.full_like(_SUB_S, 0.15)
_SUB_W[0] = _SUB_W[-1] = 0.075
_SUB_BASE = np.sqrt(_SUB_T) * np.exp(-_SUB_T) * _SUB_W


def lower_order_kernel_subordination(r) -> np.ndarray:
    """Kernel of (1 - Laplace)^{-3/2} in the plane by its subordination form,
    (4 pi Gamma(3/2))^{-1} * Integral_0^inf t^{-1/2} e^{-t - r^2/(4t)} dt,
    one row of grid exponentials per distance."""
    r = np.asarray(r, dtype=float).reshape(-1, 1)
    vals = (np.exp(-(r ** 2) / (4.0 * _SUB_T)) * _SUB_BASE).sum(axis=1)
    return vals / (4.0 * np.pi * math.gamma(1.5))


def log_energy_segment() -> float:
    """Double integral of -log|x - y| over the unit square [0,1]^2,
    reduced to one dimension with the hat weight of the difference."""
    val = 2 * mp.quad(lambda u: (1 - u) * (-mp.log(u)), [0, 1])
    return float(val)


def log_energy_square() -> float:
    """4-D integral of -log|x-y| over the unit-square pair, reduced to 2-D
    with hat weights and evaluated adaptively in polar coordinates."""
    def inner(phi_ang):
        c, s = mp.cos(phi_ang), mp.sin(phi_ang)
        rmax = min(1 / c if c > 0 else mp.inf, 1 / s if s > 0 else mp.inf)
        return mp.quad(
            lambda r: (1 - r * c) * (1 - r * s) * (-mp.log(r)) * r,
            [0, rmax])
    return float(4 * mp.quad(inner, [0, mp.pi / 4, mp.pi / 2]))


def unit_square_log_energy_dblquad() -> float:
    """-avg log distance between two uniform points of the unit square.

    The 4-D integral collapses to 2-D with hat weights over the coordinate
    differences, integrated by adaptive quadrature.
    """
    val, _ = dblquad(
        lambda v, u: (1.0 - u) * (1.0 - v) * (-0.5) * np.log(u * u + v * v),
        0.0, 1.0, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13,
    )
    return 4.0 * val


def r_symbol_quadrature_quad(ambient_dim: int, surface_dim: int) -> float:
    """(2 pi)^{-codim} integral over R^codim of (1 + |s|^2)^{-N/2}, reduced
    to one radial dimension."""
    codim = ambient_dim - surface_dim
    integrand = lambda r: r ** (codim - 1) * (1.0 + r * r) ** (-ambient_dim / 2.0)
    val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12)
    return (2.0 * math.pi) ** (-codim) * sphere_surface(codim - 1) * val


def cantor_ball_mass(mids, masses, center, radius) -> float:
    """Exact ball mass of an atomized measure by direct summation."""
    return float(sum(m for x, m in zip(mids, masses)
                     if abs(x - center) <= radius))


def regenerate_frozen_table(path: Path) -> None:
    lines = [
        '"""Frozen Bessel oracle values (generated by tests/oracles.py).',
        '',
        'Keys are (kind, order, argument); values are the oracle results',
        'rounded to the nearest double.  Regenerate with',
        '    python tests/oracles.py',
        '"""',
        "",
        "FROZEN_BESSEL = {",
    ]
    for n in BESSEL_ORDERS:
        for x in BESSEL_ARGS:
            defect = wronskian_defect(n, x)
            assert defect < 1e-25, (n, x, defect)
            iv = float(bessel_i_series(n, x))
            kv = float(bessel_k_quadrature(n, x))
            lines.append('    ("I", %d, %r): %r,' % (n, x, iv))
            lines.append('    ("K", %d, %r): %r,' % (n, x, kv))
    lines.append("}")
    lines.append("")
    path.write_text("\n".join(lines))


if __name__ == "__main__":
    out = Path(__file__).parent / "_frozen_bessel.py"
    regenerate_frozen_table(out)
    print("wrote %s" % out)
    print("t* = %r" % t_star())
    print("phi^{-1}(2) = %r" % phi_inverse(2.0))
    print("segment log energy = %r" % log_energy_segment())
    print("square log energy = %r" % log_energy_square())


def upper_invariants_rows(m: np.ndarray) -> tuple[float, float]:
    """Trace and squared Frobenius norm of the symmetric matrix whose upper
    triangle, diagonal included, is that of ``m``, one row at a time and
    unscaled: the invariant sums ``spectra`` took before its row blocks."""
    diagonal = np.diagonal(m)
    off = 0.0
    for i in range(len(m) - 1):
        row = m[i, i + 1:]
        off += float(row @ row)
    return float(np.sum(diagonal)), float(diagonal @ diagonal) + 2.0 * off


# byte size of the row blocks ``upper_invariants`` sums over
_SUM_BLOCK_BYTES = 1 << 20


def upper_invariants(m: np.ndarray) -> tuple[float, float, int]:
    """Trace and squared Frobenius norm of the symmetric matrix whose upper
    triangle, diagonal included, is that of ``m``, in units of 2^e and
    2^2e, and e, the binary exponent of the largest |entry| (0 for a zero
    or non-finite one): the invariants of a finished matrix, as
    ``spectra`` took them from a dense operator before the solve.

    The strict upper triangle is taken over row blocks of about
    ``_SUM_BLOCK_BYTES``, each as its square's strict upper corner
    and the strip right of it.  One pass over them finds the largest
    |entry|; a second scales each into one block-sized buffer and sums its
    squares.
    """
    n = len(m)
    rows = max(1, min(n, _SUM_BLOCK_BYTES // (8 * max(1, n))))
    pieces = [x for i0 in range(0, n, rows)
              for x in (np.triu(m[i0:i0 + rows, i0:i0 + rows], 1),
                        m[i0:i0 + rows, i0 + rows:])]
    diagonal = np.diagonal(m)
    largest = max(max(x.max(initial=0.0), -x.min(initial=0.0))
                  for x in [diagonal, *pieces])
    exponent = int(np.frexp(largest)[1])
    buffer = np.empty(rows * n)
    off = 0.0
    for x in pieces:
        scaled = np.ldexp(x, -exponent,
                          out=buffer[:x.size].reshape(x.shape)).ravel()
        off += scaled @ scaled
    diagonal = np.ldexp(diagonal, -exponent)
    return (float(np.sum(diagonal)), float(diagonal @ diagonal + 2.0 * off),
            exponent)


def one_block(m: np.ndarray, signed: bool = False) -> BlockOperator:
    """A hand-made symmetric matrix, given by its upper triangle, as the one
    block of a ``BlockOperator`` that ``spectra.eigensolve`` takes, with the
    invariants of ``upper_invariants`` taken before the solve overwrites
    it."""
    block = OperatorMatrix(entries=m)
    return BlockOperator(blocks=(block,), singles=np.empty(0),
                         invariants=upper_invariants(block.entries),
                         n=block.n, signed_flag=signed)


def real_fourier(x: np.ndarray, axis: int) -> np.ndarray:
    """C x along ``axis``, C the orthonormal real Fourier basis of
    ``assemble._real_entries`` over n = x.shape[axis] points, (1, cos t,
    sin t, ..., cos (n/2) t) at t_a = 2 pi a / n, from one real FFT:
    position 2m - 1 holds sqrt(2/n) Re x^_m, position 2m sqrt(2/n) (-Im
    x^_m), and the constant and the Nyquist cosine sqrt(1/n) times theirs."""
    n = x.shape[axis]
    spectrum = np.moveaxis(np.fft.rfft(x, axis=axis), axis, 0)
    out = np.empty((n,) + spectrum.shape[1:])
    out[0] = spectrum[0].real
    out[1::2] = spectrum[1:n // 2 + 1].real
    out[2::2] = -spectrum[1:(n + 1) // 2].imag
    out *= np.sqrt(2.0 / n)
    out[0] *= np.sqrt(0.5)
    if n % 2 == 0:
        out[-1] *= np.sqrt(0.5)
    return np.moveaxis(out, 0, axis)
