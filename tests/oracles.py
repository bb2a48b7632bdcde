"""Independent high-precision oracles for frozen expected values.

The Bessel oracle is built from scratch in arbitrary precision: the
ascending series for I_n and adaptive (tanh-sinh) quadrature of the
cosh-integral representation for K_n, cross-verified against each other
through the Wronskian identity.  Running this file as a script regenerates
tests/_frozen_bessel.py with correctly rounded double values on the grid
used by the acceptance suite.

The averaged-norm oracle is the plain 80-step bisection in log tau that the
package's Newton solve replaced, evaluating the constraint through phi; the
family-coloring oracle tests every cube pair in a Python loop.

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
threaded pass: every diagonal kernel block built on its own and copied into
a second matrix, each cross block one ``profile`` call on all its pairs,
and the scaling of all n^2 entries followed by a row-by-row mirror (the
package's fold, which returns an upper triangle, is mirrored the same
way).  Its diagonal blocks come from the ``*_pairs`` oracles above.

``cholesky_fold_full`` is the sign fold as it was before its column-blocked
upper-triangle product: the full product L^T (diag(V w) L), then a
row-by-row mirror.

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

from critspec.assemble import (OperatorMatrix, _cholesky_fold,
                               _kress_weight_vector, _pairwise_dist,
                               _panel_log_integrals)
from critspec.asymptotics import sphere_surface
from critspec.bessel import EULER_GAMMA
from critspec.kernels import self_cell_coefficient
from critspec.errors import InvalidArgumentError, OutOfRangeError
from critspec.geometry import support_atoms
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


def polygon_effective_kernel_two_calls(mesh, kernel) -> np.ndarray:
    """Panel collocation on a polygon, the kernel split by
    ``profile - log_factor * log r`` on every off-diagonal pair."""
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

    intlog = _panel_log_integrals(mesh.nodes, mesh.nodes, mesh.tangents, w)
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


def _panel_log_integrals_pairs(targets: np.ndarray, centers: np.ndarray,
                               tangents: np.ndarray,
                               lengths: np.ndarray) -> np.ndarray:
    """Exact integral of log|x - y| over flat panels, all target/panel pairs."""
    p = targets[:, None, :] - centers[None, :, :]
    along = np.einsum("ijk,jk->ij", p, tangents)
    perp = np.linalg.norm(p - along[:, :, None] * tangents[None, :, :], axis=2)
    v1 = -lengths[None, :] / 2.0 - along
    v2 = lengths[None, :] / 2.0 - along

    def antiderivative(v, b):
        flat = b <= 1e-14
        safe_b = np.where(flat, 1.0, b)
        general = (v * np.log(v * v + b * b) - 2.0 * v
                   + 2.0 * b * np.arctan(v / safe_b))
        vabs = np.maximum(np.abs(v), 1e-300)
        online = 2.0 * (v * np.log(vabs) - v)
        return np.where(flat, online, general)

    return 0.5 * (antiderivative(v2, perp) - antiderivative(v1, perp))


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

    intlog = _panel_log_integrals_pairs(mesh.nodes, mesh.nodes,
                                        mesh.tangents, w)
    # self panel: integral of log|x_i - y| over the own panel, exactly
    np.fill_diagonal(intlog, w * (np.log(w / 2.0) - 1.0))
    entries = log_factor * intlog + smooth * w[None, :]
    ktil = entries / w[None, :]
    return 0.5 * (ktil + ktil.T)


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


def _mirror_rows(m: np.ndarray) -> np.ndarray:
    for i in range(1, len(m)):
        m[i, :i] = m[:i, i]
    return m


def _curve_effective_kernel_pairs(mesh, kernel) -> np.ndarray:
    if mesh.n_nodes < 8:
        return point_effective_kernel_pairs(mesh.nodes, kernel, "segment",
                                            float(mesh.weights.max()))
    if mesh.kind == "smooth-closed":
        return smooth_curve_effective_kernel_pairs(mesh, kernel)
    return polygon_effective_kernel_pairs(mesh, kernel)


def assemble_mixed_pairs(grid, curves, kernel) -> OperatorMatrix:
    curves = list(curves)
    if grid is None and not curves:
        raise InvalidArgumentError("nothing to assemble")
    blocks_points = []
    blocks_weights = []
    blocks_vvals = []
    kernel_blocks = []

    if grid is not None and grid.n_cells:
        for mesh, _ in curves:
            d = _dist_norm(grid.centers, mesh.nodes).min()
            if d <= grid.delta * np.sqrt(2.0):
                raise InvalidArgumentError(
                    "grid cells violate the one-cell-diagonal separation "
                    "from curve nodes")
        blocks_points.append(grid.centers)
        blocks_weights.append(np.full(grid.n_cells, grid.delta ** 2))
        blocks_vvals.append(grid.v0)
        kernel_blocks.append(point_effective_kernel_pairs(
            grid.centers, kernel, "square", grid.delta))

    for mesh, vfn in curves:
        blocks_points.append(mesh.nodes)
        blocks_weights.append(mesh.weights)
        blocks_vvals.append(vfn.values_on(mesh))
        kernel_blocks.append(_curve_effective_kernel_pairs(mesh, kernel))

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
            cross = kernel.profile(r)
            ktil[si, sj] = cross
            ktil[sj, si] = cross.T
    v_all = np.concatenate(blocks_vvals)
    w_all = np.concatenate(blocks_weights)
    meta = {"source": "mixed", "blocks": sizes, "kernel": kernel.description}
    signed = bool(np.any(v_all < 0.0))
    meta["signed"] = signed
    if signed:
        entries = _mirror_rows(_cholesky_fold(ktil, v_all, w_all))
        meta["fold"] = "cholesky"
    else:
        s = np.sqrt(np.abs(v_all) * w_all)
        ktil *= s[:, None]
        ktil *= s[None, :]
        entries = _mirror_rows(ktil)
    return OperatorMatrix(entries=entries, node_meta=meta, signed_flag=signed)


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


def _k_band_matvec(n: int, x: np.ndarray) -> np.ndarray:
    """Trapezoid on the cosh-integral representation; for the middle band."""
    t = np.arange(0.0, 7.6 + 0.18 / 2, 0.18)
    w = np.full_like(t, 0.18)
    w[0] = 0.18 / 2.0
    vals = np.exp(-x[..., None] * np.cosh(t)) * np.cosh(n * t)
    return vals @ w


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
