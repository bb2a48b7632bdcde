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
"""

from __future__ import annotations

import math
from pathlib import Path

import mpmath as mp
import numpy as np

from critspec.assemble import (_kress_weight_vector, _pairwise_dist,
                               _panel_log_integrals)
from critspec.bessel import EULER_GAMMA
from critspec.errors import InvalidArgumentError, OutOfRangeError
from critspec.orlicz import OrliczNormResult, phi

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
