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
"""

from __future__ import annotations

import math
from pathlib import Path

import mpmath as mp
import numpy as np

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
