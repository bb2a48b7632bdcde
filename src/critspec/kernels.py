"""Radial kernels for the order -2 reference operator in the plane.

The reference smoothing operator is the inverse square root of (1 - Laplace),
so its two-sided square has the closed-form kernel (2*pi)^{-1} K_0(|X-Y|)
with a logarithmic singularity at coincident points.  A lower-order companion
kernel (order -3, i.e. one order smoother) is provided for decay experiments;
it is evaluated by numerical quadrature of its radial Fourier integral rather
than from a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gamma as _gamma

import numpy as np
from scipy.integrate import dblquad

from .bessel import EULER_GAMMA, bessel_i, bessel_k
from .errors import InvalidArgumentError

TWO_PI = 2.0 * np.pi

# smooth-remainder value of the reference kernel at r = 0:
# (2*pi)^{-1} K_0(r) + (2*pi)^{-1} log(r) -> (2*pi)^{-1} (log 2 - gamma)
REFERENCE_DIAGONAL_LIMIT = (np.log(2.0) - EULER_GAMMA) / TWO_PI


@dataclass(frozen=True)
class KernelModel:
    """A radial kernel with an explicit logarithmic split.

    ``profile(r)`` is the kernel value at distance r > 0.  The split writes
    profile(r) = log_factor(r) * log(r) + smooth remainder, where the
    remainder extends continuously to r = 0 with value ``remainder_at_zero``.
    ``log_coefficient`` is log_factor(0), the leading log amplitude.
    """

    ambient_dim: int
    order: int
    log_coefficient: float
    remainder_at_zero: float
    description: str

    def profile(self, r):
        raise NotImplementedError

    def log_factor(self, r):
        raise NotImplementedError


class _ReferenceKernel(KernelModel):
    """(2*pi)^{-1} K_0(r): the kernel of (1 - Laplace)^{-1} in the plane."""

    def profile(self, r):
        return bessel_k(0, np.asarray(r, dtype=float)) / TWO_PI

    def log_factor(self, r):
        # K_0(r) = -I_0(r) log(r) + analytic, so the full log amplitude
        # carries the I_0 factor; needed for spectrally accurate splits.
        return -bessel_i(0, np.asarray(r, dtype=float)) / TWO_PI


# fixed trapezoid in log-time for the subordination integral; the
# substituted integrand decays double-exponentially on the right and
# exponentially on the left, so this grid is accurate to ~4e-14 uniformly
_SUB_S = np.arange(-70.0, 6.0 + 0.075, 0.15)
_SUB_T = np.exp(_SUB_S)
_SUB_W = np.full_like(_SUB_S, 0.15)
_SUB_W[0] = _SUB_W[-1] = 0.075
_SUB_BASE = np.sqrt(_SUB_T) * np.exp(-_SUB_T) * _SUB_W


class _LowerOrderKernel(KernelModel):
    """Kernel of (1 - Laplace)^{-3/2} in the plane, one order below critical.

    Evaluated through the subordination form of its radial Fourier integral,
    (4 pi Gamma(3/2))^{-1} * Integral_0^inf t^{-1/2} e^{-t - r^2/(4t)} dt,
    on a fixed log-time trapezoid grid; accuracy ~4e-14, far beyond what the
    decay-order experiments need.  The kernel is bounded: no log split.
    """

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        vals = np.exp(-(r[..., None] ** 2) / (4.0 * _SUB_T)) @ _SUB_BASE
        return vals / (4.0 * np.pi * _gamma(1.5))

    def log_factor(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))


def reference_kernel() -> KernelModel:
    """The critical-order kernel (2*pi)^{-1} K_0(|X-Y|) in the plane."""
    return _ReferenceKernel(
        ambient_dim=2,
        order=-2,
        log_coefficient=-1.0 / TWO_PI,
        remainder_at_zero=REFERENCE_DIAGONAL_LIMIT,
        description="inverse (1 - Laplace), plane",
    )


def lower_order_kernel() -> KernelModel:
    """Order -3 companion kernel used by the decay-order experiment."""
    return _LowerOrderKernel(
        ambient_dim=2,
        order=-3,
        log_coefficient=0.0,
        remainder_at_zero=1.0 / TWO_PI,
        description="inverse (1 - Laplace)^{3/2}, plane",
    )


@lru_cache(maxsize=1)
def _unit_square_log_energy() -> float:
    """-avg log distance between two uniform points of the unit square.

    The 4-D integral collapses to 2-D with hat weights over the coordinate
    differences; adaptive quadrature once, then cached.
    """
    val, _ = dblquad(
        lambda v, u: (1.0 - u) * (1.0 - v) * (-0.5) * np.log(u * u + v * v),
        0.0, 1.0, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13,
    )
    return 4.0 * val


def self_cell_coefficient(kind: str, h: float) -> float:
    """Cell-averaged reference-kernel value of a cell against itself.

    ``kind`` is "segment" (1-D cell of length h) or "square" (side h).  This
    closes the log singularity on the diagonal of atomized-measure operators:
    the exact cell average of -log|x-y| is  -log h + 3/2  on a segment and
    -log h + c_sq  on a square, with c_sq computed once by quadrature.
    """
    if h <= 0.0:
        raise InvalidArgumentError("cell scale h must be positive")
    if kind == "segment":
        c = 1.5
    elif kind == "square":
        c = _unit_square_log_energy()
    else:
        raise InvalidArgumentError("kind must be 'segment' or 'square'")
    return (-np.log(h) + c + np.log(2.0) - EULER_GAMMA) / TWO_PI
