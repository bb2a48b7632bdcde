"""Radial kernels for the order -2 reference operator in the plane.

The reference smoothing operator is the inverse square root of (1 - Laplace),
so its two-sided square has the closed-form kernel (2*pi)^{-1} K_0(|X-Y|)
with a logarithmic singularity at coincident points.  A lower-order companion
kernel (order -3, i.e. one order smoother) is provided for decay experiments;
it is the Bessel potential of order 3, e^{-r} / (2*pi), in closed form, not
by quadrature.

Every kernel offers two evaluations: ``profile(r)``, the plain value, and
``split(r)``, the pair (log factor, smooth remainder) that the curve
quadratures integrate separately.  For the reference kernel the split comes
from one pass of the K_0 log series (DLMF 10.31.2):
K_0(r) + I_0(r) log r = (log 2 - gamma) I_0(r) + s_0(r), with no cancelling
subtraction.  A C-infinity cutoff, 1 up to r = 5 and 0 from r = 10 on,
windows the log factor, so the e^r-sized halves of a large curve's split do
not cancel; past the window the split is (0, profile(r)).

``self_cell_coefficient`` closes the diagonal of atomized measures with the
exact cell average of the log singularity: 3/2 on a segment, and on a
square Maxwell's closed form 25/12 - (pi + log 2)/3 for minus the log of its
geometric mean distance.  No quadrature runs at import or at call time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# bessel_i is unused here: the benchmark tracer (perfbench/tracer.py) wraps it
from .bessel import EULER_GAMMA, bessel_i, bessel_k, k0_log_series
from .errors import InvalidArgumentError

TWO_PI = 2.0 * np.pi

# smooth-remainder value of the reference kernel at r = 0:
# (2*pi)^{-1} K_0(r) + (2*pi)^{-1} log(r) -> (2*pi)^{-1} (log 2 - gamma)
REFERENCE_DIAGONAL_LIMIT = (np.log(2.0) - EULER_GAMMA) / TWO_PI


# window of the reference log factor: a later end leaves more e^r
# cancellation, so coarser meshes lose positive definiteness; an earlier one
# steepens the cutoff and slows the convergence of the curve quadrature
_WINDOW_START = 5.0
_WINDOW_END = 10.0


@dataclass(frozen=True)
class KernelModel:
    """A radial kernel with an explicit logarithmic split.

    ``profile(r)`` is the kernel value at distance r > 0.  ``split(r)``
    returns (log_factor, smooth) at r >= 0 with
    profile(r) = log_factor * log(r) + smooth, where smooth extends
    continuously to r = 0 with value ``remainder_at_zero``.
    ``log_coefficient`` is log_factor(0), the leading log amplitude, and
    ``log_factor(r)`` is the first half of ``split(r)``.
    """

    ambient_dim: int
    log_coefficient: float
    remainder_at_zero: float
    description: str

    def profile(self, r):
        raise NotImplementedError

    def split(self, r):
        raise NotImplementedError


def _distances(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise InvalidArgumentError("distances must be nonnegative")
    return r


class _ReferenceKernel(KernelModel):
    """(2*pi)^{-1} K_0(r): the kernel of (1 - Laplace)^{-1} in the plane."""

    def profile(self, r):
        return bessel_k(0, np.asarray(r, dtype=float)) / TWO_PI

    def split(self, r):
        # K_0(r) = -I_0(r) log(r) + (log 2 - gamma) I_0(r) + s_0(r): the
        # full log amplitude carries the I_0 factor, as a spectrally
        # accurate split needs; both halves come from one series pass.  In
        # the window, chi * (series split) + (1 - chi) * (0, profile)
        r = _distances(r)
        log_factor = np.empty_like(r)
        smooth = np.empty_like(r)
        near = r < _WINDOW_END
        i0, s0 = k0_log_series(r[near])
        log_factor[near] = -i0 / TWO_PI
        smooth[near] = REFERENCE_DIAGONAL_LIMIT * i0 + s0 / TWO_PI
        blend = r > _WINDOW_START
        if blend.any():
            rb = r[blend]
            chi = _log_window(rb)
            # no series past the window, where chi = 0
            lf, sm = log_factor[blend], smooth[blend]
            past = rb >= _WINDOW_END
            lf[past] = sm[past] = 0.0
            log_factor[blend] = chi * lf
            smooth[blend] = chi * sm + (1.0 - chi) * self.profile(rb)
        return log_factor, smooth

    # kept as a view: the benchmark tracer wraps it by name
    def log_factor(self, r):
        return self.split(r)[0]


def _log_window(r: np.ndarray) -> np.ndarray:
    """f(1 - u) / (f(1 - u) + f(u)), f(x) = exp(-1/x), u in [0, 1] the
    position of r in the window: 1 before it, 0 after it, C-infinity."""
    u = np.clip((r - _WINDOW_START) / (_WINDOW_END - _WINDOW_START), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        rise, fall = np.exp(-1.0 / u), np.exp(-1.0 / (1.0 - u))
    return fall / (fall + rise)


class _LowerOrderKernel(KernelModel):
    """Kernel of (1 - Laplace)^{-3/2} in the plane, one order below critical.

    The Bessel potential of order 3: e^{-r} / (2 pi).  Its subordination
    form (4 pi Gamma(3/2))^{-1} * Integral_0^inf t^{-1/2} e^{-t - r^2/(4t)} dt
    reduces to it by DLMF 10.32.10 and 10.39.2; the test suite keeps that
    integral as the oracle.  The kernel is bounded: no log split.
    """

    def profile(self, r):
        return np.exp(-np.asarray(r, dtype=float)) / TWO_PI

    def split(self, r):
        r = _distances(r)
        return np.zeros_like(r), self.profile(r)

    # kept as a view: the benchmark tracer wraps it by name
    def log_factor(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))


def reference_kernel() -> KernelModel:
    """The critical-order kernel (2*pi)^{-1} K_0(|X-Y|) in the plane."""
    return _ReferenceKernel(
        ambient_dim=2,
        log_coefficient=-1.0 / TWO_PI,
        remainder_at_zero=REFERENCE_DIAGONAL_LIMIT,
        description="inverse (1 - Laplace), plane",
    )


def lower_order_kernel() -> KernelModel:
    """Order -3 companion kernel used by the decay-order experiment."""
    return _LowerOrderKernel(
        ambient_dim=2,
        log_coefficient=0.0,
        remainder_at_zero=1.0 / TWO_PI,
        description="inverse (1 - Laplace)^{3/2}, plane",
    )


# -avg log distance between two uniform points of the unit square, in closed
# form: minus the log of the square's geometric mean distance (Maxwell,
# Treatise on Electricity and Magnetism, vol. 2, sec. 692).  In this order
# of operations it rounds to 0x1.9c3453aa705e6p-1, one ulp above the
# correctly rounded value; the report hashes of square-cell runs rest on
# this double
_UNIT_SQUARE_LOG_ENERGY = 25.0 / 12.0 - (np.pi + np.log(2.0)) / 3.0


def self_cell_coefficient(kind: str, h: float) -> float:
    """Cell-averaged reference-kernel value of a cell against itself.

    ``kind`` is "segment" (1-D cell of length h) or "square" (side h).  This
    closes the log singularity on the diagonal of atomized-measure operators:
    the exact cell average of -log|x-y| is  -log h + 3/2  on a segment and
    -log h + c_sq  on a square, with c_sq = 25/12 - (pi + log 2)/3 in
    closed form.
    """
    if h <= 0.0:
        raise InvalidArgumentError("cell scale h must be positive")
    if kind == "segment":
        c = 1.5
    elif kind == "square":
        c = _UNIT_SQUARE_LOG_ENERGY
    else:
        raise InvalidArgumentError("kind must be 'segment' or 'square'")
    return (-np.log(h) + c + np.log(2.0) - EULER_GAMMA) / TWO_PI
