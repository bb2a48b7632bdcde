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

Between two separated circles the reference kernel also offers its
double Fourier series, ``separated_circles``: Graf's addition theorem for
K_0 (DLMF 10.44.ii) at both centers gives the coefficients (-1)^q
K_|p+q|(D) I_|p|(r1) I_|q|(r2) / (2 pi), truncated at the least order whose
bound on the modes left out is within the caller's tail.  K_m(D) comes from
the upward recurrence on bessel_k(0|1, D), and I_m(r) from Miller's
backward recurrence normalised by bessel_i(0, r), each as mantissas and
powers of two, since K_m overflows and I_m underflows at orders where
their product does not.  The lower-order kernel offers no table.

``self_cell_coefficient`` closes the diagonal of atomized measures with the
exact cell average of the log singularity: 3/2 on a segment, and on a
square Maxwell's closed form 25/12 - (pi + log 2)/3 for minus the log of its
geometric mean distance.  No quadrature runs at import or at call time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# the largest order M of the table of two separated circles, whose
# (2M + 1)^2 doubles then stay within 2.1 MB: circles whose tail bound needs
# more nearly touch (a gap of 0.1 between radii 1 and 2 does)
_TABLE_ORDERS = 256
# orders past the table's top at which Miller's recurrence for I_m starts,
# besides one per unit of the argument
_MILLER_ORDERS = 16
# the smallest normal double: K_0(D) below it has lost digits
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class KernelModel:
    """A radial kernel on the plane with an explicit logarithmic split.

    ``profile(r)`` is the kernel value at distance r > 0.  ``split(r)``
    returns (log_factor, smooth) at r >= 0 with
    profile(r) = log_factor * log(r) + smooth, where smooth extends
    continuously to r = 0 with value ``remainder_at_zero``.
    ``log_coefficient`` is log_factor(0), the leading log amplitude, and
    ``log_factor(r)`` is the first half of ``split(r)``.
    """

    log_coefficient: float
    remainder_at_zero: float

    def profile(self, r):
        raise NotImplementedError

    def split(self, r):
        raise NotImplementedError

    def separated_circles(self, r1: float, r2: float, distance: float,
                          tail: float):
        """The kernel between two separated circles as a double Fourier
        series: kernel(|x - y|) = sum_pq c_pq e^(i p theta) e^(i q phi) for
        x = c_1 + r1 e^(i theta) and y = c_2 + r2 e^(i phi), both angles
        measured from the direction of c_2 - c_1, |c_2 - c_1| =
        ``distance``.  Returns (table, error): table[p + M, q + M] = c_pq
        for |p|, |q| <= M, a real (2M + 1, 2M + 1) array, and a bound on
        |kernel - the table's sum| at every pair of points, for the least M
        whose bound is within ``tail``.  None where no M up to
        ``_TABLE_ORDERS`` gives one, and where the kernel has no addition
        theorem, as here."""
        return None


def _distances(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    # a NaN fails every branch's mask, so it is refused with the negatives
    if not np.all(r >= 0.0):
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
        if not np.any(r > _WINDOW_START):
            # every distance before the window: no gather and no scatter
            i0, s0 = k0_log_series(r)
            return -i0 / TWO_PI, REFERENCE_DIAGONAL_LIMIT * i0 + s0 / TWO_PI
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

    def separated_circles(self, r1, r2, distance, tail):
        # Graf's addition theorem for K_0 at both centers:
        # c_pq = (-1)^q K_|p+q|(D) I_|p|(r1) I_|q|(r2) / (2 pi)
        gap = distance - r1 - r2
        if not gap > 0.0:
            return None
        k0, k1 = bessel_k(0, distance), bessel_k(1, distance)
        if k0 < _TINY:
            # no digits left to expand: the table is zero where the
            # kernel at the closest approach is within the tail
            nearest = bessel_k(0, gap) / TWO_PI
            return (np.zeros((1, 1)), nearest) if nearest <= tail else None
        i0 = bessel_i(0, np.array([r1, r2]))
        # |c_pq| <= I_0(r1) I_0(r2) binom(a + b, a) (r1/D)^a (r2/D)^b / (2N)
        # with a = |p|, b = |q|, N = a + b, from K_N(D) <= 2^(N-1) (N-1)! D^-N
        # and I_a(r) <= I_0(r) (r/2)^a / a!; summed over a > M and over
        # b > M, with N >= M + 1, the modes outside the table add up to
        # I_0(r1) I_0(r2) D (t1^(M+1) + t2^(M+1)) / (pi (M + 1) gap),
        # t1 = r1 / (D - r2) and t2 = r2 / (D - r1), both < 1
        orders = np.arange(1, _TABLE_ORDERS + 2)
        with np.errstate(over="ignore"):
            bound = i0[0] * i0[1] * distance / (np.pi * gap * orders) * (
                (r1 / (distance - r2)) ** orders
                + (r2 / (distance - r1)) ** orders)
        fits = np.flatnonzero(bound <= tail)
        if not fits.size:
            return None
        m = int(fits[0])
        # every factor as a mantissa and a power of two: K_m(D) overflows
        # and I_m(r) underflows at orders where their product does not
        k_mantissa, k_exponent = _k_orders(distance, 2 * m, k0, k1)
        i1_mantissa, i1_exponent = _i_orders(r1, m, i0[0])
        i2_mantissa, i2_exponent = _i_orders(r2, m, i0[1])
        p = np.arange(-m, m + 1)
        a = np.abs(p)
        s = np.abs(p[:, None] + p[None, :])
        mantissa = k_mantissa[s] * np.outer(
            i1_mantissa[a], np.where(p % 2, -1.0, 1.0) * i2_mantissa[a])
        exponent = (k_exponent[s] + i1_exponent[a][:, None]
                    + i2_exponent[a][None, :])
        return np.ldexp(mantissa, exponent) / TWO_PI, float(bound[m])


def _k_orders(x: float, top: int, k0: float, k1: float):
    """K_m(x), m = 0..top, from k0 = K_0(x) and k1 = K_1(x) by the upward
    recurrence K_(m+1) = K_(m-1) + (2m / x) K_m, stable since K_m grows
    with m, as ``np.frexp``'s (mantissa, exponent).  The running pair is
    carried in units of a power of two, renormalised at every step, so that
    no order overflows."""
    values, shifts = np.empty(top + 1), np.zeros(top + 1, dtype=int)
    low, high, shift = k0, k1, 0
    for m in range(top + 1):
        values[m], shifts[m] = low, shift
        low, high = high, low + 2.0 * (m + 1) / x * high
        step = math.frexp(high)[1]
        low, high, shift = (math.ldexp(low, -step), math.ldexp(high, -step),
                            shift + step)
    mantissa, exponent = np.frexp(values)
    return mantissa, exponent + shifts


def _i_orders(x: float, top: int, i0: float):
    """I_m(x), m = 0..top, from i0 = I_0(x) by Miller's backward
    recurrence, as ``np.frexp``'s (mantissa, exponent): the ratios rho_m =
    I_m / I_(m-1) = 1 / (2m / x + rho_(m+1)), started at rho = 0 from the
    order top + ``_MILLER_ORDERS`` + x down, where the start is forgotten
    to the last bit, then I_m = I_0 rho_1 ... rho_m in units of a power of
    two, renormalised at every step, so that no order underflows."""
    ratios = np.empty(top + 1)
    rho = 0.0
    for m in range(top + _MILLER_ORDERS + int(x), 0, -1):
        rho = 1.0 / (2.0 * m / x + rho)
        if m <= top:
            ratios[m] = rho
    values, shifts = np.empty(top + 1), np.zeros(top + 1, dtype=int)
    value, shift = i0, 0
    for m in range(top + 1):
        values[m], shifts[m] = value, shift
        if m < top:
            value *= ratios[m + 1]
            step = math.frexp(value)[1]
            value, shift = math.ldexp(value, -step), shift + step
    mantissa, exponent = np.frexp(values)
    return mantissa, exponent + shifts


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
    return _ReferenceKernel(log_coefficient=-1.0 / TWO_PI,
                            remainder_at_zero=REFERENCE_DIAGONAL_LIMIT)


def lower_order_kernel() -> KernelModel:
    """Order -3 companion kernel used by the decay-order experiment."""
    return _LowerOrderKernel(log_coefficient=0.0,
                             remainder_at_zero=1.0 / TWO_PI)


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
