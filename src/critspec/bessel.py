"""Modified Bessel functions of integer order in double precision.

Everything is computed in-repo: ascending power series for :math:`I_n` and for
small-argument :math:`K_0, K_1`, a trapezoidal evaluation of the integral
representation

.. math::
    K_n(x) = \\int_0^\\infty e^{-x\\cosh t}\\cosh(nt)\\,dt

on a fixed grid for moderate arguments, large-argument asymptotic expansions,
and the (stable, upward) three-term recurrence in the order for
:math:`K_n, n\\ge 2`.  Order 0 never evaluates :math:`K_1`.  The test suite
validates every branch against an independent high-precision oracle
(arbitrary-precision series plus adaptive quadrature); the target is relative
error below 1e-12 for orders up to 10 on x in [1e-6, 30].

``k0_log_series`` exposes the two halves of the small-argument series,
:math:`K_0(x) = -(\\log(x/2) + \\gamma) I_0(x) + s_0(x)` (DLMF 10.31.2), so
that the critical-order kernel can be split into its log factor and smooth
remainder in one pass.  The fixed-grid quadrature of the cosh-integral band
goes through ``grid_sum``, which bounds its temporaries.

All functions accept scalars or numpy arrays in ``x`` and broadcast.
"""

from __future__ import annotations

import warnings
from functools import partial

import numpy as np

from .errors import InvalidArgumentError

EULER_GAMMA = 0.5772156649015329

# switch points between the series / integral / asymptotic branches of K_n
_K_SERIES_MAX = 2.2
_K_ASYM_MIN = 15.0
# trapezoid grid for the cosh-integral band; validated to < 1e-13 relative
_BAND_STEP = 0.18
_BAND_TMAX = 7.6
_BAND_T = np.arange(0.0, _BAND_TMAX + _BAND_STEP / 2, _BAND_STEP)
_BAND_COSH_T = np.cosh(_BAND_T)
_BAND_W = np.full_like(_BAND_T, _BAND_STEP)
_BAND_W[0] = _BAND_STEP / 2.0
# byte size of the (points, grid nodes) temporary of one grid_sum chunk
_GRID_CHUNK_BYTES = 1 << 22
# I_n switches to the asymptotic expansion late; the series is stable
# (all terms positive) but slow for very large arguments
_I_SERIES_MAX = 30.0
# e^{-x} underflows near 745; K_n silently underflows to zero there
_K_UNDERFLOW_X = 700.0


def _i_series(n: int, x: np.ndarray) -> np.ndarray:
    """Ascending series for I_n; no cancellation, valid for all x >= 0."""
    q = x * x / 4.0
    term = np.ones_like(x)
    for m in range(1, n + 1):
        term = term * (x / 2.0) / m
    total = term.copy()
    for k in range(1, 400):
        term = term * q / (k * (k + n))
        total = total + term
        if np.all(term <= 1e-18 * total):
            break
    return total


def _i_asym(n: int, x: np.ndarray) -> np.ndarray:
    mu = 4.0 * n * n
    total = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(1, 40):
        term = term * -(mu - (2 * k - 1) ** 2) / (8.0 * x * k)
        total = total + term
        if np.all(np.abs(term) <= 1e-18 * np.abs(total)):
            break
    return np.exp(x) / np.sqrt(2.0 * np.pi * x) * total


def k0_log_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I_0(x) and s_0(x) = sum_k h_k (x^2/4)^k / (k!)^2, h_k = 1 + ... + 1/k.

    K_0(x) = -(log(x/2) + gamma) I_0(x) + s_0(x).  Every term is positive,
    so both sums are accurate for 0 <= x <= 30; only the log form of K_0
    cancels, and ``bessel_k`` uses it for x < 2.2 alone.
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


def _k0_series(x: np.ndarray) -> np.ndarray:
    """K_0 by the classical log series; accurate for x <= 2.2."""
    i0, s0 = k0_log_series(x)
    lg = -(np.log(x / 2.0) + EULER_GAMMA)
    return lg * i0 + s0


def _k1_series(x: np.ndarray) -> np.ndarray:
    """K_1 by the classical log series; accurate for x <= 2.2."""
    q = x * x / 4.0
    term = np.ones_like(x)
    i1h = np.ones_like(x)      # I_1 / (x/2)
    s1 = np.ones_like(x)       # sum (h_k + h_{k+1}) q^k / (k! (k+1)!)
    hk, hk1 = 0.0, 1.0
    for k in range(1, 80):
        term = term * q / (k * (k + 1))
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        i1h = i1h + term
        s1 = s1 + term * (hk + hk1)
        if np.all(term * (hk + hk1) <= 1e-18 * i1h):
            break
    i1 = i1h * (x / 2.0)
    return (np.log(x / 2.0) + EULER_GAMMA) * i1 + 1.0 / x - (x / 4.0) * s1


def grid_sum(x, integrand, weights: np.ndarray) -> np.ndarray:
    """Row sums  sum_k integrand(x)[k] * weights[k]  for every entry of x.

    ``integrand`` maps an (m, 1) column of arguments to the (m, len(weights))
    values on a fixed quadrature grid.  The rows are evaluated in chunks
    whose temporary stays near ``_GRID_CHUNK_BYTES``, and each row is summed
    on its own, so the result does not depend on the chunking.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    rows = max(1, _GRID_CHUNK_BYTES // (8 * len(weights)))
    for start in range(0, len(flat), rows):
        chunk = flat[start:start + rows, None]
        out[start:start + rows] = (integrand(chunk) * weights).sum(axis=1)
    return out.reshape(x.shape)


def _k_band(n: int, x: np.ndarray) -> np.ndarray:
    """Trapezoid on the cosh-integral representation; for the middle band.

    The integrand is analytic and decays double-exponentially, so the
    trapezoid rule with step 0.18 resolves it to ~1e-14 relative for
    x >= 2 and n <= 10.
    """
    cosh_nt = np.cosh(n * _BAND_T)
    return grid_sum(x, lambda xc: np.exp(-xc * _BAND_COSH_T) * cosh_nt,
                    _BAND_W)


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


def bessel_i(n: int, x) -> np.ndarray | float:
    """Modified Bessel function I_n(x) for integer n >= 0, x > 0."""
    _check_order_arg(n, x)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(xa)
    small = xa <= _I_SERIES_MAX
    if small.any():
        out[small] = _i_series(n, xa[small])
    if (~small).any():
        out[~small] = _i_asym(n, xa[~small])
    return out if np.ndim(x) else float(out[0])


def bessel_k(n: int, x) -> np.ndarray | float:
    """Modified Bessel function K_n(x) for integer n >= 0, x > 0.

    For x large enough that e^{-x} underflows, returns 0.0 and emits a
    RuntimeWarning rather than failing silently.
    """
    _check_order_arg(n, x)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(xa)
    # (K_0, K_1) on each branch; K_1 is evaluated for n >= 1 only
    regions = (
        (xa < _K_SERIES_MAX, _k0_series, _k1_series),
        ((xa >= _K_SERIES_MAX) & (xa < _K_ASYM_MIN),
         partial(_k_band, 0), partial(_k_band, 1)),
        (xa >= _K_ASYM_MIN, partial(_k_asym, 0), partial(_k_asym, 1)),
    )
    for mask, k0_fn, k1_fn in regions:
        if not mask.any():
            continue
        xx = xa[mask]
        if n == 0:
            out[mask] = k0_fn(xx)
            continue
        km, kc = k0_fn(xx), k1_fn(xx)
        for m in range(1, n):
            km, kc = kc, km + (2.0 * m / xx) * kc
        out[mask] = kc
    if np.any(xa > _K_UNDERFLOW_X):
        warnings.warn(
            "K_n underflows to 0 for x > %g" % _K_UNDERFLOW_X, RuntimeWarning
        )
    return out if np.ndim(x) else float(out[0])


def bessel(kind: str, n: int, x) -> np.ndarray | float:
    """Evaluate I_n or K_n; ``kind`` is "I" or "K"."""
    if kind not in ("I", "K"):
        raise InvalidArgumentError("kind must be 'I' or 'K', got %r" % (kind,))
    return bessel_i(n, x) if kind == "I" else bessel_k(n, x)


def _check_order_arg(n: int, x) -> None:
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise InvalidArgumentError("order must be a nonnegative integer")
    if np.any(np.asarray(x, dtype=float) <= 0.0):
        raise InvalidArgumentError("argument must be positive")
