"""Symmetric eigenvalues, counting functions, and coefficient fits.

The counting coefficient is read off eigenvalues alone, so ``eigensolve``
computes no eigenvectors.  It takes an ``OperatorMatrix`` only, which is
exactly symmetric by construction, so no symmetry test runs here.  It checks
the whole computed spectrum against two invariants of the matrix that cost
O(n^2): the sum of the eigenvalues is the trace, and the sum of their
squares is the squared Frobenius norm.  Either error above its tolerance
raises ``InternalError``.  An operator of a nonnegative weight must also
come out positive semidefinite in the same tolerance unit; one that does
not is an under-resolved mesh, refused with ``InvalidArgumentError``.

The mid-spectrum estimator for the constant C in n(lambda) ~ C / lambda is
the median of k |lambda_k| over a window of indices: multiplicity-2 families
make k lambda_k a sawtooth, and the median is robust to it.  Only the first
n/8 eigenvalues of an n-point discretization are trusted; fits outside that
window are refused.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .assemble import OperatorMatrix
from .errors import InsufficientDataError, InvalidArgumentError, InternalError

# relative scale below which an eigenvalue counts as a numerical zero
_ZERO_RTOL = 1e-14
# invariant tolerances, in units of n * eps * scale (scale = spectral radius
# for the trace, squared Frobenius norm for the sum of squares); measured
# clean solves stay below 0.25 of these units on curve, polygon, Cantor,
# mixed and signed operators and below 2 on random symmetric matrices
_INVARIANT_ULPS = 64.0
_TRUSTED_FRACTION = 8


@dataclass(frozen=True)
class Spectrum:
    """Signed eigenvalues: positives descending, negatives by descending
    magnitude (as negative numbers)."""

    positives: np.ndarray
    negatives: np.ndarray
    resolution_n: int
    trusted_k_max: int

    def __post_init__(self):
        pos = np.ascontiguousarray(np.asarray(self.positives, dtype=float))
        neg = np.ascontiguousarray(np.asarray(self.negatives, dtype=float))
        pos.flags.writeable = False
        neg.flags.writeable = False
        object.__setattr__(self, "positives", pos)
        object.__setattr__(self, "negatives", neg)
        if np.any(pos <= 0.0) or np.any(np.diff(pos) > 0.0):
            raise InvalidArgumentError("positives must be positive, descending")
        if np.any(neg >= 0.0) or np.any(np.diff(-neg) > 0.0):
            raise InvalidArgumentError(
                "negatives must be negative with descending magnitude")
        if len(pos) + len(neg) > self.resolution_n:
            raise InvalidArgumentError("more eigenvalues than matrix rows")

    @staticmethod
    def from_eigenvalues(values, resolution_n: int | None = None,
                         trusted_k_max: int | None = None) -> "Spectrum":
        values = np.asarray(values, dtype=float)
        if resolution_n is None:
            resolution_n = len(values)
        if trusted_k_max is None:
            trusted_k_max = len(values)
        pos = np.sort(values[values > 0.0])[::-1]
        neg = np.sort(values[values < 0.0])
        return Spectrum(positives=pos, negatives=neg,
                        resolution_n=resolution_n,
                        trusted_k_max=trusted_k_max)

    def side(self, sign: str) -> np.ndarray:
        """Magnitudes of the requested side, descending."""
        if sign == "+":
            return self.positives
        if sign == "-":
            return -self.negatives
        raise InvalidArgumentError("sign must be '+' or '-'")


@dataclass(frozen=True)
class WeylFit:
    c_plus: float | None
    c_minus: float | None
    window: tuple[int, int]
    dispersion: float


def eigensolve(op: OperatorMatrix) -> Spectrum:
    """Eigenvalues of an operator matrix, checked against its invariants.

    No eigenvectors are computed.  The computed spectrum must reproduce the
    trace and the squared Frobenius norm of the matrix to within 64 n eps
    times the spectral radius and the squared norm; a violation raises
    ``InternalError`` naming both errors.  An unsigned operator (nonnegative
    weight) is positive semidefinite on a resolved mesh: a least eigenvalue
    below -64 n eps times the spectral radius raises
    ``InvalidArgumentError`` (exit 2).  Eigenvalues below 1e-14 of the
    spectral radius are dropped as numerical zeros; the trusted index range
    is n/8.
    """
    m = op.entries
    vals = np.linalg.eigvalsh(m)
    norm = float(np.max(np.abs(vals))) if vals.size else 0.0
    trace_err, frobenius_err = _invariant_errors(m, vals)
    if not (trace_err <= 1.0 and frobenius_err <= 1.0):
        raise InternalError(
            "eigenvalues violate the matrix invariants: trace error %.3g, "
            "Frobenius error %.3g (tolerance units)"
            % (trace_err, frobenius_err))
    if (not op.signed_flag and vals.size
            and vals[0] < -_tolerance_unit(len(vals)) * norm):
        raise InvalidArgumentError(
            "under-resolved mesh: the operator of this nonnegative weight is "
            "indefinite, least eigenvalue %.3g of the spectral radius; refine "
            "the mesh" % (vals[0] / norm))

    keep = np.abs(vals) > _ZERO_RTOL * norm
    return Spectrum.from_eigenvalues(
        vals[keep], resolution_n=m.shape[0],
        trusted_k_max=max(1, m.shape[0] // _TRUSTED_FRACTION))


def _tolerance_unit(n: int) -> float:
    """n eps times ``_INVARIANT_ULPS``: the relative tolerance unit of an
    order-n eigensolve."""
    return _INVARIANT_ULPS * n * np.finfo(float).eps


def _invariant_errors(m: np.ndarray, vals: np.ndarray) -> tuple[float, float]:
    """Errors of sum(vals) against tr m and of sum(vals^2) against
    ||m||_F^2, in units of their tolerances (``eigensolve`` accepts up to 1).

    The squared Frobenius norm is one dot product over a flat view of the
    contiguous matrix, with no n^2 temporary.  A zero tolerance (the zero
    matrix) accepts only an exact zero; a NaN error stays NaN.
    """
    flat = np.ascontiguousarray(m).reshape(-1)
    frobenius_sq = float(flat @ flat)
    unit = _tolerance_unit(len(vals))
    radius = float(np.max(np.abs(vals))) if vals.size else 0.0
    errors = (abs(float(np.sum(vals)) - float(np.trace(m))),
              abs(float(vals @ vals) - frobenius_sq))
    tols = (unit * radius, unit * frobenius_sq)
    return tuple(err / tol if tol > 0.0 else (0.0 if err == 0.0 else np.inf)
                 for err, tol in zip(errors, tols))


def counting(spectrum: Spectrum, lam: float, sign: str = "+") -> int:
    """Number of eigenvalues of the given sign with magnitude > lambda."""
    if lam <= 0.0:
        raise InvalidArgumentError("lambda must be positive")
    mags = spectrum.side(sign)
    return int(np.sum(mags > lam))


def weyl_fit(spectrum: Spectrum, window: tuple[int, int]) -> WeylFit:
    """Median-of-k-lambda_k fit of the counting coefficient on a window.

    Each sign with at least 10 eigenvalues in the window is fitted; a side
    without data stays None.  Dispersion is the worst relative deviation of
    k lambda_k from the fitted value across the fitted sides.
    """
    k_min, k_max = int(window[0]), int(window[1])
    if not (1 <= k_min < k_max):
        raise InvalidArgumentError("window must satisfy 1 <= k_min < k_max")
    if k_max > spectrum.trusted_k_max:
        raise InvalidArgumentError(
            "window exceeds the trusted range k <= %d" % spectrum.trusted_k_max)

    fits: dict[str, float | None] = {"+": None, "-": None}
    dispersion = 0.0
    for sign in ("+", "-"):
        mags = spectrum.side(sign)
        hi = min(k_max, len(mags))
        if hi - k_min + 1 < 10:
            continue
        k = np.arange(k_min, hi + 1)
        seq = k * mags[k_min - 1:hi]
        c = float(np.median(seq))
        fits[sign] = c
        if c > 0.0:
            dispersion = max(dispersion, float(np.max(np.abs(seq - c)) / c))
    if fits["+"] is None and fits["-"] is None:
        raise InsufficientDataError(
            "fewer than 10 eigenvalues of either sign in the window")
    return WeylFit(c_plus=fits["+"], c_minus=fits["-"],
                   window=(k_min, k_max), dispersion=dispersion)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    """Columns (k, lambda_k, k_lambda_k): signed eigenvalues, the positive
    side first, k counting within each sign."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "lambda_k", "k_lambda_k"])
        for vals in (spectrum.positives, spectrum.negatives):
            for k, lam in enumerate(vals, start=1):
                writer.writerow([k, repr(float(lam)), repr(float(k * lam))])


def write_counting_csv(spectrum: Spectrum, lambda_grid, path) -> None:
    """Columns (lambda, n_plus, n_minus, lambda_times_n)."""
    grid = np.asarray(lambda_grid, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "n_plus", "n_minus", "lambda_times_n"])
        for lam in grid:
            npos = counting(spectrum, float(lam), "+")
            nneg = counting(spectrum, float(lam), "-")
            writer.writerow([repr(float(lam)), npos, nneg,
                             repr(float(lam) * (npos + nneg))])
