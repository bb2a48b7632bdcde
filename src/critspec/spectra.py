"""Symmetric eigensolution, counting functions, and coefficient fits.

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
_SYMMETRY_ATOL = 1e-12
_RESIDUAL_RTOL = 1e-10
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


def eigensolve(matrix) -> Spectrum:
    """Full symmetric eigendecomposition with residual spot checks.

    Eigenvalues below 1e-14 of the spectral radius are dropped as numerical
    zeros; the trusted index range is n/8.
    """
    if isinstance(matrix, OperatorMatrix):
        m = matrix.entries
    else:
        m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidArgumentError("matrix must be square")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if m.size and np.max(np.abs(m - m.T)) > _SYMMETRY_ATOL * max(1.0, scale):
        raise InvalidArgumentError("matrix is not symmetric within tolerance")

    vals, vecs = np.linalg.eigh(m)
    norm = float(np.max(np.abs(vals))) if vals.size else 0.0

    if vals.size:
        rng = np.random.default_rng(0)
        picks = rng.choice(len(vals), size=min(10, len(vals)), replace=False)
        for idx in picks:
            resid = np.linalg.norm(m @ vecs[:, idx] - vals[idx] * vecs[:, idx])
            if resid > _RESIDUAL_RTOL * max(norm, 1e-300):
                raise InternalError("eigenpair residual %g too large" % resid)

    keep = np.abs(vals) > _ZERO_RTOL * norm
    return Spectrum.from_eigenvalues(
        vals[keep], resolution_n=m.shape[0],
        trusted_k_max=max(1, m.shape[0] // _TRUSTED_FRACTION))


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
