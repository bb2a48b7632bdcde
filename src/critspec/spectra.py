"""Symmetric eigenvalues, counting functions, and coefficient fits.

The counting coefficient is read off eigenvalues alone, so ``eigensolve``
computes no eigenvectors.  It takes the ``BlockOperator`` that
``assemble.assemble_mixed`` builds: its singles, the eigenvalues of its
1 x 1 blocks, which need no solve, and one list of blocks, each of a kind
that picks its LAPACK routine, from the OpenBLAS that NumPy has already
loaded.  Each solve works in the block's own storage, so no copy is made;
the solve consumes the operator, and a second one is refused.

* An ``OperatorMatrix`` is a symmetric block by its upper triangle,
  diagonal included: the strict lower triangle is scratch and is never
  read, so no symmetry test runs here.  The divide-and-conquer ``dsyevd``
  reduces it.  A complex conjugate pair is one real block whose eigenvalues
  come out twice.
* A ``BandMatrix``, the operator of a weight that carries few Fourier
  modes on an equispaced circle, is in LAPACK's lower band storage:
  ``dsbevd`` reduces it to tridiagonal form in O(n^2 b) where the dense
  solve takes O(n^3).
* A ``HalfTurnBand``, the band of such a weight that the half turn
  negates, every mode odd at even n, is [[0, B], [B^T, 0]] kept as the
  general band B of order n/2: its eigenvalues are +-sigma(B) (Golub and
  Kahan 1965), ``dgbbrd`` reduces B to bidiagonal form and ``dbdsqr``
  finds the sigma by dqds (Fernando and Parlett 1994), so the spectrum
  is symmetric to the last bit, and no tridiagonal of order n is solved.

One resolver (``_lapack``) finds each routine by name, and one driver
runs it: ``_lapack_call`` calls a routine once and returns its info, and
``_lapack_solve`` runs a solve's workspace query and the solve through it
and checks the info.  The routines that take no workspace query, the
sign fold's ``dpotrf`` in ``assemble`` and the half-turn band's
``dgbbrd`` and ``dbdsqr``, run through ``_lapack_call`` alone.

The union of the eigenvalues is checked once against the two invariants of
the whole operator, which the block operator carries from its kernel rows
before they are transformed, scaled or folded: the sum of the eigenvalues
is the trace, and the sum of their squares is the squared Frobenius norm.
The check therefore covers the transform to the blocks, the scaling and
the fold as well as each solve.  Both sides are summed in units of a power
of two of the largest |entry|, so the check holds at any scale of the
weight.  Either error above its tolerance raises ``InternalError``, as does
a solve that LAPACK reports failed.  An operator of a nonnegative weight
must also come out positive semidefinite in the same tolerance unit; one
that does not is an under-resolved mesh, refused with
``InvalidArgumentError``, as is an operator whose largest entry is
subnormal.

The mid-spectrum estimator for the constant C in n(lambda) ~ C / lambda is
the median of k |lambda_k| over a window of indices: multiplicity-2 families
make k lambda_k a sawtooth, and the median is robust to it.  Only the first
n/8 eigenvalues of an n-point discretization are trusted; fits outside that
window are refused.
"""

from __future__ import annotations

import csv
import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .assemble import (BandMatrix, BlockOperator, HalfTurnBand,
                       _tolerance_unit, _underflow)
from .errors import InsufficientDataError, InvalidArgumentError, InternalError

# relative scale below which an eigenvalue counts as a numerical zero
_ZERO_RTOL = 1e-14
_TRUSTED_FRACTION = 8
# the exponent of the smallest normal double: an operator whose largest
# entry lies below it has lost digits in every entry
_MIN_EXPONENT = int(np.frexp(np.finfo(float).tiny)[1])


@dataclass(frozen=True)
class Spectrum:
    """Signed eigenvalues: positives descending, negatives by descending
    magnitude (as negative numbers)."""

    positives: np.ndarray
    negatives: np.ndarray
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

    @staticmethod
    def from_eigenvalues(values,
                         trusted_k_max: int | None = None) -> "Spectrum":
        values = np.asarray(values, dtype=float)
        if trusted_k_max is None:
            trusted_k_max = len(values)
        pos = np.sort(values[values > 0.0])[::-1]
        neg = np.sort(values[values < 0.0])
        return Spectrum(positives=pos, negatives=neg,
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


def eigensolve(op: BlockOperator) -> Spectrum:
    """Eigenvalues of an assembled operator, checked against its invariants.

    The solve consumes the operator: it overwrites the storage of its
    blocks, and a second ``eigensolve`` of the same operator raises
    ``InvalidArgumentError``.  ``op.n`` stays valid.

    No eigenvectors are computed.  One pass over ``op.blocks`` solves each
    block by its kind, with no check of its own: an ``OperatorMatrix`` by
    its upper triangle (``_eigvalsh_upper``), a ``BandMatrix`` by its
    band storage (``_band_eigenvalues``) and a ``HalfTurnBand`` by the
    singular values of its half-order band (``_half_turn_eigenvalues``).
    The union of these eigenvalues and the singles must reproduce the
    trace and the squared Frobenius norm of the whole operator, which it
    carries, to within the tolerance unit 64 n eps (``_tolerance_unit``)
    times the spectral radius and the squared norm.  A violation raises
    ``InternalError`` naming both errors, and so does a solve that LAPACK
    reports failed.  An unsigned operator (nonnegative weight) is positive
    semidefinite on a resolved mesh: a least eigenvalue below -64 n eps
    times the spectral radius raises ``InvalidArgumentError`` (exit 2), and
    so does an operator whose largest entry is subnormal.  Eigenvalues
    below 1e-14 of the spectral radius are dropped as numerical zeros; the
    trusted index range is n/8.
    """
    vals = [op.singles]
    for block in op.blocks:
        if isinstance(block, HalfTurnBand):
            vals.append(_half_turn_eigenvalues(block.consume()))
        elif isinstance(block, BandMatrix):
            vals.append(_band_eigenvalues(block.consume()))
        else:
            vals.append(_eigvalsh_upper(block.consume()))
    return _checked_spectrum(np.sort(np.concatenate(vals)), op.invariants,
                             op.signed_flag)


def _checked_spectrum(vals: np.ndarray, invariants: tuple[float, float, int],
                      signed: bool) -> Spectrum:
    """The spectrum of the ascending eigenvalues ``vals`` of an operator
    with ``invariants`` as ``BlockOperator.invariants`` holds them, after
    the checks ``eigensolve`` documents: the underflow and the invariant
    checks, and for an unsigned operator the semidefinite one."""
    if invariants[2] < _MIN_EXPONENT:
        raise _underflow()
    trace_err, frobenius_err = _invariant_errors(invariants, vals)
    if not (trace_err <= 1.0 and frobenius_err <= 1.0):
        raise InternalError(
            "eigenvalues violate the matrix invariants: trace error %.3g, "
            "Frobenius error %.3g (tolerance units)"
            % (trace_err, frobenius_err))
    n = len(vals)
    norm = float(np.max(np.abs(vals))) if n else 0.0
    if not signed and n and vals[0] < -_tolerance_unit(n) * norm:
        raise InvalidArgumentError(
            "under-resolved mesh: the operator of this nonnegative weight is "
            "indefinite, least eigenvalue %.3g of the spectral radius; refine "
            "the mesh" % (vals[0] / norm))

    keep = np.abs(vals) > _ZERO_RTOL * norm
    return Spectrum.from_eigenvalues(
        vals[keep], trusted_k_max=max(1, n // _TRUSTED_FRACTION))


@functools.cache
def _lapack(name: str):
    """LAPACK's routine ``name`` from the scipy-openblas64 library NumPy
    has already loaded (64-bit integers, gfortran's hidden character
    lengths), resolved once per name, on its first call, or None where
    NumPy's build does not export it.  No second library is mapped.  No
    argument types are set: ``_lapack_call`` passes each argument as the
    routine reads it."""
    try:
        from numpy.linalg import _umath_linalg
        routine = getattr(ctypes.CDLL(_umath_linalg.__file__),
                          "scipy_%s_64_" % name)
    except (ImportError, OSError, AttributeError):
        return None
    routine.restype = None
    return routine


def _argument(x):
    """One argument of a LAPACK call as the routine reads it: an array by
    its data pointer, an integer by reference as an int64, a character as
    a C string, None as a null pointer."""
    if isinstance(x, np.ndarray):
        return ctypes.c_void_p(x.ctypes.data)
    if isinstance(x, int):
        return ctypes.pointer(ctypes.c_int64(x))
    return x


def _lapack_call(name: str, args: tuple) -> int | None:
    """Run LAPACK's ``name`` once on ``args``, its arguments up to info, and
    return the info it reports, or None where the routine is missing.
    After ``args`` come info, then the length of each character
    argument."""
    routine = _lapack(name)
    if routine is None:
        return None
    info = ctypes.c_int64(0)
    routine(*map(_argument, args), ctypes.pointer(info),
            *[ctypes.c_size_t(1) for x in args if isinstance(x, bytes)])
    return info.value


def _lapack_failed(what: str, name: str, info: int) -> InternalError:
    """The error of a LAPACK call that reports ``info``: "<what> failed:
    LAPACK <name> info = <info>"."""
    return InternalError("%s failed: LAPACK %s info = %d" % (what, name, info))


def _lapack_solve(name: str, what: str, args: tuple) -> bool:
    """Run LAPACK's ``name`` on ``args``, its arguments up to the
    workspace, and return True, or False where the routine is missing.

    The routine runs twice through ``_lapack_call``: as a workspace query,
    then with the workspaces the query asks for (the minimal ones run
    slower).  After ``args`` come work, lwork, iwork and liwork.  An info
    other than 0 raises ``_lapack_failed(what, name, info)``."""
    def call(*workspace) -> bool:
        info = _lapack_call(name, args + workspace)
        if info:
            raise _lapack_failed(what, name, info)
        return info is not None

    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    if not call(work, -1, iwork, -1):
        return False
    lwork, liwork = int(work[0]), int(iwork[0])
    return call(np.empty(lwork), lwork, np.empty(liwork, dtype=np.int64),
                liwork)


def _eigvalsh_upper(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix whose upper triangle,
    diagonal included, is that of the C-contiguous float64 ``m``.  ``m`` is
    overwritten.

    Fortran reads the C storage transposed, so LAPACK's lower triangle is
    the upper one here: ``dsyevd`` with uplo 'L' is handed the very values,
    in the very layout, that NumPy's ``eigvalsh`` copies out of the full
    symmetric matrix for the same routine, and returns its eigenvalues bit
    for bit.  Without the routine, NumPy's ``eigvalsh`` solves a copy of the
    upper triangle.  A failed solve raises ``InternalError`` naming LAPACK's
    info.
    """
    n = len(m)
    vals = np.empty(n)
    if _lapack_solve("dsyevd", "symmetric eigensolve",
                     (b"N", b"L", n, m, max(1, n), vals)):
        return vals
    try:
        return np.linalg.eigvalsh(m, UPLO="U")
    except np.linalg.LinAlgError as exc:
        raise InternalError("symmetric eigensolve failed: %s" % exc) from None


def _band_eigenvalues(ab: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric band matrix whose lower band
    storage (``assemble.BandMatrix``) is the C-contiguous float64 (n, kd +
    1) ``ab``: entry [j, d] is the matrix entry (j, j + d).  ``ab`` is
    overwritten.

    Fortran reads the C storage as the (kd + 1, n) array whose column j is
    row j here, which is LAPACK's lower band storage with ldab = kd + 1:
    ``dsbevd`` with uplo 'L' takes it in place, no copy made.  Without the
    routine, NumPy's ``eigvalsh`` solves the band expanded to its n x n
    matrix.  A failed solve raises ``InternalError`` naming LAPACK's info."""
    n, width = ab.shape
    vals = np.empty(n)
    if _lapack_solve("dsbevd", "band eigensolve",
                     (b"N", b"L", n, width - 1, ab, width, vals, None, 1)):
        return vals
    m = np.zeros((n, n))
    for d in range(width):
        m[np.arange(n - d), np.arange(d, n)] = ab[:n - d, d]
    try:
        return np.linalg.eigvalsh(m, UPLO="U")
    except np.linalg.LinAlgError as exc:
        raise InternalError("band eigensolve failed: %s" % exc) from None


def _half_turn_eigenvalues(ab: np.ndarray) -> np.ndarray:
    """The eigenvalues +-sigma(B), sigma descending, of the symmetric
    [[0, B], [B^T, 0]] (Golub and Kahan 1965) whose square band B of kl =
    ku = k diagonals on each side is in LAPACK's general band storage
    (``assemble.HalfTurnBand``), the C-contiguous float64 (h, 2 k + 1)
    ``ab``: entry [j, d] is B(j + d - k, j).  ``ab`` is overwritten.

    Fortran reads the C storage as the (2 k + 1, h) array whose column j is
    row j here, LAPACK's general band storage with ldab = 2 k + 1:
    ``dgbbrd`` reduces B in place to upper bidiagonal form, and ``dbdsqr``
    with no vectors finds its sigma by dqds (Fernando and Parlett 1994), to
    high relative accuracy.  Neither takes a workspace query, so each is
    one ``_lapack_call``, and an info other than 0 raises
    ``InternalError`` naming it.  Where NumPy's build does not export
    both, NumPy's ``svd`` finds the sigma of B expanded to its h x h
    matrix."""
    half, width = ab.shape
    k = width // 2
    if _lapack("dgbbrd") is not None and _lapack("dbdsqr") is not None:
        d, e = np.empty(half), np.empty(max(1, half - 1))
        for name, args in (
                ("dgbbrd", (b"N", half, half, 0, k, k, ab, width, d, e, None,
                            1, None, 1, None, 1, np.empty(2 * half))),
                ("dbdsqr", (b"U", half, 0, 0, 0, d, e, None, 1, None, 1,
                            None, 1, np.empty(4 * half)))):
            info = _lapack_call(name, args)
            if info:
                raise _lapack_failed("half-turn band singular values", name,
                                     info)
        return np.concatenate([d, -d])
    m = np.zeros((half, half))
    for diagonal in range(width):
        j = np.arange(max(0, k - diagonal), min(half, half + k - diagonal))
        m[j + diagonal - k, j] = ab[j, diagonal]
    try:
        sigma = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise InternalError(
            "half-turn band singular values failed: %s" % exc) from None
    return np.concatenate([sigma, -sigma])


def _invariant_errors(invariants: tuple[float, float, int],
                      vals: np.ndarray) -> tuple[float, float]:
    """Errors of sum(vals) against the trace and of sum(vals^2) against the
    squared Frobenius norm, ``invariants`` as ``BlockOperator.invariants``
    holds them, in units of their tolerances (``eigensolve`` accepts up to 1).
    The eigenvalues are summed in the invariants' units of 2^e.

    A zero tolerance (the zero matrix) accepts only an exact zero; a NaN
    error stays NaN.
    """
    trace, frobenius_sq, exponent = invariants
    vals = np.ldexp(vals, -exponent)
    unit = _tolerance_unit(len(vals))
    radius = float(np.max(np.abs(vals))) if vals.size else 0.0
    errors = (abs(float(np.sum(vals)) - trace),
              abs(float(vals @ vals) - frobenius_sq))
    tols = (unit * radius, unit * frobenius_sq)
    return tuple(err / tol if tol > 0.0 else (0.0 if err == 0.0 else np.inf)
                 for err, tol in zip(errors, tols))


def counting(spectrum: Spectrum, lam: float, sign: str = "+") -> int:
    """Number of eigenvalues of the given sign with magnitude > lambda."""
    if not lam > 0.0:
        raise InvalidArgumentError("lambda must be positive, got %r" % (lam,))
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
