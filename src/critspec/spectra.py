"""Symmetric eigenvalues, counting functions, and coefficient fits.

The counting coefficient is read off eigenvalues alone, so ``eigensolve``
computes no eigenvectors.  It takes the ``BlockOperator`` that
``assemble.assemble_mixed`` builds, one block per character of the
operator's symmetry group, the whole matrix for the trivial group.  Each
block of order 2 or more is an ``OperatorMatrix``, its upper triangle,
diagonal included: the strict lower triangle is scratch and is never read,
so no symmetry test runs here.  The solve consumes the operator.  LAPACK's
divide-and-conquer ``dsyevd``, from the OpenBLAS that NumPy has already
loaded, reduces each triangle in the block's own storage, so no copy is
made; a second solve of the same operator is refused.  A complex
conjugate pair is one real block whose eigenvalues come out twice, and the
1 x 1 blocks (on an equispaced circle, the real DFT of its first row) need
no solve.  A weight that its symmetry negates comes as one coupling block M
instead, whose eigenvalues are plus and minus its singular values:
LAPACK's ``dgesdd``, from the same OpenBLAS, takes them in M's own
storage.  The eigenvalues of M^T M would be three times faster but square
the spectrum, and the singular values below about 1e-4 of the largest
would lose their digits to it.  A weight that carries few Fourier modes on
an equispaced circle comes as one band block, in LAPACK's lower band
storage: ``dsbevd``, from the same OpenBLAS, reduces it to tridiagonal form
in place, in O(n^2 b) where the dense solve takes O(n^3).  Circles that
share no symmetry come as one coupled block of their low Fourier modes,
solved as every other block is, and singles.

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

from .assemble import BlockOperator
from .errors import InsufficientDataError, InvalidArgumentError, InternalError

# relative scale below which an eigenvalue counts as a numerical zero
_ZERO_RTOL = 1e-14
# invariant tolerances, in units of n * eps * scale (scale = spectral radius
# for the trace, squared Frobenius norm for the sum of squares); measured
# clean solves stay below 0.25 of these units on curve, polygon, Cantor,
# mixed and signed operators and below 2 on random symmetric matrices
_INVARIANT_ULPS = 64.0
_TRUSTED_FRACTION = 8
# the smallest normal double and its exponent: an operator whose largest
# entry lies below it has lost digits in every entry
_TINY = float(np.finfo(float).tiny)
_MIN_EXPONENT = int(np.frexp(_TINY)[1])


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
    ``InvalidArgumentError``.  ``op.n`` stays valid.  Only the upper
    triangle of each block, diagonal included, is read, and of a band
    block its band storage.

    No eigenvectors are computed.  Each block is solved with no check of
    its own, each band block by ``dsbevd`` (``_band_eigenvalues``), and
    each coupling block as plus and minus its singular values; the union
    of these eigenvalues and its 1 x 1 blocks' must reproduce the
    trace and the squared Frobenius norm of the whole operator, which it
    carries, to within 64 n eps times the spectral radius and the squared
    norm.  A violation raises ``InternalError`` naming both errors, and so
    does a solve that LAPACK reports failed.  An unsigned operator
    (nonnegative weight) is positive semidefinite on a resolved mesh: a
    least eigenvalue below -64 n eps times the spectral radius raises
    ``InvalidArgumentError`` (exit 2), and so does an operator whose
    largest entry is subnormal.  Eigenvalues below 1e-14 of the spectral
    radius are dropped as numerical zeros; the trusted index range is n/8.
    """
    vals = [op.singles] + [_eigvalsh_upper(b.consume()) for b in op.blocks]
    vals += [_band_eigenvalues(b.consume()) for b in op.bands]
    for coupling in op.couplings:
        sigma = _singular_values(coupling.consume())
        vals += [sigma, -sigma]
    return _checked_spectrum(np.sort(np.concatenate(vals)), op.invariants,
                             op.signed_flag)


def _checked_spectrum(vals: np.ndarray, invariants: tuple[float, float, int],
                      signed: bool) -> Spectrum:
    """The spectrum of the ascending eigenvalues ``vals`` of an operator
    with ``invariants`` as ``BlockOperator.invariants`` holds them, after
    the checks ``eigensolve`` documents: the underflow and the invariant
    checks, and for an unsigned operator the semidefinite one."""
    if invariants[2] < _MIN_EXPONENT:
        raise InvalidArgumentError(
            "operator entries underflow: the largest |entry| is subnormal "
            "(below %.3g); scale the weight up" % _TINY)
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


_INTEGER = ctypes.POINTER(ctypes.c_int64)


def _numpy_lapack(name: str, argtypes: list):
    """LAPACK's routine ``name`` from the scipy-openblas64 library NumPy
    has already loaded (64-bit integers, gfortran's hidden character
    lengths), or None where NumPy's build does not export it.  No second
    library is mapped."""
    try:
        from numpy.linalg import _umath_linalg
        routine = getattr(ctypes.CDLL(_umath_linalg.__file__),
                          "scipy_%s_64_" % name)
    except (ImportError, OSError, AttributeError):
        return None
    routine.argtypes = argtypes
    routine.restype = None
    return routine


@functools.cache
def _lapack_dsyevd():
    """LAPACK's ``dsyevd`` (``_numpy_lapack``), resolved once, on the
    first solve."""
    return _numpy_lapack("dsyevd", [
        ctypes.c_char_p, ctypes.c_char_p, _INTEGER,     # jobz, uplo, n
        ctypes.c_void_p, _INTEGER, ctypes.c_void_p,     # a, lda, w
        ctypes.c_void_p, _INTEGER, ctypes.c_void_p,     # work, lwork, iwork
        _INTEGER, _INTEGER,                             # liwork, info
        ctypes.c_size_t, ctypes.c_size_t])              # len(jobz), len(uplo)


@functools.cache
def _lapack_dgesdd():
    """LAPACK's ``dgesdd`` (``_numpy_lapack``), resolved once, on the
    first singular value solve."""
    return _numpy_lapack("dgesdd", [
        ctypes.c_char_p, _INTEGER, _INTEGER,            # jobz, m, n
        ctypes.c_void_p, _INTEGER, ctypes.c_void_p,     # a, lda, s
        ctypes.c_void_p, _INTEGER, ctypes.c_void_p,     # u, ldu, vt
        _INTEGER, ctypes.c_void_p, _INTEGER,            # ldvt, work, lwork
        ctypes.c_void_p, _INTEGER,                      # iwork, info
        ctypes.c_size_t])                               # len(jobz)


def _eigvalsh_upper(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix whose upper triangle,
    diagonal included, is that of the C-contiguous float64 ``m``.  ``m`` is
    overwritten.

    Fortran reads the C storage transposed, so LAPACK's lower triangle is
    the upper one here: ``dsyevd`` with uplo 'L' is handed the very values,
    in the very layout, that NumPy's ``eigvalsh`` copies out of the full
    symmetric matrix for the same routine, and returns its eigenvalues bit
    for bit.  The workspace is the size LAPACK's query asks for: the
    minimal one runs slower.  Without the routine, NumPy's ``eigvalsh``
    solves a copy of the upper triangle.  A failed solve raises
    ``InternalError`` naming LAPACK's info.
    """
    dsyevd = _lapack_dsyevd()
    if dsyevd is None:
        try:
            return np.linalg.eigvalsh(m, UPLO="U")
        except np.linalg.LinAlgError as exc:
            raise InternalError(
                "symmetric eigensolve failed: %s" % exc) from None
    n = len(m)
    vals = np.empty(n)
    info = ctypes.c_int64(0)

    def call(work: np.ndarray, lwork: int, iwork: np.ndarray, liwork: int):
        dsyevd(b"N", b"L", ctypes.pointer(ctypes.c_int64(n)), m.ctypes.data,
               ctypes.pointer(ctypes.c_int64(max(1, n))), vals.ctypes.data,
               work.ctypes.data, ctypes.pointer(ctypes.c_int64(lwork)),
               iwork.ctypes.data, ctypes.pointer(ctypes.c_int64(liwork)),
               ctypes.pointer(info), 1, 1)
        if info.value != 0:
            raise InternalError(
                "symmetric eigensolve failed: LAPACK dsyevd info = %d"
                % info.value)

    work = np.empty(1)
    iwork = np.empty(1, dtype=np.int64)
    call(work, -1, iwork, -1)
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), lwork, np.empty(liwork, dtype=np.int64), liwork)
    return vals


@functools.cache
def _lapack_dsbevd():
    """LAPACK's ``dsbevd`` (``_numpy_lapack``), resolved once, on the
    first band solve."""
    return _numpy_lapack("dsbevd", [
        ctypes.c_char_p, ctypes.c_char_p, _INTEGER,     # jobz, uplo, n
        _INTEGER, ctypes.c_void_p, _INTEGER,            # kd, ab, ldab
        ctypes.c_void_p, ctypes.c_void_p, _INTEGER,     # w, z, ldz
        ctypes.c_void_p, _INTEGER, ctypes.c_void_p,     # work, lwork, iwork
        _INTEGER, _INTEGER,                             # liwork, info
        ctypes.c_size_t, ctypes.c_size_t])              # len(jobz), len(uplo)


def _band_eigenvalues(ab: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric band matrix whose lower band
    storage (``assemble.BandMatrix``) is the C-contiguous float64 (n, kd +
    1) ``ab``: entry [j, d] is the matrix entry (j, j + d).  ``ab`` is
    overwritten.

    Fortran reads the C storage as the (kd + 1, n) array whose column j is
    row j here, which is LAPACK's lower band storage with ldab = kd + 1:
    ``dsbevd`` with uplo 'L' takes it in place, no copy made, with the
    workspace LAPACK's query asks for.  Without the routine, NumPy's
    ``eigvalsh`` solves the band expanded to its n x n matrix.  A failed
    solve raises ``InternalError`` naming LAPACK's info."""
    n, width = ab.shape
    dsbevd = _lapack_dsbevd()
    if dsbevd is None:
        m = np.zeros((n, n))
        for d in range(width):
            m[np.arange(n - d), np.arange(d, n)] = ab[:n - d, d]
        try:
            return np.linalg.eigvalsh(m, UPLO="U")
        except np.linalg.LinAlgError as exc:
            raise InternalError(
                "band eigensolve failed: %s" % exc) from None
    vals = np.empty(n)
    info = ctypes.c_int64(0)
    one = ctypes.pointer(ctypes.c_int64(1))

    def call(work: np.ndarray, lwork: int, iwork: np.ndarray, liwork: int):
        dsbevd(b"N", b"L", ctypes.pointer(ctypes.c_int64(n)),
               ctypes.pointer(ctypes.c_int64(width - 1)), ab.ctypes.data,
               ctypes.pointer(ctypes.c_int64(width)), vals.ctypes.data, None,
               one, work.ctypes.data, ctypes.pointer(ctypes.c_int64(lwork)),
               iwork.ctypes.data, ctypes.pointer(ctypes.c_int64(liwork)),
               ctypes.pointer(info), 1, 1)
        if info.value != 0:
            raise InternalError(
                "band eigensolve failed: LAPACK dsbevd info = %d"
                % info.value)

    work = np.empty(1)
    iwork = np.empty(1, dtype=np.int64)
    call(work, -1, iwork, -1)
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), lwork, np.empty(liwork, dtype=np.int64), liwork)
    return vals


def _singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of the square C-contiguous float64 ``m``; ``m`` is
    overwritten.

    Fortran reads the C storage as m^T, whose singular values are m's:
    ``dgesdd`` with jobz 'N' takes it in place, no copy made, with the
    workspace LAPACK's query asks for.  Without the routine, NumPy's
    ``svd`` solves a copy.  A failed solve raises ``InternalError`` naming
    LAPACK's info.
    """
    dgesdd = _lapack_dgesdd()
    if dgesdd is None:
        try:
            return np.linalg.svd(m, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise InternalError(
                "singular value solve failed: %s" % exc) from None
    n = len(m)
    vals = np.empty(n)
    info = ctypes.c_int64(0)
    order = ctypes.pointer(ctypes.c_int64(n))
    lead = ctypes.pointer(ctypes.c_int64(max(1, n)))
    one = ctypes.pointer(ctypes.c_int64(1))
    iwork = np.empty(8 * n, dtype=np.int64)

    def call(work: np.ndarray, lwork: int):
        dgesdd(b"N", order, order, m.ctypes.data, lead, vals.ctypes.data,
               None, one, None, one, work.ctypes.data,
               ctypes.pointer(ctypes.c_int64(lwork)), iwork.ctypes.data,
               ctypes.pointer(info), 1)
        if info.value != 0:
            raise InternalError(
                "singular value solve failed: LAPACK dgesdd info = %d"
                % info.value)

    work = np.empty(1)
    call(work, -1)
    lwork = int(work[0])
    call(np.empty(lwork), lwork)
    return vals


def _tolerance_unit(n: int) -> float:
    """n eps times ``_INVARIANT_ULPS``: the relative tolerance unit of an
    order-n eigensolve."""
    return _INVARIANT_ULPS * n * np.finfo(float).eps


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
