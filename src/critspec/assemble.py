"""Symmetric discretizations of the weighted kernel operator.

The operator acts on the weighted support by

    (L v)(X) = integral  W(X) Kernel(X, Y) W(Y) v(Y) dmu(Y),   W = sqrt(V),

and its matrix is  M = diag(s) K diag(s)  with s = sqrt(V w) and K an
effective-kernel matrix whose quadrature absorbs the logarithmic
singularity:

* smooth closed curves: spectrally accurate periodic quadrature that splits
  the kernel into a log(4 sin^2((t-s)/2)) part, integrated with
  trigonometric-interpolation weights, and a smooth remainder integrated
  with the trapezoid rule;
* polygon curves: panel midpoint collocation with the log part integrated
  exactly over flat panels, its antiderivative taken once per node and
  panel end that the panels along a straight line share (``_panel_ends``);
* atomized measures (Cantor dust, uniform grids, the area cells of an
  absolutely continuous density): pointwise kernel values off the
  diagonal, with the cell-averaged self coefficient closing the diagonal.
  Where the atoms lie on few distinct coordinates per axis, as a cell
  grid's do, the kernel is evaluated once per distinct offset
  (|dx|, |dy|) and the rows gather it, bit for bit the values of the
  pairs' own distances (``_offset_table``).

Every operator is laid out by ``assemble_mixed`` as a list of (support,
weight) blocks: each support's effective kernel on its diagonal block and
plain kernel values in the cross blocks between supports.  The curve and
measure operators are its one-block calls.

``assemble_mixed`` is the one assembler, and it builds every operator in a
symmetry-adapted basis.  Where a group G of plane isometries, one or two
reflections, maps the atoms, their quadrature weights and their weight
values onto themselves, the operator commutes with G and splits into one
real block per character of G, each about n/|G| (Fassler and Stiefel,
Group Theoretical Methods and Their Applications, 1992; Allgower, Georg
and Miranda, SIAM J. Numer. Anal. 29, 1992).  Where none is found, G is
the trivial group {e}: its one block is the whole n x n matrix, built by
the same code.  The rows of one representative per orbit are assembled
against the orbits from their own on alone, about n^2/(2|G|) entries, and
the blocks come from butterflies over the group axes, each symmetric by
its upper orbit triangle.

``_symmetry_table`` is the one place that decides which group an operator
is reduced by, and it answers that alone: the largest group of the
reflections it tries that keeps the atoms, their quadrature weights, the
mesh and the weight, Z2 x Z2, Z2 or {e}.  Every character is +-1, so
every block is real.  A signed weight that no reflection keeps takes the
trivial group, and so the one fold below, whether or not some map negates
it.

The one rotation the module asks about is the circle question,
``_circle_orbits``, asked once of every input before any table is built
and about geometry alone: whether each support is one free orbit of its
own C_n, an equispaced circle, whatever its weight.  Where it is, two
exact Fourier paths take the operator in place of a group.

On one such circle whose weight varies, the kernel matrix is C_n-invariant
whatever the weight, so in the Fourier basis it is diag(kappa), kappa the
real DFT of one kernel row.  A weight that carries the modes |m| <= b
alone, b read from its DFT and from 1 to ``_BAND_MODES``, makes
K diag(V w) similar to diag(sqrt kappa) C(u^) diag(sqrt kappa), C(u^) the
circulant of u^ = DFT(V w) / n, which is a real symmetric band of
half-width 2 b + 1 in the basis (1, cos t, sin t, ..., cos (n/2) t)
(Fassler and Stiefel; ``_banded``).  Such an operator is one band block,
built from the row in O(n b) straight into LAPACK's band storage, with no
n x n array and no fold.  Where n is even and every mode carried is odd,
a weight the half turn t -> t + pi negates, as the benchmark's
cos(t - phi) (b = 1), the band with the even modes first is
[[0, B], [B^T, 0]], and the block is B alone, of order n/2, whose
singular values give the spectrum (``HalfTurnBand``).  Its
invariants come from the row, and the band is taken only where every
kappa_m is positive and the modes dropped below the truncation move no
eigenvalue past the solve's tolerance unit; otherwise the operator takes
the group of ``_symmetry_table``, as every other weight does.  The band is
taken whatever n is, so a weight of few modes that one rotation step
keeps within the tolerance takes it too.

Circles whose weights are each constant and all >= 0 or all < 0, as the
one circle of circle-weyl and the two of two-surfaces, whatever their
symmetry, need no block of order n.  In each circle's real Fourier basis
its own block is diagonal, V w kappa_k.  Between two separated circles
the kernel has a closed-form double Fourier series, Graf's addition
theorem for K_0 at both centers (DLMF 10.44.ii; the screened
multipole-to-local translation of Greengard and Rokhlin, J. Comput. Phys.
73, 1987), whose coefficients decay geometrically: the cross blocks are
written in the Fourier bases from its modes |p|, |q| <= M, with M the
least order whose tail bound is within half the tolerance, and no n_i x
n_j block is evaluated, but one row and one column that check the table
(``_cross_modes``).  The modes of least coupling are dropped while the
Frobenius norm of the dropped coupling and the tails, which bounds how far
any eigenvalue moves (Weyl), stays within the tolerance unit times sqrt(F
/ n); the kept ones are one dense coupled block, every other mode a single
(``_coupled``).  One circle alone is all singles.  Circles that cross,
touch or nearly touch, where no tail bound closes, and a kernel with no
table take the group of ``_symmetry_table``, as every other support does.

The orbit rows are built in one blocked pass.  A block is a slice of
representatives [o0, o1) against the columns of the orbits from o0 on: its
distances come from a broadcast of two node slices, its kernel evaluations
and panel integrals run on cache-resident temporaries, and it is written
straight into the one row array, whose entries left of o0 are zeroed
where a transform will read them.  No pair-index array and no n^2
temporary exists.  The elementwise expressions are those of an all-pairs
evaluation, so for G = {e} the matrix agrees with one bit for bit.  Each
block of the operator is its upper triangle, diagonal included; the
scaling and the fold read that triangle only, and the eigensolve of
``spectra`` reads the upper one alone, in place.

The pass runs on every core in the process's CPU affinity: the calling
thread and up to ``_WORKERS - 1`` pool threads take the row blocks one at a
time, largest first.  NumPy releases the GIL inside its ufuncs, and each
block writes a disjoint slice of the output, so the result does not depend
on the worker count.  Each worker's block is ``_BLOCK_BYTES // _WORKERS``,
which keeps the bytes in flight at one serial block.  The first exception
raised in a block stops the blocks not yet started and reaches the caller
once every running block has ended; warnings raised in a block reach the
caller's filters as usual.  The scaling runs over row blocks the same way,
in the storage of the rows.

Sign-changing V is reduced to a symmetric indefinite matrix with identical
nonzero spectrum.  The one fold factors the effective-kernel matrix by
Cholesky, K = L L^T, read from K's upper triangle, and takes
L^T diag(V w) L,  which shares the nonzero spectrum of K diag(V w) (Golub
and Van Loan, Matrix Computations, 8.7); ``BlockOperator.signed_flag``
records that the weight is signed.  Both steps run in K's upper triangle
alone: LAPACK's ``dpotrf`` (ibid., 4.2), from the OpenBLAS NumPy has
loaded, leaves L^T there, and the product, one column of
``_FOLD_COLUMNS`` square tiles at a time, overwrites it, so the fold
allocates a few such tiles beside K, whatever n is.  The kernel is
positive definite and, with the windowed split of ``kernels``, so is K on
every resolved support.  A K that is not is an under-resolved mesh: the
fold raises ``InvalidArgumentError`` (exit 2) naming the largest node
spacing.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalError, InvalidArgumentError
from .geometry import (SingularMeasure, SurfaceMesh, _check_atom_count,
                       support_atoms)
from .kernels import KernelModel, self_cell_coefficient

TWO_PI = 2.0 * np.pi

# byte size of the row blocks in flight at once in the pass over the orbit
# rows, split evenly over the workers: the kernel and panel-integral
# temporaries of a block stay cache-resident
_BLOCK_BYTES = 1 << 19
# side of the square tiles of the Cholesky fold's product, and so of every
# temporary it allocates: wide enough for BLAS to run near its GEMM rate,
# narrow enough that the half of each diagonal tile computed and then
# dropped stays a small share of the work
_FOLD_COLUMNS = 256
# the most Fourier modes b a weight may carry on one free orbit of C_n for
# the operator to be solved as one band of half-width 2 b + 1 (``_banded``):
# in the table of BENCH_banded.json the band, solved by dsbevd, beat every
# weight's rotation group up to b = 5, at n = 1024 to 4096, and lost to the
# weights that C_8 keeps at b = 8.  The rotation groups are gone, and no
# measurement against the reflection groups or the trivial group that take
# those weights now has been made: the value is kept as it was
_BAND_MODES = 5
# the smallest normal double: an operator whose largest entry lies below it
# has lost digits in every entry (``_underflow``)
_TINY = float(np.finfo(float).tiny)
# threads that run the row blocks: the cores this process may run on
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _tolerance_unit(n: int) -> float:
    """64 n eps, the relative tolerance unit of an operator of order n,
    defined once: the eigensolve checks its invariants in it (clean solves
    measured below 0.25 of it), a plane isometry counts as a symmetry
    within it (``_matcher``), a weight's Fourier modes below it of
    the largest are not carried (``_banded``), and what a structured
    block drops is bounded by it (``_truncation_bound``).  A
    support that misses a symmetry by s of it moves its eigenvalues off
    the reduced ones by about s of the spectral radius, inside the
    solve's check."""
    return 64.0 * n * np.finfo(float).eps


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFn:
    """Weight V on a support: constant, angular (cos of the curve parameter),
    or tabulated per node.  A constant or tabulated value that is not finite
    is refused, naming it."""

    kind: str
    value: float = 1.0
    table: np.ndarray | None = None

    def __post_init__(self):
        values = [self.value] if self.table is None else self.table
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise InvalidArgumentError(
                "weight values must be finite, got %r" % float(values[bad[0]]))

    @staticmethod
    def constant(c: float) -> "WeightFn":
        return WeightFn(kind="constant", value=float(c))

    @staticmethod
    def angular() -> "WeightFn":
        return WeightFn(kind="angular")

    @staticmethod
    def tabulated(values) -> "WeightFn":
        return WeightFn(kind="tabulated",
                        table=np.asarray(values, dtype=float))

    def values_on(self, obj) -> np.ndarray:
        points, _ = support_atoms(obj)
        n = len(points)
        if self.kind == "constant":
            return np.full(n, self.value)
        if self.kind == "angular":
            if not isinstance(obj, SurfaceMesh):
                raise InvalidArgumentError(
                    "angular weights need a curve parameter")
            return np.cos(obj.param_values)
        if self.kind == "tabulated":
            if self.table is None or len(self.table) != n:
                raise InvalidArgumentError(
                    "tabulated weight does not match the support")
            return self.table
        raise InvalidArgumentError("unknown weight kind %r" % (self.kind,))

    def positive_part(self, obj) -> np.ndarray:
        return np.clip(self.values_on(obj), 0.0, None)

    def negative_part(self, obj) -> np.ndarray:
        return np.clip(-self.values_on(obj), 0.0, None)


# ---------------------------------------------------------------------------
# operator matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorMatrix:
    """One real symmetric block of a ``BlockOperator``, solved by LAPACK's
    ``dsyevd``.

    The matrix is the upper triangle of ``entries``, diagonal included; the
    strict lower triangle is scratch and is never read, so an asymmetric
    array stands for the symmetric matrix of its upper triangle.  A
    C-contiguous writeable float64 array is kept as a read-only view of the
    caller's own memory, and any other is copied.  ``spectra.eigensolve``
    consumes the block: it overwrites that storage, and a second solve is
    refused.
    """

    entries: np.ndarray
    _consumed: bool = field(default=False, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.entries, dtype=float))
        if not m.flags.writeable:
            # the eigensolve writes into the storage
            m = m.copy()
        # a view: freezing it leaves the caller's array writeable, and no
        # n x n copy is made
        m = m.view()
        problem = self._shape_problem(m)
        if problem:
            raise InvalidArgumentError(problem)
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @staticmethod
    def _shape_problem(m: np.ndarray) -> str | None:
        """What is wrong with the shape of ``entries``, or None."""
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            return "entries must be square"
        return None

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def consume(self) -> np.ndarray:
        """The storage, handed once to the solve that overwrites it; a
        second call raises ``InvalidArgumentError``."""
        if self._consumed:
            raise InvalidArgumentError(
                "operator matrix already eigensolved: the solve overwrote its "
                "storage; assemble the operator again")
        object.__setattr__(self, "_consumed", True)
        return self.entries


class BandMatrix(OperatorMatrix):
    """A band block of a ``BlockOperator``, of order n and half-width kd,
    kept as ``OperatorMatrix`` keeps a block but in LAPACK's lower band
    storage, and solved by ``dsbevd``: an (n, kd + 1) array whose entry
    [j, d] is the matrix entry (j, j + d); the entries past the last row of
    a diagonal are scratch.  It is the band of a weight that carries an
    even Fourier mode, or of an odd n; a weight the half turn negates
    takes ``HalfTurnBand``."""

    @staticmethod
    def _shape_problem(m: np.ndarray) -> str | None:
        if m.ndim != 2 or m.shape[0] < m.shape[1]:
            return "entries must be a band of at most n diagonals"
        return None


class HalfTurnBand(OperatorMatrix):
    """The symmetric block [[0, B], [B^T, 0]] of order n = 2 h, kept as
    the square band B of order h alone, whose kl = ku = k diagonals on
    each side of the main one are in LAPACK's general band storage: an
    (h, 2 k + 1) array whose entry [j, d] is B(j + d - k, j); the entries
    outside B are scratch.  Its eigenvalues are +-sigma(B) (Golub and
    Kahan 1965), which ``spectra.eigensolve`` reads off the bidiagonal
    form of B (``dgbbrd``) by dqds (``dbdsqr``).  It is the band of a
    weight whose every Fourier mode is odd on an equispaced circle of even
    n, which the half turn t -> t + pi negates (``_banded``)."""

    @staticmethod
    def _shape_problem(m: np.ndarray) -> str | None:
        if m.ndim != 2 or m.shape[1] % 2 == 0:
            return "entries must be a general band of 2 k + 1 diagonals"
        return None

    @property
    def n(self) -> int:
        return 2 * self.entries.shape[0]


def _upper(k: int) -> np.ndarray:
    """Mask of the upper triangle of a k x k square, diagonal included."""
    return ~np.tri(k, k=-1, dtype=bool)


def _pairwise_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances |a_i - b_j| between two sets of plane points."""
    dx = a[:, 0, None] - b[None, :, 0]
    dy = a[:, 1, None] - b[None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _cholesky_fold(kernel_matrix: np.ndarray, v_vals: np.ndarray,
                   weights: np.ndarray) -> np.ndarray:
    """Upper triangle of L^T diag(V w) L for the Cholesky factor K = L L^T
    of the C-contiguous kernel matrix, computed in K's upper triangle
    alone, diagonal included: ``dpotrf`` with uplo 'L' reads K there (it is
    LAPACK's lower triangle of the C storage) and leaves U = L^T there,
    and the product overwrites U.  The strict lower triangle is neither
    read nor written.  Every temporary is a ``_FOLD_COLUMNS`` square tile,
    a few at a time, whatever n is.  A K that is not positive definite
    raises ``InvalidArgumentError`` naming the node spacing (the largest
    weight); another failure of ``dpotrf`` raises ``InternalError``.
    Without the routine, NumPy's Cholesky factors a copy of K.

    The product is computed one column tile c at a time, in ascending
    order: L is lower triangular, so the tile (r, c) with r <= c sums
    L[k, r]^T (diag(V w) L)[k, c] = U[r, k] diag(V w) U[c, k]^T over the
    row tiles k >= c alone (indices here are tiles).  That is n^3 / 3
    flops where the full product takes 2 n^3.  The term k = c comes first,
    so the tile (r, c) overwrites U[r, c] before any other term is added;
    no later term or column reads it.  The loop over k is the outer one,
    so each U[c, k]^T is scaled once and then read by every tile (r, c)
    above the diagonal, which accumulates in place.  U's diagonal tile
    (c, c) is read by every tile of its column: it is copied first, its
    lower half zeroed, and the result's diagonal tile is summed apart and
    written last.
    """
    # spectra imports this module, so its LAPACK call is imported here
    from .spectra import _lapack_call, _lapack_failed
    n = len(v_vals)
    info = _lapack_call("dpotrf", (b"L", n, kernel_matrix, max(1, n)))
    if info is None:
        try:
            factor = np.linalg.cholesky(kernel_matrix.T)
        except np.linalg.LinAlgError:
            raise _not_positive_definite(weights) from None
        np.copyto(kernel_matrix, factor.T, where=_upper(n))
    elif info > 0:
        raise _not_positive_definite(weights)
    elif info < 0:
        raise _lapack_failed("Cholesky factorisation", "dpotrf", info)
    vw = v_vals * weights
    upper = _upper(min(n, _FOLD_COLUMNS))
    tiles = [(t0, min(t0 + _FOLD_COLUMNS, n))
             for t0 in range(0, n, _FOLD_COLUMNS)]
    for c, (c0, c1) in enumerate(tiles):
        # the row tile k = c starts every sum, on the copy of L's diagonal tile
        head = np.triu(kernel_matrix[c0:c1, c0:c1]).T
        scaled = vw[c0:c1, None] * head
        diagonal = head.T @ scaled
        for r0, r1 in tiles[:c]:
            kernel_matrix[r0:r1, c0:c1] = kernel_matrix[r0:r1, c0:c1] @ scaled
        for k0, k1 in tiles[c + 1:]:
            below = kernel_matrix[c0:c1, k0:k1].T
            scaled = vw[k0:k1, None] * below
            diagonal += below.T @ scaled
            for r0, r1 in tiles[:c]:
                kernel_matrix[r0:r1, c0:c1] += (
                    kernel_matrix[r0:r1, k0:k1] @ scaled)
        np.copyto(kernel_matrix[c0:c1, c0:c1], diagonal,
                  where=upper[:c1 - c0, :c1 - c0])
    return kernel_matrix


def _underflow() -> InvalidArgumentError:
    """The refusal of an operator whose entries underflow: its largest
    |entry| is subnormal, or a nonzero weight's V w all flushed to 0."""
    return InvalidArgumentError(
        "operator entries underflow: the largest |entry| is subnormal "
        "(below %.3g); scale the weight up" % _TINY)


def _not_positive_definite(weights: np.ndarray) -> InvalidArgumentError:
    """The fold's refusal of a kernel matrix that is not positive
    definite, naming the node spacing (the largest quadrature weight)."""
    return InvalidArgumentError(
        "under-resolved mesh: the kernel matrix of this sign-changing "
        "weight is not positive definite at node spacing %.4g; refine "
        "the mesh" % float(weights.max()))


def _finalize(kernel_matrix: np.ndarray, v_vals: np.ndarray,
              weights: np.ndarray) -> OperatorMatrix:
    """The operator matrix for kernel matrix K, weight V and quadrature
    weights w: diag(s) K diag(s) with s = sqrt(V w) for V >= 0, the one
    fold of the module docstring otherwise.  K is read from its upper
    triangle and overwritten, and the operator is that triangle: below it
    lies whatever K's storage held."""
    if np.any(v_vals < 0.0):
        upper = _cholesky_fold(kernel_matrix, v_vals, weights)
    else:
        upper = _scaled(kernel_matrix, v_vals, weights)
    return OperatorMatrix(entries=upper)


def _scaled(kernel_matrix: np.ndarray, v_vals: np.ndarray,
            weights: np.ndarray) -> np.ndarray:
    """Upper triangle of diag(s) K diag(s) with s = sqrt(|V| w), scaled
    one row block at a time, (K_ij s_i) s_j, in K's storage."""
    s = np.sqrt(np.abs(v_vals) * weights)

    def fill(i0, i1):
        strip = kernel_matrix[i0:i1, i1:]
        strip *= s[i0:i1, None]
        strip *= s[None, i1:]
        square = kernel_matrix[i0:i1, i0:i1]
        upper = _upper(i1 - i0)
        np.multiply(square, s[i0:i1, None], out=square, where=upper)
        np.multiply(square, s[None, i0:i1], out=square, where=upper)

    _each_block(len(s), len(s), fill)
    return kernel_matrix


# ---------------------------------------------------------------------------
# effective kernels on curves
# ---------------------------------------------------------------------------

def _kress_weight_vector(n: int) -> np.ndarray:
    """Circulant quadrature weights for the log(4 sin^2((t-s)/2)) kernel.

    For n = 2m equispaced nodes, weight of node j at collocation point i
    depends only on d = (i - j) mod n:
        R_d = -(2 pi / m) sum_{k=1}^{m-1} cos(k t_d)/k - (pi/m^2) cos(m t_d).
    Exact for trigonometric polynomials of degree below m.  The series is
    one inverse real DFT: with a = (0, 1, 1/2, ..., 1/(m-1), 1/m), whose
    last entry is the Nyquist term (-1)^d, R = -2 pi irfft(a), in
    O(n log n) and O(n) memory.  R_d = R_{n-d} is made exact, so every
    matrix built on it is exactly invariant under the index reflections.
    """
    m = n // 2
    series = np.zeros(m + 1)
    series[1:] = 1.0 / np.arange(1, m + 1)
    weights = -TWO_PI * np.fft.irfft(series, n)
    weights[1:] = 0.5 * (weights[1:] + weights[:0:-1])
    return weights


def _each_block(n_rows: int, width: int, fill, narrowing: int = 0) -> None:
    """Call ``fill(i0, i1)`` on every row slice [i0, i1) of ``n_rows`` rows,
    each (rows, width - narrowing * i0) slice of doubles about
    ``_BLOCK_BYTES / _WORKERS``, on the calling thread and up to
    ``_WORKERS - 1`` pool threads.

    The slices are taken in order, so the widest blocks of an upper
    triangle go first.  ``fill`` must write disjoint output per slice.  A
    slice that raises stops the slices not yet taken; the error reaches the
    caller after every running slice has ended.
    """
    pending, i0 = [], 0
    while i0 < n_rows:
        rows = max(1, _BLOCK_BYTES // _WORKERS
                   // (8 * max(1, width - narrowing * i0)))
        pending.append((i0, min(n_rows, i0 + rows)))
        i0 += rows
    pending.reverse()

    def drain():
        # list.pop and list.clear are atomic: no lock is needed
        while True:
            try:
                i0, i1 = pending.pop()
            except IndexError:
                return
            try:
                fill(i0, i1)
            except BaseException:
                pending.clear()
                raise

    helpers = min(_WORKERS, len(pending)) - 1
    with ThreadPoolExecutor(max_workers=max(1, helpers)) as pool:
        futures = [pool.submit(drain) for _ in range(helpers)]
        drain()
        for future in futures:
            future.result()


def _self_pairs(rows: np.ndarray, cols: np.ndarray):
    """The positions (i, j) of the self pairs, rows[i] == cols[j], in a
    block of the ascending indices ``rows`` against the indices ``cols``:
    one per row against a range of columns, and one more for each symmetry
    that fixes the row's atom against the columns of orbit images."""
    j = np.flatnonzero(np.isin(cols, rows))
    return np.searchsorted(rows, cols[j]), j


def _smooth_curve_rows(mesh: SurfaceMesh, kernel: KernelModel):
    """The effective-kernel rows of a smooth closed mesh: the Kress weights
    integrate the log(4 sin^2((t-s)/2)) part, the trapezoid rule the rest,
    and the self pairs take the diagonal closure."""
    n = mesh.n_nodes
    nodes, t = mesh.nodes, mesh.param_values
    rw = _kress_weight_vector(n)
    speed = mesh.weights / (TWO_PI / n)
    closure = (0.5 * kernel.log_coefficient * rw[0]
               + (TWO_PI / n) * (kernel.remainder_at_zero
                                 + kernel.log_coefficient * np.log(speed))
               ) * (n / TWO_PI)

    def block(rows, cols):
        pairs = _self_pairs(rows, cols)
        r = _pairwise_dist(nodes[rows], nodes[cols])
        # placeholders on the self pairs, whose entries the closure replaces
        r[pairs] = 1.0
        log_factor, smooth = kernel.split(r)
        # taken after the split, whose temporaries it would join otherwise
        half_sin = np.abs(np.sin((t[rows, None] - t[None, cols]) / 2.0))
        half_sin[pairs] = 1.0
        # the Kress weights integrate log_factor * log(4 sin^2((t-s)/2)) / 2;
        # the rest of log_factor * log(r) joins the smooth remainder
        smooth = smooth + log_factor * np.log(r / (2.0 * half_sin))
        del r, half_sin
        offsets = rows[:, None] - cols[None, :]
        out = (0.5 * log_factor * rw[offsets % n]
               + (TWO_PI / n) * smooth) * (n / TWO_PI)
        out[pairs] = closure[rows[pairs[0]]]
        return out

    return block


def _panel_ends(mesh: SurfaceMesh):
    """A polygon's panel ends, chained along its straight lines: per panel,
    its lower end (the next is its upper); per end, its frame and its s on
    the frame's axis; per frame, its origin and axis; per lower end, delta
    (its panel's own upper end less the shared one), 1 / (2 w) and delta /
    w - 1.  Panels are chained where their tangents are bit-equal and their
    own ends c -+ w t / 2 meet within a few ulps.  A line of two panels or
    more is two frames, from its first end and its last, so the ends by a
    corner keep the relative digits of the small corner panels."""
    c, t, w = mesh.nodes, mesh.tangents, mesh.weights
    lo, hi = c - 0.5 * w[:, None] * t, c + 0.5 * w[:, None] * t
    reach = 8.0 * np.finfo(float).eps * np.abs([lo, hi]).max()
    lines = np.flatnonzero(np.concatenate(([True], np.any(
        (t[1:] != t[:-1]) | (np.abs(hi[:-1] - lo[1:]) > reach), axis=1))))
    count = np.diff(np.append(lines, len(c)))
    starts = np.union1d(lines, lines[count > 1] + count[count > 1] // 2)
    origins = np.where(np.isin(starts, lines)[:, None], lo[starts], hi[
        (lines + count - 1)[np.searchsorted(lines, starts, "right") - 1]])
    size = np.diff(np.append(starts, len(c)))
    frame = np.repeat(np.arange(len(starts)), size)
    first = np.arange(len(c)) + frame
    o = origins[frame]
    along = (c[:, 0] - o[:, 0]) * t[:, 0] + (c[:, 1] - o[:, 1]) * t[:, 1]
    s = np.empty(len(c) + len(starts))
    s[first] = along - 0.5 * w
    s[starts + np.arange(len(starts)) + size] = (along + 0.5 * w)[
        starts + size - 1]
    closing = np.zeros((3, len(s)))
    delta = along + 0.5 * w - s[first + 1]
    closing[:, first] = delta, 0.5 / w, delta / w - 1.0
    return (first, s, np.repeat(np.arange(len(starts)), size + 1), origins,
            t[starts], closing)


def _at_ends(points: np.ndarray, at: np.ndarray, ends):
    """v log q, 2 b (atan(v / b) - atan(v0 / b)) and log q, q = v^2 + b^2,
    per point and end of ``at``: v is the end's s less the point's along
    its frame's axis, v0 the origin's, b the distance from the axis (0
    within 1e-14).  The angle is atan2(b s, b^2 + v v0): digits kept where
    it is small, by a corner."""
    _, s, frame, origins, axes, _ = ends
    f = frame[at]
    new = np.concatenate(([True], f[1:] != f[:-1]))
    dx = points[:, 0, None] - origins[f[new], 0]
    dy = points[:, 1, None] - origins[f[new], 1]
    ax, ay = axes[f[new]].T
    along = dx * ax + dy * ay
    perp = np.abs(dy * ax - dx * ay)
    perp[perp <= 1e-14] = 0.0
    col = np.cumsum(new) - 1
    s = s[at]
    along = along.take(col, axis=1)
    v = s - along
    b = perp.take(col, axis=1)
    dot = b * b
    log_q = v * v
    log_q += dot
    np.log(np.maximum(log_q, _TINY, out=log_q), out=log_q)
    along *= v
    dot -= along
    angle = np.arctan2(np.multiply(b, s, out=along), dot, out=along)
    angle *= b
    angle *= 2.0
    v *= log_q
    return v, angle, log_q


def _panel_means(points: np.ndarray, panels: np.ndarray,
                 ends) -> np.ndarray:
    """The mean of log|x - y| over panel ``panels[j]``, x = ``points[i]``,
    from the antiderivative v log q - 2 v + 2 b atan(v / b) taken once per
    point and distinct end (``_at_ends``), its terms differenced apart and
    each panel closed for its own upper end and the -2 v term."""
    first, s, _, _, _, closing = ends
    lo = first[panels]
    need = np.zeros(len(s), dtype=bool)
    need[lo] = need[lo + 1] = True
    at = np.flatnonzero(need)
    vlog, angle, log_q = _at_ends(points, at, ends)
    delta, scale, shift = closing[:, at[:-1]]
    out = vlog[:, 1:] - vlog[:, :-1]
    out += np.subtract(angle[:, 1:], angle[:, :-1], out=angle[:, :-1])
    out += np.multiply(log_q[:, 1:], delta, out=log_q[:, 1:])
    out *= scale
    out += shift
    # a panel's two ends are consecutive in ``at``
    return out.take((np.cumsum(need) - 1)[lo], axis=1)


def _polygon_rows(mesh: SurfaceMesh, kernel: KernelModel):
    """The effective-kernel rows of a polygon: panel collocation
    symmetrized, (K + K^T) / 2, each entry combining its row node
    collocated on the column panel with the column node collocated on the
    row panel, their log integrals exact over the flat panels, from the
    shared panel ends of ``_panel_ends``; the self panel's too."""
    w, nodes = mesh.weights, mesh.nodes
    intlog_self = w * (np.log(w / 2.0) - 1.0)
    closure = (kernel.log_coefficient * intlog_self
               + kernel.remainder_at_zero * w) / w
    ends = _panel_ends(mesh)

    def block(rows, cols):
        log_factor, smooth = kernel.split(
            _pairwise_dist(nodes[rows], nodes[cols]))
        out = _panel_means(nodes[rows], cols, ends)
        out += _panel_means(nodes[cols], rows, ends).T
        out *= 0.5
        out *= log_factor
        out += smooth
        pairs = _self_pairs(rows, cols)
        out[pairs] = closure[rows[pairs[0]]]
        return out

    return block


def _point_rows(points: np.ndarray, kernel: KernelModel, cell_kind: str,
                cell_size):
    """The effective-kernel rows of an atomized measure: pointwise kernel
    values, the self pairs closed by the cell average.  Where the atoms
    lie on few distinct coordinates, as a cell grid's do, the values come
    from the table of ``_offset_table``, taken once; otherwise each block
    evaluates the kernel on its own pairs."""
    if kernel.log_coefficient != 0.0:
        closure = self_cell_coefficient(cell_kind, float(cell_size))
    else:
        closure = kernel.remainder_at_zero
    lookup = _offset_table(points, kernel)

    def block(rows, cols):
        pairs = _self_pairs(rows, cols)
        if lookup is not None:
            out = lookup(rows, cols)
        else:
            r = _pairwise_dist(points[rows], points[cols])
            # a placeholder distance on the self pairs, closed below
            r[pairs] = 1.0
            out = kernel.profile(r)
        out[pairs] = closure
        return out

    return block


def _offset_table(points: np.ndarray, kernel: KernelModel):
    """The kernel between the distinct atoms ``points`` as a lookup
    ``(rows, cols) -> values``, or None where it would not pay.

    Per axis, the atoms' distinct coordinates, the table of |differences|
    between them, and that table's distinct values and codes; the kernel is
    evaluated once on sqrt(dx^2 + dy^2) over the product of the distinct
    |dx| and |dy|, and a block gathers its entries through its atoms'
    codes.  (-d)^2 = d^2 exactly, and the sum and the root run in the order
    of ``_pairwise_dist``, so each entry is bit for bit the value of the
    pair's own distance.  The offset (0, 0) is a self pair's alone, the
    atoms being distinct, and takes the placeholder distance.  Taken only
    where the two difference tables and the kernel table hold fewer entries
    than the n (n - 1) / 2 upper pairs, as counted before any kernel call."""
    pairs = len(points) * (len(points) - 1) // 2
    (ux, ax), (uy, ay) = axes = [
        np.unique(points[:, k], return_inverse=True) for k in (0, 1)]
    size = len(ux) ** 2 + len(uy) ** 2
    if size >= pairs:
        return None
    (dx, cx), (dy, cy) = (
        np.unique(np.abs(values[:, None] - values[None, :]),
                  return_inverse=True) for values, _ in axes)
    if size + len(dx) * len(dy) >= pairs:
        return None
    r = (dx * dx)[:, None] + (dy * dy)[None, :]
    np.sqrt(r, out=r)
    # the placeholder distance of the self pairs, closed by the caller
    r[0, 0] = 1.0
    table = kernel.profile(r).ravel()
    # per pair of distinct coordinates, its offset's place in the table
    x_codes = cx.reshape(len(ux), len(ux)) * len(dy)
    y_codes = cy.reshape(len(uy), len(uy))

    def lookup(rows, cols):
        index = x_codes[ax[rows]].take(ax[cols], axis=1)
        index += y_codes[ay[rows]].take(ay[cols], axis=1)
        return table.take(index)

    return lookup


def _support_rows(support, kernel: KernelModel):
    """The effective-kernel rows of one support, as a function of (rows,
    cols): the entries of the rows ``rows`` (an ascending index array)
    against the columns ``cols`` (any index array, repeats allowed), the
    self pairs closed.  Smooth closed meshes (even, at least 8 nodes, as
    ``SurfaceMesh`` enforces) get the spectrally accurate periodic log
    quadrature; polygons, of any size, panel collocation with exact
    flat-panel log integrals; measures the pointwise kernel closed by the
    cell average of ``_cell_shape``."""
    if isinstance(support, SingularMeasure):
        return _point_rows(support.atoms, kernel, _cell_shape(support),
                           support.cell_size)
    if support.kind == "smooth-closed":
        return _smooth_curve_rows(support, kernel)
    return _polygon_rows(support, kernel)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def assemble_curve_operator(mesh: SurfaceMesh, V: WeightFn,
                            kernel: KernelModel) -> BlockOperator:
    """The weighted kernel operator on a curve, on the quadrature that
    ``_support_rows`` picks for the mesh (``assemble_mixed``)."""
    return assemble_mixed([(mesh, V)], kernel)


def assemble_measure_operator(measure: SingularMeasure, V: WeightFn,
                              kernel: KernelModel) -> BlockOperator:
    """The weighted kernel operator on an atomized measure; the diagonal is
    closed by the cell-averaged self coefficient of the cell each atom
    stands for (``_cell_shape``; ``assemble_mixed``)."""
    return assemble_mixed([(measure, V)], kernel)


def make_cell_grid(center, radius: float, delta: float,
                   exclude_meshes=()) -> SingularMeasure:
    """Uniform square cells of side ``delta`` covering the disk of
    ``radius`` about ``center`` as an area measure: one atom of mass
    delta^2 at each kept cell center.  The cells tile the disk's bounding
    square from its lower corner; a cell is kept when its center lies in
    the disk and more than one cell diagonal away from every node of the
    excluded curves.  A bounding grid above ``DEFAULT_ATOM_CAP`` cells
    raises ``ResourceLimitError`` unbuilt; a grid with no cell left is
    refused."""
    if not 0.0 < delta < np.inf:
        raise InvalidArgumentError(
            "cell size must be positive and finite, got %r" % (delta,))
    if not 0.0 < radius < np.inf:
        raise InvalidArgumentError(
            "disk radius must be positive and finite, got %r" % (radius,))
    center = np.asarray(center, dtype=float)
    lo = center - radius
    hi = center + radius
    if not np.isfinite([lo, hi]).all():
        raise InvalidArgumentError(
            "domain bounds must be finite, got center %r and radius %r"
            % (tuple(center.tolist()), radius))
    # counted in floats: a subnormal delta makes them infinite
    with np.errstate(over="ignore"):
        nx, ny = np.ceil((hi - lo) / delta)
    _check_atom_count(nx * ny, "cell grid of %.0f x %.0f cells exceeds the "
                      "atom cap" % (nx, ny))
    gx = lo[0] + delta * (np.arange(int(nx)) + 0.5)
    gy = lo[1] + delta * (np.arange(int(ny)) + 0.5)
    xx, yy = np.meshgrid(gx, gy, indexing="ij")
    centers = np.stack([xx.ravel(), yy.ravel()], axis=1)
    centers = centers[np.linalg.norm(centers - center[None, :], axis=1)
                      <= radius]
    for mesh in exclude_meshes:
        centers = centers[_nearest_dist(centers, mesh.nodes)
                          > delta * np.sqrt(2.0)]
    if not len(centers):
        raise InvalidArgumentError(
            "no cell of size %r is left in the disk of radius %r"
            % (delta, radius))
    return SingularMeasure(atoms=centers,
                           masses=np.full(len(centers), delta ** 2),
                           cell_size=delta, alpha_nominal=2.0)


def _nearest_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point of ``a`` to the nearest point of ``b``,
    over row blocks of ``a``: no (len(a), len(b)) temporary exists."""
    out = np.empty(len(a))

    def fill(i0, i1):
        out[i0:i1] = _pairwise_dist(a[i0:i1], b).min(axis=1)

    _each_block(len(a), len(b), fill)
    return out


def _cell_shape(measure: SingularMeasure) -> str:
    """The cell each atom of a measure stands for: a square on an area
    measure (cell grids, uniform square grids), a segment otherwise."""
    return "square" if measure.alpha_nominal == 2 else "segment"


def _check_separation(supports) -> None:
    """Refuse a measure with an atom within one cell diagonal of a curve
    node: the near-singular cross entries there are unresolved."""
    meshes = [s for s, _ in supports if isinstance(s, SurfaceMesh)]
    measures = [s for s, _ in supports if isinstance(s, SingularMeasure)]
    for measure in measures:
        for mesh in meshes:
            d = _nearest_dist(measure.atoms, mesh.nodes).min(initial=np.inf)
            if d <= measure.cell_size * np.sqrt(2.0):
                raise InvalidArgumentError(
                    "measure atoms violate the one-cell-diagonal separation "
                    "from curve nodes")


def _check_shared_atoms(points: np.ndarray, offsets: np.ndarray) -> None:
    """Refuse two supports that share an atom, naming it: the kernel
    between them is infinite there (K_0(0)), so their cross block has no
    value.  The atoms are sorted by their coordinates once, and a shared
    one is two equal neighbours of two supports."""
    owner = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    order = np.lexsort((points[:, 1], points[:, 0]))
    atoms, owner = points[order], owner[order]
    shared = np.flatnonzero(np.all(atoms[1:] == atoms[:-1], axis=1)
                            & (owner[1:] != owner[:-1]))
    if shared.size:
        i = shared[0]
        first, second = sorted(owner[i:i + 2] + 1)
        raise InvalidArgumentError(
            "two supports share an atom: supports %d and %d at (%.6g, %.6g), "
            "where the kernel between them is infinite; move one off the "
            "other" % (first, second, *atoms[i]))


def _layout(supports):
    """The supports laid end to end: (atoms, quadrature weights, weight
    values, offsets), support k spanning [offsets[k], offsets[k + 1]).  A
    weight that does not fit its support raises here."""
    if not supports:
        raise InvalidArgumentError("nothing to assemble")
    points, weights = zip(*(support_atoms(s) for s, _ in supports))
    values = np.concatenate([vfn.values_on(s) for s, vfn in supports])
    offsets = np.concatenate([[0], np.cumsum([len(p) for p in points])])
    return (np.concatenate(points), np.concatenate(weights), values,
            offsets.astype(int))


# ---------------------------------------------------------------------------
# symmetry reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockOperator:
    """The operator in a symmetry-adapted basis, as ``assemble_mixed``
    builds it.  Its eigenvalues are those of ``blocks`` together with
    ``singles``, the eigenvalues of the 1 x 1 blocks.  Each of ``blocks``
    is one of three kinds, and its kind picks its solve in
    ``spectra.eigensolve``:

    * ``OperatorMatrix``, a real symmetric block of order 2 or more by its
      upper triangle: one per character of the reflection group, scaled
      or, for a signed weight, folded (``_finalize``), the one of order n
      for the trivial group, or the coupled block of the low Fourier modes
      of circles, each a free orbit of its own C_n_i (``_coupled``);
    * ``BandMatrix``, in LAPACK's lower band storage, for a weight that
      carries few Fourier modes on one free orbit of C_n (``_banded``);
    * ``HalfTurnBand``, the half-order band B of such a weight whose every
      mode is odd at even n, which the half turn negates: the block is
      [[0, B], [B^T, 0]] (``_banded``).

    ``invariants`` are the trace and the squared Frobenius norm of the
    whole operator in units of 2^e and 2^2e, and e, the binary exponent of
    its largest |entry|, as ``spectra`` checks them; ``n`` is its order,
    and ``signed_flag`` that its weight takes a negative value.
    ``weyl_bound`` is the most the band's or the coupled block's dropped
    modes move any eigenvalue, by Weyl's inequality: the Frobenius norm of
    the coupling dropped, or its bound; 0 where nothing is dropped.
    ``spectra.eigensolve`` consumes the blocks."""

    blocks: tuple
    singles: np.ndarray
    invariants: tuple[float, float, int]
    n: int
    signed_flag: bool
    weyl_bound: float = 0.0


# a generic direction: the atoms are matched to the images of a map by
# their projections on it, sorted once
_KEY = np.array([np.cos(1.0), np.sin(1.0)])
# the reflections tried: across the lines through the centroid at these
# angles to the x axis, the perpendicular pairs of which make Z2 x Z2
_AXES = (0.0, 0.5 * np.pi, 0.25 * np.pi, 0.75 * np.pi)


def _rotation(angle) -> np.ndarray:
    """Rotation matrices by ``angle`` (any shape), shape (..., 2, 2)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def _reflection(angle: float) -> np.ndarray:
    """The reflection across the line through 0 at ``angle``."""
    c, s = np.cos(2.0 * angle), np.sin(2.0 * angle)
    return np.array([[c, s], [s, -c]])


def _powers(perm: np.ndarray, count: int, start: np.ndarray) -> np.ndarray:
    """perm^a(start) for a in [0, count), shape (count, len(start)), by
    doubling: log2(count) gathers."""
    out = np.empty((count, len(start)), dtype=np.intp)
    out[0] = start
    done, step = 1, perm
    while done < count:
        take = min(done, count - done)
        out[done:done + take] = step[out[:take]]
        done += take
        step = step[step]
    return out


def _matcher(supports, points, weights, offsets):
    """The frame in which maps of the plane are matched to the atoms laid
    out over ``supports``: ``match``, and the arguments of
    ``_orbit_table`` after the generators, (rel, weights, reach, unit).

    The maps act about the centroid of the atoms, and rel are the atoms'
    offsets from it.  ``match(isometry)`` is the permutation of the atoms
    that the map induces, or None where it does not keep the supports: it
    must map every support onto itself, each atom within ``reach``,
    ``unit`` = ``_tolerance_unit(n)`` of the largest |coordinate| of an
    atom, with its quadrature weight within that unit of itself; on a
    smooth closed mesh it must also shift or reverse the node indices and
    the parameters with them (the Kress weights read index offsets), and
    on a polygon carry each panel's tangent to one of the image panel's
    (``_keeps_mesh``).  The identity is no match.  The atoms are matched
    to the images by their projections on one generic direction, sorted
    once."""
    n = len(points)
    unit = _tolerance_unit(n)
    rel = points - points.mean(axis=0)
    reach = unit * np.max(np.abs(points))
    owner = np.repeat(np.arange(len(supports)), np.diff(offsets))
    key = rel @ _KEY
    order = np.argsort(key)
    sorted_key = key[order]
    everyone = np.arange(n)

    def match(isometry):
        image = rel @ isometry.T
        j = np.clip(np.searchsorted(sorted_key, image @ _KEY), 1, n - 1)
        near = order[np.stack([j - 1, j])]
        gap = np.linalg.norm(rel[near] - image, axis=2)
        pick = np.argmin(gap, axis=0)
        perm = near[pick, everyone]
        if (gap[pick, everyone].max() > reach
                or np.array_equal(perm, everyone)
                or np.any(np.bincount(perm, minlength=n) != 1)
                or np.any(owner[perm] != owner)
                or np.any(np.abs(weights[perm] - weights) > unit * weights)):
            return None
        for k, (support, _) in enumerate(supports):
            if isinstance(support, SurfaceMesh) and not _keeps_mesh(
                    support, perm[offsets[k]:offsets[k + 1]] - offsets[k],
                    isometry, unit):
                return None
        return perm

    return match, (rel, weights, reach, unit)


def _symmetry_table(supports, points, weights, values, offsets):
    """The group that reduces an operator: the orbits of the largest group
    of reflections that keeps the atoms, their quadrature weights, the mesh
    and the weight, as an (N1, N2, r) table.  Entry [a, b, o] is the atom
    that g1^a g2^b maps orbit o's representative to, the representatives
    (the least index of each orbit) in row [0, 0].  Where no such group is
    found, the group is the trivial one, {e}, whose table is every atom in
    row [0, 0]: the operator is one block of order n.

    The maps tried are the reflections across the lines through the
    centroid of the atoms parallel to the axes and to the diagonals
    (``_AXES``).  The group is two perpendicular reflections (Z2 x Z2),
    (2, 2, r), or one reflection (Z2), (1, 2, r): the larger order wins.
    Every axis is 1 or 2 long, so every character is +-1 and every block
    real.  A reflection keeps the supports where ``_matcher``'s ``match``
    finds it, and the weight (``keeps``) where it also takes each weight
    value within ``_tolerance_unit(n)`` of the largest |value| to itself.
    The whole group is then checked the same way (``_orbit_table``):
    every atom of an orbit must lie at the exact isometry's image of its
    representative.  Any support kind and any weight is reduced when this
    holds.
    """
    n = len(points)
    trivial = np.arange(n)[None, None]
    if n < 2:
        return trivial
    match, args = _matcher(supports, points, weights, offsets)
    v_reach = args[3] * np.max(np.abs(values))

    def keeps(perm):
        """``perm`` where it takes each weight value to itself, else
        None."""
        if perm is None or np.any(np.abs(values[perm] - values) > v_reach):
            return None
        return perm

    mirrors = [(keeps(match(_reflection(a))),
                np.stack([np.eye(2), _reflection(a)])) for a in _AXES]
    # the two perpendicular pairs first, then each reflection alone
    groups = [[first, second] for first, second in (mirrors[:2], mirrors[2:])
              if first[0] is not None and second[0] is not None
              and not np.array_equal(first[0], second[0])]
    groups += [[mirror] for mirror in mirrors if mirror[0] is not None]
    for generators in groups:
        table = _orbit_table(generators, *args)
        # the weight constant on each orbit
        if table is not None and not np.any(
                np.abs(values[table] - values[table[0, 0]]) > v_reach):
            return table
    return trivial


def _keeps_mesh(mesh: SurfaceMesh, local: np.ndarray, isometry: np.ndarray,
                unit: float) -> bool:
    """Whether the node permutation ``local`` that ``isometry`` induces on
    a mesh keeps its effective kernel: on a smooth closed mesh it shifts
    or reverses the indices, j -> j0 + s j mod n with s = +-1, and the
    parameters with them; on a polygon it carries each tangent to plus or
    minus the image panel's."""
    if mesh.kind == "polygon":
        turned = mesh.tangents @ isometry.T
        target = mesh.tangents[local]
        return bool(np.max(np.minimum(
            np.linalg.norm(turned - target, axis=1),
            np.linalg.norm(turned + target, axis=1))) <= unit)
    n = len(local)
    sign = {1: 1, n - 1: -1}.get(int(local[1] - local[0]) % n)
    if sign is None or np.any((local - local[0] - sign * np.arange(n)) % n):
        return False
    t = mesh.param_values
    shift = t[local] - sign * t
    shift = (shift - shift[0] + np.pi) % TWO_PI - np.pi
    return bool(np.max(np.abs(shift)) <= unit * TWO_PI)


def _orbit_table(generators, rel, weights, reach, unit):
    """The (N1, N2, r) orbit table of ``_symmetry_table`` for one or two
    commuting generators, each (permutation, the exact isometries of its
    powers), or None where the group they generate does not keep the atoms
    and their quadrature weights within the tolerances.  The weight is not
    read: ``_symmetry_table`` asks that apart."""
    n = len(rel)
    label = np.arange(n)
    for perm, maps in generators:
        # after k doublings each label is the least of 2^k cycle steps
        step = perm
        for _ in range(int(len(maps) - 1).bit_length()):
            label = np.minimum(label, label[step])
            step = step[step]
    table = np.unique(label)
    for perm, maps in reversed(generators):
        table = _powers(perm, len(maps) + 1, table.ravel()).reshape(
            (len(maps) + 1,) + table.shape)
        if not np.array_equal(table[-1], table[0]):
            return None
        table = table[:-1]
    if len(generators) == 1:
        table = table[None]
    maps = (generators[0][1][None] if len(generators) == 1 else
            np.einsum("aij,bjk->abik", generators[0][1], generators[1][1]))
    reps = table[0, 0]
    orbit_sizes = table.shape[0] * table.shape[1] // (table == reps).sum(
        axis=(0, 1))
    expected = np.einsum("abij,oj->aboi", maps, rel[reps])
    if (orbit_sizes.sum() != n
            or np.max(np.linalg.norm(rel[table] - expected, axis=-1)) > reach
            or np.any(np.abs(weights[table] - weights[reps])
                      > unit * weights[reps])):
        return None
    return table


def _orbit_rows(supports, kernel: KernelModel, points: np.ndarray,
                offsets: np.ndarray, table: np.ndarray, vw: np.ndarray):
    """The upper orbit triangle of the rows of the orbit representatives
    of the kernel matrix that ``assemble_mixed`` builds over ``supports``,
    gathered in group order: an (N1, N2, r, r) array R with R[a, b, o, p]
    = K[i_o, g_ab(i_p)] for p >= o, and the operator's invariants
    (``_row_invariants``).

    A symmetric, G-invariant K gives R[g, p, o] = R[g^-1, o, p], so the
    orbit pairs p < o are never evaluated (Allgower, Georg and Miranda):
    a block of rows [o0, o1) is evaluated against the columns table[:, :,
    o0:] alone, about n^2/(2|G|) entries in all, and its entries left of
    o0 are zeroed, so that the transform reads no uninitialised memory.
    The trivial group's transform is the identity and reads nothing: its
    entries left of o0 are left untouched, as scratch that no step reads,
    and no page of them is faulted in.
    Each support's rows take its effective kernel against the orbits of
    that support, and plain kernel values against the later supports'
    orbits only, so each cross block is computed once; the blocks run in
    the pass of ``_each_block``, and no full row array is kept.

    R lives in an array of n^2 doubles or more, of which it touches about
    n^2/|G|: for the trivial group, R is the n x n kernel matrix itself,
    its upper triangle evaluated, and the scaling or the fold runs in its
    storage."""
    reps = table[0, 0]
    r = len(reps)
    order = table.shape[0] * table.shape[1]
    stabilisers = (table == reps).sum(axis=(0, 1))
    # per representative, its orbit's atom count signed as V w
    norms = order / stabilisers * np.sign(vw[reps])
    # sqrt|V w| in units of its largest, so that no entry underflows before
    # its exponent is read: a subnormal weight gives a subnormal operator
    s = np.sqrt(np.abs(vw))
    shift = int(np.frexp(np.max(s))[1])
    s = np.ldexp(s, -shift)
    orbits = (s[reps], norms, s[table],
              np.sign(vw[table]) * (2.0 / stabilisers), shift)
    shape = table.shape[:2] + (r, r)
    out = np.empty(max(len(points) ** 2, int(np.prod(shape))))
    out = out[:int(np.prod(shape))].reshape(shape)
    sums = []
    bounds = np.searchsorted(reps, offsets)
    for k, (support, _) in enumerate(supports):
        block = _support_rows(support, kernel)
        lo, first, last = offsets[k], bounds[k], bounds[k + 1]

        def fill(i0, i1, block=block, lo=lo, first=first, last=last):
            o0, o1 = first + i0, first + i1
            rows = reps[o0:o1]
            if order > 1:
                out[:, :, o0:o1, :o0] = 0.0
            # the support's own orbits from o0 on, then the later supports'
            for p0, p1 in ((o0, last), (last, r)):
                if p0 == p1:
                    continue
                cols = table[:, :, p0:p1]
                if p0 == o0:
                    values = block(rows - lo, cols.ravel() - lo)
                else:
                    values = kernel.profile(
                        _pairwise_dist(points[rows], points[cols.ravel()]))
                values = values.reshape((o1 - o0,) + cols.shape)
                out[:, :, o0:o1, p0:p1] = np.moveaxis(values, 0, 2)
                sums.append(_row_invariants(values, o0, p0, orbits))

        # each row of orbits drops |G| columns of the blocks after it
        _each_block(last - first, order * (r - first), fill, order)
    return out, _summed_invariants(sums)


def _summed_invariants(sums) -> tuple[float, float, int]:
    """The invariants of an operator from the parts (trace, squared norm,
    e) of its blocks, each in its own units of 2^e and 2^2e, in the units of
    the largest e (0 where there is no part)."""
    exponent = max((e for _, _, e in sums), default=0)
    return (sum(np.ldexp(t, e - exponent) for t, _, e in sums),
            sum(np.ldexp(f, 2 * (e - exponent)) for _, f, e in sums),
            exponent)


def _row_invariants(values: np.ndarray, o0: int, p0: int,
                    orbits) -> tuple[float, float, int]:
    """The part of the trace and of the squared Frobenius norm of the
    operator that one block of ``_orbit_rows`` carries, in units of 2^e
    and 2^2e, and e, the exponent of its largest |entry|, as
    ``BlockOperator.invariants`` holds them.  ``values[i, a, b, j]`` =
    K[i_o, g_ab(i_p)] for the orbits o = o0 + i and p = p0 + j, and
    ``orbits`` are (s_o, weight_o, s_abp, weight_abp, shift): per
    representative and per atom of the orbit table, sqrt|V w| = s 2^shift;
    per representative, its row weight; per atom of the table, its column
    weight.

    They hold for the scaled operator and for the fold alike: the trace is
    sum_i vw_i K_ii and the squared norm sum_ij vw_i vw_j K_ij^2.  The sum
    over O_o x O_p is |O_o| times the row of i_o over O_p, each atom of
    which the group axes hold |stabiliser of p| times, and it is symmetric
    in o and p: an orbit pair counts twice where p > o, once where p = o,
    and not at all where p < o, in the leading square of a block.  Each
    row is summed with the column weights of p > o, sign(V w) 2 /
    |stabiliser of p|, and corrected on that square; the row weight is
    sign(V w) |O_o|, and the trace takes each orbit's self entry with it.
    They are taken before the transform, so the check covers the
    transform, the scaling and the fold as well as the solves.  The
    per-entry work is a handful of passes over the block, and none of it
    runs on BLAS, whose own threads would take the cores of the pool's
    other workers."""
    s_rows, w_rows, s_cols, w_cols, shift = orbits
    k, p1 = len(values), p0 + values.shape[-1]
    m = values * s_cols[:, :, p0:p1]
    m *= s_rows[o0:o0 + k, None, None, None]
    exponent = int(np.frexp(max(m.max(initial=0.0),
                                -m.min(initial=0.0)))[1])
    np.ldexp(m, -exponent, out=m)
    own = p0 == o0
    trace = float(w_rows[o0:o0 + k] @ np.diagonal(m[:, 0, 0, :k])
                  ) if own else 0.0
    m *= m
    weight = w_cols[:, :, p0:p1]
    rows = np.einsum("ik,k->i", m.reshape(k, -1), weight.ravel())
    if own:
        lead = np.einsum("iabj,abj->ij", m[..., :k], weight[..., :k])
        rows -= np.tril(lead, -1).sum(axis=1) + 0.5 * np.diagonal(lead)
    return trace, float(w_rows[o0:o0 + k] @ rows), exponent + 2 * shift


def assemble_mixed(supports, kernel: KernelModel) -> BlockOperator:
    """The operator over a list of (support, weight) pairs, each support a
    ``SurfaceMesh`` or a ``SingularMeasure``, reduced by its reflection
    group G (``_symmetry_table``) to one real block per character of G.
    Every input is asked first whether each support is one free orbit of
    its own C_n, an equispaced circle (``_circle_orbits``), and where it
    is, two cases take an exact Fourier path with no table built.  One
    support whose weight varies and carries few Fourier modes is one band
    (``_banded``).  Separated circles whose weights are each constant and
    all >= 0 or all < 0 are one coupled block of the circles' low Fourier
    modes and a single per other mode (``_coupled``): the modes dropped
    from the coupling, and those the kernel's table of the circles leaves
    out, move no eigenvalue by more than ``weyl_bound`` (Weyl's
    inequality), which is kept within the solve's tolerance unit times
    sqrt(F / n).  Circles the table cannot separate take the group.

    A curve's diagonal block takes the curve quadrature of
    ``_support_rows``; a measure's takes pointwise kernel values closed by
    its cell's self coefficient; every cross block is plain kernel values.
    A measure atom within one cell diagonal of a curve node is refused:
    such near-singular blocks are unresolved.  So is an atom that two
    supports share, where the kernel is infinite (``_check_shared_atoms``),
    and a weight that is not 0 but whose V w all flush to 0
    (``_underflow``): its operator is not the zero one.  Each refusal comes
    before any path is taken.

    Only the rows of one representative per orbit are assembled, and of
    those only the orbit pairs p >= o, about n^2/(2|G|) entries
    (``_orbit_rows``).  With R[g, o, p] = K[i_o, g(i_p)] those rows
    gathered in group order, the block of the character chi is
        B[o, p] = sqrt(|O_o| |O_p|) / |G| sum_g chi(g) R[g, o, p],
    chi(g) = +-1, the butterflies over the group axes
    (``_character_sums``), over the orbits whose stabiliser chi is trivial
    on.  R[g, p, o] = R[g^-1, o, p] makes B symmetric, so each block is
    its upper orbit triangle.  V w is constant on an orbit, so each block
    is scaled, or folded, by ``_finalize``, in the storage of the
    transform where it has every orbit.  For the trivial group the
    transform is the identity: R is the kernel matrix, and its one block
    is the whole operator, scaled or folded in R's storage.
    """
    supports = list(supports)
    points, weights, values, offsets = _layout(supports)
    _check_separation(supports)
    _check_shared_atoms(points, offsets)
    vw = values * weights
    if np.any(values) and not np.any(vw):
        raise _underflow()
    orbits = _circle_orbits(supports, points, weights, offsets)
    if orbits is not None:
        if len(supports) == 1 and np.ptp(values) > 0.0:
            op = _banded(supports[0][0], kernel, vw, orbits[0])
            if op is not None:
                return op
        # each weight constant on its circle within the tolerance of
        # ``_symmetry_table``, and all >= 0 or all < 0: a circle of weight
        # 0 beside negative ones is left to the fold, which factors its
        # kernel rows too
        if (values.min() >= 0.0 or values.max() < 0.0) and all(
                np.max(np.abs(v - v[0]))
                <= _tolerance_unit(len(v)) * np.max(np.abs(v))
                for v in np.split(values, offsets[1:-1])):
            op = _coupled(supports, kernel, points, weights, vw, offsets,
                          orbits)
            if op is not None:
                return op
    table = _symmetry_table(supports, points, weights, values, offsets)
    r = table.shape[2]
    reps = table[0, 0]
    fixed = (table == reps).astype(float)
    norm = np.sqrt(1.0 / fixed.sum(axis=(0, 1)))
    gathered, invariants = _orbit_rows(supports, kernel, points, offsets,
                                       table, vw)
    characters = _character_sums(gathered).reshape(-1, r, r)
    del gathered
    v_reps, w_reps = values[reps], weights[reps]
    # the orbits in each character's block: those whose stabiliser it is
    # trivial on; the characters that share them are taken together
    member = [row.tobytes()
              for row in _character_sums(fixed).reshape(-1, r) > 0.5]
    blocks, singles = [], []
    # byte order is np.unique's order of boolean rows
    for pattern in sorted(set(member)):
        keep = np.flatnonzero(np.frombuffer(pattern, dtype=bool))
        chars = [c for c, row in enumerate(member) if row == pattern]
        v, w = v_reps[keep], w_reps[keep]
        if len(keep) == 1:
            singles.append(_single_eigenvalues(
                characters[chars, keep[0], keep[0]] * norm[keep[0]] ** 2,
                v, w))
            continue
        for c in chars:
            b = _compacted(characters[c], keep)
            if np.any(norm[keep] != 1.0):
                # free orbits have the norm 1, and a block of them only is
                # not scaled
                b *= norm[keep, None]
                b *= norm[None, keep]
            blocks.append(_finalize(b, v, w))
    return BlockOperator(blocks=tuple(blocks),
                         singles=np.concatenate(singles or [np.empty(0)]),
                         invariants=invariants, n=len(points),
                         signed_flag=bool(np.any(values < 0.0)))


def _banded(support, kernel: KernelModel, vw: np.ndarray,
            orbit: np.ndarray) -> BlockOperator | None:
    """The operator on a support that is one free orbit ``orbit`` of C_n
    (``_circle_orbits``), whose weight carries the Fourier modes |m| <= b
    alone, as one band block, or None where the band is not taken.

    The kernel matrix is C_n-invariant whatever the weight, so one row,
    row[a] = K[i_0, g^a(i_0)], gives it in the DFT basis: diag(kappa), kappa
    the real DFT of the row.  With u = V w along the orbit and u^ = DFT(u) /
    n, K diag(V w) is similar to diag(sqrt kappa) C(u^) diag(sqrt kappa),
    C(u^) the circulant of u^, Hermitian, whose entry (m, m') is u^_(m - m')
    and which carries the modes |m - m'| <= b alone (Fassler and Stiefel).
    In the real basis (``_real_entries``) it is a real symmetric band of
    half-width 2 b + 1, written by ``_band_storage`` as a ``BandMatrix``.

    The modes carried are those of u^ whose magnitude exceeds
    ``_tolerance_unit(n)`` of the largest, read from u in units of a power
    of two, so that no mode of a tiny weight underflows, and b is the last
    of them.  The band is not taken where b is 0, a constant weight
    (``_coupled``), where b exceeds ``_BAND_MODES``, or where 2 b + 1 >=
    n.  Every other mode is dropped, above b or not: by Weyl's inequality
    they move each eigenvalue by at most max kappa sum |u^_dropped|.  The
    band is taken only where that bound is within ``_truncation_bound``,
    and only where every kappa_m is positive: that is the kernel matrix
    positive definite, which the fold needs.  Otherwise the operator takes
    the reflection group of ``_symmetry_table``, and every refusal keeps
    its message.

    Where n is even and every mode carried is odd, the half turn t -> t +
    pi negates the weight.  A mode m then couples to m +- an odd mode
    alone, parity kept by the wrap mod n, so with the even modes of the
    real basis first and the odd ones after it the band is
    [[0, B], [B^T, 0]], B of order n/2 a general band of b + 1 diagonals
    on each side.  ``_half_turn_storage`` writes B alone, as a
    ``HalfTurnBand``, whose eigenvalues are +-sigma(B).  For cos(t - phi)
    the modes 0 and 2 are rounding residue, dropped as above.

    The invariants come from the row, not the band (``_circulant``), so the
    check covers the transform as well as the solve.  No n x n array
    exists: the row, the transforms and the band are O(n b)."""
    n = len(orbit)
    shift = int(np.frexp(np.sqrt(np.max(np.abs(vw))))[1])
    u = np.ldexp(vw[orbit], -2 * shift)
    spectrum = np.fft.rfft(u)
    modes = np.abs(spectrum)
    carried = modes > _tolerance_unit(n) * modes.max()
    b = int(np.flatnonzero(carried).max(initial=0))
    if not 1 <= b <= _BAND_MODES or 2 * b + 1 >= n:
        return None
    kappa, invariants = _circulant(support, kernel, orbit, u, spectrum, shift)
    coefficients = np.where(carried[:b + 1], spectrum[:b + 1], 0.0) / n
    # each mode dropped counts twice, for m and -m, but 0 and n / 2 once
    dropped = np.where(carried, 0.0, modes) / n
    dropped = (2.0 * dropped.sum() - dropped[0]
               - (dropped[-1] if n % 2 == 0 else 0.0))
    bound = _truncation_bound(invariants, n)
    if not (np.all(kappa > 0.0) and kappa.max() * dropped <= bound):
        return None
    if n % 2 == 0 and not np.any(carried[::2]):
        kind, band = HalfTurnBand, _half_turn_storage(kappa, coefficients, n)
    else:
        kind, band = BandMatrix, _band_storage(kappa, coefficients, n)
    np.ldexp(band, invariants[2], out=band)
    return BlockOperator(blocks=(kind(entries=band),),
                         singles=np.empty(0), invariants=invariants, n=n,
                         signed_flag=bool(np.any(vw < 0.0)),
                         weyl_bound=float(np.ldexp(kappa.max() * dropped,
                                                   invariants[2])))


def _circulant(support, kernel: KernelModel, orbit: np.ndarray,
               u: np.ndarray, spectrum: np.ndarray, shift: int):
    """The kernel row of a support that is one free orbit of C_n, read
    along the orbit, row[a] = K[i_0, g^a(i_0)], for V w = u 2^(2 shift)
    along it, u of order 1 and u^ = ``spectrum`` = rfft(u):
    (kappa, invariants).  The invariants are the trace and the squared
    Frobenius norm of diag(sqrt(V w)) K diag(sqrt(V w)) in
    ``_row_invariants``' units of 2^e and 2^2e, e the exponent of max|row|
    max|V w|: the trace K[0, 0] sum(u), and the squared norm sum_d
    row[d]^2 c[d], c[d] = sum_a u_a u_(a + d) the circular correlation of
    u, by FFT.  kappa = rfft(row) 2^(2 shift - e), real, holds the
    eigenvalues of the C_n-invariant kernel matrix, each mode m of
    0 < m < n/2 twice (for cos m t and sin m t), so that kappa_m u_a is in
    units of 2^e.  A subnormal weight keeps its digits in u, and its
    largest entry is read as subnormal."""
    n = len(orbit)
    row = _support_rows(support, kernel)(orbit[:1], orbit)[0]
    exponent = int(np.frexp(np.max(np.abs(row)) * np.max(np.abs(u)))[1])
    row = np.ldexp(row, -exponent)
    correlation = np.fft.irfft(np.abs(spectrum) ** 2, n)
    return np.fft.rfft(row).real, (
        float(row[0] * u.sum()), float(row ** 2 @ correlation),
        exponent + 2 * shift)


def _truncation_bound(invariants: tuple[float, float, int], n: int) -> float:
    """How far, in the units of ``invariants``, a structured block may move
    the eigenvalues of an operator of order n by what it drops:
    ``_tolerance_unit(n)`` times sqrt(F / n), F the squared Frobenius
    norm, since the spectral radius is at least ||A||_F / sqrt(n)."""
    return _tolerance_unit(n) * np.sqrt(max(invariants[1], 0.0) / n)


def _real_entries(kappa: np.ndarray, coefficients: np.ndarray, n: int):
    """The entries of diag(sqrt kappa) C(u^) diag(sqrt kappa) of
    ``_banded`` in the real basis, for u^_m = ``coefficients``[m], m =
    0..b, and their conjugates at -m, zero elsewhere: (mode, entry), mode
    [p] the mode of basis position p and entry(p, q) the entries at the
    positions p and q (arrays of one shape).

    The basis is (1, cos t, sin t, cos 2t, sin 2t, ..., cos (n/2) t),
    orthonormal over the orbit: position p holds the mode (p + 1) // 2, a
    sine where p is even and positive.  With a = Re u^ and c = Im u^
    (indices mod n), the entry of the modes m and m' is a_(m - m') +
    a_(m + m') between cosines, a_(m - m') - a_(m + m') between sines,
    c_(m - m') - c_(m + m') for a cosine m and a sine m', and -c_(m - m') -
    c_(m + m') for a sine m and a cosine m'; the constant and the Nyquist
    cosine cos (n/2) t are the cosines of the modes 0 and n/2 over
    sqrt 2.  An entry vanishes unless |m - m'| <= b, with no wrap-around:
    the mode n/2 + k is the mode -(n/2 - k), and folds onto the cosine and
    sine of n/2 - k."""
    b = len(coefficients) - 1
    re, im = np.zeros(n), np.zeros(n)
    re[:b + 1], im[:b + 1] = coefficients.real, coefficients.imag
    re[n - b:], im[n - b:] = coefficients.real[:0:-1], -coefficients.imag[:0:-1]
    position = np.arange(n)
    mode = (position + 1) // 2
    sine = (position % 2 == 0) & (position > 0)
    root = np.sqrt(kappa[mode])
    root[0] *= np.sqrt(0.5)
    if n % 2 == 0:
        root[-1] *= np.sqrt(0.5)

    def entry(p, q):
        difference = (mode[p] - mode[q]) % n
        total = (mode[p] + mode[q]) % n
        return np.where(
            sine[p] == sine[q],
            re[difference] + np.where(sine[p], -1.0, 1.0) * re[total],
            np.where(sine[q], 1.0, -1.0) * im[difference] - im[total]
        ) * root[p] * root[q]

    return mode, entry


def _band_storage(kappa: np.ndarray, coefficients: np.ndarray,
                  n: int) -> np.ndarray:
    """The band of ``_banded`` in LAPACK's lower band storage, an (n, 2 b +
    2) array: entry [p, d] is the entry of the basis positions p and p + d
    of ``_real_entries``, which vanish past |p - q| = 2 b + 1.  Each
    diagonal is one O(n) pass."""
    b = len(coefficients) - 1
    _, entry = _real_entries(kappa, coefficients, n)
    out = np.zeros((n, 2 * b + 2))
    for d in range(2 * b + 2):
        out[:n - d, d] = entry(np.arange(n - d), np.arange(d, n))
    return out


def _half_turn_storage(kappa: np.ndarray, coefficients: np.ndarray,
                       n: int) -> np.ndarray:
    """B of ``_banded``'s [[0, B], [B^T, 0]] for a weight of odd modes
    alone at even n, in LAPACK's general band storage of ``HalfTurnBand``,
    an (n/2, 2 b + 3) array, kl = ku = b + 1.  Row i of B is the i-th
    basis position of ``_real_entries`` whose mode is even, column j the
    j-th whose mode is odd, each in the basis order, so mode 2 ((i + 1) //
    2) and mode 2 (j // 2) + 1: |m - m'| <= b holds only where |i - j| <=
    b + 1.  Each diagonal is one O(n) pass."""
    k = len(coefficients)
    mode, entry = _real_entries(kappa, coefficients, n)
    even = np.flatnonzero(mode % 2 == 0)
    odd = np.flatnonzero(mode % 2 == 1)
    half = n // 2
    out = np.zeros((half, 2 * k + 1))
    for d in range(2 * k + 1):
        # the columns j whose row i = j + d - k lies in B
        j = np.arange(max(0, k - d), min(half, half + k - d))
        out[j, d] = entry(even[j + d - k], odd[j])
    return out


def _circle_orbits(supports, points, weights, offsets):
    """Per support, its atoms in the order of the rotation g by 2 pi / n_k
    about its own centroid, orbit[a] = g^a(orbit[0]), where every support is
    one free orbit of its own C_n_k, an equispaced circle; else None.  A
    question about geometry alone, whatever the weight and the support's
    kind, asked once of every input by ``assemble_mixed`` and read by both
    circle paths (``_banded``, ``_coupled``): g must keep the support as
    ``_matcher`` keeps one, and its powers must carry one atom through
    every other, each within the tolerance of the exact rotation
    (``_orbit_table``), so a near-circle cannot pass by small steps."""
    orbits = []
    for support, lo, hi in zip(supports, offsets[:-1], offsets[1:]):
        n = hi - lo
        if n < 2:
            return None
        match, args = _matcher([support], points[lo:hi], weights[lo:hi],
                               np.array([0, n]))
        step = match(_rotation(TWO_PI / n))
        table = None if step is None else _orbit_table(
            [(step, _rotation(TWO_PI * np.arange(n) / n))], *args)
        if table is None or table.shape != (1, n, 1):
            return None
        orbits.append(lo + table[0, :, 0])
    return orbits


def _coupled(supports, kernel: KernelModel, points: np.ndarray,
             weights: np.ndarray, vw: np.ndarray, offsets: np.ndarray,
             orbits) -> BlockOperator | None:
    """The operator on circles, each one free orbit ``orbits[k]`` of its
    own C_n_k whose V w is constant on it (``_circle_orbits``), all >= 0
    or all < 0, as one coupled block of their low Fourier modes and the
    singles of all the others; None where two circles are not separated
    far enough for the kernel's table (``_cross_modes``).

    In the real basis of ``_real_entries`` along each orbit, C_k, circle
    k's own block is diag(V w kappa_k), kappa_k the real DFT of its kernel
    row (``_circulant``), and the cross block of circles i < j is B^ = s_i
    s_j C_i B C_j^T, B the kernel values between them in orbit order.  B^
    is written from the kernel's double Fourier series of the two circles
    (``KernelModel.separated_circles``, Graf's addition theorem for K_0),
    whose modes |p|, |q| <= M alone carry it to within a tail bound: no
    entry of B is evaluated but one row and one column, which check the
    table.  The operator Q A Q^T, Q = diag(C_k), is orthogonally similar to
    A.  Where every V w is < 0, the operator is that of |V w| negated: s =
    sqrt(|V w|), and the singles, the cross blocks and the trace change
    sign.  The fold's refusal of a kernel matrix that is not positive
    definite (``_not_positive_definite``) is kept there: some kappa_k <= 0,
    or a kept block of |V w| that Cholesky cannot factor, refuses the
    operator as the fold would: with every V w < 0, the kept block and the
    singles are positive definite where the kernel matrix is, to within
    the dropped coupling.

    Each pair's M is the least whose tail bound, the Frobenius norm of what
    the modes outside the table add to B^, keeps the tails of all pairs,
    counted for each block and its transpose, within half of
    ``_truncation_bound`` of the circles' own blocks.  The modes are then
    dropped from the coupling in the order of their coupling norms, the
    squared norms of their rows of the cross blocks, the least first,
    while twice the sum of those dropped stays within the square of what
    the tails leave of ``_truncation_bound``: the dropped coupling E, the
    entries of the rows and columns of the dropped modes, then has ||E||_F
    within it, and by Weyl's inequality no eigenvalue moves further than
    ||E||_F and the tails together, which are kept as ``weyl_bound``.  A
    dropped mode is a single, its own diagonal entry; the kept ones are one
    dense real block.  One circle alone couples to nothing: every mode is a
    single.

    The invariants of the own blocks are taken from their rows, in
    ``_row_invariants``' units, and those of the cross blocks from the
    table by Parseval, within its tail.  No n x n array, and no n_i x n_j
    one, exists: each cross block is at most (2M + 1) x (2M + 1)."""
    n = len(points)
    negative = bool(np.any(vw < 0.0))
    sign = -1.0 if negative else 1.0
    roots, shifts, diagonals, parts = [], [], [], []
    for (support, _), orbit, lo in zip(supports, orbits, offsets):
        # sqrt|V w| = root 2^shift, V w taken at the representative
        shift = int(np.frexp(np.sqrt(abs(vw[orbit[0]])))[1])
        u = np.ldexp(abs(vw[orbit[0]]), -2 * shift)
        full = np.full(len(orbit), u)
        kappa, (trace, frobenius_sq, exponent) = _circulant(
            support, kernel, orbit - lo, full, np.fft.rfft(full), shift)
        if negative and not np.all(kappa > 0.0):
            raise _not_positive_definite(weights)
        diagonals.append((sign * u * kappa[(np.arange(len(orbit)) + 1) // 2],
                          exponent))
        roots.append(np.sqrt(u))
        shifts.append(shift)
        parts.append((sign * trace, frobenius_sq, exponent))
    # a part of a zero weight holds no entry, and its exponent says nothing
    own = _summed_invariants([p for p in parts if p[1] > 0.0])
    pairs = [(i, j) for i in range(len(orbits))
             for j in range(i + 1, len(orbits)) if roots[i] * roots[j] > 0.0]
    budget = 0.5 * _truncation_bound(own, n) / np.sqrt(2.0 * max(len(pairs),
                                                                  1))
    crosses = []
    for i, j in pairs:
        scale = np.sqrt(len(orbits[i]) * len(orbits[j])) * roots[i] * roots[j]
        with np.errstate(over="ignore"):
            tail = np.ldexp(budget / scale, own[2] - shifts[i] - shifts[j])
        found = _cross_modes(kernel, points[orbits[i]], points[orbits[j]],
                             tail, n)
        if found is None:
            return None
        block, error, largest = found
        # the part of the invariants: the block and its transpose, in units
        # of its largest entry seen
        e = int(np.frexp(largest * roots[i] * roots[j])[1])
        units = np.ldexp(block * (roots[i] * roots[j]), -e)
        parts.append((0.0, 2.0 * float(np.sum(units * units)),
                      e + shifts[i] + shifts[j]))
        crosses.append((i, j, block, error * scale))
    invariants = _summed_invariants([p for p in parts if p[1] > 0.0])
    exponent = invariants[2]
    diagonal = np.concatenate([np.ldexp(d, e - exponent)
                               for d, e in diagonals])
    # the cross blocks in the Fourier bases and in units of 2^exponent, and
    # each mode's coupling norm
    coupling = np.zeros(n)
    tails = 0.0
    for c, (i, j, block, tail) in enumerate(crosses):
        units = shifts[i] + shifts[j] - exponent
        block *= np.ldexp(sign * roots[i] * roots[j], units)
        tails += np.ldexp(tail, units) ** 2
        rows = np.einsum("ij,ij->i", block, block)
        coupling[offsets[i]:offsets[i] + len(rows)] += rows
        columns = np.einsum("ij,ij->j", block, block)
        coupling[offsets[j]:offsets[j] + len(columns)] += columns
        crosses[c] = i, j, block, rows
    # the tails of every block and its transpose
    tails = np.sqrt(2.0 * tails)
    order = np.argsort(coupling, kind="stable")
    dropped = np.searchsorted(
        2.0 * np.cumsum(coupling[order]),
        max(_truncation_bound(invariants, n) - tails, 0.0) ** 2,
        side="right")
    kept = np.zeros(n, dtype=bool)
    kept[order[dropped:]] = True
    if kept.sum() < 2:
        kept[:] = False
    position = np.cumsum(kept) - 1
    square = np.zeros((int(kept.sum()),) * 2)
    square[np.diag_indices(len(square))] = diagonal[kept]
    error = 0.0
    for i, j, block, row_norms in crosses:
        # the block's positions, the first of each circle's basis
        at_i = slice(offsets[i], offsets[i] + block.shape[0])
        at_j = slice(offsets[j], offsets[j] + block.shape[1])
        rows, cols = kept[at_i], kept[at_j]
        inner = block[rows]
        outer = inner[:, ~cols]
        # E's entries above the diagonal: the dropped rows whole, and the
        # dropped columns of the kept rows
        error += row_norms[~rows].sum() + np.einsum("ij,ij->", outer, outer)
        square[np.ix_(position[at_i][rows], position[at_j][cols])] = (
            inner[:, cols])
    if negative and len(square):
        # the fold's refusal where the coupling makes the kernel matrix
        # indefinite, read off the kept block of |V w| by its upper triangle
        try:
            np.linalg.cholesky(-square.T)
        except np.linalg.LinAlgError:
            raise _not_positive_definite(weights) from None
    blocks = (OperatorMatrix(entries=np.ldexp(square, exponent,
                                              out=square)),) if len(
        square) else ()
    return BlockOperator(blocks=blocks,
                         singles=np.ldexp(diagonal[~kept], exponent),
                         invariants=invariants, n=n, signed_flag=negative,
                         weyl_bound=float(np.ldexp(np.sqrt(2.0 * error)
                                                   + tails, exponent)))


def _cross_modes(kernel: KernelModel, rows: np.ndarray, cols: np.ndarray,
                 tail: float, n: int):
    """C_i B C_j^T, B the kernel values between two circles, the atoms
    ``rows`` and ``cols`` each in orbit order, as (block, error, largest),
    or None where the kernel gives no table within ``tail``
    (``KernelModel.separated_circles``: circles that cross, touch or nearly
    touch, or a kernel with no addition theorem).  ``block`` holds the
    positions of the real basis of ``_real_entries`` up to the table's
    order M on each circle, min(n_k, 2M + 1) of them, every other entry of
    C_i B C_j^T lying in the tail; ``error`` bounds |B - the table's sum|
    entrywise, and ``largest`` is the largest |entry| of B seen.

    Each circle's center, radius, start angle and turn are read from its
    atoms (``_circle_frame``), so atom a of circle i sits at angle
    theta_a = theta_0 + s 2 pi a / n_i from the direction alpha of the
    other circle's center.  B[a, b] is then sum_pq c_pq e^(i p (theta_0 -
    alpha)) e^(i q (phi_0 - alpha)) e^(2 pi i (s p a / n_i + s' q b /
    n_j)), a 2-D inverse DFT of the table whose modes p and q alias mod
    n_i and n_j (``_real_basis``).

    The block is checked against the kernel itself: one row and one column
    of B, n_i + n_j kernel values, must match those of C_i^T B^ C_j
    (``_real_synthesis``) within the table's error and
    ``_tolerance_unit(n)`` of their largest |value|, else
    ``InternalError``."""
    (center_1, radius_1, start_1, turn_1) = _circle_frame(rows)
    (center_2, radius_2, start_2, turn_2) = _circle_frame(cols)
    offset = center_2 - center_1
    found = kernel.separated_circles(radius_1, radius_2, abs(offset), tail)
    if found is None:
        return None
    table, error = found
    m = (len(table) - 1) // 2
    p = np.arange(-m, m + 1)
    alpha = np.angle(offset)
    coefficients = table * np.outer(np.exp(1j * p * (start_1 - alpha)),
                                    np.exp(1j * p * (start_2 - alpha)))
    block = _real_basis(_real_basis(coefficients[::turn_1, ::turn_2],
                                    len(cols), 1), len(rows), 0).real
    # B = C_i^T B^ C_j, read back at the first atom of each circle
    direct = np.concatenate([
        kernel.profile(_pairwise_dist(rows[:1], cols))[0],
        kernel.profile(_pairwise_dist(rows, cols[:1]))[:, 0]])
    synthesis = np.concatenate([
        _real_synthesis(_real_synthesis(block, len(rows), 0)[0], len(cols)),
        _real_synthesis(_real_synthesis(block, len(cols), 1)[:, 0],
                        len(rows))])
    largest = float(np.max(np.abs(direct)))
    mismatch = float(np.max(np.abs(direct - synthesis)))
    tolerance = error + _tolerance_unit(n) * max(largest, _TINY)
    if not mismatch <= tolerance:
        raise InternalError(
            "the kernel's table of two separated circles misses the kernel "
            "by %.3g, against a tolerance of %.3g" % (mismatch, tolerance))
    return block, error, largest


def _circle_frame(nodes: np.ndarray):
    """(center as a complex number, radius, the angle of the first node
    about the center, the turn +-1 from it to the next) of the nodes of an
    equispaced circle."""
    z = nodes[:, 0] + 1j * nodes[:, 1]
    center = z.mean()
    w = z - center
    return (center, float(np.abs(w).mean()), float(np.angle(w[0])),
            1 if (w[1] * w[0].conjugate()).imag > 0.0 else -1)


def _real_basis(coefficients: np.ndarray, n: int, axis: int) -> np.ndarray:
    """C x along ``axis``, C the orthonormal real Fourier basis of
    ``_real_entries`` over n points, for the x whose entry a is sum_f
    c_f e^(2 pi i f a / n), c = ``coefficients`` over f = -M..M along
    ``axis``: the positions up to the mode M, min(n, 2M + 1) of them.  The
    modes are aliased mod n first, where 2M + 1 > n; then the cosine of
    mode m is sqrt(n/2) (c_m + c_-m), its sine sqrt(n/2) i (c_m - c_-m),
    and the constant and the Nyquist cosine sqrt(1/2) times their
    cosines."""
    x = np.moveaxis(coefficients, axis, 0)
    m = (len(x) - 1) // 2
    size = min(n, len(x))
    if size < len(x):
        x = np.concatenate([x, np.zeros((-len(x) % size,) + x.shape[1:])])
        x = x.reshape((-1, size) + x.shape[1:]).sum(axis=0)
    position = np.arange(size)
    mode = (position + 1) // 2
    up, down = x[(m + mode) % size], x[(m - mode) % size]
    sine = ((position % 2 == 0) & (position > 0)).reshape(
        (-1,) + (1,) * (x.ndim - 1))
    out = np.where(sine, 1j * (up - down), up + down) * np.sqrt(0.5 * n)
    out[0] *= np.sqrt(0.5)
    if n % 2 == 0 and size == n:
        out[-1] *= np.sqrt(0.5)
    return np.moveaxis(out, 0, axis)


def _real_synthesis(x: np.ndarray, n: int, axis: int = 0) -> np.ndarray:
    """C^T x along ``axis``, C the orthonormal real Fourier basis of
    ``_real_entries`` over n points and x its first x.shape[axis] <= n
    positions, every later one 0: the values at the n points, by one
    inverse real FFT, the inverse of ``_real_basis``."""
    x = np.moveaxis(x, axis, 0)
    spectrum = np.zeros((n // 2 + 1,) + x.shape[1:], dtype=complex)
    spectrum[0] = np.sqrt(2.0) * x[0]
    cosines, sines = x[1::2], x[2::2]
    spectrum[1:len(cosines) + 1] += cosines
    spectrum[1:len(sines) + 1] -= 1j * sines
    if n % 2 == 0 and len(x) == n:
        spectrum[-1] *= np.sqrt(2.0)
    out = np.fft.irfft(spectrum, n, axis=0) * np.sqrt(0.5 * n)
    return np.moveaxis(out, 0, axis)


def _compacted(square: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """square[keep][:, keep] as a C-contiguous view of the leading entries
    of the C-contiguous ``square``'s own storage, ``keep`` ascending.  Row
    i lands in entries [i k, (i + 1) k), before row keep[i + 1] >= i + 1
    starts, so no row is overwritten before it has moved."""
    k = len(keep)
    if k == len(square):
        return square
    flat = square.reshape(-1)
    for i, row in enumerate(keep):
        flat[i * k:(i + 1) * k] = square[row, keep]
    return flat[:k * k].reshape(k, k)


def _butterfly(first: np.ndarray, second: np.ndarray) -> None:
    """first, second <- first + second, first - second, in place, on two
    C-contiguous arrays, a ``_BLOCK_BYTES`` slice at a time."""
    first, second = first.reshape(-1), second.reshape(-1)
    step = _BLOCK_BYTES // 8
    for i0 in range(0, first.size, step):
        a, b = first[i0:i0 + step], second[i0:i0 + step]
        difference = a - b
        a += b
        b[...] = difference


def _character_sums(x: np.ndarray) -> np.ndarray:
    """The character sums of the real, C-contiguous ``x`` over its axes 0
    and 1, the group axes, each 1 or 2 long: a butterfly in place on an
    axis of 2, whose characters are +-1.  Returns ``x``."""
    if x.shape[0] == 2:
        _butterfly(x[0], x[1])
    if x.shape[1] == 2:
        for half in x:
            _butterfly(half[0], half[1])
    return x


def _single_eigenvalues(k: np.ndarray, v: np.ndarray,
                        w: np.ndarray) -> np.ndarray:
    """The eigenvalues of 1 x 1 kernel blocks ``k`` of an orbit with weight
    value v and quadrature weight w, scaled as ``_finalize`` scales, with
    the fold's refusal of a kernel that is not positive definite where
    V < 0: the fold of a 1 x 1 block is its scaling."""
    if v[0] < 0.0 and not np.all(k > 0.0):
        raise _not_positive_definite(w)
    s = np.sqrt(np.abs(v[0]) * w[0])
    return np.sign(v[0]) * (k * s) * s
