"""Dense symmetric discretizations of the weighted kernel operator.

The operator acts on the weighted support by

    (L v)(X) = integral  W(X) Kernel(X, Y) W(Y) v(Y) dmu(Y),   W = sqrt(V),

and its matrix is assembled as  M = diag(s) K diag(s)  with s = sqrt(V w)
and K an effective-kernel matrix whose quadrature absorbs the logarithmic
singularity:

* smooth closed curves: spectrally accurate periodic quadrature that splits
  the kernel into a log(4 sin^2((t-s)/2)) part, integrated with
  trigonometric-interpolation weights, and a smooth remainder integrated
  with the trapezoid rule;
* polygon curves: panel midpoint collocation with the log part integrated
  exactly over flat panels;
* atomized measures (Cantor dust, uniform grids, the area cells of an
  absolutely continuous density): pointwise kernel values off the
  diagonal, with the cell-averaged self coefficient closing the diagonal.

Every operator is laid out by ``assemble_mixed`` as a list of (support,
weight) blocks: each support's effective kernel on its diagonal block and
plain kernel values in the cross blocks between supports.  The curve and
measure operators are its one-block calls.

Each effective-kernel matrix is built in one blocked pass over its upper
triangle.  A block is a slice of rows [i0, i1) against the columns j >= i0:
its distances come from a broadcast of two node slices, its kernel
evaluations and panel integrals run on cache-resident temporaries, and its
part on and above the diagonal is written straight into the one n x n
output.  No pair-index array and no n^2 temporary exists.  The elementwise
expressions are those of an all-pairs evaluation, so the matrices agree
with one bit for bit.  The builders, the cross blocks of mixed
configurations, the scaling and the sign fold all read the upper triangle
only, and all but the fold write it only: the fold keeps its Cholesky
factor in the lower one as scratch.  The finished operator is its upper
triangle, diagonal included; no step fills the lower one, and the
eigensolve of ``spectra`` reads the upper one alone, in place.

The pass runs on every core in the process's CPU affinity: the calling
thread and up to ``_WORKERS - 1`` pool threads take the row blocks one at a
time, largest first.  NumPy releases the GIL inside its ufuncs, and each
block writes a disjoint slice of the output, so the result does not depend
on the worker count.  Each worker's block is ``_BLOCK_BYTES // _WORKERS``,
which keeps the bytes in flight at one serial block.  The first exception
raised in a block stops the blocks not yet started and reaches the caller
once every running block has ended; warnings raised in a block reach the
caller's filters as usual.  The same pass scales the upper triangle by
diag(s) and fills the cross blocks; the diagonal blocks are built in place,
in views of the one operator matrix.

Sign-changing V is reduced to a symmetric indefinite matrix with identical
nonzero spectrum.  The one fold factors the effective-kernel matrix by
Cholesky, K = L L^T, read from K's upper triangle, and takes
L^T diag(V w) L,  which shares the nonzero spectrum of K diag(V w) (Golub
and Van Loan, Matrix Computations, 8.7); ``OperatorMatrix.signed_flag``
records that it ran.  Both steps run in K's own storage, one
square tile of ``_FOLD_COLUMNS`` at a time: a blocked right-looking
factorisation (ibid., 4.2) writes L into K's lower triangle, and the
product, one column of tiles at a time, overwrites the upper one, so the
fold allocates a few ``_FOLD_COLUMNS``^2 tiles beside K, whatever n is.
Its BLAS work is NumPy's: SciPy's LAPACK would run on a second BLAS
library whose buffers stay resident.  The kernel is positive definite and,
with the windowed split of ``kernels``, so is K on every resolved support.
A K that is not is an under-resolved mesh: the fold raises
``InvalidArgumentError`` (exit 2) naming the largest node spacing.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .geometry import (SingularMeasure, SurfaceMesh, _check_atom_count,
                       support_atoms)
from .kernels import KernelModel, self_cell_coefficient

TWO_PI = 2.0 * np.pi

# byte size of the (rows, n) blocks in flight at once in the upper-triangle
# pass, split evenly over the workers: the kernel and panel-integral
# temporaries of a block stay cache-resident
_BLOCK_BYTES = 1 << 19
# side of the square tiles of the Cholesky fold, in its factorisation and
# its product alike, and so of every temporary it allocates: wide enough
# for BLAS to run near its GEMM rate, narrow enough that the half of each
# diagonal tile computed and then dropped stays a small share of the work
_FOLD_COLUMNS = 256
# relative spread, in units of n eps, within which a smooth closed mesh
# counts as a regular n-gon: the eigensolve's own tolerance unit
# (spectra._INVARIANT_ULPS).  Circles of radius 0.05-20 centred within 10
# of the origin spread by at most 0.52 of it for n <= 4096; an ellipse or a
# star that spreads by s moves its eigenvalues off the circulant ones by
# about 0.7 s of the spectral radius, inside the solve's check
_CIRCULANT_ULPS = 64.0
# threads that run the row blocks: the cores this process may run on
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


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
    """Dense real symmetric discretization; ``signed_flag`` records that
    the sign fold ran.

    The matrix is the upper triangle of ``entries``, diagonal included; the
    strict lower triangle is scratch and is never read, so an asymmetric
    array stands for the symmetric matrix of its upper triangle.  A
    C-contiguous writeable float64 array is kept as a read-only view of the
    caller's own memory, and any other is copied.  ``spectra.eigensolve``
    consumes the operator: it overwrites that storage, and a second solve
    is refused.
    """

    entries: np.ndarray
    signed_flag: bool = False
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
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgumentError("entries must be square")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

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


def _upper(k: int) -> np.ndarray:
    """Mask of the upper triangle of a k x k square, diagonal included."""
    return ~np.tri(k, k=-1, dtype=bool)


def _put_upper(out: np.ndarray, i0: int, i1: int, block: np.ndarray) -> None:
    """Write the part of ``block`` (rows [i0, i1) against the columns
    j >= i0) on and above the diagonal of ``out``."""
    k = i1 - i0
    out[i0:i1, i1:] = block[:, k:]
    np.copyto(out[i0:i1, i0:i1], block[:, :k], where=_upper(k))


def _pairwise_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances |a_i - b_j| between two sets of plane points."""
    dx = a[:, 0, None] - b[None, :, 0]
    dy = a[:, 1, None] - b[None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _fold_tiles(n: int) -> list[tuple[int, int]]:
    """Index ranges [t0, t1) of the fold's tiles along an n x n matrix:
    ``_FOLD_COLUMNS`` wide, the last one what is left."""
    return [(t0, min(t0 + _FOLD_COLUMNS, n))
            for t0 in range(0, n, _FOLD_COLUMNS)]


def _cholesky_fold(kernel_matrix: np.ndarray, v_vals: np.ndarray,
                   weights: np.ndarray) -> np.ndarray:
    """Upper triangle of L^T diag(V w) L for the Cholesky factor K = L L^T
    of the kernel matrix, computed in K's own storage: K is read from its
    upper triangle, L is left in the strict lower triangle and on the
    diagonal, and the product overwrites the upper triangle, diagonal
    included.  Every temporary is a ``_FOLD_COLUMNS`` square tile, a few
    at a time, whatever n is.  A K that is not positive definite raises
    ``InvalidArgumentError`` naming the node spacing (the largest weight).

    The product is computed one column tile c at a time: L is lower
    triangular, so the tile (r, c) with r <= c sums L[k, r]^T (diag(V w)
    L)[k, c] over the row tiles k >= c alone (indices here are tiles).
    That is n^3 / 3 flops where the full product takes 2 n^3.  The loop
    over k is the outer one, so each L[k, c] is scaled once and then read
    by every tile (r, c) above the diagonal, which accumulates in place.
    Only L's diagonal tile (c, c) is both read and overwritten, by the
    diagonal tile of the result: it is copied first, its upper half
    zeroed, and the result's diagonal tile is summed apart and written
    last.
    """
    try:
        _cholesky_in_place(kernel_matrix)
    except np.linalg.LinAlgError:
        raise InvalidArgumentError(
            "under-resolved mesh: the kernel matrix of this sign-changing "
            "weight is not positive definite at node spacing %.4g; refine "
            "the mesh" % float(weights.max())) from None
    vw = v_vals * weights
    n = len(vw)
    upper = _upper(min(n, _FOLD_COLUMNS))
    tiles = _fold_tiles(n)
    for c, (c0, c1) in enumerate(tiles):
        # the row tile k = c starts every sum, on the copy of L's diagonal tile
        head = np.tril(kernel_matrix[c0:c1, c0:c1])
        scaled = vw[c0:c1, None] * head
        diagonal = head.T @ scaled
        for r0, r1 in tiles[:c]:
            kernel_matrix[r0:r1, c0:c1] = (
                kernel_matrix[c0:c1, r0:r1].T @ scaled)
        for k0, k1 in tiles[c + 1:]:
            below = kernel_matrix[k0:k1, c0:c1]
            scaled = vw[k0:k1, None] * below
            diagonal += below.T @ scaled
            for r0, r1 in tiles[:c]:
                kernel_matrix[r0:r1, c0:c1] += (
                    kernel_matrix[k0:k1, r0:r1].T @ scaled)
        np.copyto(kernel_matrix[c0:c1, c0:c1], diagonal,
                  where=upper[:c1 - c0, :c1 - c0])
    return kernel_matrix


def _cholesky_in_place(m: np.ndarray) -> None:
    """Right-looking blocked Cholesky factorisation M = L L^T (Golub and
    Van Loan, Matrix Computations, 4.2) read from M's upper triangle, with
    L written into the lower triangle, diagonal included.  The upper
    triangle off the diagonal is left as scratch.  The matrix is cut into
    ``_FOLD_COLUMNS`` square tiles, and every step reads and writes one
    tile: NumPy's Cholesky factors each diagonal tile (the transposed
    square, whose lower triangle is M's upper one), each tile of the panel
    below it is the transposed tile above the diagonal times the factor's
    inverse, and the trailing update subtracts one product of two panel
    tiles from each tile of the trailing upper triangle, the diagonal tiles
    through the upper mask.  NumPy exposes no in-place or triangular-solve
    LAPACK call.  A diagonal tile that is not positive definite raises
    ``np.linalg.LinAlgError``."""
    n = len(m)
    upper = _upper(min(n, _FOLD_COLUMNS))
    tiles = _fold_tiles(n)
    for k, (k0, k1) in enumerate(tiles):
        square = m[k0:k1, k0:k1]
        factor = np.linalg.cholesky(square.T)
        np.copyto(square, factor, where=upper[:k1 - k0, :k1 - k0].T)
        if k1 == n:
            return
        # L21 = A21 L11^-T, with A21 the transposed tiles right of the square
        inverse = np.linalg.inv(factor).T
        for r0, r1 in tiles[k + 1:]:
            m[r0:r1, k0:k1] = m[k0:k1, r0:r1].T @ inverse
        for c, (c0, c1) in enumerate(tiles[k + 1:], start=k + 1):
            right = m[c0:c1, k0:k1].T
            for r0, r1 in tiles[k + 1:c]:
                m[r0:r1, c0:c1] -= m[r0:r1, k0:k1] @ right
            diagonal = m[c0:c1, c0:c1]
            np.subtract(diagonal, m[c0:c1, k0:k1] @ right, out=diagonal,
                        where=upper[:c1 - c0, :c1 - c0])


def _finalize(kernel_matrix: np.ndarray, v_vals: np.ndarray,
              weights: np.ndarray) -> OperatorMatrix:
    """The operator matrix for kernel matrix K, weight V and quadrature
    weights w: diag(s) K diag(s) with s = sqrt(V w) for V >= 0, the one
    fold of the module docstring otherwise.  K is read from its upper
    triangle and overwritten, and the operator is that triangle: below it
    lies whatever K's storage held, or the fold's factor."""
    signed = bool(np.any(v_vals < 0.0))
    if signed:
        upper = _cholesky_fold(kernel_matrix, v_vals, weights)
    else:
        upper = _scaled(kernel_matrix, v_vals, weights)
    return OperatorMatrix(entries=upper, signed_flag=signed)


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
    summed over 32-row blocks of the (n, m - 1) cosine table, so no n^2
    temporary exists.  The blocks are serial and fixed, not the workers'
    row blocks: a matrix-vector product's row sums can depend on how many
    rows it takes, and these stay those of one product over the whole table.
    """
    m = n // 2
    t = TWO_PI * np.arange(n) / n
    ks = np.arange(1, m)
    inverse = 1.0 / ks
    series = np.empty(n)
    for i0 in range(0, n, 32):
        series[i0:i0 + 32] = np.cos(np.outer(t[i0:i0 + 32], ks)) @ inverse
    return -(TWO_PI / m) * series - (np.pi / m ** 2) * np.cos(m * t)


def _each_block(n_rows: int, width: int, fill) -> None:
    """Call ``fill(i0, i1)`` on every row slice [i0, i1) of ``n_rows`` rows,
    each (rows, width) slice of doubles about ``_BLOCK_BYTES / _WORKERS``,
    on the calling thread and up to ``_WORKERS - 1`` pool threads.

    The slices are taken in order, so the widest blocks of an upper
    triangle go first.  ``fill`` must write disjoint output per slice.  A
    slice that raises stops the slices not yet taken; the error reaches the
    caller after every running slice has ended.
    """
    rows = max(1, _BLOCK_BYTES // _WORKERS // (8 * max(1, width)))
    pending = [(i0, min(n_rows, i0 + rows))
               for i0 in reversed(range(0, n_rows, rows))]

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


def _smooth_curve_block(mesh: SurfaceMesh, kernel: KernelModel,
                        rw: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """Effective-kernel entries of the rows [i0, i1) of a smooth closed
    mesh against the columns j >= i0, with the Kress weights ``rw``; the
    entries of the self pairs are placeholders that
    ``_smooth_curve_diagonal`` replaces."""
    n = mesh.n_nodes
    t = mesh.param_values
    r = _pairwise_dist(mesh.nodes[i0:i1], mesh.nodes[i0:])
    # placeholders on the self pairs, whose entries the closure replaces
    np.fill_diagonal(r, 1.0)
    log_factor, smooth = kernel.split(r)
    # taken after the split, whose temporaries it would join otherwise
    half_sin = np.abs(np.sin((t[i0:i1, None] - t[None, i0:]) / 2.0))
    np.fill_diagonal(half_sin, 1.0)
    # the Kress weights integrate log_factor * log(4 sin^2((t-s)/2)) / 2;
    # the rest of log_factor * log(r) joins the smooth remainder
    smooth = smooth + log_factor * np.log(r / (2.0 * half_sin))
    del r, half_sin
    offsets = np.arange(i0, i1)[:, None] - np.arange(i0, n)[None, :]
    return (0.5 * log_factor * rw[offsets % n]
            + (TWO_PI / n) * smooth) * (n / TWO_PI)


def _smooth_curve_diagonal(mesh: SurfaceMesh, kernel: KernelModel,
                           rw: np.ndarray) -> np.ndarray:
    """The diagonal closure of a smooth closed mesh's effective kernel."""
    n = mesh.n_nodes
    speed = mesh.weights / (TWO_PI / n)
    return (0.5 * kernel.log_coefficient * rw[0]
            + (TWO_PI / n) * (kernel.remainder_at_zero
                              + kernel.log_coefficient * np.log(speed))
            ) * (n / TWO_PI)


def _smooth_curve_effective_kernel(mesh: SurfaceMesh, kernel: KernelModel,
                                   out: np.ndarray | None = None
                                   ) -> np.ndarray:
    n = mesh.n_nodes
    rw = _kress_weight_vector(n)
    out = np.empty((n, n)) if out is None else out

    def fill(i0, i1):
        _put_upper(out, i0, i1, _smooth_curve_block(mesh, kernel, rw, i0, i1))

    _each_block(n, n, fill)
    np.fill_diagonal(out, _smooth_curve_diagonal(mesh, kernel, rw))
    return out


def _panel_log_integrals(targets: np.ndarray, centers: np.ndarray,
                         tangents: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Exact integral of log|x - y| over flat panels, all target/panel pairs."""
    px = targets[:, 0, None] - centers[None, :, 0]
    py = targets[:, 1, None] - centers[None, :, 1]
    tx, ty = tangents[None, :, 0], tangents[None, :, 1]
    along = px * tx + py * ty
    # the offsets turn into the perpendicular distance in place
    px -= along * tx
    py -= along * ty
    px *= px
    py *= py
    px += py
    perp = np.sqrt(px, out=px)
    del py
    v1 = -lengths[None, :] / 2.0 - along
    v2 = lengths[None, :] / 2.0 - along
    del along
    # the pieces both panel ends share
    flat = perp <= 1e-14
    safe_b = np.where(flat, 1.0, perp)
    b2 = perp * perp

    def antiderivative(v):
        general = (v * np.log(v * v + b2) - 2.0 * v
                   + 2.0 * perp * np.arctan(v / safe_b))
        vabs = np.maximum(np.abs(v), 1e-300)
        online = 2.0 * (v * np.log(vabs) - v)
        return np.where(flat, online, general)

    return 0.5 * (antiderivative(v2) - antiderivative(v1))


def _polygon_effective_kernel(mesh: SurfaceMesh, kernel: KernelModel,
                              out: np.ndarray | None = None) -> np.ndarray:
    """Panel collocation symmetrized, (K + K^T) / 2: a row block's entries
    combine its rows collocated on the column panels with the column nodes
    collocated on its row panels."""
    n = mesh.n_nodes
    w = mesh.weights
    nodes, tangents = mesh.nodes, mesh.tangents
    out = np.empty((n, n)) if out is None else out

    def fill(i0, i1):
        rows, cols = slice(i0, i1), slice(i0, None)
        log_factor, smooth = kernel.split(
            _pairwise_dist(nodes[rows], nodes[cols]))
        intlog = _panel_log_integrals(nodes[rows], nodes[cols],
                                      tangents[cols], w[cols])
        ktil = (log_factor * intlog + smooth * w[None, cols]) / w[None, cols]
        del intlog
        intlog_t = _panel_log_integrals(nodes[cols], nodes[rows],
                                        tangents[rows], w[rows]).T
        ktil_t = ((log_factor * intlog_t + smooth * w[rows, None])
                  / w[rows, None])
        _put_upper(out, i0, i1, 0.5 * (ktil + ktil_t))

    _each_block(n, n, fill)
    # self panel: integral of log|x_i - y| over the own panel, exactly
    intlog_self = w * (np.log(w / 2.0) - 1.0)
    np.fill_diagonal(out, (kernel.log_coefficient * intlog_self
                           + kernel.remainder_at_zero * w) / w)
    return out


def _point_effective_kernel(points: np.ndarray, kernel: KernelModel,
                            cell_kind: str, cell_size,
                            out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise kernel with the cell-averaged diagonal closure."""
    n = len(points)
    out = np.empty((n, n)) if out is None else out

    def fill(i0, i1):
        r = _pairwise_dist(points[i0:i1], points[i0:])
        # a placeholder distance on the self pairs, closed below
        np.fill_diagonal(r, 1.0)
        _put_upper(out, i0, i1, kernel.profile(r))

    _each_block(n, n, fill)
    if kernel.log_coefficient != 0.0:
        diag = self_cell_coefficient(cell_kind, float(cell_size))
    else:
        diag = kernel.remainder_at_zero
    np.fill_diagonal(out, diag)
    return out


def _curve_effective_kernel(mesh: SurfaceMesh, kernel: KernelModel,
                            out: np.ndarray | None = None) -> np.ndarray:
    """Smooth closed meshes (even, at least 8 nodes, as ``SurfaceMesh``
    enforces) get the spectrally accurate periodic log quadrature; polygons,
    of any size, get panel collocation with exact flat-panel log integrals.
    The matrix is written into ``out`` when given (an (n, n) view, as of a
    larger matrix)."""
    if mesh.kind == "smooth-closed":
        return _smooth_curve_effective_kernel(mesh, kernel, out)
    return _polygon_effective_kernel(mesh, kernel, out)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def assemble_curve_operator(mesh: SurfaceMesh, V: WeightFn,
                            kernel: KernelModel) -> OperatorMatrix:
    """Symmetric matrix of the weighted kernel operator on a curve, on the
    quadrature that ``_curve_effective_kernel`` picks for the mesh."""
    return assemble_mixed([(mesh, V)], kernel)


def assemble_measure_operator(measure: SingularMeasure, V: WeightFn,
                              kernel: KernelModel) -> OperatorMatrix:
    """Symmetric matrix of the weighted kernel operator on an atomized
    measure; the diagonal is closed by the cell-averaged self coefficient
    of the cell each atom stands for (``_cell_shape``)."""
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


def _cross_block(points_a: np.ndarray, points_b: np.ndarray,
                 kernel: KernelModel, out: np.ndarray) -> None:
    """Plain kernel values between two point sets, written into ``out``."""
    def fill(i0, i1):
        out[i0:i1] = kernel.profile(_pairwise_dist(points_a[i0:i1], points_b))

    _each_block(len(points_a), len(points_b), fill)


def circulant_row(supports, kernel: KernelModel) -> np.ndarray | None:
    """First row of the operator ``assemble_mixed`` builds over
    ``supports`` where that operator is circulant, else None.

    It is circulant when the supports are one smooth closed mesh that is a
    regular n-gon in index order (``_regular_polygon``) with weight values
    that are all equal and nonnegative.  The row takes the dense builder's
    expressions on row 0, its diagonal closure, and the scaling by V w,
    and is then made exactly symmetric, c_j <- (c_j + c_{n-j}) / 2.  A
    weight that does not fit the mesh raises as in ``assemble_mixed``.
    """
    supports = list(supports)
    if len(supports) != 1:
        return None
    mesh, weight = supports[0]
    if not (isinstance(mesh, SurfaceMesh) and mesh.kind == "smooth-closed"):
        return None
    v = weight.values_on(mesh)
    if not (v[0] >= 0.0 and np.all(v == v[0]) and _regular_polygon(mesh)):
        return None
    rw = _kress_weight_vector(mesh.n_nodes)
    row = _smooth_curve_block(mesh, kernel, rw, 0, 1)[0]
    row[0] = _smooth_curve_diagonal(mesh, kernel, rw)[0]
    row *= v[0] * mesh.weights[0]
    return 0.5 * (row + np.roll(row[::-1], 1))


def _regular_polygon(mesh: SurfaceMesh) -> bool:
    """Whether the nodes are a regular n-gon in index order, on which the
    smooth-curve effective kernel is circulant: equal distances to the
    node centroid, equal chords between consecutive nodes (the closing one
    included), equal quadrature weights and equal parameter steps, each
    within ``_CIRCULANT_ULPS`` n eps of its mean."""
    nodes, t = mesh.nodes, mesh.param_values
    rtol = _CIRCULANT_ULPS * mesh.n_nodes * np.finfo(float).eps
    spreads = (np.hypot(*(nodes - nodes.mean(axis=0)).T),
               np.hypot(*(np.roll(nodes, -1, axis=0) - nodes).T),
               mesh.weights,
               np.diff(t, append=t[0] + TWO_PI))
    return all(np.max(np.abs(x - x.mean())) <= rtol * abs(x.mean())
               for x in spreads)


def assemble_mixed(supports, kernel: KernelModel) -> OperatorMatrix:
    """Block operator over a list of (support, weight) pairs, each support
    a ``SurfaceMesh`` or a ``SingularMeasure``.

    A curve's diagonal block takes the curve quadrature of
    ``_curve_effective_kernel``; a measure's takes pointwise kernel values
    closed by its cell's self coefficient; every cross block is plain
    kernel values.  A measure atom within one cell diagonal of a curve node
    is refused: such near-singular blocks are unresolved.
    """
    supports = list(supports)
    if not supports:
        raise InvalidArgumentError("nothing to assemble")
    points, weights = zip(*(support_atoms(s) for s, _ in supports))
    _check_separation(supports)
    v_all = np.concatenate([vfn.values_on(s) for s, vfn in supports])
    sizes = [len(p) for p in points]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    spans = [slice(offsets[i], offsets[i + 1]) for i in range(len(sizes))]
    # every block is written in place: the diagonal ones by their builders
    ktil = np.empty((int(offsets[-1]),) * 2)
    for (support, _), si in zip(supports, spans):
        if isinstance(support, SurfaceMesh):
            _curve_effective_kernel(support, kernel, ktil[si, si])
        else:
            _point_effective_kernel(support.atoms, kernel,
                                    _cell_shape(support), support.cell_size,
                                    ktil[si, si])
    for i, si in enumerate(spans):
        for j in range(i + 1, len(spans)):
            _cross_block(points[i], points[j], kernel, ktil[si, spans[j]])
    return _finalize(ktil, v_all, np.concatenate(weights))
