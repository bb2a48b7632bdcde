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
* atomized measures: pointwise kernel values off the diagonal, with the
  cell-averaged self coefficient closing the diagonal;
* mixed configurations: block matrices over area cells and curve nodes.

Each effective-kernel matrix is built in one blocked pass over its upper
triangle.  A block is a slice of rows [i0, i1) against the columns j >= i0:
its distances come from a broadcast of two node slices, its kernel
evaluations and panel integrals run on cache-resident temporaries, and its
part on and above the diagonal is written straight into the one n x n
output.  No pair-index array and no n^2 temporary exists.  The elementwise
expressions are those of an all-pairs evaluation, so the matrices agree
with one bit for bit.  The builders, the cross blocks of mixed
configurations, the scaling and the sign fold all read and write the upper
triangle only: ``_finalize`` alone fills the lower one, by one blocked
transpose copy of the finished operator.

The pass runs on every core in the process's CPU affinity: the calling
thread and up to ``_WORKERS - 1`` pool threads take the row blocks one at a
time, largest first.  NumPy releases the GIL inside its ufuncs, and each
block writes a disjoint slice of the output, so the result does not depend
on the worker count.  Each worker's block is ``_BLOCK_BYTES // _WORKERS``,
which keeps the bytes in flight at one serial block.  The first exception
raised in a block stops the blocks not yet started and reaches the caller
once every running block has ended; warnings raised in a block reach the
caller's filters as usual.  The same pass scales the upper triangle by
diag(s) and fills the cross blocks of mixed configurations; their diagonal
blocks are built in place, in views of the one operator matrix.

Sign-changing V is reduced to a symmetric indefinite matrix with identical
nonzero spectrum.  The one fold factors the effective-kernel matrix by
Cholesky, K = L L^T, read from K's upper triangle, and takes
L^T diag(V w) L,  which shares the nonzero spectrum of K diag(V w) (Golub
and Van Loan, Matrix Computations, 8.7); it is recorded as
``node_meta["fold"] = "cholesky"``.  The kernel is positive definite and,
with the windowed split of ``kernels``, so is K on every resolved support.
A K that is not is an under-resolved mesh: the fold raises
``InvalidArgumentError`` (exit 2) naming the largest node spacing.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError
from .geometry import (DEFAULT_ATOM_CAP, SingularMeasure, SurfaceMesh,
                       support_atoms)
from .kernels import KernelModel, self_cell_coefficient

TWO_PI = 2.0 * np.pi

# meshes below this size cannot carry the periodic quadrature and fall back
# to pointwise kernel values (degenerate, for small closed-form checks)
_MIN_QUADRATURE_NODES = 8
# byte size of the (rows, n) blocks in flight at once in the upper-triangle
# pass, split evenly over the workers: the kernel and panel-integral
# temporaries of a block stay cache-resident
_BLOCK_BYTES = 1 << 19
# columns per block of the Cholesky fold's upper-triangle product: wide
# enough for BLAS to run near its GEMM rate, narrow enough that the lower
# half of each block's diagonal square, computed and then dropped,
# stays a small share of the work
_FOLD_COLUMNS = 256
# threads that run the row blocks: the cores this process may run on
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFn:
    """Weight V on a support: constant, angular (cos of the curve parameter),
    or tabulated per node."""

    kind: str
    value: float = 1.0
    table: np.ndarray | None = None

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
    """Dense real symmetric discretization with provenance metadata."""

    entries: np.ndarray
    node_meta: dict = field(default_factory=dict)
    signed_flag: bool = False

    def __post_init__(self):
        # a view: freezing it leaves the caller's array writeable, and no
        # n x n copy is made
        m = np.ascontiguousarray(np.asarray(self.entries, dtype=float)).view()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgumentError("entries must be square")
        _check_symmetric(m)
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _check_symmetric(m: np.ndarray) -> None:
    """Raise unless m equals its transpose exactly: each row block's strip
    left of its square, and the square, against their mirror images."""
    def check(i0, i1):
        if not np.array_equal(m[i0:i1, :i1], m[:i1, i0:i1].T):
            raise InvalidArgumentError("entries must be exactly symmetric")

    _each_block(len(m), len(m), check)


def _mirror(m: np.ndarray) -> np.ndarray:
    """Exactly symmetric matrix from its upper triangle, which is copied
    onto the lower one in place, one row block at a time."""
    def fill(i0, i1):
        m[i0:i1, :i0] = m[:i0, i0:i1].T
        square = m[i0:i1, i0:i1]
        np.copyto(square, square.T, where=~_upper(i1 - i0))

    _each_block(len(m), len(m), fill)
    return m


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


def _cholesky_fold(kernel_matrix: np.ndarray, v_vals: np.ndarray,
                   weights: np.ndarray) -> np.ndarray:
    """Upper triangle of L^T diag(V w) L for the Cholesky factor K = L L^T
    of the kernel matrix, written over K's storage.  K is factored as K^T,
    whose lower triangle, the one LAPACK reads, is K's upper one.  A K that
    is not positive definite raises ``InvalidArgumentError`` naming the
    node spacing (the largest weight).  NumPy's Cholesky keeps the work on
    NumPy's BLAS: SciPy's runs on a second BLAS library whose buffers stay
    resident.

    The product is computed one block of columns [c0, c1) at a time: L is
    lower triangular, so entry (i, j) with i <= j sums over the rows k >= j
    of L alone, and the block is L[c0:, :c1]^T (diag(V w) L)[c0:, c0:c1].
    That is n^3 / 3 flops where the full product takes 2 n^3.
    """
    try:
        low = np.linalg.cholesky(kernel_matrix.T)
    except np.linalg.LinAlgError:
        raise InvalidArgumentError(
            "under-resolved mesh: the kernel matrix of this sign-changing "
            "weight is not positive definite at node spacing %.4g; refine "
            "the mesh" % float(weights.max())) from None
    vw = v_vals * weights
    for c0 in range(0, len(vw), _FOLD_COLUMNS):
        c1 = min(c0 + _FOLD_COLUMNS, len(vw))
        block = low[c0:, :c1].T @ (vw[c0:, None] * low[c0:, c0:c1])
        kernel_matrix[:c0, c0:c1] = block[:c0]
        np.copyto(kernel_matrix[c0:c1, c0:c1], block[c0:],
                  where=_upper(c1 - c0))
    return kernel_matrix


def _finalize(kernel_matrix: np.ndarray, v_vals: np.ndarray,
              weights: np.ndarray, meta: dict) -> OperatorMatrix:
    """The operator matrix for kernel matrix K, weight V and quadrature
    weights w: diag(s) K diag(s) with s = sqrt(V w) for V >= 0, the one
    fold of the module docstring otherwise.  K is read from its upper
    triangle and overwritten; the one mirror makes the result symmetric."""
    signed = bool(np.any(v_vals < 0.0))
    meta = dict(meta)
    meta["signed"] = signed
    if signed:
        upper = _cholesky_fold(kernel_matrix, v_vals, weights)
        meta["fold"] = "cholesky"
    else:
        upper = _scaled(kernel_matrix, v_vals, weights)
    return OperatorMatrix(entries=_mirror(upper), node_meta=meta,
                          signed_flag=signed)


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
    Exact for trigonometric polynomials of degree below m.
    """
    m = n // 2
    t = TWO_PI * np.arange(n) / n
    ks = np.arange(1, m)
    if len(ks):
        series = np.cos(np.outer(t, ks)) @ (1.0 / ks)
    else:
        series = np.zeros(n)
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


def _smooth_curve_effective_kernel(mesh: SurfaceMesh, kernel: KernelModel,
                                   out: np.ndarray | None = None
                                   ) -> np.ndarray:
    n = mesh.n_nodes
    t = mesh.param_values
    speed = mesh.weights / (TWO_PI / n)
    rw = _kress_weight_vector(n)
    idx = np.arange(n)
    out = np.empty((n, n)) if out is None else out

    def fill(i0, i1):
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
        _put_upper(out, i0, i1, (
            0.5 * log_factor * rw[(idx[i0:i1, None] - idx[None, i0:]) % n]
            + (TWO_PI / n) * smooth) * (n / TWO_PI))

    _each_block(n, n, fill)
    diagonal = (0.5 * kernel.log_coefficient * rw[0]
                + (TWO_PI / n) * (kernel.remainder_at_zero
                                  + kernel.log_coefficient * np.log(speed))
                ) * (n / TWO_PI)
    np.fill_diagonal(out, diagonal)
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
    """Smooth closed meshes get the spectrally accurate periodic log
    quadrature; polygons get panel collocation with exact flat-panel log
    integrals.  Meshes below the quadrature minimum fall back to pointwise
    kernel values with the segment diagonal closure.  The matrix is written
    into ``out`` when given (an (n, n) view, as of a larger matrix)."""
    if mesh.n_nodes < _MIN_QUADRATURE_NODES:
        return _point_effective_kernel(mesh.nodes, kernel, "segment",
                                       float(mesh.weights.max()), out)
    if mesh.kind == "smooth-closed":
        return _smooth_curve_effective_kernel(mesh, kernel, out)
    return _polygon_effective_kernel(mesh, kernel, out)


# ---------------------------------------------------------------------------
# assembly entry points
# ---------------------------------------------------------------------------

def _check_plane(kernel: KernelModel, ambient_dim: int) -> None:
    if kernel.ambient_dim != ambient_dim or ambient_dim != 2:
        raise InvalidArgumentError("kernel/support dimension mismatch")


def assemble_curve_operator(mesh: SurfaceMesh, V: WeightFn,
                            kernel: KernelModel) -> OperatorMatrix:
    """Symmetric matrix of the weighted kernel operator on a curve, on the
    quadrature that ``_curve_effective_kernel`` picks for the mesh."""
    _check_plane(kernel, mesh.ambient_dim)
    v_vals = V.values_on(mesh)
    ktil = _curve_effective_kernel(mesh, kernel)
    meta = {"source": "curve", "kind": mesh.kind, "n": mesh.n_nodes,
            "kernel": kernel.description}
    return _finalize(ktil, v_vals, mesh.weights, meta)


def assemble_measure_operator(measure: SingularMeasure, V: WeightFn,
                              kernel: KernelModel) -> OperatorMatrix:
    """Symmetric matrix of the weighted kernel operator on an atomized
    measure; the diagonal is closed by the cell-averaged self coefficient
    of a segment cell at the measure's cell size."""
    _check_plane(kernel, measure.ambient_dim)
    if measure.cell_size <= 0.0:
        raise InvalidArgumentError("measure cell_size must be positive")
    v_vals = V.values_on(measure)
    ktil = _point_effective_kernel(measure.atoms, kernel, "segment",
                                   measure.cell_size)
    meta = {"source": "measure", "n": measure.n_atoms,
            "cell_kind": "segment", "kernel": kernel.description}
    return _finalize(ktil, v_vals, measure.masses, meta)


# ---------------------------------------------------------------------------
# mixed area + curve configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellGrid:
    """Uniform square cells carrying an absolutely continuous density."""

    centers: np.ndarray
    delta: float
    v0: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.centers, dtype=float))
        v = np.ascontiguousarray(np.asarray(self.v0, dtype=float))
        if c.ndim != 2 or c.shape[1] != 2 or len(v) != len(c):
            raise InvalidArgumentError("grid centers/density mismatch")
        if self.delta <= 0.0:
            raise InvalidArgumentError("cell size must be positive")
        c.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "v0", v)

    @property
    def n_cells(self) -> int:
        return len(self.centers)


def make_cell_grid(domain, delta: float, v0=1.0,
                   exclude_meshes=()) -> CellGrid:
    """Uniform grid of cells covering ``domain`` (("disk", center, R) or
    ("box", lo, hi)), keeping cells whose centers lie inside and at least one
    cell diagonal away from every excluded curve node.  A bounding grid above
    ``DEFAULT_ATOM_CAP`` cells raises ``ResourceLimitError`` unbuilt."""
    if not delta > 0.0:
        raise InvalidArgumentError("cell size must be positive")
    kind = domain[0]
    if kind == "disk":
        center = np.asarray(domain[1], dtype=float)
        radius = float(domain[2])
        lo = center - radius
        hi = center + radius
    elif kind == "box":
        lo = np.asarray(domain[1], dtype=float)
        hi = np.asarray(domain[2], dtype=float)
    else:
        raise InvalidArgumentError("domain must be ('disk', c, R) or ('box', lo, hi)")
    nx = int(np.ceil((hi[0] - lo[0]) / delta))
    ny = int(np.ceil((hi[1] - lo[1]) / delta))
    if nx * ny > DEFAULT_ATOM_CAP:
        raise ResourceLimitError(
            "cell grid of %d x %d cells exceeds the atom cap %d"
            % (nx, ny, DEFAULT_ATOM_CAP))
    gx = lo[0] + delta * (np.arange(nx) + 0.5)
    gy = lo[1] + delta * (np.arange(ny) + 0.5)
    xx, yy = np.meshgrid(gx, gy, indexing="ij")
    centers = np.stack([xx.ravel(), yy.ravel()], axis=1)
    if kind == "disk":
        keep = np.linalg.norm(centers - center[None, :], axis=1) <= radius
    else:
        keep = np.all((centers >= lo) & (centers <= hi), axis=1)
    centers = centers[keep]
    for mesh in exclude_meshes:
        centers = centers[_nearest_dist(centers, mesh.nodes)
                          > delta * np.sqrt(2.0)]
    if callable(v0):
        dens = np.asarray([v0(c) for c in centers], dtype=float)
    else:
        dens = np.full(len(centers), float(v0))
    return CellGrid(centers=centers, delta=delta, v0=dens)


def _nearest_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point of ``a`` to the nearest point of ``b``,
    over row blocks of ``a``: no (len(a), len(b)) temporary exists."""
    out = np.empty(len(a))

    def fill(i0, i1):
        out[i0:i1] = _pairwise_dist(a[i0:i1], b).min(axis=1)

    _each_block(len(a), len(b), fill)
    return out


def _cross_block(points_a: np.ndarray, points_b: np.ndarray,
                 kernel: KernelModel, out: np.ndarray) -> None:
    """Plain kernel values between two point sets, written into ``out``."""
    def fill(i0, i1):
        out[i0:i1] = kernel.profile(_pairwise_dist(points_a[i0:i1], points_b))

    _each_block(len(points_a), len(points_b), fill)


def assemble_mixed(grid: CellGrid | None, curves, kernel: KernelModel,
                   ) -> OperatorMatrix:
    """Block operator over area cells and a list of (mesh, weight) curves.

    Area-area entries are cell-center kernel values with the square
    self-cell diagonal; curve blocks reuse the curve quadrature; all cross
    blocks are plain kernel values.  Cells closer than one cell diagonal to
    a curve node are rejected: such near-singular blocks are unresolved.
    """
    curves = list(curves)
    if grid is None and not curves:
        raise InvalidArgumentError("nothing to assemble")
    blocks_points = []
    blocks_weights = []
    blocks_vvals = []

    with_grid = grid is not None and grid.n_cells > 0
    if with_grid:
        for mesh, _ in curves:
            d = _nearest_dist(grid.centers, mesh.nodes).min()
            if d <= grid.delta * np.sqrt(2.0):
                raise InvalidArgumentError(
                    "grid cells violate the one-cell-diagonal separation "
                    "from curve nodes")
        blocks_points.append(grid.centers)
        blocks_weights.append(np.full(grid.n_cells, grid.delta ** 2))
        blocks_vvals.append(grid.v0)

    for mesh, vfn in curves:
        _check_plane(kernel, mesh.ambient_dim)
        blocks_points.append(mesh.nodes)
        blocks_weights.append(mesh.weights)
        blocks_vvals.append(vfn.values_on(mesh))

    sizes = [len(p) for p in blocks_points]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    spans = [slice(offsets[i], offsets[i + 1]) for i in range(len(sizes))]
    # every block is written in place: the diagonal ones by their builders
    ktil = np.empty((total, total))
    if with_grid:
        _point_effective_kernel(grid.centers, kernel, "square", grid.delta,
                                ktil[spans[0], spans[0]])
    for (mesh, _), si in zip(curves, spans[len(spans) - len(curves):]):
        _curve_effective_kernel(mesh, kernel, ktil[si, si])
    for i, si in enumerate(spans):
        for j in range(i + 1, len(spans)):
            sj = spans[j]
            _cross_block(blocks_points[i], blocks_points[j], kernel,
                         ktil[si, sj])
    v_all = np.concatenate(blocks_vvals)
    w_all = np.concatenate(blocks_weights)
    meta = {"source": "mixed", "blocks": sizes, "kernel": kernel.description}
    return _finalize(ktil, v_all, w_all, meta)
