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

Sign-changing V is reduced to a symmetric indefinite matrix with identical
nonzero spectrum.  The one fold factors the effective-kernel matrix by
Cholesky, K = L L^T, and takes  L^T diag(V w) L,  which shares the nonzero
spectrum of K diag(V w) (Golub and Van Loan, Matrix Computations, 8.7); it
is recorded as ``node_meta["fold"] = "cholesky"``.  The kernel is positive
definite and, with the windowed split of ``kernels``, so is K on every
resolved support.  A K that is not is an under-resolved mesh: the fold
raises ``InvalidArgumentError`` (exit 2) naming the largest node spacing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .geometry import SingularMeasure, SurfaceMesh, support_atoms
from .kernels import KernelModel, self_cell_coefficient

TWO_PI = 2.0 * np.pi

# meshes below this size cannot carry the periodic quadrature and fall back
# to pointwise kernel values (degenerate, for small closed-form checks)
_MIN_QUADRATURE_NODES = 8


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
        m = np.ascontiguousarray(np.asarray(self.entries, dtype=float))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgumentError("entries must be square")
        if not np.array_equal(m, m.T):
            raise InvalidArgumentError("entries must be exactly symmetric")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _mirror(m: np.ndarray) -> np.ndarray:
    """Exactly symmetric matrix from an approximately symmetric one: the
    upper triangle is copied onto the lower one, in place."""
    for i in range(1, len(m)):
        m[i, :i] = m[:i, i]
    return m


def _pairwise_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)


def _upper_pairs(points: np.ndarray):
    """Index pairs i < j of the strict upper triangle and their distances."""
    iu, ju = np.triu_indices(len(points), 1)
    return iu, ju, np.linalg.norm(points[iu] - points[ju], axis=1)


def _symmetric(n: int, iu: np.ndarray, ju: np.ndarray, upper: np.ndarray,
               diagonal) -> np.ndarray:
    """n x n symmetric matrix from its strict upper triangle and diagonal."""
    out = np.empty((n, n))
    out[iu, ju] = upper
    out[ju, iu] = upper
    np.fill_diagonal(out, diagonal)
    return out


def _cholesky_fold(kernel_matrix: np.ndarray, v_vals: np.ndarray,
                   weights: np.ndarray) -> np.ndarray:
    """L^T diag(V w) L for the Cholesky factor K = L L^T of the kernel
    matrix, mirrored; K's storage is reused for diag(V w) L.  A K that is
    not positive definite raises ``InvalidArgumentError`` naming the node
    spacing (the largest weight).  NumPy's Cholesky keeps the work on NumPy's BLAS: SciPy's runs
    on a second BLAS library whose buffers stay resident.
    """
    try:
        low = np.linalg.cholesky(kernel_matrix)
    except np.linalg.LinAlgError:
        raise InvalidArgumentError(
            "under-resolved mesh: the kernel matrix of this sign-changing "
            "weight is not positive definite at node spacing %.4g; refine "
            "the mesh" % float(weights.max())) from None
    scaled = np.multiply((v_vals * weights)[:, None], low, out=kernel_matrix)
    return _mirror(low.T @ scaled)


def _finalize(kernel_matrix: np.ndarray, v_vals: np.ndarray,
              weights: np.ndarray, meta: dict) -> OperatorMatrix:
    """The operator matrix for kernel matrix K, weight V and quadrature
    weights w: diag(s) K diag(s) with s = sqrt(V w) for V >= 0, the one
    fold of the module docstring otherwise.  K is consumed (overwritten)."""
    signed = bool(np.any(v_vals < 0.0))
    meta = dict(meta)
    meta["signed"] = signed
    if signed:
        entries = _cholesky_fold(kernel_matrix, v_vals, weights)
        meta["fold"] = "cholesky"
    else:
        entries = _scaled(kernel_matrix, v_vals, weights)
    return OperatorMatrix(entries=entries, node_meta=meta, signed_flag=signed)


def _scaled(kernel_matrix: np.ndarray, v_vals: np.ndarray,
            weights: np.ndarray) -> np.ndarray:
    """diag(s) K diag(s) with s = sqrt(|V| w), mirrored, in K's storage."""
    s = np.sqrt(np.abs(v_vals) * weights)
    kernel_matrix *= s[:, None]
    kernel_matrix *= s[None, :]
    return _mirror(kernel_matrix)


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


def _smooth_curve_effective_kernel(mesh: SurfaceMesh,
                                   kernel: KernelModel) -> np.ndarray:
    n = mesh.n_nodes
    t = mesh.param_values
    speed = mesh.weights / (TWO_PI / n)
    iu, ju, r = _upper_pairs(mesh.nodes)
    log_factor, smooth = kernel.split(r)
    # the Kress weights integrate log_factor * log(4 sin^2((t-s)/2)) / 2;
    # the rest of log_factor * log(r) joins the smooth remainder
    half_sin = np.abs(np.sin((t[iu] - t[ju]) / 2.0))
    smooth = smooth + log_factor * np.log(r / (2.0 * half_sin))

    rw = _kress_weight_vector(n)
    upper = (0.5 * log_factor * rw[(iu - ju) % n]
             + (TWO_PI / n) * smooth) * (n / TWO_PI)
    diagonal = (0.5 * kernel.log_coefficient * rw[0]
                + (TWO_PI / n) * (kernel.remainder_at_zero
                                  + kernel.log_coefficient * np.log(speed))
                ) * (n / TWO_PI)
    return _symmetric(n, iu, ju, upper, diagonal)


def _panel_log_integrals(targets: np.ndarray, centers: np.ndarray,
                         tangents: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Exact integral of log|x - y| over flat panels, all target/panel pairs."""
    p = targets[:, None, :] - centers[None, :, :]
    along = np.einsum("ijk,jk->ij", p, tangents)
    perp = np.linalg.norm(p - along[:, :, None] * tangents[None, :, :], axis=2)
    v1 = -lengths[None, :] / 2.0 - along
    v2 = lengths[None, :] / 2.0 - along

    def antiderivative(v, b):
        flat = b <= 1e-14
        safe_b = np.where(flat, 1.0, b)
        general = (v * np.log(v * v + b * b) - 2.0 * v
                   + 2.0 * b * np.arctan(v / safe_b))
        vabs = np.maximum(np.abs(v), 1e-300)
        online = 2.0 * (v * np.log(vabs) - v)
        return np.where(flat, online, general)

    return 0.5 * (antiderivative(v2, perp) - antiderivative(v1, perp))


def _polygon_effective_kernel(mesh: SurfaceMesh,
                              kernel: KernelModel) -> np.ndarray:
    n = mesh.n_nodes
    w = mesh.weights
    iu, ju, r = _upper_pairs(mesh.nodes)
    upper_log, upper_smooth = kernel.split(r)
    log_factor = _symmetric(n, iu, ju, upper_log, kernel.log_coefficient)
    smooth = _symmetric(n, iu, ju, upper_smooth, kernel.remainder_at_zero)
    # the pair arrays are dead: free them before the panel integrals, whose
    # temporaries set the peak memory of the assembly
    del iu, ju, r, upper_log, upper_smooth

    intlog = _panel_log_integrals(mesh.nodes, mesh.nodes, mesh.tangents, w)
    # self panel: integral of log|x_i - y| over the own panel, exactly
    np.fill_diagonal(intlog, w * (np.log(w / 2.0) - 1.0))
    entries = log_factor * intlog + smooth * w[None, :]
    ktil = entries / w[None, :]
    return 0.5 * (ktil + ktil.T)


def _point_effective_kernel(points: np.ndarray, kernel: KernelModel,
                            cell_kind: str, cell_size) -> np.ndarray:
    """Pointwise kernel with the cell-averaged diagonal closure."""
    iu, ju, r = _upper_pairs(points)
    if kernel.log_coefficient != 0.0:
        diag = self_cell_coefficient(cell_kind, float(cell_size))
    else:
        diag = kernel.remainder_at_zero
    return _symmetric(len(points), iu, ju, kernel.profile(r), diag)


def _curve_effective_kernel(mesh: SurfaceMesh,
                            kernel: KernelModel) -> np.ndarray:
    """Smooth closed meshes get the spectrally accurate periodic log
    quadrature; polygons get panel collocation with exact flat-panel log
    integrals.  Meshes below the quadrature minimum fall back to pointwise
    kernel values with the segment diagonal closure."""
    if mesh.n_nodes < _MIN_QUADRATURE_NODES:
        return _point_effective_kernel(mesh.nodes, kernel, "segment",
                                       float(mesh.weights.max()))
    if mesh.kind == "smooth-closed":
        return _smooth_curve_effective_kernel(mesh, kernel)
    return _polygon_effective_kernel(mesh, kernel)


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
                              kernel: KernelModel,
                              cell_kind: str = "segment") -> OperatorMatrix:
    """Symmetric matrix of the weighted kernel operator on an atomized
    measure; the diagonal is closed by the cell-averaged self coefficient
    at the measure's cell size."""
    _check_plane(kernel, measure.ambient_dim)
    if measure.cell_size <= 0.0:
        raise InvalidArgumentError("measure cell_size must be positive")
    v_vals = V.values_on(measure)
    ktil = _point_effective_kernel(measure.atoms, kernel, cell_kind,
                                   measure.cell_size)
    meta = {"source": "measure", "n": measure.n_atoms,
            "cell_kind": cell_kind, "kernel": kernel.description}
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
    cell diagonal away from every excluded curve node."""
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
        d = _pairwise_dist(centers, mesh.nodes).min(axis=1)
        centers = centers[d > delta * np.sqrt(2.0)]
    if callable(v0):
        dens = np.asarray([v0(c) for c in centers], dtype=float)
    else:
        dens = np.full(len(centers), float(v0))
    return CellGrid(centers=centers, delta=delta, v0=dens)


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
    kernel_blocks = []

    if grid is not None and grid.n_cells:
        for mesh, _ in curves:
            d = _pairwise_dist(grid.centers, mesh.nodes).min()
            if d <= grid.delta * np.sqrt(2.0):
                raise InvalidArgumentError(
                    "grid cells violate the one-cell-diagonal separation "
                    "from curve nodes")
        blocks_points.append(grid.centers)
        blocks_weights.append(np.full(grid.n_cells, grid.delta ** 2))
        blocks_vvals.append(grid.v0)
        kernel_blocks.append(_point_effective_kernel(
            grid.centers, kernel, "square", grid.delta))

    for mesh, vfn in curves:
        _check_plane(kernel, mesh.ambient_dim)
        blocks_points.append(mesh.nodes)
        blocks_weights.append(mesh.weights)
        blocks_vvals.append(vfn.values_on(mesh))
        kernel_blocks.append(_curve_effective_kernel(mesh, kernel))

    sizes = [len(p) for p in blocks_points]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    ktil = np.empty((total, total))
    for i in range(len(blocks_points)):
        si = slice(offsets[i], offsets[i + 1])
        ktil[si, si] = kernel_blocks[i]
        for j in range(i + 1, len(blocks_points)):
            sj = slice(offsets[j], offsets[j + 1])
            r = _pairwise_dist(blocks_points[i], blocks_points[j])
            cross = kernel.profile(r)
            ktil[si, sj] = cross
            ktil[sj, si] = cross.T
    v_all = np.concatenate(blocks_vvals)
    w_all = np.concatenate(blocks_weights)
    meta = {"source": "mixed", "blocks": sizes, "kernel": kernel.description}
    return _finalize(ktil, v_all, w_all, meta)
