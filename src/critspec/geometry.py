"""Curves, atomized singular measures, regularity estimation, generic bases.

Every support lives in the plane, the one ambient space of the kernels:
``SurfaceMesh`` and ``SingularMeasure`` refuse nodes and atoms that are not
(n, 2) arrays.  Surfaces are plane curves: smooth closed ones (circle,
ellipse, star) sampled at an even number of equispaced parameters, at least
8, and polygons meshed with panels graded toward the corners.  Singular
measures are finite atom sets (the Cantor set on the unit segment, the unit
square's grid) carrying masses and a cell scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, InternalError, ResourceLimitError

TWO_PI = 2.0 * np.pi

# hard cap on the atoms (curve nodes, measure atoms, cells) of one support
DEFAULT_ATOM_CAP = 1 << 15


def _check_atom_count(n_atoms, text: str) -> None:
    """Refuse more atoms than the cap, unbuilt; the cap ends ``text``."""
    if n_atoms > DEFAULT_ATOM_CAP:
        raise ResourceLimitError("%s %d" % (text, DEFAULT_ATOM_CAP))


def _repeats(points: np.ndarray) -> bool:
    """Whether two rows of ``points`` are equal, -0.0 equal to 0.0 and NaN
    to nothing: the rows sorted by one lexsort, each against the next."""
    rows = points[np.lexsort(points.T[::-1])]
    return bool(np.any(np.all(rows[1:] == rows[:-1], axis=1)))


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceMesh:
    """Discretized plane curve carrying quadrature weights for its measure.

    ``weights`` are the arclength quadrature weights (units of length), so
    their sum approximates the total curve measure.  ``param_values`` are the
    curve parameters of the nodes: angles in [0, 2*pi) for smooth closed
    curves, cumulative arclength of panel midpoints for polygons.  A smooth
    closed mesh has an even number of nodes, at least 8: its periodic
    log-kernel quadrature pairs nodes across half-periods.
    """

    nodes: np.ndarray          # (n, 2)
    weights: np.ndarray        # (n,)
    tangents: np.ndarray       # (n, 2), unit vectors
    param_values: np.ndarray   # (n,)
    kind: str                  # "smooth-closed" | "polygon"

    def __post_init__(self):
        nodes = _frozen(np.asarray(self.nodes, dtype=float))
        weights = _frozen(np.asarray(self.weights, dtype=float))
        tangents = _frozen(np.asarray(self.tangents, dtype=float))
        params = _frozen(np.asarray(self.param_values, dtype=float))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "tangents", tangents)
        object.__setattr__(self, "param_values", params)
        if self.kind not in ("smooth-closed", "polygon"):
            raise InvalidArgumentError("unknown mesh kind %r" % (self.kind,))
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise InvalidArgumentError("nodes must be (n, 2)")
        if self.kind == "smooth-closed" and (len(nodes) < 8
                                             or len(nodes) % 2 != 0):
            raise InvalidArgumentError("n_nodes must be even and >= 8")
        if np.any(weights <= 0.0):
            raise InvalidArgumentError("all quadrature weights must be positive")
        norms = np.linalg.norm(tangents, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise InvalidArgumentError("tangents must be unit vectors")
        # cyclic node sequence must not repeat points (-0.0 equals 0.0)
        if _repeats(nodes):
            raise InvalidArgumentError("repeated nodes on the curve")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class SingularMeasure:
    """Atomized measure: points, masses, and the diameter of the cell each
    atom stands in for.  ``alpha_nominal`` lies in (0, 2]."""

    atoms: np.ndarray       # (n, 2)
    masses: np.ndarray      # (n,)
    cell_size: float
    alpha_nominal: float

    def __post_init__(self):
        atoms = _frozen(np.asarray(self.atoms, dtype=float))
        masses = _frozen(np.asarray(self.masses, dtype=float))
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "masses", masses)
        if atoms.ndim != 2 or atoms.shape[1] != 2:
            raise InvalidArgumentError("atoms must be (n, 2)")
        if np.any(masses <= 0.0) or not np.all(np.isfinite(masses)):
            raise InvalidArgumentError("masses must be positive and finite")
        if not (0.0 < self.alpha_nominal <= 2.0):
            raise InvalidArgumentError("alpha_nominal must lie in (0, 2]")
        if not 0.0 < self.cell_size < np.inf:
            raise InvalidArgumentError(
                "cell_size must be positive and finite, got %r"
                % (self.cell_size,))
        if _repeats(atoms):
            raise InvalidArgumentError("atoms must be pairwise distinct")

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class AhlforsParams:
    """Estimated regularity exponent and frame constants of a measure."""

    alpha_hat: float
    c0_hat: float
    c1_hat: float
    radii: np.ndarray
    residual: float
    degenerate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "radii", _frozen(np.asarray(self.radii, float)))
        if not self.degenerate and self.c0_hat > self.c1_hat * (1 + 1e-12):
            raise InternalError("frame constants out of order")


def support_atoms(obj) -> tuple[np.ndarray, np.ndarray]:
    """Uniform view of a mesh or measure as weighted points."""
    if isinstance(obj, SurfaceMesh):
        return obj.nodes, obj.weights
    if isinstance(obj, SingularMeasure):
        return obj.atoms, obj.masses
    raise InvalidArgumentError("expected SurfaceMesh or SingularMeasure")


# ---------------------------------------------------------------------------
# smooth shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Circle:
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0

    def point(self, t):
        return np.stack(
            [self.center[0] + self.radius * np.cos(t),
             self.center[1] + self.radius * np.sin(t)], axis=-1)

    def velocity(self, t):
        return np.stack(
            [-self.radius * np.sin(t), self.radius * np.cos(t)], axis=-1)


@dataclass(frozen=True)
class Ellipse:
    a: float
    b: float
    center: tuple[float, float] = (0.0, 0.0)

    def point(self, t):
        return np.stack(
            [self.center[0] + self.a * np.cos(t),
             self.center[1] + self.b * np.sin(t)], axis=-1)

    def velocity(self, t):
        return np.stack([-self.a * np.sin(t), self.b * np.cos(t)], axis=-1)


@dataclass(frozen=True)
class Star:
    """Smooth star-shaped curve r(theta) = radius * (1 + amplitude cos(arms*theta))."""

    radius: float = 1.0
    amplitude: float = 0.3
    arms: int = 5
    center: tuple[float, float] = (0.0, 0.0)

    def _r(self, t):
        return self.radius * (1.0 + self.amplitude * np.cos(self.arms * t))

    def point(self, t):
        r = self._r(t)
        return np.stack(
            [self.center[0] + r * np.cos(t), self.center[1] + r * np.sin(t)],
            axis=-1)

    def velocity(self, t):
        r = self._r(t)
        dr = -self.radius * self.amplitude * self.arms * np.sin(self.arms * t)
        return np.stack(
            [dr * np.cos(t) - r * np.sin(t), dr * np.sin(t) + r * np.cos(t)],
            axis=-1)


# the size fields of each smooth shape
_SHAPE_SIZES = {Circle: ("radius",), Ellipse: ("a", "b"), Star: ("radius",)}
# the exponent e of the sizes in [2^-e, 2^e]: their squares, and the
# squared speeds of np.linalg.norm, are normal doubles
_SIZE_EXPONENT = 511


def make_smooth_curve(shape, n_nodes: int) -> SurfaceMesh:
    """Equispaced-in-parameter mesh of a smooth closed shape.

    ``n_nodes`` must be even and at least 8, which ``SurfaceMesh`` enforces;
    above ``DEFAULT_ATOM_CAP`` it is refused unbuilt.  The shape's sizes
    (circle and star radius, ellipse axes) must be positive and finite, and
    lie in [2^-511, 2^511], where their squares are normal doubles; a
    shape whose squared speed still leaves that range (a star's arms
    multiply it) is refused too.
    """
    _check_atom_count(n_nodes, "%d nodes exceed the cap of" % n_nodes)
    if isinstance(shape, Star) and not (0.0 <= shape.amplitude < 1.0):
        raise InvalidArgumentError("star amplitude must lie in [0, 1)")
    kind = type(shape).__name__.lower()
    sizes = _SHAPE_SIZES.get(type(shape), ())
    for name in sizes:
        size = getattr(shape, name)
        if not 0.0 < size < np.inf:
            raise InvalidArgumentError(
                "%s %s must be positive and finite, got %r"
                % (kind, name, size))
        if not 2.0 ** -_SIZE_EXPONENT <= size <= 2.0 ** _SIZE_EXPONENT:
            raise InvalidArgumentError(
                "%s %s must lie in [2^-%d, 2^%d] = [%.3g, %.3g], where its "
                "square is a normal double, got %r"
                % (kind, name, _SIZE_EXPONENT, _SIZE_EXPONENT,
                   2.0 ** -_SIZE_EXPONENT, 2.0 ** _SIZE_EXPONENT, size))
    t = TWO_PI * np.arange(n_nodes) / n_nodes
    nodes = shape.point(t)
    vel = shape.velocity(t)
    with np.errstate(over="ignore"):
        speed = np.linalg.norm(vel, axis=1)
    # the squared speed is a normal double exactly where the speed lies in
    # [2^-511, inf)
    if not np.all((speed >= 2.0 ** -_SIZE_EXPONENT) & (speed < np.inf)):
        raise InvalidArgumentError(
            "the squared speed of the %s with %s leaves the normal double "
            "range; bring its sizes nearer to 1"
            % (kind, ", ".join("%s %r" % (name, getattr(shape, name))
                               for name in sizes)))
    return SurfaceMesh(
        nodes=nodes,
        # max: n_nodes = 0 must reach SurfaceMesh's refusal, not divide by 0
        weights=speed * (TWO_PI / max(n_nodes, 1)),
        tangents=vel / speed[:, None],
        param_values=t,
        kind="smooth-closed",
    )


def make_polygon_curve(vertices, panels_per_edge: int,
                       grading_exponent: float = 3.0) -> SurfaceMesh:
    """Closed polygon meshed with panels graded toward every corner.

    Each edge receives ``panels_per_edge`` panels (even, >= 2); on each
    half-edge the breakpoints follow the power map s = (L/2) (2k/m)^q, so
    q = 1 is the uniform mesh and larger q concentrates panels at the
    corners.  Nodes are panel midpoints, weights are panel lengths.  More
    than ``DEFAULT_ATOM_CAP`` panels in all are refused unbuilt.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
        raise InvalidArgumentError("need at least 3 plane vertices")
    if _repeats(verts):
        raise InvalidArgumentError("repeated vertices")
    if grading_exponent < 1.0:
        raise InvalidArgumentError("grading exponent must be >= 1")
    if panels_per_edge < 2 or panels_per_edge % 2 != 0:
        raise InvalidArgumentError("panels_per_edge must be even and >= 2")
    _check_atom_count(panels_per_edge * len(verts), "%d x %d panels exceed "
                      "the cap of" % (len(verts), panels_per_edge))
    # reject collinear consecutive triples: corners must be genuine
    nv = len(verts)
    for i in range(nv):
        a, b, c = verts[i - 1], verts[i], verts[(i + 1) % nv]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if abs(cross) < 1e-14:
            raise InvalidArgumentError("three consecutive vertices are collinear")

    m = panels_per_edge
    k = np.arange(m // 2 + 1, dtype=float)
    half = 0.5 * (2.0 * k / m) ** grading_exponent
    brk = np.concatenate([half, (1.0 - half[::-1])[1:]])
    # the widths of the second half mirror the first's exactly: 1 - half
    # would lose the relative digits of the small corner panels
    widths = np.diff(half)
    widths = np.concatenate([widths, widths[::-1]])

    nodes, weights, tangents, params = [], [], [], []
    offset = 0.0
    for i in range(nv):
        a, b = verts[i], verts[(i + 1) % nv]
        edge = b - a
        length = float(np.linalg.norm(edge))
        tan = edge / length
        s0, s1 = brk[:-1], brk[1:]
        mids = (s0 + s1) / 2.0
        nodes.append(a[None, :] + edge[None, :] * mids[:, None])
        weights.append(widths * length)
        tangents.append(np.tile(tan, (m, 1)))
        params.append(offset + mids * length)
        offset += length
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    tangents = np.concatenate(tangents)
    params = np.concatenate(params)
    return SurfaceMesh(
        nodes=nodes,
        weights=weights,
        tangents=tangents,
        param_values=params,
        kind="polygon",
    )


# ---------------------------------------------------------------------------
# singular measures
# ---------------------------------------------------------------------------

def make_cantor_measure(depth: int) -> SingularMeasure:
    """Level-``depth`` middle-thirds Cantor approximation on the unit
    segment [0, 1] x {0}.

    2^depth atoms sit at the midpoints of the level-depth intervals, each of
    mass 2^{-depth}; the cell size is the interval length 3^{-depth} and
    the nominal regularity exponent is log 2 / log 3.  More than
    ``DEFAULT_ATOM_CAP`` atoms are refused unbuilt, 2^depth included.
    """
    if depth < 1:
        raise InvalidArgumentError("depth must be >= 1")
    # 2^depth > cap exactly when depth reaches the cap's bit length
    _check_atom_count(1 << min(depth, DEFAULT_ATOM_CAP.bit_length()),
                      "2^%d atoms exceed the cap of" % depth)
    mids = np.array([0.5])
    for _ in range(depth):
        mids = np.concatenate([mids / 3.0, (mids + 2.0) / 3.0])
    mids.sort()
    return SingularMeasure(
        atoms=np.stack([mids, np.zeros_like(mids)], axis=1),
        masses=np.full(len(mids), 2.0 ** (-depth)),
        cell_size=3.0 ** (-depth),
        alpha_nominal=np.log(2.0) / np.log(3.0),
    )


def make_uniform_square_measure(n_per_side: int) -> SingularMeasure:
    """Unit-mass uniform grid measure on the unit square [0, 1]^2: one atom
    at each cell center (k + 0.5) / n_per_side, refused unbuilt above
    ``DEFAULT_ATOM_CAP`` atoms."""
    if n_per_side < 1:
        raise InvalidArgumentError("n_per_side must be >= 1")
    _check_atom_count(n_per_side ** 2, "%d x %d atoms exceed the cap of"
                      % (n_per_side, n_per_side))
    g = (np.arange(n_per_side) + 0.5) / n_per_side
    xx, yy = np.meshgrid(g, g, indexing="ij")
    atoms = np.stack([xx.ravel(), yy.ravel()], axis=1)
    return SingularMeasure(
        atoms=atoms,
        masses=np.full(len(atoms), 1.0 / len(atoms)),
        cell_size=1.0 / n_per_side,
        alpha_nominal=2.0,
    )


# ---------------------------------------------------------------------------
# regularity estimation
# ---------------------------------------------------------------------------

def estimate_ahlfors(obj, radii, sample_count: int = 32,
                     seed: int = 0) -> AhlforsParams:
    """Estimate the regularity exponent by log-log regression of ball masses.

    For ``sample_count`` centers drawn on the support, computes the mass
    mu(B(X, r)) over the radii ladder; alpha_hat is the mean least-squares
    slope of log mu against log r, and the frame constants are the extremes
    of mu(B(X, r)) r^{-alpha_hat}.  A support on which the ball mass never
    varies yields the degenerate flag with slope 0 and an infinite residual
    sentinel.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise InvalidArgumentError("empty radii ladder")
    if np.any(radii <= 0.0):
        raise InvalidArgumentError("radii must be positive")
    if sample_count < 1:
        raise InvalidArgumentError("sample_count must be >= 1")
    points, masses = support_atoms(obj)
    rng = np.random.default_rng(seed)
    take = min(sample_count, len(points))
    centers = points[rng.choice(len(points), size=take, replace=False)]

    dists = np.linalg.norm(centers[:, None, :] - points[None, :, :], axis=2)
    ball = (dists[:, :, None] <= radii[None, None, :])
    mu = np.einsum("cpr,p->cr", ball, masses)

    logr = np.log(radii)
    logmu = np.log(np.maximum(mu, 1e-300))
    var_r = np.var(logr)
    slopes = np.empty(take)
    residuals = np.empty(take)
    for c in range(take):
        slope = np.cov(logr, logmu[c], bias=True)[0, 1] / var_r
        fit = logmu[c].mean() + slope * (logr - logr.mean())
        slopes[c] = slope
        residuals[c] = float(np.sqrt(np.mean((logmu[c] - fit) ** 2)))

    degenerate = bool(np.all(np.ptp(logmu, axis=1) == 0.0))
    alpha = float(slopes.mean())
    if degenerate:
        return AhlforsParams(
            alpha_hat=0.0, c0_hat=0.0, c1_hat=0.0, radii=radii,
            residual=np.inf, degenerate=True)
    frame = mu / radii[None, :] ** alpha
    return AhlforsParams(
        alpha_hat=alpha,
        c0_hat=float(frame.min()),
        c1_hat=float(frame.max()),
        radii=radii,
        residual=float(residuals.mean()),
    )


# ---------------------------------------------------------------------------
# generic orthonormal bases
# ---------------------------------------------------------------------------

def generic_basis(subspaces, seed: int = 0, dim: int | None = None,
                  tol: float = 1e-9, max_attempts: int = 128) -> np.ndarray:
    """Orthonormal basis whose vectors avoid every listed proper subspace.

    Each subspace is given by a set of spanning vectors (rows).  Membership
    is tested by the residual of the orthogonal projection; a seeded random
    rotation is resampled until every basis vector clears every subspace by
    more than ``tol``.  Returns the basis as rows of an (N, N) array; with an
    empty family there is nothing to avoid and the standard basis comes back
    unchanged (``dim`` must then be given).
    """
    subspaces = [np.atleast_2d(np.asarray(s, dtype=float)) for s in subspaces]
    if not subspaces:
        if dim is None:
            raise InvalidArgumentError(
                "empty family: pass dim to fix the ambient dimension")
        return np.eye(dim)
    dim = subspaces[0].shape[1]
    bases = []
    for s in subspaces:
        if s.shape[1] != dim:
            raise InvalidArgumentError("subspaces live in different dimensions")
        q, r = np.linalg.qr(s.T)
        rank = int(np.sum(np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())))
        if rank >= dim:
            raise InvalidArgumentError("subspace is not proper")
        bases.append(q[:, :rank])

    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
        q = q * np.sign(np.diag(r))[None, :]
        ok = True
        for u in bases:
            resid = q - u @ (u.T @ q)
            if np.any(np.linalg.norm(resid, axis=0) <= tol):
                ok = False
                break
        if ok:
            return q.T
    raise InternalError("rejection sampling failed; family too rigid")


# ---------------------------------------------------------------------------
# rigid motions
# ---------------------------------------------------------------------------

def transform(mesh: SurfaceMesh, rotation=None, shift=None) -> SurfaceMesh:
    """Apply a rotation and/or translation to a mesh (weights untouched)."""
    rot = np.eye(2) if rotation is None else np.asarray(rotation, float)
    if not np.allclose(rot @ rot.T, np.eye(2), atol=1e-12):
        raise InvalidArgumentError("rotation must be orthogonal")
    off = np.zeros(2) if shift is None else np.asarray(shift, float)
    return SurfaceMesh(
        nodes=mesh.nodes @ rot.T + off,
        weights=mesh.weights,
        tangents=mesh.tangents @ rot.T,
        param_values=mesh.param_values,
        kind=mesh.kind,
    )


def rotation_matrix(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])
