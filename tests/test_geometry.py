import tracemalloc

import numpy as np
import pytest

from critspec.assemble import make_cell_grid
from critspec.errors import (InvalidArgumentError, InternalError,
                             ResourceLimitError)
from critspec.geometry import (DEFAULT_ATOM_CAP, Circle, Ellipse, Star,
                               SingularMeasure, SurfaceMesh, estimate_ahlfors,
                               generic_basis, make_cantor_measure,
                               make_polygon_curve, make_smooth_curve,
                               make_uniform_square_measure, rotation_matrix,
                               support_atoms, transform)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


# ---------------------------------------------------------------------------
# smooth curves
# ---------------------------------------------------------------------------

def test_circle_weights_sum_to_circumference():
    mesh = make_smooth_curve(Circle(radius=1.0), 64)
    assert mesh.weights.sum() == pytest.approx(2.0 * np.pi, abs=1e-12)
    mesh2 = make_smooth_curve(Circle(radius=2.0), 64)
    assert mesh2.weights.sum() == pytest.approx(4.0 * np.pi, abs=1e-12)


def test_degenerate_ellipse_equals_circle():
    a = make_smooth_curve(Ellipse(a=1.0, b=1.0), 32)
    b = make_smooth_curve(Circle(radius=1.0), 32)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.tangents, b.tangents)


def test_ellipse_perimeter_spectrally_accurate():
    # oracle: arbitrary-precision arclength quadrature of the speed
    import mpmath as mp
    a, b = 2.0, 1.0
    exact = float(mp.quad(
        lambda t: mp.sqrt(a ** 2 * mp.sin(t) ** 2 + b ** 2 * mp.cos(t) ** 2),
        [0, 2 * mp.pi]))
    mesh = make_smooth_curve(Ellipse(a=a, b=b), 64)
    assert mesh.weights.sum() == pytest.approx(exact, rel=1e-12)


def test_star_speed_matches_finite_differences():
    shape = Star(radius=1.0, amplitude=0.3, arms=5)
    mesh = make_smooth_curve(shape, 256)
    t = mesh.param_values
    eps = 1e-6
    fd = (shape.point(t + eps) - shape.point(t - eps)) / (2 * eps)
    speed_fd = np.linalg.norm(fd, axis=1)
    assert np.allclose(mesh.weights, speed_fd * (2 * np.pi / 256), rtol=1e-8)


def test_smooth_curve_rejects_bad_node_counts():
    with pytest.raises(InvalidArgumentError):
        make_smooth_curve(Circle(), 33)
    with pytest.raises(InvalidArgumentError):
        make_smooth_curve(Circle(), 6)
    for n in (0, -4):
        with pytest.raises(InvalidArgumentError,
                           match="n_nodes must be even and >= 8"):
            make_smooth_curve(Circle(), n)



@pytest.mark.parametrize("shape, name", [
    (Circle(radius=2.0 ** -512), "circle radius"),
    (Circle(radius=2.0 ** 512), "circle radius"),
    (Ellipse(a=1.0, b=1e-300), "ellipse b"),
    (Star(radius=1e300), "star radius")])
def test_a_size_whose_square_is_not_normal_is_refused(shape, name):
    with pytest.raises(InvalidArgumentError,
                       match=r"^%s must lie in \[2\^-511, 2\^511\]" % name):
        make_smooth_curve(shape, 16)


def test_the_ends_of_the_size_range_keep_unit_tangents():
    for radius in (2.0 ** -511, 2.0 ** 511):
        mesh = make_smooth_curve(Circle(radius=radius), 16)
        assert np.allclose(np.linalg.norm(mesh.tangents, axis=1), 1.0)
        assert np.allclose(mesh.weights, radius * 2.0 * np.pi / 16)


def test_a_star_whose_squared_speed_leaves_the_range_is_refused():
    # each radius is in range; the least radius of the first star, 1e-3 of
    # it, is not, nor is the radial speed of the second, 12 times it
    for shape in (Star(radius=2.0 ** -510, amplitude=0.999, arms=4),
                  Star(radius=2.0 ** 510, arms=41)):
        with pytest.raises(InvalidArgumentError,
                           match="squared speed of the star with radius"):
            make_smooth_curve(shape, 16)

@pytest.mark.parametrize("n", [6, 9])
def test_smooth_closed_mesh_needs_an_even_count_of_at_least_8(n):
    # the type refuses it, however the nodes were made
    t = 2.0 * np.pi * np.arange(n) / n
    with pytest.raises(InvalidArgumentError,
                       match="n_nodes must be even and >= 8"):
        SurfaceMesh(nodes=np.column_stack([np.cos(t), np.sin(t)]),
                    weights=np.full(n, 2.0 * np.pi / n),
                    tangents=np.column_stack([-np.sin(t), np.cos(t)]),
                    param_values=t, kind="smooth-closed")


# ---------------------------------------------------------------------------
# polygons
# ---------------------------------------------------------------------------

def _mesh_on(nodes):
    n = len(nodes)
    return SurfaceMesh(nodes=np.asarray(nodes, dtype=float),
                       weights=np.ones(n), tangents=np.tile([1.0, 0.0], (n, 1)),
                       param_values=np.arange(n, dtype=float),
                       kind="polygon")


def test_mesh_rejects_repeated_nodes():
    distinct = [[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]]
    assert _mesh_on(distinct).n_nodes == 4
    # an exact repeat, not adjacent in the node order
    with pytest.raises(InvalidArgumentError):
        _mesh_on(distinct + [[1.0, 0.0]])
    # -0.0 and 0.0 are the same coordinate
    with pytest.raises(InvalidArgumentError):
        _mesh_on(distinct + [[-0.0, 1.0]])
    with pytest.raises(InvalidArgumentError):
        _mesh_on([[0.0, -0.0], [1.0, 1.0], [-0.0, 0.0]])
    # nearby but distinct nodes stay accepted
    assert _mesh_on(distinct + [[np.nextafter(0.0, 1.0), 1.0]]).n_nodes == 5


def test_square_perimeter_exact():
    mesh = make_polygon_curve(UNIT_SQUARE, 16, 3.0)
    assert mesh.weights.sum() == pytest.approx(4.0, abs=1e-12)
    assert mesh.kind == "polygon"


def test_triangle_uniform_when_q_is_one():
    mesh = make_polygon_curve([(0, 0), (1, 0), (0, 1)], 8, 1.0)
    for edge in range(3):
        w = mesh.weights[edge * 8:(edge + 1) * 8]
        assert np.allclose(w, w[0], rtol=1e-14)
    lengths = (1.0, np.sqrt(2.0), 1.0)
    assert mesh.weights[0] == pytest.approx(lengths[0] / 8, rel=1e-14)
    assert mesh.weights[8] == pytest.approx(lengths[1] / 8, rel=1e-14)


def test_square_grading_map_on_half_edge():
    # oracle: direct evaluation of the grading map s = (L/2) (2k/m)^q
    panels, q = 16, 3.0
    mesh = make_polygon_curve(UNIT_SQUARE, panels, q)
    k = np.arange(panels // 2 + 1, dtype=float)
    breaks = 0.5 * (2.0 * k / panels) ** q
    expected_half = np.diff(breaks)
    w_first_edge = mesh.weights[:panels]
    assert np.allclose(w_first_edge[:panels // 2], expected_half, rtol=1e-12)
    # smallest panel sits at the corner and panels grow toward the middle
    assert w_first_edge[0] == pytest.approx(0.5 * (1.0 / 16.0) ** 3 * 2 ** 3,
                                            rel=1e-12)
    assert np.all(np.diff(w_first_edge[:panels // 2]) > 0.0)
    assert np.all(np.diff(w_first_edge[panels // 2:]) < 0.0)


def test_polygon_rejects_degenerate_input():
    with pytest.raises(InvalidArgumentError):
        make_polygon_curve([(0, 0), (1, 0), (1, 0), (0, 1)], 8, 3.0)
    with pytest.raises(InvalidArgumentError):
        make_polygon_curve([(0, 0), (0.5, 0), (1, 0)], 8, 3.0)
    with pytest.raises(InvalidArgumentError):
        make_polygon_curve(UNIT_SQUARE, 8, 0.5)


# ---------------------------------------------------------------------------
# singular measures
# ---------------------------------------------------------------------------

def test_cantor_first_level_atoms():
    measure = make_cantor_measure(1)
    xs = np.sort(measure.atoms[:, 0])
    assert xs == pytest.approx([1.0 / 6.0, 5.0 / 6.0], rel=1e-15)
    assert np.all(measure.masses == 0.5)


@pytest.mark.parametrize("depth", [1, 4, 9])
def test_cantor_total_mass_is_one(depth):
    measure = make_cantor_measure(depth)
    assert measure.masses.sum() == pytest.approx(1.0, rel=1e-14)
    assert measure.n_atoms == 2 ** depth
    assert measure.cell_size == pytest.approx(3.0 ** (-depth), rel=1e-15)


def test_cantor_respects_atom_cap():
    with pytest.raises(ResourceLimitError):
        make_cantor_measure(20)


# ---------------------------------------------------------------------------
# regularity estimation
# ---------------------------------------------------------------------------

def test_ahlfors_circle_is_one_dimensional():
    mesh = make_smooth_curve(Circle(radius=1.0), 512)
    radii = 2.0 ** -np.arange(2, 7)
    params = estimate_ahlfors(mesh, radii, sample_count=24, seed=1)
    assert 0.95 <= params.alpha_hat <= 1.05
    assert params.c0_hat <= params.c1_hat
    assert not params.degenerate


def test_ahlfors_cantor_matches_similarity_dimension():
    measure = make_cantor_measure(10)
    radii = 2.0 ** -np.arange(2, 9)
    params = estimate_ahlfors(measure, radii, sample_count=48, seed=2)
    assert params.alpha_hat == pytest.approx(np.log(2.0) / np.log(3.0),
                                             abs=0.05)


def test_ahlfors_uniform_square_is_two_dimensional():
    # radii well above the lattice spacing (to average the lattice-count
    # oscillation) and small against the square (to limit edge clipping)
    measure = make_uniform_square_measure(181)
    radii = np.geomspace(0.019, 0.05, 7)
    params = estimate_ahlfors(measure, radii, sample_count=96, seed=3)
    assert params.alpha_hat == pytest.approx(2.0, abs=0.05)


def test_ahlfors_degenerate_single_atom():
    measure = make_cantor_measure(1)
    params = estimate_ahlfors(measure, [1e-3, 2e-3], sample_count=2, seed=0)
    assert params.degenerate
    assert params.alpha_hat == 0.0
    assert params.residual == np.inf


def test_ahlfors_rejects_empty_ladder():
    mesh = make_smooth_curve(Circle(), 32)
    with pytest.raises(InvalidArgumentError):
        estimate_ahlfors(mesh, [])


# ---------------------------------------------------------------------------
# generic bases
# ---------------------------------------------------------------------------

def test_generic_basis_avoids_x_axis():
    basis = generic_basis([[(1.0, 0.0)]], seed=0)
    assert np.all(np.abs(basis[:, 1]) > 1e-9)
    gram = basis @ basis.T
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-12


def test_generic_basis_avoids_plane_and_axis():
    # oracle: verify by explicit projections onto each subspace
    family = [
        [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)],   # xy-plane
        [(0.0, 0.0, 1.0)],                    # z-axis
    ]
    basis = generic_basis(family, seed=5)
    gram = basis @ basis.T
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
    for span in family:
        u, _ = np.linalg.qr(np.asarray(span, float).T)
        u = u[:, :np.linalg.matrix_rank(np.asarray(span, float))]
        for e in basis:
            resid = np.linalg.norm(e - u @ (u.T @ e))
            assert resid > 1e-9


def test_generic_basis_empty_family_is_standard():
    assert np.array_equal(generic_basis([], dim=4), np.eye(4))


def test_generic_basis_deterministic_in_seed():
    family = [[(1.0, 0.0)]]
    a = generic_basis(family, seed=7)
    b = generic_basis(family, seed=7)
    assert np.array_equal(a, b)


def test_generic_basis_rejects_full_subspace():
    with pytest.raises(InvalidArgumentError):
        generic_basis([[(1.0, 0.0), (0.0, 1.0)]])


# ---------------------------------------------------------------------------
# rigid motions, exports
# ---------------------------------------------------------------------------

def test_rigid_motion_preserves_weights_and_distances():
    mesh = make_polygon_curve(UNIT_SQUARE, 8, 2.0)
    moved = transform(mesh, rotation_matrix(0.7), shift=(3.0, -1.0))
    assert np.array_equal(moved.weights, mesh.weights)
    d0 = np.linalg.norm(mesh.nodes[:, None] - mesh.nodes[None, :], axis=2)
    d1 = np.linalg.norm(moved.nodes[:, None] - moved.nodes[None, :], axis=2)
    assert np.max(np.abs(d0 - d1)) <= 1e-12
    norms = np.linalg.norm(moved.tangents, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_transform_rejects_non_orthogonal_matrix():
    mesh = make_smooth_curve(Circle(), 16)
    with pytest.raises(InvalidArgumentError):
        transform(mesh, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_support_atoms_view():
    mesh = make_smooth_curve(Circle(), 16)
    pts, w = support_atoms(mesh)
    assert pts.shape == (16, 2) and w.shape == (16,)
    with pytest.raises(InvalidArgumentError):
        support_atoms([1, 2, 3])


def test_mesh_arrays_immutable():
    mesh = make_smooth_curve(Circle(), 16)
    with pytest.raises(ValueError):
        mesh.nodes[0, 0] = 99.0


@pytest.mark.parametrize("shape,named", [
    (Circle(radius=-2.5), "circle radius must be positive and finite, got -2.5"),
    (Circle(radius=0.0), "circle radius must be positive and finite, got 0.0"),
    (Circle(radius=float("nan")), "circle radius"),
    (Ellipse(a=1.0, b=0.0), "ellipse b must be positive and finite, got 0.0"),
    (Ellipse(a=float("inf"), b=1.0), "ellipse a must be positive and finite"),
    (Star(radius=-1.0), "star radius must be positive and finite, got -1.0"),
])
def test_smooth_curve_refuses_shape_sizes_that_are_not_positive(shape, named):
    with pytest.raises(InvalidArgumentError) as info:
        make_smooth_curve(shape, 16)
    assert named in str(info.value)


def test_cantor_cap_is_checked_without_building_2_to_the_depth():
    # 2^15 atoms are the cap itself; one more level is over it
    assert make_cantor_measure(15).n_atoms == DEFAULT_ATOM_CAP
    for depth in (16, 10 ** 8):
        with pytest.raises(ResourceLimitError, match=r"2\^%d atoms" % depth):
            make_cantor_measure(depth)


# one size just over the cap for each support constructor, and the text
# that names it
_OVER_THE_ATOM_CAP = {
    "smooth-curve": (lambda: make_smooth_curve(Circle(), DEFAULT_ATOM_CAP + 2),
                     "32770 nodes exceed the cap of 32768"),
    "polygon-curve": (lambda: make_polygon_curve(UNIT_SQUARE, 8194),
                      "4 x 8194 panels exceed the cap of 32768"),
    "cantor": (lambda: make_cantor_measure(16),
               "2^16 atoms exceed the cap of 32768"),
    "uniform-square": (lambda: make_uniform_square_measure(182),
                       "182 x 182 atoms exceed the cap of 32768"),
    "cell-grid": (lambda: make_cell_grid((0.0, 0.0), 0.5, 1.0 / 181.5),
                  "cell grid of 182 x 182 cells exceeds the atom cap 32768"),
}


@pytest.mark.parametrize("name", list(_OVER_THE_ATOM_CAP))
def test_every_support_constructor_refuses_the_atom_cap_unbuilt(name):
    build, named = _OVER_THE_ATOM_CAP[name]
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as info:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert named in str(info.value)
    assert peak < 2 ** 20


def test_smooth_curve_accepts_exactly_the_atom_cap():
    assert make_smooth_curve(Circle(), DEFAULT_ATOM_CAP).n_nodes == 2 ** 15


@pytest.mark.parametrize("cell_size", [0.0, -1.0, float("nan"), float("inf")])
def test_singular_measure_refuses_a_cell_size_that_is_not_positive(cell_size):
    with pytest.raises(InvalidArgumentError, match="cell_size must be "
                       "positive and finite, got"):
        SingularMeasure(atoms=np.zeros((1, 2)),
                        masses=np.ones(1), cell_size=cell_size,
                        alpha_nominal=1.0)
