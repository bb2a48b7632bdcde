import re
import sys
import threading
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ive, kve

from critspec import assemble, spectra
from critspec.assemble import (WeightFn, _cholesky_fold,
                               _kress_weight_vector, assemble_curve_operator,
                               assemble_measure_operator, assemble_mixed,
                               make_cell_grid)
from critspec.bessel import bessel_k
from critspec.errors import InvalidArgumentError, ResourceLimitError
from critspec.geometry import (Circle, Ellipse, SingularMeasure, Star,
                               SurfaceMesh, make_cantor_measure,
                               make_polygon_curve, make_smooth_curve,
                               make_uniform_square_measure,
                               rotation_matrix, transform)
from critspec.kernels import (lower_order_kernel, reference_kernel,
                              self_cell_coefficient)

from conftest import (UNIT_SQUARE, CountingKernel, assemble_dense,
                      circle_exact_eigenvalues, trivial_table)
from oracles import (_panel_log_integrals, assemble_mixed_pairs,
                     cholesky_fold_full, curve_kernel_pairs,
                     kress_weight_vector_table, one_block,
                     panel_log_mean_mp,
                     point_effective_kernel_pairs,
                     polygon_effective_kernel_pairs,
                     polygon_effective_kernel_two_calls,
                     smooth_curve_effective_kernel_pairs,
                     smooth_curve_effective_kernel_two_calls)

TWO_PI = 2.0 * np.pi


def _symmetric(upper: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose upper triangle is that of ``upper``: the
    builders write only that triangle."""
    return np.triu(upper) + np.triu(upper, 1).T


def _same_upper(got: np.ndarray, want: np.ndarray) -> bool:
    """Whether the upper triangles, diagonal included, agree bit for bit."""
    return np.array_equal(np.triu(got), np.triu(want))


def _kernel_rows(supports, kernel) -> np.ndarray:
    """The kernel matrix over ``supports`` as the pass over the orbit rows
    builds it for the trivial group, the one the operator of a support
    without symmetry takes: its upper triangle, diagonal included, and
    scratch below."""
    points, weights, values, offsets = assemble._layout(supports)
    table = trivial_table(supports, points)
    rows, _ = assemble._orbit_rows(supports, kernel, points, offsets, table,
                                   values * weights)
    return rows[0, 0]


def _kernel_matrix(support, kernel) -> np.ndarray:
    """The effective-kernel matrix of one support (``_kernel_rows``)."""
    return _kernel_rows([(support, WeightFn.constant(1.0))], kernel)


def _points(points, cell_kind: str, cell_size) -> SingularMeasure:
    """Atoms at ``points`` standing for cells of ``cell_kind``."""
    return SingularMeasure(atoms=points, masses=np.ones(len(points)),
                           cell_size=cell_size,
                           alpha_nominal=2.0 if cell_kind == "square" else 1.0)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weightfn_kinds_and_sign_split():
    mesh = make_smooth_curve(Circle(), 16)
    const = WeightFn.constant(2.5).values_on(mesh)
    assert np.all(const == 2.5)
    ang = WeightFn.angular()
    vals = ang.values_on(mesh)
    assert np.allclose(vals, np.cos(mesh.param_values))
    vp, vm = ang.positive_part(mesh), ang.negative_part(mesh)
    assert np.all(vp * vm == 0.0)
    assert np.allclose(vp - vm, vals)
    tab = WeightFn.tabulated(np.arange(16.0))
    assert np.all(tab.values_on(mesh) == np.arange(16.0))
    with pytest.raises(InvalidArgumentError):
        WeightFn.tabulated(np.ones(5)).values_on(mesh)


# ---------------------------------------------------------------------------
# curve operators
# ---------------------------------------------------------------------------

def test_circle_top_eigenvalue_n64(kernel, unit_weight):
    mesh = make_smooth_curve(Circle(radius=1.0), 64)
    op = assemble_curve_operator(mesh, unit_weight, kernel)
    top = spectra.eigensolve(op).positives[0]
    exact = circle_exact_eigenvalues(1.0, 1)[0]
    assert top == pytest.approx(exact, rel=1e-8)


def test_zero_weight_gives_zero_matrix(kernel):
    # an equispaced circle of a constant weight: n 1 x 1 blocks, all zero,
    # and with the trivial group one zero block of order n
    mesh = make_smooth_curve(Circle(), 32)
    op = assemble_curve_operator(mesh, WeightFn.constant(0.0), kernel)
    assert op.blocks == () and np.all(op.singles == 0.0)
    dense = assemble_dense([(mesh, WeightFn.constant(0.0))], kernel)
    assert np.all(np.triu(dense.blocks[0].entries) == 0.0)


def test_matrix_exactly_symmetric(kernel):
    # the operator is its upper triangle: the solve gives, bit for bit, the
    # spectrum of the exactly symmetric matrix it stands for
    for mesh in (make_smooth_curve(Circle(), 32),
                 make_polygon_curve(UNIT_SQUARE, 8, 3.0)):
        op = assemble_dense([(mesh, WeightFn.angular())], kernel)
        mirrored = one_block(_symmetric(op.blocks[0].entries), signed=True)
        got, want = spectra.eigensolve(op), spectra.eigensolve(mirrored)
        assert np.array_equal(got.positives, want.positives)
        assert np.array_equal(got.negatives, want.negatives)


def test_similarity_invariance_vs_plain_nystrom(kernel):
    # the symmetrized matrix and plain K diag(V w) share nonzero spectra
    mesh = make_smooth_curve(Circle(radius=1.0), 48)
    for weight in (WeightFn.constant(1.0), WeightFn.angular()):
        vvals = weight.values_on(mesh)
        ktil = smooth_curve_effective_kernel_pairs(mesh, kernel)
        plain = ktil * (vvals * mesh.weights)[None, :]
        ref = np.linalg.eigvals(plain)
        assert np.max(np.abs(ref.imag)) < 1e-10
        ref = np.sort(ref.real)
        op = assemble_dense([(mesh, weight)], kernel).blocks[0]
        sym = np.sort(np.linalg.eigvalsh(op.entries, UPLO="U"))
        # compare the nonzero tails of both spectra
        assert np.max(np.abs(ref[-12:] - sym[-12:])) < 1e-10
        assert np.max(np.abs(ref[:12] - sym[:12])) < 1e-10


def _fold_support(kind: str, n: int, rng):
    if kind == "circle":
        return make_smooth_curve(Circle(radius=rng.uniform(0.2, 2.0)), n)
    if kind == "ellipse":
        return make_smooth_curve(Ellipse(a=1.5, b=0.6), n)
    if kind == "star":
        return make_smooth_curve(Star(), n)
    if kind == "graded-polygon":
        return make_polygon_curve(_QUAD, 2 * max(1, n // 8), 3.0)
    return make_cantor_measure(int(np.log2(n)))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["circle", "ellipse", "star", "graded-polygon",
                             "cantor"]),
       half_n=st.integers(min_value=8, max_value=64),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_cholesky_fold_matches_plain_nystrom(kind, half_n, seed):
    # random sign-changing tabulated weights: the folded matrix and plain
    # K diag(V w) share their spectra
    kern = reference_kernel()
    rng = np.random.default_rng(seed)
    support = _fold_support(kind, 2 * half_n, rng)
    if kind == "cantor":
        ktil = point_effective_kernel_pairs(support.atoms, kern, "segment",
                                            support.cell_size)
        w = support.masses
    else:
        ktil = curve_kernel_pairs(support, kern)
        w = support.weights
    v = rng.normal(size=len(w))
    v[:2] = -abs(v[0]), abs(v[1])
    op = assemble_dense([(support, WeightFn.tabulated(v))], kern)
    assert op.signed_flag
    ref = np.linalg.eigvals(ktil * (v * w)[None, :])
    rho = np.max(np.abs(ref))
    assert np.max(np.abs(ref.imag)) <= 1e-10 * rho
    got = np.linalg.eigvalsh(op.blocks[0].entries, UPLO="U")
    assert np.max(np.abs(np.sort(ref.real) - got)) <= 1e-10 * rho


def test_radius_five_circle_takes_the_cholesky_fold(kernel):
    # with the windowed split the discrete kernel matrix of a radius-5 circle
    # at n = 512 is positive definite (unwindowed, its least eigenvalue was
    # -0.108), so the angular weight takes the one fold
    mesh = make_smooth_curve(Circle(radius=5.0), 512)
    ktil = smooth_curve_effective_kernel_pairs(mesh, kernel)
    assert np.linalg.eigvalsh(ktil)[0] > 0.0
    weight = WeightFn.angular()
    op = assemble_dense([(mesh, weight)], kernel)
    assert op.signed_flag
    vw = weight.values_on(mesh) * mesh.weights
    ref = np.linalg.eigvals(ktil * vw[None, :])
    rho = np.max(np.abs(ref))
    assert np.max(np.abs(ref.imag)) <= 1e-10 * rho
    got = np.linalg.eigvalsh(op.blocks[0].entries, UPLO="U")
    assert np.max(np.abs(np.sort(ref.real) - got)) <= 1e-10 * rho


def _circle_closed_form(radius: float, count: int) -> np.ndarray:
    """R I_m(R) K_m(R), m = 0, 1, 1, 2, 2, ..., from SciPy's scaled Bessel
    functions (the scalings cancel), descending."""
    m = np.arange(count)
    vals = radius * ive(m, radius) * kve(m, radius)
    return np.sort(np.concatenate([vals, vals[1:]]))[::-1][:count]


@settings(max_examples=10, deadline=None)
@given(radius=st.floats(min_value=0.05, max_value=20.0))
@example(radius=17.0).via("the worst radius of a 0.05-20 scan")
@example(radius=20.0).via("the largest radius")
def test_circle_spectrum_matches_closed_form_at_any_radius(radius):
    # resolved circles of every size: node spacing at most 1/8, n >= 256
    n = max(256, 2 * int(np.ceil(np.pi * radius / 0.125)))
    mesh = make_smooth_curve(Circle(radius=radius), n)
    assert mesh.weights.max() <= 0.125
    op = assemble_curve_operator(mesh, WeightFn.constant(1.0),
                                 reference_kernel())
    got = spectra.eigensolve(op).positives[:60]
    want = _circle_closed_form(radius, 60)
    assert np.max(np.abs(got - want) / want) <= 1e-8


def test_mesh_refinement_convergence(kernel, unit_weight):
    mesh_a = make_smooth_curve(Circle(radius=1.0), 64)
    mesh_b = make_smooth_curve(Circle(radius=1.0), 128)
    ev_a = spectra.eigensolve(assemble_curve_operator(mesh_a, unit_weight,
                                                      kernel)).positives
    ev_b = spectra.eigensolve(assemble_curve_operator(mesh_b, unit_weight,
                                                      kernel)).positives
    k = 64 // 8
    assert np.max(np.abs(ev_a[:k] - ev_b[:k])) < 1e-6


def test_rotation_invariance_of_spectrum(kernel, unit_weight):
    mesh = make_smooth_curve(Circle(radius=1.0), 64)
    moved = transform(mesh, rotation_matrix(1.1), shift=(0.3, -2.0))
    ev0, ev1 = (np.linalg.eigvalsh(assemble_dense(
        [(m, unit_weight)], kernel).blocks[0].entries, UPLO="U")
        for m in (mesh, moved))
    assert np.max(np.abs(ev0 - ev1)) < 1e-10


def test_sign_separation_on_signed_circle(signed_circle_spectrum_512):
    # V = cos theta: positive and negative counting agree within 1
    sp = signed_circle_spectrum_512
    for lam in np.geomspace(sp.positives[59], sp.positives[9], 12):
        npos = spectra.counting(sp, float(lam), "+")
        nneg = spectra.counting(sp, float(lam), "-")
        assert abs(npos - nneg) <= 1


_QUAD = [[0.0, 0.0], [2.0, 0.0], [1.5, 1.0], [0.0, 1.2]]


_CURVES = {
    "circle": lambda n: make_smooth_curve(Circle(radius=1.0), n),
    "ellipse": lambda n: make_smooth_curve(Ellipse(a=1.5, b=0.6), n),
    "star": lambda n: make_smooth_curve(Star(), n),
    "graded-polygon": lambda n: make_polygon_curve(_QUAD, n // 4, 3.0),
}


def _agrees_with_two_call_oracle(mesh, kern, per_panel: bool = False) -> bool:
    if mesh.kind == "smooth-closed":
        want = smooth_curve_effective_kernel_two_calls(mesh, kern)
    else:
        want = polygon_effective_kernel_two_calls(mesh, kern, per_panel)
    got = _symmetric(_kernel_matrix(mesh, kern))
    return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("curve", sorted(_CURVES))
@pytest.mark.parametrize("n", [128, 512])
def test_fused_split_matches_two_call_oracle(curve, n, kernel):
    assert _agrees_with_two_call_oracle(_CURVES[curve](n), kernel)


@pytest.mark.parametrize("curve", ["circle", "graded-polygon"])
def test_lower_order_split_matches_two_call_oracle(curve):
    assert _agrees_with_two_call_oracle(_CURVES[curve](128),
                                        lower_order_kernel())


def _hand_made_polygon() -> SurfaceMesh:
    """A square of 20 panels, 5 a side, whose panels share a tangent
    along each side but meet end to end along the top alone: gaps between
    the panels of the bottom and the left, and the right's panels on two
    parallel lines 1e-3 apart."""
    k = np.arange(5.0)
    up = 0.1 + 0.2 * k
    sides = [
        (np.stack([up, 0.0 * k], 1), 0.15, (1.0, 0.0)),
        (np.stack([1.0 + 1e-3 * (k % 2), up], 1), 0.2, (0.0, 1.0)),
        (np.stack([1.0 - up, 1.0 + 0.0 * k], 1), 0.2, (-1.0, 0.0)),
        (np.stack([0.0 * k, 1.0 - up], 1), 0.1, (0.0, -1.0)),
    ]
    return SurfaceMesh(
        nodes=np.concatenate([nodes for nodes, _, _ in sides]),
        weights=np.concatenate([np.full(5, width) for _, width, _ in sides]),
        tangents=np.concatenate([np.tile(t, (5, 1)) for _, _, t in sides]),
        param_values=np.arange(20.0), kind="polygon")


def test_panels_chain_only_where_they_share_their_ends(kernel):
    # the top's 5 panels are one line, two frames of 2 and 3 panels with
    # 3 and 4 ends; every other panel is a line of its own, with 2.  A
    # rotated and shifted graded polygon is chained along each of its 4
    # sides all the same, and both meshes agree with each panel's own
    # integral from its centre and width
    hand = _hand_made_polygon()
    assert len(assemble._panel_ends(hand)[1]) == 15 * 2 + 7
    moved = transform(make_polygon_curve(_QUAD, 16, 2.0),
                      rotation_matrix(1.1), shift=(0.3, -2.0))
    assert len(assemble._panel_ends(moved)[1]) == moved.n_nodes + 8
    for mesh in (hand, moved):
        assert _agrees_with_two_call_oracle(mesh, kernel, per_panel=True)


def test_shared_panel_ends_are_as_accurate_as_the_per_panel_integrals():
    # the mean of log|x_i - y| over panel j against 30 digits, on a square
    # graded to its corners at 64 panels a side: the 8 corner panels seen
    # from nodes more than 1/2 away, whose antiderivatives cancel to the
    # panel's 1.5e-5 width; each side's 3 panels at either corner from
    # every 4th node of that side, on their line; and the 4 nodes of a
    # side by each corner against the 4 panels of the next side by it,
    # both ways.  No pair may be further off than the worst of the
    # per-panel form on the same pairs
    m = 64
    mesh = make_polygon_curve(UNIT_SQUARE, m, 3.0)
    n, nodes, w = mesh.n_nodes, mesh.nodes, mesh.weights
    corners = np.arange(0, n, m)
    far = [(i, j) for j in np.concatenate([corners, corners - 1 + m])
           for i in range(0, n, 4)
           if np.hypot(*(nodes[i] - nodes[j])) > 0.5]
    flat = [(i, j) for side in corners for i in side + np.arange(0, m, 4)
            for j in side + np.array([0, 1, 2, m - 3, m - 2, m - 1])
            if i != j]
    near = [pair for side in corners
            for i in side + m - 1 - np.arange(4)
            for j in (side + m + np.arange(4)) % n
            for pair in ((i, j), (j, i))]
    i, j = np.array(far + flat + near).T
    shared = assemble._panel_means(nodes, np.arange(n),
                                   assemble._panel_ends(mesh))[i, j]
    per_panel = (_panel_log_integrals(nodes, nodes, mesh.tangents, w)
                 / w[None, :])[i, j]
    exact = [panel_log_mean_mp(nodes[a], nodes[b], mesh.tangents[b], w[b])
             for a, b in zip(i, j)]

    def errors(values):
        return np.array([float(abs(mp.mpf(float(v)) - e))
                         for v, e in zip(values, exact)])

    assert np.max(errors(shared)) <= np.max(errors(per_panel))


# ---------------------------------------------------------------------------
# the column-blocked sign fold against the full-product oracle
# ---------------------------------------------------------------------------

def _fold_case(support: str):
    """A support with a positive definite kernel matrix; 600 and 1024
    unknowns span several column blocks of the fold."""
    if support == "cantor":
        return make_cantor_measure(10)
    return _CURVES[support](600)


def _fold_kernel(support: str, kernel):
    """(kernel matrix, quadrature weights) of ``_fold_case(support)``."""
    case = _fold_case(support)
    if support == "cantor":
        return (point_effective_kernel_pairs(case.atoms, kernel, "segment",
                                             case.cell_size), case.masses)
    return curve_kernel_pairs(case, kernel), case.weights


@pytest.mark.parametrize("support", ["circle", "ellipse", "graded-polygon",
                                     "cantor"])
@pytest.mark.parametrize("columns", [256, 97])
def test_blocked_fold_matches_full_product_oracle(support, columns, kernel,
                                                  monkeypatch):
    # 97 columns leave a partial last block on every support
    monkeypatch.setattr(assemble, "_FOLD_COLUMNS", columns)
    ktil, w = _fold_kernel(support, kernel)
    v = np.random.default_rng(11).normal(size=len(w))
    got = _symmetric(_cholesky_fold(ktil.copy(), v, w))
    want = cholesky_fold_full(ktil.copy(), v, w)
    rho = np.max(np.abs(np.linalg.eigvalsh(want)))
    assert np.max(np.abs(got - want)) <= 1e-13 * rho


def _synthetic_spd(n: int) -> np.ndarray:
    """exp(-|x_i - x_j|) on n equispaced points of [0, 4]: the Laplace
    kernel, positive definite on distinct points, condition number below
    n^2 / 4."""
    x = np.linspace(0.0, 4.0, n)
    return np.exp(-np.abs(x[:, None] - x[None, :]))


def test_fold_temporaries_are_bounded():
    # every temporary of the whole fold, factorisation and product, is a
    # _FOLD_COLUMNS square tile, a few at a time: fewer than 8 tiles
    # (4.2 MB) at any n.  The fold on n x 256 strips traced 12.7 MB at
    # n = 2048, and on np.linalg.cholesky 1.25 n^2 doubles
    bound = 8 * 8 * assemble._FOLD_COLUMNS ** 2
    for n in (2048, 3072):
        ktil = _synthetic_spd(n)
        v = np.cos(np.linspace(0.0, 2.0 * np.pi, n) - 1.0)
        w = np.full(n, 1.0 / n)
        assert _traced_peak(_cholesky_fold, ktil, v, w) < bound


def _edge_weights(kind: str, n: int) -> np.ndarray:
    v = np.random.default_rng(n).normal(size=n)
    if kind == "zeros":
        v[::3] = 0.0
    elif kind == "negative":
        v = -np.abs(v) - 0.1
    return v


_EDGE_SIZES = [1, 2, 255, 256, 257, 513]
_FALLBACK_SIZES = [1, 255, 256, 257, 513]


@pytest.mark.parametrize(
    "path,n", [("lapack", n) for n in _EDGE_SIZES]
    + [("fallback", n) for n in _FALLBACK_SIZES],
    ids=[str(n) for n in _EDGE_SIZES]
    + ["fallback-%d" % n for n in _FALLBACK_SIZES])
@pytest.mark.parametrize("columns", [256, 97])
@pytest.mark.parametrize("weights", ["zeros", "negative"])
def test_fold_edge_sizes_match_full_product_oracle(path, n, columns, weights,
                                                   monkeypatch):
    # a single entry, fewer rows than a tile, a tile exactly, one row past
    # it and a partial last tile, on weights with exact zeros (a singular
    # diag(V w)) and weights of one sign, factored by dpotrf or, without
    # it, by NumPy's Cholesky; either reads and writes the upper triangle
    # alone, so the NaN handed below it stays there
    monkeypatch.setattr(assemble, "_FOLD_COLUMNS", columns)
    if path == "fallback":
        monkeypatch.setattr(spectra, "_lapack", lambda name: None)
    ktil = _synthetic_spd(n)
    v = _edge_weights(weights, n)
    w = np.random.default_rng(2).uniform(0.5, 1.5, n) / n
    lower = np.tri(n, k=-1, dtype=bool)
    handed = ktil.copy()
    handed[lower] = np.nan
    got = _symmetric(_cholesky_fold(handed, v, w))
    assert np.isnan(handed[lower]).all()
    want = cholesky_fold_full(ktil.copy(), v, w)
    rho = np.max(np.abs(np.linalg.eigvalsh(want)))
    assert np.max(np.abs(got - want)) <= 1e-13 * rho
    # a K whose last pivot fails is refused, naming the node spacing
    ktil[-1, -1] = -1.0
    spacing = re.escape("node spacing %.4g" % float(w.max()))
    with pytest.raises(InvalidArgumentError, match=spacing):
        _cholesky_fold(ktil, v, w)


def test_fold_refuses_a_kernel_matrix_that_fails_in_its_last_panel(kernel):
    ktil, w = _fold_kernel("circle", kernel)
    n = len(w)
    assert n > 2 * assemble._FOLD_COLUMNS
    assert np.linalg.eigvalsh(ktil)[0] > 0.0
    # the leading block of order n - 8 stays positive definite, so the first
    # pivot to fail is one of the last 8, past the first two tiles
    ktil[np.arange(n - 8, n), np.arange(n - 8, n)] = -1.0
    spacing = re.escape("node spacing %.4g" % float(w.max()))
    with pytest.raises(InvalidArgumentError, match=spacing):
        _cholesky_fold(ktil, np.cos(np.arange(n)), w)


def test_operator_freezes_a_view_not_the_callers_array():
    m = np.eye(4)
    op = assemble.OperatorMatrix(entries=m)
    assert m.flags.writeable
    assert not op.entries.flags.writeable
    assert np.shares_memory(op.entries, m)
    m[0, 1] = 1.0   # the caller may go on editing its own array


def test_operator_copies_a_read_only_array():
    # the eigensolve writes into the storage, which must not be memory the
    # caller cannot write
    m = np.diag([2.0, 1.0])
    m.flags.writeable = False
    op = one_block(m)
    assert not np.shares_memory(op.blocks[0].entries, m)
    assert np.array_equal(spectra.eigensolve(op).positives, [2.0, 1.0])
    assert np.array_equal(m, np.diag([2.0, 1.0]))


# ---------------------------------------------------------------------------
# the blocked pass over the orbit rows of the trivial group against the
# all-pairs oracles
# ---------------------------------------------------------------------------

_SMOOTH = {
    "circle": Circle(radius=1.0),
    "ellipse": Ellipse(a=1.5, b=0.6),
    "star": Star(),
}


# 1030 nodes: several row blocks, the last one partial
@pytest.mark.parametrize("curve", sorted(_SMOOTH))
@pytest.mark.parametrize("n", [8, 10, 1030, 2048])
def test_blocked_smooth_curve_kernel_matches_pairs_oracle(curve, n, kernel):
    mesh = make_smooth_curve(_SMOOTH[curve], n)
    assert _same_upper(_kernel_matrix(mesh, kernel),
                       smooth_curve_effective_kernel_pairs(mesh, kernel))


_POLYGONS = {
    3: [[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]],
    4: _QUAD,
    5: [[0.0, 0.0], [2.0, 0.0], [2.5, 1.0], [1.0, 2.0], [-0.5, 1.0]],
    6: [[0.0, 0.0], [1.0, -0.5], [2.0, 0.0], [2.0, 1.0], [1.0, 1.5],
        [0.0, 1.0]],
}


@pytest.mark.parametrize("vertices", sorted(_POLYGONS))
@pytest.mark.parametrize("grading", [1.0, 3.0])
def test_blocked_polygon_kernel_matches_pairs_oracle(vertices, grading,
                                                     kernel):
    mesh = make_polygon_curve(_POLYGONS[vertices], 66, grading)
    assert _same_upper(_kernel_matrix(mesh, kernel),
                       polygon_effective_kernel_pairs(mesh, kernel))


def _point_cases():
    """(id, atoms, kernel, cell kind, cell size, whether the rows take the
    kernel table of distinct offsets)."""
    kern = reference_kernel()
    for depth in range(2, 11):
        measure = make_cantor_measure(depth)
        yield ("cantor-%d" % depth, measure.atoms, kern, "segment",
               measure.cell_size, False)
    grid = make_cell_grid((0.0, 0.0), 1.0, 0.035)
    yield "cell-grid", grid.atoms, kern, "square", grid.cell_size, True
    yield ("lower-order", make_smooth_curve(Circle(), 300).nodes,
           lower_order_kernel(), "segment", 0.02, False)
    # the default mixed-ac-singular grid, its circle excluded
    mixed = make_cell_grid((0.0, 0.0), 1.0, 0.035, exclude_meshes=[
        make_smooth_curve(Circle(radius=0.5), 192)])
    yield "mixed-grid", mixed.atoms, kern, "square", mixed.cell_size, True
    square = make_uniform_square_measure(16)
    yield ("uniform-square", square.atoms, kern, "square",
           square.cell_size, True)
    yield ("lower-order-grid", grid.atoms, lower_order_kernel(), "square",
           grid.cell_size, True)
    # one coordinate off the lattice by one ulp: a distinct x of its own
    moved = grid.atoms.copy()
    moved[100, 0] = np.nextafter(moved[100, 0], np.inf)
    yield "grid-one-ulp", moved, kern, "square", grid.cell_size, True
    cloud = np.random.default_rng(3).uniform(-1.0, 1.0, (400, 2))
    yield "point-cloud", cloud, kern, "square", 0.05, False


@pytest.mark.parametrize("case", list(_point_cases()),
                         ids=lambda case: case[0])
def test_blocked_point_kernel_matches_pairs_oracle(case):
    _, points, kern, cell_kind, cell_size, tabled = case
    counted = CountingKernel(kern)
    got = _kernel_matrix(_points(points, cell_kind, cell_size), counted)
    assert _same_upper(
        got, point_effective_kernel_pairs(points, kern, cell_kind, cell_size))
    # the table takes fewer kernel values than the upper pairs; the direct
    # rows take each of them
    pairs = len(points) * (len(points) - 1) // 2
    assert (counted.entries < pairs) == tabled


@pytest.mark.parametrize("kern", [reference_kernel(), lower_order_kernel()],
                         ids=["reference", "lower-order"])
def test_blocked_curves_and_fallback_match_pairs_oracles(kern):
    circle = make_smooth_curve(Circle(), 256)
    polygon = make_polygon_curve(_QUAD, 32, 3.0)
    assert _same_upper(_kernel_matrix(circle, kern),
                       smooth_curve_effective_kernel_pairs(circle, kern))
    assert _same_upper(_kernel_matrix(polygon, kern),
                       polygon_effective_kernel_pairs(polygon, kern))
    # a polygon of fewer nodes than a smooth mesh may have takes panel
    # collocation all the same
    triangle = make_polygon_curve(_POLYGONS[3], 2, 3.0)
    assert triangle.n_nodes == 6
    assert _same_upper(_kernel_matrix(triangle, kern),
                       polygon_effective_kernel_pairs(triangle, kern))


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_assembly_temporaries_bounded(kernel):
    # the all-pairs assembly peaked at 205 MB, 474 MB and 304 MB on these
    # inputs: up to 14 n^2 doubles for one n^2 result
    circle = make_smooth_curve(Circle(), 2048)
    square = make_polygon_curve(UNIT_SQUARE, 512, 3.0)
    grid = make_cell_grid((0.0, 0.0), 1.0, 0.035)
    peaks = [(support.n_atoms if support is grid else support.n_nodes,
              _traced_peak(_kernel_matrix, support, kernel))
             for support in (circle, square, grid)]
    for n, peak in peaks:
        assert peak < 2 * 8 * n * n


def test_kernel_assembly_temporaries_are_bounded(kernel):
    _assert_assembly_temporaries_bounded(kernel)


def test_kernel_assembly_temporaries_are_bounded_on_four_workers(
        kernel, monkeypatch):
    # the workers share one block budget: more of them hold no more bytes
    monkeypatch.setattr(assemble, "_WORKERS", 4)
    _assert_assembly_temporaries_bounded(kernel)


@pytest.mark.parametrize("n", [8, 64, 2048, 4096])
def test_kress_weights_match_the_whole_table_oracle(n):
    want = kress_weight_vector_table(n)
    assert np.max(np.abs(_kress_weight_vector(n) - want)) <= (
        1e-14 * np.max(np.abs(want)))


def test_kress_weights_by_fft_match_the_cosine_table_from_8_to_4096():
    # every even n to 256, then a spread of sizes up to 4096, the odd
    # half-sizes m among them; measured at most 1.3e-15 of max |R_d|
    sizes = list(range(8, 257, 2)) + [258, 510, 998, 1030, 2046, 2050, 4094,
                                      4096]
    for n in sizes:
        got, want = _kress_weight_vector(n), kress_weight_vector_table(n)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), n
        assert np.array_equal(got[1:], got[:0:-1]), n


def test_kress_weights_hold_no_n2_temporary():
    # the whole (n, n/2 - 1) table and its cosine are 134 MB at n = 4096
    assert _traced_peak(_kress_weight_vector, 4096) < 2e6


# ---------------------------------------------------------------------------
# the threaded pass: any worker count, errors and warnings from the workers
# ---------------------------------------------------------------------------

def _builder_case(name: str):
    """(blocked builder, all-pairs oracle) thunks of one matrix: a kernel
    matrix as the pass over the orbit rows builds it for the trivial group,
    or the finished operator of a support without symmetry, which
    ``assemble_mixed`` must build as exactly one block of order n."""
    kern = reference_kernel()
    if name == "circle":
        mesh = make_smooth_curve(Circle(), 1030)
        return (lambda: _kernel_matrix(mesh, kern),
                lambda: smooth_curve_effective_kernel_pairs(mesh, kern))
    if name == "graded-polygon":
        mesh = make_polygon_curve(_POLYGONS[6], 66, 3.0)
        return (lambda: _kernel_matrix(mesh, kern),
                lambda: polygon_effective_kernel_pairs(mesh, kern))
    if name in ("cantor", "cell-grid"):
        if name == "cantor":
            measure = make_cantor_measure(9)
            args = (measure.atoms, kern, "segment", measure.cell_size)
        else:
            grid = make_cell_grid((0.0, 0.0), 1.0, 0.05)
            args = (grid.atoms, kern, "square", grid.cell_size)
        return (lambda: _kernel_matrix(_points(args[0], *args[2:]), kern),
                lambda: point_effective_kernel_pairs(*args))
    supports = _asymmetric_supports(name)
    return (lambda: _one_block(assemble_mixed(supports, kern)),
            lambda: assemble_mixed_pairs(supports, kern).entries)


def _asymmetric_supports(name: str):
    """Supports that no map of the plane keeps, at angles drawn once."""
    rng = np.random.default_rng(29)
    angle = rng.uniform(0.0, TWO_PI)
    if name == "two circles at an angle":
        # the second circle's angular weight takes the fold
        return [(make_smooth_curve(Circle(radius=0.9), 128),
                 WeightFn.constant(1.0)),
                (make_smooth_curve(Circle(center=(3.5 * np.cos(angle),
                                                  3.5 * np.sin(angle)),
                                          radius=1.6), 192),
                 WeightFn.angular())]
    if name == "rotated polygon":
        return [(transform(make_polygon_curve(_QUAD, 24, 3.0),
                           rotation_matrix(angle), shift=(0.4, -1.1)),
                 WeightFn.constant(1.0))]
    atoms = rng.uniform(0.0, 1.0, size=(150, 2))
    return [(SingularMeasure(atoms=atoms,
                             masses=rng.uniform(0.5, 1.5, 150) / 150,
                             cell_size=0.02, alpha_nominal=2.0),
             WeightFn.tabulated(rng.uniform(0.5, 2.0, 150)))]


def _one_block(op) -> np.ndarray:
    """The storage of an operator's one block of order n."""
    assert op.singles.size == 0
    assert [(type(block), block.n) for block in op.blocks] == [
        (assemble.OperatorMatrix, op.n)]
    return op.blocks[0].entries


@pytest.mark.parametrize("case", ["circle", "graded-polygon", "cantor",
                                  "cell-grid", "two circles at an angle",
                                  "rotated polygon", "random atoms"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_every_worker_count_matches_pairs_oracle(case, workers, monkeypatch):
    built, oracle = _builder_case(case)
    monkeypatch.setattr(assemble, "_WORKERS", workers)
    assert _same_upper(built(), oracle())


@pytest.mark.parametrize("weight", ["unsigned", "signed"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_mixed_matches_pairs_oracle(weight, workers, kernel, monkeypatch):
    # cross blocks at distances 2-4 take the cosh-integral band of K_0; no
    # map keeps the three supports, and the operator is one block
    grid = make_cell_grid((0.0, 0.0), 1.0, 0.05)
    near = make_smooth_curve(Circle(center=(3.0, 0.0), radius=0.5), 256)
    far = make_smooth_curve(Circle(center=(0.0, -3.0), radius=0.8), 300)
    second = WeightFn.angular() if weight == "signed" else WeightFn.constant(2.0)
    supports = [(grid, WeightFn.constant(1.0)),
                (near, WeightFn.constant(1.0)), (far, second)]
    table = assemble._symmetry_table(supports, *assemble._layout(supports))
    assert table.shape[:2] == (1, 1)
    monkeypatch.setattr(assemble, "_WORKERS", workers)
    op = assemble_mixed(supports, kernel)
    expected = assemble_mixed_pairs(supports, kernel)
    assert _same_upper(_one_block(op), expected.entries)
    assert op.signed_flag == (weight == "signed")


def test_every_block_runs_exactly_once_under_contention(monkeypatch):
    # more workers than cores and a short switch interval: a block taken
    # twice or lost between the workers breaks the count
    monkeypatch.setattr(assemble, "_WORKERS", 8)
    # one row per block at width 1
    monkeypatch.setattr(assemble, "_BLOCK_BYTES", 8 * 8)
    counts = np.zeros(5000, dtype=int)

    def fill(i0, i1):
        counts[i0:i1] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assemble._each_block(len(counts), 1, fill)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(counts, np.ones_like(counts))


@pytest.mark.parametrize("thread", ["caller", "pool"])
def test_block_error_reaches_caller_after_every_block_ends(thread,
                                                          monkeypatch):
    monkeypatch.setattr(assemble, "_WORKERS", 3)
    # one row per block at width 10
    monkeypatch.setattr(assemble, "_BLOCK_BYTES", 3 * 8 * 10)
    written = np.zeros(200)
    running = set()
    raised = []

    def fill(i0, i1):
        running.add(i0)
        time.sleep(0.001)
        on_caller = threading.current_thread() is threading.main_thread()
        if not raised and on_caller == (thread == "caller"):
            raised.append(i0)
            raise ValueError("block %d" % i0)
        written[i0:i1] += 1.0
        running.discard(i0)

    threads = set(threading.enumerate())
    with pytest.raises(ValueError, match="block"):
        assemble._each_block(200, 10, fill)
    # the failed block is the only one left unfinished, the pool is gone
    assert running == set(raised)
    assert set(threading.enumerate()) == threads
    snapshot = written.copy()
    time.sleep(0.05)
    assert np.array_equal(written, snapshot)
    # no block ran twice, and the blocks after the error never started
    assert written.max() <= 1.0
    assert written.sum() < 190


def test_underflow_warning_in_a_pool_block_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(assemble, "_WORKERS", 2)
    # one row per block at width 4: two blocks, one on each thread
    monkeypatch.setattr(assemble, "_BLOCK_BYTES", 2 * 8 * 4)
    both_started = threading.Barrier(2, timeout=10)
    kern = reference_kernel()
    pool_calls = []

    def fill(i0, i1):
        both_started.wait()
        if threading.current_thread() is not threading.main_thread():
            pool_calls.append(i0)
            kern.profile(np.full(4, 800.0))

    with pytest.warns(RuntimeWarning, match="underflow"):
        assemble._each_block(2, 4, fill)
    assert len(pool_calls) == 1


# ---------------------------------------------------------------------------
# the upper-triangle contract: the pass writes below the diagonal only the
# mirrored values of its leading squares, and only _finalize writes anything
# else there
# ---------------------------------------------------------------------------

def _upper_support(name: str):
    """One support whose kernel matrix a test builds."""
    if name == "points":
        return make_cantor_measure(8)
    return {"circle": make_smooth_curve(Circle(), 300),
            "polygon": make_polygon_curve(_QUAD, 64, 3.0),
            "fallback": make_polygon_curve(_POLYGONS[3], 2, 3.0)}[name]


# a 1 GB block budget puts every matrix in one block; 64 bytes give one row
# per block
@pytest.mark.parametrize("name", ["circle", "polygon", "fallback", "points"])
@pytest.mark.parametrize("block_bytes", [1 << 30, 64],
                         ids=["one-block", "row-blocks"])
@pytest.mark.parametrize("workers", [1, 2])
def test_builders_leave_the_strict_lower_triangle_untouched(
        name, block_bytes, workers, monkeypatch):
    # the pass starts from NaN: the builders fill the upper triangle, bit
    # for bit the all-pairs oracle's, and below it write nothing the
    # symmetric matrix does not hold: the leading square of each row block
    # takes their values, each its mirror's, and the rest stays untouched
    monkeypatch.setattr(assemble, "_WORKERS", workers)
    monkeypatch.setattr(assemble, "_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(assemble, "np", _NanEmptyNumpy())
    support = _upper_support(name)
    kern = reference_kernel()
    out = _kernel_matrix(support, kern)
    n = len(out)
    assert name != "fallback" or n < 8
    if name == "points":
        want = point_effective_kernel_pairs(support.atoms, kern, "segment",
                                            support.cell_size)
    else:
        want = curve_kernel_pairs(support, kern)
    lower = np.tri(n, k=-1, dtype=bool)
    below = out[lower]
    assert np.all(np.isnan(below) | (below == out.T[lower]))
    assert _same_upper(out, want)


class _NanEmptyNumpy:
    """NumPy as ``assemble`` sees it, except that ``empty`` fills with NaN:
    an entry that no step writes stays NaN.  An integer array, such as an
    orbit table, takes its dtype's least value, which no index reaches."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float, **kwargs):
        dtype = np.dtype(dtype)
        return np.full(shape, np.nan if dtype.kind in "fc"
                       else np.iinfo(dtype).min, dtype)


def _nan_lower_operator(case: str, signed: bool, monkeypatch):
    """(kernel matrix handed to _finalize, finished operator) of one
    assembly whose fresh matrices start as NaN."""
    kern = reference_kernel()
    weight = WeightFn.angular() if signed else WeightFn.constant(1.0)
    handed = []
    finalize = assemble._finalize

    def spy(kernel_matrix, v_vals, weights):
        handed.append(kernel_matrix.copy())
        return finalize(kernel_matrix, v_vals, weights)

    monkeypatch.setattr(assemble, "np", _NanEmptyNumpy())
    monkeypatch.setattr(assemble, "_finalize", spy)
    if case == "cantor":
        # weights that no map keeps: one block of order n
        measure = make_cantor_measure(7)
        v = np.cos(np.arange(measure.n_atoms)) + (0.0 if signed else 1.5)
        op = assemble_measure_operator(measure, WeightFn.tabulated(v), kern)
    else:
        # a cell grid, a circle, a square and a six-node triangle: four
        # kinds of diagonal block and six cross blocks
        grid = make_cell_grid((0.5, 0.5), 0.5, 0.1)
        supports = [
            (grid, WeightFn.constant(1.0)),
            (make_smooth_curve(Circle(center=(3.0, 0.5), radius=0.5), 64),
             weight),
            (make_polygon_curve([[0.0, 2.0], [1.0, 2.0], [1.0, 3.0],
                                 [0.0, 3.0]], 8, 3.0), weight),
            (make_polygon_curve([[3.0, 3.0], [4.0, 3.0], [3.5, 4.0]], 2,
                                3.0), weight),
        ]
        op = assemble_mixed(supports, kern)
    return handed[0], op


@pytest.mark.parametrize("case", ["cantor", "mixed"])
@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
@pytest.mark.parametrize("workers,block_bytes", [(1, 1 << 30), (2, 64)],
                         ids=["one-block", "row-blocks"])
def test_only_the_finished_operator_has_a_lower_triangle(
        case, signed, workers, block_bytes, monkeypatch):
    monkeypatch.setattr(assemble, "_WORKERS", workers)
    monkeypatch.setattr(assemble, "_BLOCK_BYTES", block_bytes)
    kernel_matrix, op = _nan_lower_operator(case, signed, monkeypatch)
    entries = _one_block(op)
    lower = np.tri(op.n, k=-1, dtype=bool)
    # the diagonal and cross blocks fill the upper triangle; below it lie
    # the leading squares of the row blocks, each entry its mirror's, and
    # the NaN of the fresh matrix
    below = kernel_matrix[lower]
    assert np.all(np.isnan(below) | (below == kernel_matrix.T[lower]))
    assert not np.isnan(kernel_matrix[~lower]).any()
    assert op.signed_flag == signed
    # the finished operator is its upper triangle; below it lies what the
    # pass left, which neither the scaling nor the fold writes
    assert not np.isnan(entries[~lower]).any()
    assert np.array_equal(entries[lower], below, equal_nan=True)
    sp = spectra.eigensolve(op)
    assert np.isfinite(sp.positives).all() and np.isfinite(sp.negatives).all()


@pytest.mark.parametrize("support", ["circle", "graded-polygon", "cantor"])
def test_fold_reads_only_the_upper_triangle(support, kernel):
    ktil, w = _fold_kernel(support, kernel)
    v = np.random.default_rng(3).normal(size=len(w))
    lower = np.tri(len(w), k=-1, dtype=bool)
    nan_lower = ktil.copy()
    nan_lower[lower] = np.nan
    got = _cholesky_fold(nan_lower.copy(), v, w)
    want = _cholesky_fold(ktil.copy(), v, w)
    assert _same_upper(got, want)
    # nor does it write there: below the operator lies what it was handed
    assert np.array_equal(want[lower], ktil[lower])
    op = assemble._finalize(nan_lower, v, w)
    assert not np.isnan(op.entries[~lower]).any()
    assert np.isnan(op.entries[lower]).all()
    expected = assemble_mixed_pairs(
        [(_fold_case(support), WeightFn.tabulated(v))], kernel).entries
    rho = np.max(np.abs(np.linalg.eigvalsh(expected)))
    assert np.max(np.abs(np.triu(op.entries - expected))) <= 1e-13 * rho


def test_kernel_mesh_dimension_mismatch():
    # the kernels are planar: a support off the plane is a usage error
    # (exit 2), refused where it is built
    mesh = make_smooth_curve(Circle(), 16)
    with pytest.raises(InvalidArgumentError, match=r"nodes must be \(n, 2\)"):
        SurfaceMesh(nodes=np.column_stack([mesh.nodes, np.zeros(16)]),
                    weights=mesh.weights,
                    tangents=np.column_stack([mesh.tangents, np.zeros(16)]),
                    param_values=mesh.param_values, kind="smooth-closed")
    with pytest.raises(InvalidArgumentError, match=r"atoms must be \(n, 2\)"):
        SingularMeasure(atoms=np.eye(3), masses=np.ones(3), cell_size=0.1,
                        alpha_nominal=1.0)


# ---------------------------------------------------------------------------
# measure operators
# ---------------------------------------------------------------------------

def test_single_atom_matrix_is_self_cell(kernel):
    from critspec.geometry import SingularMeasure
    measure = SingularMeasure(
        atoms=np.array([[0.2, 0.3]]),
        masses=np.array([1.0]), cell_size=0.05, alpha_nominal=1.0)
    v = 3.0
    op = assemble_measure_operator(measure, WeightFn.constant(v), kernel)
    expected = v * self_cell_coefficient("segment", 0.05)
    # the one atom is the trivial group's one 1 x 1 block
    assert op.blocks == () and len(op.singles) == 1
    assert op.singles[0] == pytest.approx(expected, rel=1e-14)


def test_two_atoms_off_diagonal(kernel, unit_weight):
    from critspec.geometry import SingularMeasure
    measure = SingularMeasure(
        atoms=np.array([[0.0, 0.0], [1.0, 0.0]]),
        masses=np.array([1.0, 1.0]), cell_size=0.1, alpha_nominal=1.0)
    op = assemble_dense([(measure, unit_weight)], kernel)
    assert op.blocks[0].entries[0, 1] == pytest.approx(
        bessel_k(0, 1.0) / TWO_PI, rel=1e-13)
    # the swap of the two atoms reduces the operator to its even and odd
    # 1 x 1 blocks, K_00 +- K_01
    reduced = assemble_measure_operator(measure, unit_weight, kernel)
    closure = self_cell_coefficient("segment", 0.1)
    assert np.sort(reduced.singles) == pytest.approx(
        closure + np.array([-1.0, 1.0]) * bessel_k(0, 1.0) / TWO_PI,
        rel=1e-13)


def test_nonnegative_weight_gives_semidefinite_matrix(kernel, unit_weight):
    # at fine resolution the discretized operator inherits positivity
    mesh = make_smooth_curve(Circle(radius=1.0), 128)
    op = assemble_dense([(mesh, unit_weight)], kernel)
    ev = np.linalg.eigvalsh(op.blocks[0].entries, UPLO="U")
    assert ev.min() >= -1e-10 * ev.max()
    assert not op.signed_flag


def _unsigned_support(kind: str, size, resolution):
    """A circle of 2 * resolution nodes, a Cantor measure of depth
    resolution, or a curve whose node spacing is at most resolution."""
    if kind == "circle":
        return make_smooth_curve(Circle(radius=size), 2 * resolution)
    if kind == "cantor":
        return make_cantor_measure(resolution)
    if kind == "rectangle":
        # graded panels: the largest one is below 3 L / panels_per_edge
        width, height = size
        m = 2 * int(np.ceil(1.5 * max(width, height) / resolution))
        return make_polygon_curve([[0.0, 0.0], [width, 0.0],
                                   [width, height], [0.0, height]], m, 3.0)
    curve = Ellipse(a=size[0], b=size[1]) if kind == "ellipse" else Star(
        radius=size)
    probe = make_smooth_curve(curve, 64)
    speed = 1.1 * probe.weights.max() * 64 / TWO_PI
    return make_smooth_curve(curve, 2 * int(np.ceil(np.pi * speed
                                                    / resolution)))


_SPACING = st.floats(min_value=0.125, max_value=0.25)


@settings(max_examples=60, deadline=None)
@given(support=st.one_of(
           st.tuples(st.just("circle"),
                     st.floats(min_value=0.1, max_value=2.0),
                     st.integers(min_value=4, max_value=128)),
           st.tuples(st.just("cantor"), st.just(0.0),
                     st.integers(min_value=2, max_value=8)),
           st.tuples(st.just("ellipse"),
                     st.tuples(st.floats(min_value=0.5, max_value=10.0),
                               st.floats(min_value=0.2, max_value=4.0)),
                     _SPACING),
           st.tuples(st.just("star"),
                     st.floats(min_value=0.5, max_value=7.0), _SPACING),
           st.tuples(st.just("rectangle"),
                     st.tuples(st.floats(min_value=1.0, max_value=20.0),
                               st.floats(min_value=0.5, max_value=20.0)),
                     _SPACING)),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_unsigned_operators_are_symmetric_semidefinite(support, seed):
    # small circles at any n, Cantor measures, and resolved curves up to
    # size 20
    kind, size, resolution = support
    kern = reference_kernel()
    obj = _unsigned_support(kind, size, resolution)
    if kind == "cantor":
        count = obj.n_atoms
    else:
        count = obj.n_nodes
        assert kind == "circle" or obj.weights.max() <= resolution
    # nonnegative weights, a quarter of them zero
    v = np.random.default_rng(seed).uniform(-0.5, 2.0, count).clip(0.0)
    op = assemble_dense([(obj, WeightFn.tabulated(v))], kern)
    assert not op.signed_flag
    ev = np.linalg.eigvalsh(op.blocks[0].entries, UPLO="U")
    assert ev[0] >= -1e-12 * np.max(np.abs(ev))


def test_cantor_refinement_consistency(cantor_spectra):
    # diagonal closure keeps the top of the spectrum stable under refinement
    _, sp9 = cantor_spectra[9]
    _, sp10 = cantor_spectra[10]
    rel = np.abs(sp10.positives[:10] - sp9.positives[:10]) / sp9.positives[:10]
    assert np.max(rel) < 0.02


# ---------------------------------------------------------------------------
# mixed configurations
# ---------------------------------------------------------------------------

def test_mixed_empty_curves_is_pure_area(kernel):
    grid = make_cell_grid((0.5, 0.5), 0.5, 0.25)
    op = assemble_dense([(grid, WeightFn.constant(1.0))], kernel)
    assert op.n == grid.n_atoms
    diag = self_cell_coefficient("square", 0.25) * 0.25 ** 2
    assert op.blocks[0].entries[0, 0] == pytest.approx(diag, rel=1e-13)


def test_mixed_zero_density_decouples(kernel, unit_weight):
    mesh = make_smooth_curve(Circle(center=(2.0, 2.0), radius=0.5), 32)
    grid = make_cell_grid((0.5, 0.5), 0.5, 0.25)
    supports = [(grid, WeightFn.constant(0.0)), (mesh, unit_weight)]
    curve = [(mesh, unit_weight)]
    # reduced by the diagonal reflection, and with the trivial group; the
    # zero eigenvalues of the grid are dropped
    for assembled in (assemble_mixed, assemble_dense):
        ev_mixed = spectra.eigensolve(assembled(supports, kernel)).positives
        ev_curve = spectra.eigensolve(assembled(curve, kernel)).positives
        assert len(ev_mixed) == len(ev_curve) == mesh.n_nodes
        assert np.max(np.abs(ev_mixed - ev_curve)) < 1e-12


def test_mixed_rejects_separation_violation(kernel, unit_weight):
    mesh = make_smooth_curve(Circle(center=(0.5, 0.5), radius=0.3), 32)
    grid = make_cell_grid((0.5, 0.5), 0.5, 0.25)
    with pytest.raises(InvalidArgumentError):
        assemble_mixed([(grid, unit_weight), (mesh, unit_weight)], kernel)


def test_make_cell_grid_refuses_bad_sizes_before_building():
    # a 250 x 250 bounding grid is above the atom cap of 2^15 cells
    with pytest.raises(ResourceLimitError, match="atom cap"):
        make_cell_grid((0.0, 0.0), 1.0, 0.008)
    for delta in (0.0, -0.1, float("nan")):
        with pytest.raises(InvalidArgumentError, match="cell size"):
            make_cell_grid((0.0, 0.0), 1.0, delta)


# each domain is a disk's (center, radius); a cell wider than four radii
# leaves the disk without a cell center in it
@pytest.mark.parametrize("domain,delta,named", [
    (((0.0, 0.0), 1.0), float("inf"), "cell size must be positive "
     "and finite, got inf"),
    (((0.0, 0.0), -1.0), 0.1, "disk radius must be positive and "
     "finite, got -1.0"),
    (((0.0, 0.0), float("nan")), 0.1, "disk radius"),
    (((0.0, 0.0), 0.02), 0.1, "no cell of size 0.1 is left in the disk of "
     "radius 0.02"),
    (((0.0, float("nan")), 1.0), 0.1, "domain bounds must be "
     "finite"),
    (((float("inf"), 0.0), 1.0), 0.1, "domain bounds must be finite"),
])
def test_make_cell_grid_refuses_a_domain_that_leaves_no_cell(domain, delta,
                                                              named):
    with pytest.raises(InvalidArgumentError) as info:
        make_cell_grid(*domain, delta)
    assert named in str(info.value)


def test_make_cell_grid_is_an_area_measure():
    grid = make_cell_grid((0.5, 0.5), 0.5, 0.25)
    # the 4 x 4 cells of the bounding square less its 4 corner cells
    assert grid.n_atoms == 12 and grid.cell_size == 0.25
    assert grid.alpha_nominal == 2.0 and np.all(grid.masses == 0.25 ** 2)


def test_make_cell_grid_excludes_near_curve_cells(kernel):
    mesh = make_smooth_curve(Circle(radius=0.5), 64)
    grid = make_cell_grid((0.0, 0.0), 1.0, 0.1, exclude_meshes=[mesh])
    d = np.abs(np.linalg.norm(grid.atoms, axis=1) - 0.5)
    assert np.all(d > 0.1 * np.sqrt(2.0) - 0.05)
    assert grid.n_atoms > 0


def test_uniform_square_measure_closes_its_diagonal_with_square_cells(
        kernel):
    # an area measure's atoms stand for square cells, as a cell grid's do
    measure = make_uniform_square_measure(4)
    op = assemble_dense([(measure, WeightFn.constant(1.0))], kernel)
    assert np.all(np.diag(op.blocks[0].entries)
                  == self_cell_coefficient("square", 0.25) / 16)
