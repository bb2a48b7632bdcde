import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ive, kve

from critspec import assemble, spectra
from critspec.assemble import (CellGrid, OperatorMatrix, WeightFn,
                               _cholesky_fold, _curve_effective_kernel,
                               _point_effective_kernel,
                               assemble_curve_operator,
                               assemble_measure_operator, assemble_mixed,
                               make_cell_grid)
from critspec.bessel import bessel_k
from critspec.errors import InvalidArgumentError, ResourceLimitError
from critspec.geometry import (Circle, Ellipse, Star, SurfaceMesh,
                               make_cantor_measure,
                               make_polygon_curve, make_smooth_curve,
                               rotation_matrix, transform)
from critspec.kernels import (lower_order_kernel, reference_kernel,
                              self_cell_coefficient)

from conftest import UNIT_SQUARE, circle_exact_eigenvalues
from oracles import (assemble_mixed_pairs, cholesky_fold_full,
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


def _two_node_mesh():
    # degenerate two-point mesh: unit-distance nodes, unit weights
    return SurfaceMesh(
        ambient_dim=2,
        nodes=np.array([[0.0, 0.0], [1.0, 0.0]]),
        weights=np.array([1.0, 1.0]),
        tangents=np.array([[1.0, 0.0], [1.0, 0.0]]),
        param_values=np.array([0.0, np.pi]),
        kind="smooth-closed",
    )


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

def test_two_node_mesh_off_diagonal_is_kernel_value(kernel, unit_weight):
    op = assemble_curve_operator(_two_node_mesh(), unit_weight, kernel)
    assert op.entries[0, 1] == pytest.approx(bessel_k(0, 1.0) / TWO_PI,
                                             rel=1e-13)
    assert op.entries[0, 1] == op.entries[1, 0]


def test_circle_top_eigenvalue_n64(kernel, unit_weight):
    mesh = make_smooth_curve(Circle(radius=1.0), 64)
    op = assemble_curve_operator(mesh, unit_weight, kernel)
    top = spectra.eigensolve(op).positives[0]
    exact = circle_exact_eigenvalues(1.0, 1)[0]
    assert top == pytest.approx(exact, rel=1e-8)


def test_zero_weight_gives_zero_matrix(kernel):
    mesh = make_smooth_curve(Circle(), 32)
    op = assemble_curve_operator(mesh, WeightFn.constant(0.0), kernel)
    assert np.all(op.entries == 0.0)


def test_matrix_exactly_symmetric(kernel):
    for mesh in (make_smooth_curve(Circle(), 32),
                 make_polygon_curve(UNIT_SQUARE, 8, 3.0)):
        op = assemble_curve_operator(mesh, WeightFn.angular(), kernel)
        assert np.max(np.abs(op.entries - op.entries.T)) == 0.0


def test_similarity_invariance_vs_plain_nystrom(kernel):
    # the symmetrized matrix and plain K diag(V w) share nonzero spectra
    from critspec.assemble import _smooth_curve_effective_kernel
    mesh = make_smooth_curve(Circle(radius=1.0), 48)
    for weight in (WeightFn.constant(1.0), WeightFn.angular()):
        vvals = weight.values_on(mesh)
        ktil = _symmetric(_smooth_curve_effective_kernel(mesh, kernel))
        plain = ktil * (vvals * mesh.weights)[None, :]
        ref = np.linalg.eigvals(plain)
        assert np.max(np.abs(ref.imag)) < 1e-10
        ref = np.sort(ref.real)
        op = assemble_curve_operator(mesh, weight, kernel)
        sym = np.sort(np.linalg.eigvalsh(op.entries))
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
        ktil = _symmetric(_point_effective_kernel(
            support.atoms, kern, "segment", support.cell_size))
        v = rng.normal(size=support.n_atoms)
        v[:2] = -abs(v[0]), abs(v[1])
        op = assemble_measure_operator(support, WeightFn.tabulated(v), kern)
        w = support.masses
    else:
        ktil = _symmetric(_curve_effective_kernel(support, kern))
        v = rng.normal(size=support.n_nodes)
        v[:2] = -abs(v[0]), abs(v[1])
        op = assemble_curve_operator(support, WeightFn.tabulated(v), kern)
        w = support.weights
    assert op.node_meta["fold"] == "cholesky" and op.signed_flag
    assert np.array_equal(op.entries, op.entries.T)
    ref = np.linalg.eigvals(ktil * (v * w)[None, :])
    rho = np.max(np.abs(ref))
    assert np.max(np.abs(ref.imag)) <= 1e-10 * rho
    got = np.linalg.eigvalsh(op.entries)
    assert np.max(np.abs(np.sort(ref.real) - got)) <= 1e-10 * rho


def test_radius_five_circle_takes_the_cholesky_fold(kernel):
    # with the windowed split the discrete kernel matrix of a radius-5 circle
    # at n = 512 is positive definite (unwindowed, its least eigenvalue was
    # -0.108), so the angular weight takes the one fold
    mesh = make_smooth_curve(Circle(radius=5.0), 512)
    ktil = _symmetric(_curve_effective_kernel(mesh, kernel))
    assert np.linalg.eigvalsh(ktil)[0] > 0.0
    weight = WeightFn.angular()
    op = assemble_curve_operator(mesh, weight, kernel)
    assert op.node_meta["fold"] == "cholesky" and op.signed_flag
    vw = weight.values_on(mesh) * mesh.weights
    ref = np.linalg.eigvals(ktil * vw[None, :])
    rho = np.max(np.abs(ref))
    assert np.max(np.abs(ref.imag)) <= 1e-10 * rho
    got = np.linalg.eigvalsh(op.entries)
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
    ev0 = np.linalg.eigvalsh(assemble_curve_operator(mesh, unit_weight,
                                                     kernel).entries)
    ev1 = np.linalg.eigvalsh(assemble_curve_operator(moved, unit_weight,
                                                     kernel).entries)
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


def _agrees_with_two_call_oracle(mesh, kern) -> bool:
    oracle = (smooth_curve_effective_kernel_two_calls
              if mesh.kind == "smooth-closed"
              else polygon_effective_kernel_two_calls)
    got = _symmetric(_curve_effective_kernel(mesh, kern))
    want = oracle(mesh, kern)
    return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("curve", sorted(_CURVES))
@pytest.mark.parametrize("n", [128, 512])
def test_fused_split_matches_two_call_oracle(curve, n, kernel):
    assert _agrees_with_two_call_oracle(_CURVES[curve](n), kernel)


@pytest.mark.parametrize("curve", ["circle", "graded-polygon"])
def test_lower_order_split_matches_two_call_oracle(curve):
    assert _agrees_with_two_call_oracle(_CURVES[curve](128),
                                        lower_order_kernel())


# ---------------------------------------------------------------------------
# the column-blocked sign fold against the full-product oracle
# ---------------------------------------------------------------------------

def _fold_kernel(support: str, kernel):
    """(kernel matrix, quadrature weights) of a support with a positive
    definite kernel matrix; 600 and 1024 unknowns span several column
    blocks of the fold."""
    if support == "cantor":
        measure = make_cantor_measure(10)
        return (_symmetric(_point_effective_kernel(
            measure.atoms, kernel, "segment", measure.cell_size)),
            measure.masses)
    mesh = _CURVES[support](600)
    return _symmetric(_curve_effective_kernel(mesh, kernel)), mesh.weights


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


def test_operator_freezes_a_view_not_the_callers_array():
    m = np.eye(4)
    op = OperatorMatrix(entries=m)
    assert m.flags.writeable
    assert not op.entries.flags.writeable
    assert np.shares_memory(op.entries, m)
    m[0, 1] = 1.0   # the caller may go on editing its own array


@pytest.mark.parametrize("column", ["strip", "square"])
def test_one_ulp_asymmetry_in_the_last_row_block_is_refused(column,
                                                            monkeypatch):
    # 8 row blocks of 64 rows: entry (511, 0) lies in the last block's
    # strip, (511, 510) in its diagonal square
    monkeypatch.setattr(assemble, "_WORKERS", 2)
    n = 512
    m = np.random.default_rng(5).normal(size=(n, n))
    m += m.T
    OperatorMatrix(entries=m.copy())
    j = 0 if column == "strip" else n - 2
    m[n - 1, j] = np.nextafter(m[n - 1, j], np.inf)
    with pytest.raises(InvalidArgumentError, match="exactly symmetric"):
        OperatorMatrix(entries=m)


# ---------------------------------------------------------------------------
# the blocked upper-triangle pass against the all-pairs oracles
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
    assert _same_upper(_curve_effective_kernel(mesh, kernel),
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
    assert _same_upper(_curve_effective_kernel(mesh, kernel),
                       polygon_effective_kernel_pairs(mesh, kernel))


def _point_cases():
    kern = reference_kernel()
    for depth in range(2, 11):
        measure = make_cantor_measure(depth)
        yield ("cantor-%d" % depth, measure.atoms, kern, "segment",
               measure.cell_size)
    grid = make_cell_grid(("disk", (0.0, 0.0), 1.0), 0.035)
    yield "cell-grid", grid.centers, kern, "square", grid.delta
    yield ("lower-order", make_smooth_curve(Circle(), 300).nodes,
           lower_order_kernel(), "segment", 0.02)


@pytest.mark.parametrize("case", list(_point_cases()),
                         ids=lambda case: case[0])
def test_blocked_point_kernel_matches_pairs_oracle(case):
    _, points, kern, cell_kind, cell_size = case
    assert _same_upper(
        _point_effective_kernel(points, kern, cell_kind, cell_size),
        point_effective_kernel_pairs(points, kern, cell_kind, cell_size))


@pytest.mark.parametrize("kern", [reference_kernel(), lower_order_kernel()],
                         ids=["reference", "lower-order"])
def test_blocked_curves_and_fallback_match_pairs_oracles(kern):
    circle = make_smooth_curve(Circle(), 256)
    polygon = make_polygon_curve(_QUAD, 32, 3.0)
    assert _same_upper(_curve_effective_kernel(circle, kern),
                       smooth_curve_effective_kernel_pairs(circle, kern))
    assert _same_upper(_curve_effective_kernel(polygon, kern),
                       polygon_effective_kernel_pairs(polygon, kern))
    # below the quadrature minimum: pointwise values, segment closure
    for tiny in (_two_node_mesh(), make_polygon_curve(_POLYGONS[3], 2, 3.0)):
        assert tiny.n_nodes < 8
        assert _same_upper(
            _curve_effective_kernel(tiny, kern),
            point_effective_kernel_pairs(tiny.nodes, kern, "segment",
                                         float(tiny.weights.max())))


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
    grid = make_cell_grid(("disk", (0.0, 0.0), 1.0), 0.035)
    peaks = [
        (circle.n_nodes, _traced_peak(_curve_effective_kernel, circle,
                                      kernel)),
        (square.n_nodes, _traced_peak(_curve_effective_kernel, square,
                                      kernel)),
        (grid.n_cells, _traced_peak(_point_effective_kernel, grid.centers,
                                    kernel, "square", grid.delta)),
    ]
    for n, peak in peaks:
        assert peak < 2 * 8 * n * n


def test_kernel_assembly_temporaries_are_bounded(kernel):
    _assert_assembly_temporaries_bounded(kernel)


def test_kernel_assembly_temporaries_are_bounded_on_four_workers(
        kernel, monkeypatch):
    # the workers share one block budget: more of them hold no more bytes
    monkeypatch.setattr(assemble, "_WORKERS", 4)
    _assert_assembly_temporaries_bounded(kernel)


# ---------------------------------------------------------------------------
# the threaded pass: any worker count, errors and warnings from the workers
# ---------------------------------------------------------------------------

def _builder_case(name: str):
    """(blocked builder, all-pairs oracle) thunks of one kernel matrix."""
    kern = reference_kernel()
    if name == "circle":
        mesh = make_smooth_curve(Circle(), 1030)
        return (lambda: _curve_effective_kernel(mesh, kern),
                lambda: smooth_curve_effective_kernel_pairs(mesh, kern))
    if name == "graded-polygon":
        mesh = make_polygon_curve(_POLYGONS[6], 66, 3.0)
        return (lambda: _curve_effective_kernel(mesh, kern),
                lambda: polygon_effective_kernel_pairs(mesh, kern))
    if name == "cantor":
        measure = make_cantor_measure(9)
        args = (measure.atoms, kern, "segment", measure.cell_size)
    else:
        grid = make_cell_grid(("disk", (0.0, 0.0), 1.0), 0.05)
        args = (grid.centers, kern, "square", grid.delta)
    return (lambda: _point_effective_kernel(*args),
            lambda: point_effective_kernel_pairs(*args))


@pytest.mark.parametrize("case", ["circle", "graded-polygon", "cantor",
                                  "cell-grid"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_every_worker_count_matches_pairs_oracle(case, workers, monkeypatch):
    built, oracle = _builder_case(case)
    monkeypatch.setattr(assemble, "_WORKERS", workers)
    assert _same_upper(built(), oracle())


@pytest.mark.parametrize("weight", ["unsigned", "signed"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_mixed_matches_pairs_oracle(weight, workers, kernel, monkeypatch):
    # cross blocks at distances 2-4 take the cosh-integral band of K_0
    grid = make_cell_grid(("disk", (0.0, 0.0), 1.0), 0.05)
    near = make_smooth_curve(Circle(center=(3.0, 0.0), radius=0.5), 256)
    far = make_smooth_curve(Circle(center=(0.0, -3.0), radius=0.8), 300)
    second = WeightFn.angular() if weight == "signed" else WeightFn.constant(2.0)
    curves = [(near, WeightFn.constant(1.0)), (far, second)]
    monkeypatch.setattr(assemble, "_WORKERS", workers)
    op = assemble_mixed(grid, curves, kernel)
    expected = assemble_mixed_pairs(grid, curves, kernel)
    assert np.array_equal(op.entries, expected.entries)
    assert op.node_meta == expected.node_meta
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
# the upper-triangle contract: only _finalize writes the lower triangle
# ---------------------------------------------------------------------------

def _upper_builder(name: str):
    """(size, builder writing into a given out) of one kernel matrix."""
    kern = reference_kernel()
    if name == "points":
        measure = make_cantor_measure(8)
        return measure.n_atoms, lambda out: _point_effective_kernel(
            measure.atoms, kern, "segment", measure.cell_size, out)
    mesh = {"circle": make_smooth_curve(Circle(), 300),
            "polygon": make_polygon_curve(_QUAD, 64, 3.0),
            "fallback": make_polygon_curve(_POLYGONS[3], 2, 3.0)}[name]
    return mesh.n_nodes, lambda out: _curve_effective_kernel(mesh, kern, out)


# a 1 GB block budget puts every matrix in one block; 64 bytes give one row
# per block
@pytest.mark.parametrize("name", ["circle", "polygon", "fallback", "points"])
@pytest.mark.parametrize("block_bytes", [1 << 30, 64],
                         ids=["one-block", "row-blocks"])
@pytest.mark.parametrize("workers", [1, 2])
def test_builders_leave_the_strict_lower_triangle_untouched(
        name, block_bytes, workers, monkeypatch):
    monkeypatch.setattr(assemble, "_WORKERS", workers)
    monkeypatch.setattr(assemble, "_BLOCK_BYTES", block_bytes)
    n, build = _upper_builder(name)
    assert name != "fallback" or n < 8
    out = np.full((n, n), np.nan)
    build(out)
    lower = np.tri(n, k=-1, dtype=bool)
    assert np.isnan(out[lower]).all()
    assert not np.isnan(out[~lower]).any()


class _NanEmptyNumpy:
    """NumPy as ``assemble`` sees it, except that ``empty`` fills with NaN:
    an entry that no step writes stays NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, *args, **kwargs):
        return np.full(shape, np.nan)


def _nan_lower_operator(case: str, signed: bool, monkeypatch):
    """(kernel matrix handed to _finalize, finished operator) of one
    assembly whose fresh matrices start as NaN."""
    kern = reference_kernel()
    weight = WeightFn.angular() if signed else WeightFn.constant(1.0)
    handed = []
    finalize = assemble._finalize

    def spy(kernel_matrix, v_vals, weights, meta):
        handed.append(kernel_matrix.copy())
        return finalize(kernel_matrix, v_vals, weights, meta)

    monkeypatch.setattr(assemble, "np", _NanEmptyNumpy())
    monkeypatch.setattr(assemble, "_finalize", spy)
    if case == "cantor":
        measure = make_cantor_measure(7)
        v = np.cos(np.arange(measure.n_atoms)) if signed else np.ones(
            measure.n_atoms)
        op = assemble_measure_operator(measure, WeightFn.tabulated(v), kern)
    else:
        # a cell grid, a circle, a polygon and a curve below the quadrature
        # minimum: four kinds of diagonal block and six cross blocks
        grid = make_cell_grid(("box", (0.0, 0.0), (1.0, 1.0)), 0.1)
        curves = [
            (make_smooth_curve(Circle(center=(3.0, 0.5), radius=0.5), 64),
             weight),
            (make_polygon_curve([[0.0, 2.0], [1.0, 2.0], [1.0, 3.0],
                                 [0.0, 3.0]], 8, 3.0), weight),
            (make_polygon_curve([[3.0, 3.0], [4.0, 3.0], [3.5, 4.0]], 2,
                                3.0), weight),
        ]
        op = assemble_mixed(grid, curves, kern)
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
    lower = np.tri(op.n, k=-1, dtype=bool)
    # the diagonal and cross blocks fill the upper triangle and nothing else
    assert np.isnan(kernel_matrix[lower]).all()
    assert not np.isnan(kernel_matrix[~lower]).any()
    assert op.signed_flag == signed
    assert not np.isnan(op.entries).any()
    assert np.array_equal(op.entries, op.entries.T)


@pytest.mark.parametrize("support", ["circle", "graded-polygon", "cantor"])
def test_fold_reads_only_the_upper_triangle(support, kernel):
    ktil, w = _fold_kernel(support, kernel)
    v = np.random.default_rng(3).normal(size=len(w))
    lower = np.tri(len(w), k=-1, dtype=bool)
    nan_lower = ktil.copy()
    nan_lower[lower] = np.nan
    got = _cholesky_fold(nan_lower, v, w)
    want = _cholesky_fold(ktil.copy(), v, w)
    assert _same_upper(got, want)
    # the fold leaves the lower triangle to the one mirror
    assert np.isnan(got[lower]).all()


def test_kernel_mesh_dimension_mismatch():
    mesh = make_smooth_curve(Circle(), 16)
    bad = reference_kernel()
    object.__setattr__(bad, "ambient_dim", 3)
    with pytest.raises(InvalidArgumentError):
        assemble_curve_operator(mesh, WeightFn.constant(1.0), bad)


# ---------------------------------------------------------------------------
# measure operators
# ---------------------------------------------------------------------------

def test_single_atom_matrix_is_self_cell(kernel):
    from critspec.geometry import SingularMeasure
    measure = SingularMeasure(
        ambient_dim=2, atoms=np.array([[0.2, 0.3]]),
        masses=np.array([1.0]), cell_size=0.05, alpha_nominal=1.0)
    v = 3.0
    op = assemble_measure_operator(measure, WeightFn.constant(v), kernel)
    expected = v * self_cell_coefficient("segment", 0.05)
    assert op.entries[0, 0] == pytest.approx(expected, rel=1e-14)


def test_two_atoms_off_diagonal(kernel, unit_weight):
    from critspec.geometry import SingularMeasure
    measure = SingularMeasure(
        ambient_dim=2, atoms=np.array([[0.0, 0.0], [1.0, 0.0]]),
        masses=np.array([1.0, 1.0]), cell_size=0.1, alpha_nominal=1.0)
    op = assemble_measure_operator(measure, unit_weight, kernel)
    assert op.entries[0, 1] == pytest.approx(bessel_k(0, 1.0) / TWO_PI,
                                             rel=1e-13)


def test_nonnegative_weight_gives_semidefinite_matrix(kernel, unit_weight):
    # at fine resolution the discretized operator inherits positivity
    mesh = make_smooth_curve(Circle(radius=1.0), 128)
    op = assemble_curve_operator(mesh, unit_weight, kernel)
    ev = np.linalg.eigvalsh(op.entries)
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
    assemble = (assemble_measure_operator if kind == "cantor"
                else assemble_curve_operator)
    op = assemble(obj, WeightFn.tabulated(v), kern)
    assert not op.signed_flag and "fold" not in op.node_meta
    assert np.array_equal(op.entries, op.entries.T)
    ev = np.linalg.eigvalsh(op.entries)
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
    grid = make_cell_grid(("box", (0.0, 0.0), (1.0, 1.0)), 0.25)
    op = assemble_mixed(grid, [], kernel)
    assert op.n == grid.n_cells
    diag = self_cell_coefficient("square", 0.25) * 0.25 ** 2
    assert op.entries[0, 0] == pytest.approx(diag, rel=1e-13)


def test_mixed_zero_density_decouples(kernel, unit_weight):
    mesh = make_smooth_curve(Circle(center=(2.0, 2.0), radius=0.5), 32)
    grid = make_cell_grid(("box", (0.0, 0.0), (1.0, 1.0)), 0.25, v0=0.0)
    mixed = assemble_mixed(grid, [(mesh, unit_weight)], kernel)
    curve_only = assemble_curve_operator(mesh, unit_weight, kernel)
    ev_mixed = np.linalg.eigvalsh(mixed.entries)
    ev_curve = np.linalg.eigvalsh(curve_only.entries)
    nz = len(ev_curve)
    assert np.max(np.abs(np.sort(ev_mixed)[-nz:] - np.sort(ev_curve))) < 1e-12


def test_mixed_rejects_separation_violation(kernel, unit_weight):
    mesh = make_smooth_curve(Circle(center=(0.5, 0.5), radius=0.3), 32)
    grid = make_cell_grid(("box", (0.0, 0.0), (1.0, 1.0)), 0.25)
    with pytest.raises(InvalidArgumentError):
        assemble_mixed(grid, [(mesh, unit_weight)], kernel)


def test_make_cell_grid_refuses_bad_sizes_before_building():
    # a 250 x 250 bounding grid is above the atom cap of 2^15 cells
    with pytest.raises(ResourceLimitError, match="atom cap"):
        make_cell_grid(("disk", (0.0, 0.0), 1.0), 0.008)
    for delta in (0.0, -0.1, float("nan")):
        with pytest.raises(InvalidArgumentError, match="cell size"):
            make_cell_grid(("disk", (0.0, 0.0), 1.0), delta)


def test_make_cell_grid_excludes_near_curve_cells(kernel):
    mesh = make_smooth_curve(Circle(radius=0.5), 64)
    grid = make_cell_grid(("disk", (0.0, 0.0), 1.0), 0.1,
                          exclude_meshes=[mesh])
    d = np.abs(np.linalg.norm(grid.centers, axis=1) - 0.5)
    assert np.all(d > 0.1 * np.sqrt(2.0) - 0.05)
    assert grid.n_cells > 0
