import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critspec import covering
from critspec.covering import (build_covering, empirical_estimate_constant,
                               poly_space_dim, solve_t)
from critspec.errors import InvalidArgumentError, OutOfRangeError
from critspec.assemble import (WeightFn, assemble_curve_operator,
                               assemble_measure_operator)
from critspec.geometry import (Circle, SingularMeasure, make_cantor_measure,
                               make_smooth_curve, make_uniform_square_measure)
from critspec.orlicz import Cube, j_functional, surface_norm
from critspec.spectra import Spectrum, eigensolve

from oracles import (averaged_norm_bisection, family_colors_all_pairs,
                     family_colors_loop, rho, solve_t_prefix, t_star)

T_STAR = t_star()


@pytest.fixture(scope="module")
def uniform16():
    return make_uniform_square_measure(16)


@pytest.fixture(scope="module")
def ones16(uniform16):
    return np.ones(uniform16.n_atoms)


# ---------------------------------------------------------------------------
# rho and the crossing solver
# ---------------------------------------------------------------------------

def test_rho_vanishes_below_nearest_atom(uniform16, ones16):
    # center off the support: a tiny cube holds no atoms
    assert rho(uniform16, ones16, (0.501, 0.501), 0.01) == 0.0


def test_rho_stabilizes_at_global_value(uniform16, ones16):
    global_j = surface_norm(ones16, uniform16)
    assert rho(uniform16, ones16, (0.2, 0.7), 5.0) == pytest.approx(
        global_j, rel=1e-12)
    assert rho(uniform16, ones16, (0.2, 0.7), 50.0) == pytest.approx(
        global_j, rel=1e-12)


def test_rho_half_mass_cube():
    # cube holding exactly half the atoms of a unit-mass uniform segment
    n = 64
    atoms = np.stack([(np.arange(n) + 0.5) / n, np.zeros(n)], axis=1)
    from critspec.geometry import SingularMeasure
    seg = SingularMeasure(atoms=atoms,
                          masses=np.full(n, 1.0 / n), cell_size=1.0 / n,
                          alpha_nominal=1.0)
    val = rho(seg, np.ones(n), (0.25, 0.0), 0.51)
    captured = np.sum(np.abs(atoms[:, 0] - 0.25) <= 0.255) / n
    assert captured == 0.5
    assert val == pytest.approx(0.5 * T_STAR, rel=1e-10)


def test_rho_monotone_in_side(uniform16, ones16):
    vals = [rho(uniform16, ones16, (0.5, 0.5), s)
            for s in np.linspace(0.05, 1.2, 24)]
    assert np.all(np.diff(vals) >= -1e-12)


def test_solve_t_linear_scaling_on_uniform_segment():
    # J linear in captured mass: crossing sides scale linearly with the
    # target; oracle is a direct scan over cube sides
    n = 64
    atoms = np.stack([(np.arange(n) + 0.5) / n, np.zeros(n)], axis=1)
    from critspec.geometry import SingularMeasure
    seg = SingularMeasure(atoms=atoms,
                          masses=np.full(n, 1.0 / n), cell_size=1.0 / n,
                          alpha_nominal=1.0)
    ones = np.ones(n)
    center = atoms[n // 2]
    total = surface_norm(ones, seg)
    for frac in (0.125, 0.25, 0.5):
        t = solve_t(seg, ones, center, frac * total)
        scan = None
        for side in np.linspace(1e-3, 1.2, 2400):
            if rho(seg, ones, center, side) >= frac * total * (1 - 1e-12):
                scan = side
                break
        assert t <= scan + 1e-9
        assert rho(seg, ones, center, max(t, 1e-12)) >= frac * total * (1 - 1e-9)
        # linear scaling: t(frac) ~ frac * diameter
        assert t == pytest.approx(frac, abs=2.5 / n)


def test_solve_t_half_mass_at_barycenter(uniform16, ones16):
    target = 0.5 * surface_norm(ones16, uniform16)
    t = solve_t(uniform16, ones16, (0.5, 0.5), target)
    captured = np.sum(np.all(np.abs(uniform16.atoms - [0.5, 0.5]) <= t / 2,
                             axis=1)) / 256.0
    assert captured >= 0.5
    assert captured <= 0.5 + 4 * 16 / 256.0  # at most one extra atom ring


def test_solve_t_out_of_range(uniform16, ones16):
    total = surface_norm(ones16, uniform16)
    with pytest.raises(OutOfRangeError):
        solve_t(uniform16, ones16, (0.5, 0.5), 2.0 * total)
    with pytest.raises(OutOfRangeError):
        solve_t(uniform16, ones16, uniform16.atoms, 2.0 * total)


def test_solve_t_refuses_non_finite_input_by_name(uniform16, ones16):
    target = 0.1 * surface_norm(ones16, uniform16)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError,
                           match="centers must be finite"):
            solve_t(uniform16, ones16, (0.5, bad), target)
        centers = uniform16.atoms.copy()
        centers[200, 0] = bad
        with pytest.raises(InvalidArgumentError,
                           match="centers must be finite"):
            solve_t(uniform16, ones16, centers, target)
    for bad in ("nan", "inf", "-inf"):
        V = ones16.copy()
        V[7] = float(bad)
        with pytest.raises(InvalidArgumentError,
                           match="V must be finite, got %s" % bad):
            solve_t(uniform16, V, (0.5, 0.5), target)


def test_solve_t_on_no_centers(uniform16, ones16):
    # the range check runs before any center is searched
    total = surface_norm(ones16, uniform16)
    none = np.empty((0, 2))
    assert solve_t(uniform16, ones16, none, 0.5 * total).shape == (0,)
    with pytest.raises(OutOfRangeError):
        solve_t(uniform16, ones16, none, 2.0 * total)


def test_solve_t_checks_the_whole_support_once(uniform16, monkeypatch):
    # every center's largest cube is the whole support: one averaged norm
    # per call decides the range, and no probe of the search holds every
    # atom (256 centers on 256 atoms run in 4 row blocks of 64); a probe's
    # rows carry positive masses on their prefixes and 0 past them
    V = np.random.default_rng(5).lognormal(0.0, 0.5, uniform16.n_atoms)
    target = 0.1 * surface_norm(V, uniform16)
    calls, probe_rows, whole_rows = [], [], []
    averaged_norm = covering.averaged_norm
    norms = covering._norms

    def counted_norm(*args):
        calls.append(len(args[0]))
        return averaged_norm(*args)

    def counted_probe(absv, w, floor):
        probe_rows.append(len(w))
        whole_rows.append(int(
            ((w > 0.0).sum(axis=1) == uniform16.n_atoms).sum()))
        return norms(absv, w, floor)

    monkeypatch.setattr(covering, "averaged_norm", counted_norm)
    monkeypatch.setattr(covering, "_norms", counted_probe)
    sides = solve_t(uniform16, V, uniform16.atoms, target)
    assert calls == [uniform16.n_atoms]
    assert len(probe_rows) > 4 and sum(probe_rows) > uniform16.n_atoms
    assert sum(whole_rows) == 0
    assert sides.tolist() == [solve_t_prefix(uniform16, V, x, target)
                              for x in uniform16.atoms]


def test_one_whole_support_norm_per_covering_and_per_solve(uniform16,
                                                           monkeypatch):
    # build_covering's global test already is the range check of the search,
    # so a covering solves the whole-support norm once, as solve_t does
    V = np.random.default_rng(7).lognormal(0.0, 0.5, uniform16.n_atoms)
    total = surface_norm(V, uniform16)
    calls = []
    averaged_norm = covering.averaged_norm

    def counted_norm(*args):
        calls.append(len(args[0]))
        return averaged_norm(*args)

    monkeypatch.setattr(covering, "averaged_norm", counted_norm)
    # a search (several cubes) and a target only the whole support reaches
    searched = build_covering(uniform16, V, 0.4 * total)
    assert searched.cube_count > 1 and calls == [uniform16.n_atoms]
    single = build_covering(uniform16, V, 8.0 * total)
    assert single.cube_count == 1 and len(calls) == 2
    solve_t(uniform16, V, uniform16.atoms[:5], 0.1 * total)
    assert calls == [uniform16.n_atoms] * 3


def test_solve_t_one_center_or_many(uniform16):
    V = np.random.default_rng(3).lognormal(0.0, 0.5, uniform16.n_atoms)
    target = 0.1 * surface_norm(V, uniform16)
    centers = np.array([[0.5, 0.5], [0.0, 1.0], uniform16.atoms[17]])
    one = [solve_t(uniform16, V, tuple(c), target) for c in centers]
    assert all(type(t) is float for t in one)
    many = solve_t(uniform16, V, centers, target)
    assert many.shape == (3,)
    assert many.tolist() == one
    with pytest.raises(InvalidArgumentError):
        solve_t(uniform16, V, (0.5, 0.5, 0.5), target)
    with pytest.raises(InvalidArgumentError,
                       match="target must be positive, got nan"):
        solve_t(uniform16, V, centers, float("nan"))


# grid measures put many atoms at one Chebyshev distance (ties), Cantor
# measures none; centers on a 1/16 lattice tie with grid atoms too
_MEASURES = st.one_of(st.integers(1, 8).map(make_uniform_square_measure),
                      st.integers(1, 6).map(make_cantor_measure))
_LATTICE = st.integers(-4, 20).map(lambda i: i / 16.0)
_OFF_ATOM = st.one_of(st.tuples(_LATTICE, _LATTICE),
                      st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), measure=_MEASURES, frac=st.floats(1e-3, 1.0))
def test_batched_sides_equal_prefix_oracle(data, measure, frac):
    n = measure.n_atoms
    exponents = data.draw(st.lists(st.floats(-150.0, 150.0), min_size=n,
                                   max_size=n))
    V = 10.0 ** np.array(exponents)
    off = data.draw(st.lists(_OFF_ATOM, max_size=6))
    centers = np.concatenate([measure.atoms, np.array(off).reshape(-1, 2)])
    target = frac * surface_norm(V, measure)
    oracle = [solve_t_prefix(measure, V, c, target) for c in centers]
    assert solve_t(measure, V, centers, target).tolist() == oracle


def test_bracket_failure_in_one_row_raises():
    # the light atom at 0 carries the largest |V|: a cube holding it and
    # the heavy small-|V| atom at 1 but not the heavy large-|V| atom at 10
    # leaves the multiplier bracket; the searches from 0 and 1 meet such a
    # cube, the one from 10 and the whole support do not
    measure = SingularMeasure(
        atoms=np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]]),
        masses=np.array([1e-20, 1.0, 1.0]), cell_size=1.0,
        alpha_nominal=1.0)
    V = np.array([1.0, 1e-30, 1.0])
    target = 0.5 * surface_norm(V, measure)
    assert solve_t(measure, V, measure.atoms[2], target) == solve_t_prefix(
        measure, V, measure.atoms[2], target)
    with pytest.raises(OutOfRangeError, match="bracket"):
        solve_t_prefix(measure, V, measure.atoms[0], target)
    with pytest.raises(OutOfRangeError, match="bracket"):
        solve_t(measure, V, measure.atoms, target)


@pytest.mark.parametrize("measure", [make_uniform_square_measure(16),
                                     make_cantor_measure(8)],
                         ids=["grid", "cantor"])
def test_covering_memory_at_the_benchmark_size(measure):
    # the benchmark's coverings: 256 centers on 256 atoms, log-normal
    # weights, a one-decade ladder; the 128 KB row blocks peak near 860 KB
    # on the Cantor measure, whose runs of distances hold one atom each
    V = np.random.default_rng(0).lognormal(0.0, 0.5, measure.n_atoms)
    total = surface_norm(V, measure)
    peaks = []
    for lam in total / 10.0 ** np.linspace(0.0, 1.0, 4):
        tracemalloc.start()
        try:
            build_covering(measure, V, float(lam))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2 ** 20


def test_crossing_search_temporaries_are_bounded():
    # 64 centers on 4096 atoms: one (centers, atoms) float array of the
    # whole search would be 2 MB; the row blocks hold 64 KB each
    measure = make_uniform_square_measure(64)
    V = np.random.default_rng(2).lognormal(0.0, 0.5, measure.n_atoms)
    target = 0.05 * surface_norm(V, measure)
    centers = measure.atoms[::64]
    tracemalloc.start()
    try:
        solve_t(measure, V, centers, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(centers) * measure.n_atoms / 2


# ---------------------------------------------------------------------------
# covering construction
# ---------------------------------------------------------------------------

def test_large_lambda_single_cube(uniform16, ones16):
    total = surface_norm(ones16, uniform16)
    rep = build_covering(uniform16, ones16, lam=8.0 * total, kappa_config=4)
    assert rep.cube_count == 1
    assert rep.covered_per_cube[0] == uniform16.n_atoms
    assert rep.multiplicity_observed == 1


def test_dyadic_quartering_gives_four_cubes(uniform16, ones16):
    total = surface_norm(ones16, uniform16)
    kappa = 4
    rep = build_covering(uniform16, ones16, lam=kappa * total / 4.0,
                         kappa_config=kappa)
    assert rep.cube_count == 4
    # the quartering is exact: every cube holds one quarter of the atoms
    assert set(rep.covered_per_cube) == {64}
    assert rep.multiplicity_observed == 1
    # defining inequality attains the target exactly on the dyadic split
    assert rep.max_j <= rep.target + 1e-9
    assert rep.bound_value == rep.cube_count * poly_space_dim(2, 1.0)


def test_every_atom_covered(uniform16, ones16):
    total = surface_norm(ones16, uniform16)
    for lam_frac in (0.5, 0.21, 0.11, 0.05):
        rep = build_covering(uniform16, ones16, lam=4 * total * lam_frac,
                             kappa_config=4)
        membership = np.zeros(uniform16.n_atoms, dtype=int)
        for cube in rep.cubes:
            membership += cube.contains(uniform16.atoms)
        assert np.all(membership >= 1)
        assert rep.multiplicity_observed == membership.max()
        assert rep.multiplicity_observed <= 16  # plane multiplicity cap


def test_cube_count_law_under_halving_uniform_segment():
    # the strict halving law holds where intervals tile the captured mass;
    # the 2-D grid is checked in its decade-bounded form below
    n = 128
    atoms = np.stack([(np.arange(n) + 0.5) / n, np.zeros(n)], axis=1)
    from critspec.geometry import SingularMeasure
    seg = SingularMeasure(atoms=atoms,
                          masses=np.full(n, 1.0 / n), cell_size=1.0 / n,
                          alpha_nominal=1.0)
    ones = np.ones(n)
    total = surface_norm(ones, seg)
    for frac in (0.4, 0.3, 0.25, 0.21):
        lam = 4 * total * frac
        counts = []
        for _ in range(4):
            counts.append(build_covering(seg, ones, lam,
                                         kappa_config=4).cube_count)
            lam /= 2.0
        for coarse, fine in zip(counts, counts[1:]):
            assert fine <= 2 * coarse + 2


def test_cube_count_decade_law_uniform_square(uniform16, ones16):
    total = surface_norm(ones16, uniform16)
    products = []
    for lam in 4 * total / 4.0 / (10.0 ** np.linspace(0.0, 1.0, 8)):
        rep = build_covering(uniform16, ones16, float(lam), kappa_config=4)
        products.append(rep.cube_count * lam)
    assert max(products) / min(products) <= 2.0


def test_covering_cantor_count_scaling():
    measure = make_cantor_measure(8)
    ones = np.ones(measure.n_atoms)
    total = surface_norm(ones, measure)
    products = []
    for lam in 4 * total / 2.0 / (10.0 ** np.linspace(0.0, 1.0, 6)):
        rep = build_covering(measure, ones, float(lam), kappa_config=4)
        products.append(rep.cube_count * lam)
        # honest overshoot bound: one atom can overshoot the target by at
        # most its own single-atom functional value
        max_jump = T_STAR * measure.masses.max()
        assert rep.max_j <= rep.target + max_jump + 1e-9
    assert max(products) / min(products) <= 2.0


@pytest.mark.parametrize("seed", range(6))
def test_family_colors_match_pairwise_loop(seed):
    # half-integer centers and integer sides on a coarse lattice: many pairs
    # touch exactly (gap == 0), the rest overlap or are apart
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 60))
    lattice = [Cube(rng.integers(0, 12, 2) / 2.0, float(rng.integers(0, 4)))
               for _ in range(m)]
    loose = [Cube(rng.uniform(0.0, 6.0, 2), float(rng.uniform(0.0, 2.0)))
             for _ in range(m)]
    for cubes in (lattice, loose, lattice + loose):
        colors = covering._family_colors(cubes)
        np.testing.assert_array_equal(colors, family_colors_loop(cubes))
        np.testing.assert_array_equal(colors, family_colors_all_pairs(cubes))


def test_family_colors_memory_is_linear_in_the_cube_count():
    # the cubes of a 48 x 48 grid at twice its spacing: the all-pairs
    # overlap test held three (2304, 2304, 2) float arrays, 212 MB at peak
    h = 1.0 / 48
    cubes = [Cube(((i + 0.5) * h, (j + 0.5) * h), 2.0 * h)
             for i in range(48) for j in range(48)]
    tracemalloc.start()
    try:
        colors = covering._family_colors(cubes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert colors.max() >= 1
    assert peak < 2 ** 20


def test_covering_sides_match_bisection_oracle():
    # the sides the prefix oracle finds with the bisection norm, at every
    # atom, and every cube of the covering has its center atom's side
    rng = np.random.default_rng(11)
    for measure in (make_uniform_square_measure(8), make_cantor_measure(6)):
        V = rng.lognormal(0.0, 0.5, measure.n_atoms)
        rho_inf = surface_norm(V, measure)
        index = {tuple(x): i for i, x in enumerate(measure.atoms.tolist())}
        for lam in rho_inf / 10.0 ** np.linspace(0.0, 1.0, 3):
            oracle = [solve_t_prefix(measure, V, x, lam / 4.0,
                                     norm=averaged_norm_bisection)
                      for x in measure.atoms]
            assert solve_t(measure, V, measure.atoms,
                           lam / 4.0).tolist() == oracle
            rep = build_covering(measure, V, float(lam))
            assert rep.cube_count > 1
            for cube in rep.cubes:
                assert cube.side == oracle[index[tuple(cube.center.tolist())]]


@pytest.mark.parametrize("measure", [make_uniform_square_measure(16),
                                     make_cantor_measure(8)],
                         ids=["uniform", "cantor"])
def test_report_max_j_is_the_largest_cube_functional(measure):
    V = np.random.default_rng(4).lognormal(0.0, 0.5, measure.n_atoms)
    total = surface_norm(V, measure)
    for lam in 4 * total / 4.0 / 10.0 ** np.linspace(0.0, 1.0, 4):
        rep = build_covering(measure, V, float(lam))
        js = [j_functional(V, measure, cube) for cube in rep.cubes]
        assert rep.max_j == pytest.approx(max(js), rel=1e-13)


def test_report_max_j_does_not_depend_on_the_row_blocks(monkeypatch):
    # each cube's J is summed within its own row, so the row-block budget
    # that groups the cubes cannot round it; a matrix-vector product over
    # masses shared by the rows read 0.28440187957085944 at 64 KB and
    # 0.2844018795708595 at 128 KB here
    measure = make_uniform_square_measure(24)
    V = np.random.default_rng(0).lognormal(0.0, 1.0, measure.n_atoms)
    max_j = []
    for budget in (64 * 1024, 128 * 1024):
        monkeypatch.setattr(covering, "_BLOCK_BYTES", budget)
        max_j.append(build_covering(measure, V, 0.7459662161024367).max_j)
    assert max_j[0] == max_j[1]


def test_multiplicity_above_cap_is_reported(uniform16, ones16,
                                            monkeypatch):
    total = surface_norm(ones16, uniform16)
    # overlapping regime; a cap of 1 must trigger the report
    monkeypatch.setattr(covering, "_MULTIPLICITY_CAP", 1)
    with pytest.warns(RuntimeWarning):
        rep = build_covering(uniform16, ones16, 4 * total / 8.0,
                             kappa_config=4)
    assert rep.multiplicity_observed > 1


def test_report_serialization(uniform16, ones16):
    total = surface_norm(ones16, uniform16)
    rep = build_covering(uniform16, ones16, 4 * total / 4.0, kappa_config=4)
    text = rep.to_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# covering")
    assert len(lines) == 1 + rep.cube_count
    assert rep.family_count >= 1


def test_poly_space_dim_values():
    assert poly_space_dim(2, 1.0) == 1    # constants in the plane
    assert poly_space_dim(4, 2.0) == 5    # affine functions in R^4
    assert poly_space_dim(3, 1.5) == 4    # affine functions in R^3


# ---------------------------------------------------------------------------
# empirical estimate constant
# ---------------------------------------------------------------------------

def test_estimate_constant_exact_harmonic():
    sp = Spectrum.from_eigenvalues([1.0 / k for k in range(1, 200)])
    grid = np.array([1.0 / k for k in range(1, 200)])
    assert empirical_estimate_constant(sp, 2.0, grid) == pytest.approx(
        0.5, rel=1e-12)


def test_estimate_constant_rejects_bad_input():
    sp = Spectrum.from_eigenvalues([1.0])
    with pytest.raises(InvalidArgumentError):
        empirical_estimate_constant(sp, 0.0, [0.5])
    with pytest.raises(InvalidArgumentError):
        empirical_estimate_constant(sp, 1.0, [])


@pytest.mark.parametrize("v_norm", [float("nan"), float("inf"), -1.0])
def test_estimate_constant_refuses_a_bad_norm(v_norm):
    # the parent returned nan for a NaN norm and 0.0 for an infinite one
    sp = Spectrum.from_eigenvalues([1.0, 0.5])
    with pytest.raises(InvalidArgumentError, match="v_norm must be positive"):
        empirical_estimate_constant(sp, v_norm, [0.5])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 0.0])
def test_estimate_constant_refuses_a_bad_grid_value(bad):
    # the parent returned nan for a NaN or infinite lambda and -2.0 for -1
    sp = Spectrum.from_eigenvalues([1.0, 0.5])
    with pytest.raises(InvalidArgumentError,
                       match="lambda grid values must be positive and finite"):
        empirical_estimate_constant(sp, 1.0, [0.5, bad, 1.0])


def test_estimate_constant_circle_window(circle_spectrum_256):
    # true n_+(lambda) ~ 1/lambda on the unit circle, so the measured
    # constant times the norm lands near 1
    norm = surface_norm(np.ones(256), _circle_mesh_256())
    pos = circle_spectrum_256.side("+")
    hi = min(circle_spectrum_256.trusted_k_max, len(pos))
    const = empirical_estimate_constant(circle_spectrum_256, norm, pos[4:hi])
    assert 0.9 <= const * norm <= 1.5


def _circle_mesh_256():
    from critspec.geometry import Circle, make_smooth_curve
    return make_smooth_curve(Circle(radius=1.0), 256)


def test_estimate_constant_stable_under_weight_doubling(circle_spectrum_256):
    from critspec.assemble import WeightFn, assemble_curve_operator
    from critspec.kernels import reference_kernel
    from critspec.spectra import eigensolve

    mesh = _circle_mesh_256()
    norm1 = surface_norm(np.ones(256), mesh)
    pos = circle_spectrum_256.side("+")
    hi = min(circle_spectrum_256.trusted_k_max, len(pos))
    c1 = empirical_estimate_constant(circle_spectrum_256, norm1, pos[4:hi])

    doubled = eigensolve(assemble_curve_operator(
        mesh, WeightFn.constant(2.0), reference_kernel()))
    norm2 = surface_norm(2.0 * np.ones(256), mesh)
    pos2 = doubled.side("+")
    c2 = empirical_estimate_constant(doubled, norm2, pos2[4:hi])
    assert abs(c2 / c1 - 1.0) <= 0.10


def test_critical_case_needs_the_averaged_norm(kernel):
    # V = 1/eps on an arc of length eps of the unit circle (n = 2048, so the
    # shortest arc holds 9 nodes) and 1e-12 elsewhere: ||V||_1 stays near 1
    # while lambda_1 grows like log(1/eps) / (2 pi).  Measured sup constants
    # over the trusted eigenvalues, eps = 1, 0.3, 0.1, 0.03:
    #   against ||V||_1            0.273  0.454  0.624  0.831  (x3.04)
    #   against the averaged norm  0.121  0.140  0.148  0.152  (x1.26)
    mesh = make_smooth_curve(Circle(radius=1.0), 2048)
    against_l1, against_averaged = [], []
    for eps in (1.0, 0.3, 0.1, 0.03):
        arc = np.abs(mesh.param_values - np.pi) < eps / 2.0
        V = np.where(arc, 1.0 / eps, 1e-12)
        sp = eigensolve(assemble_curve_operator(mesh, WeightFn.tabulated(V),
                                                kernel))
        pos = sp.side("+")
        grid = pos[:min(sp.trusted_k_max, len(pos))]
        l1 = float(np.sum(mesh.weights * V))
        against_l1.append(empirical_estimate_constant(sp, l1, grid))
        against_averaged.append(
            empirical_estimate_constant(sp, surface_norm(V, mesh), grid))
    assert np.all(np.diff(against_l1) > 0.0)
    assert against_l1[-1] / against_l1[0] >= 2.0
    assert all(0.10 <= c <= 0.18 for c in against_averaged)
    assert max(against_averaged) / min(against_averaged) <= 1.5


def test_critical_case_needs_the_averaged_norm_on_a_cantor_measure(kernel):
    # the measure analogue: V = 1/mu(S) on the leftmost 256, 64, 16 and 4
    # atoms S of the depth-8 Cantor measure (the whole support, then its
    # level-2, 4 and 6 intervals, of length 3^-2, 3^-4 and 3^-6) and 1e-12
    # elsewhere, so ||V||_1 is 1 while lambda_1 gains about log(3) / pi per
    # quartering of mu(S): 0.280, 0.614, 0.962, 1.309.  Measured sup
    # constants over the trusted eigenvalues:
    #   against ||V||_1            0.334  0.614  0.962  1.309  (x3.92)
    #   against the averaged norm  0.291  0.317  0.321  0.309  (x1.10)
    measure = make_cantor_measure(8)
    against_l1, against_averaged = [], []
    for atoms in (256, 64, 16, 4):
        spike = np.arange(measure.n_atoms) < atoms
        V = np.where(spike, 1.0 / measure.masses[spike].sum(), 1e-12)
        sp = eigensolve(assemble_measure_operator(
            measure, WeightFn.tabulated(V), kernel))
        pos = sp.side("+")
        grid = pos[:min(sp.trusted_k_max, len(pos))]
        l1 = float(np.sum(measure.masses * V))
        against_l1.append(empirical_estimate_constant(sp, l1, grid))
        against_averaged.append(
            empirical_estimate_constant(sp, surface_norm(V, measure), grid))
    assert np.all(np.diff(against_l1) > 0.0)
    assert against_l1[-1] / against_l1[0] >= 3.0
    assert all(0.25 <= c <= 0.37 for c in against_averaged)
    assert max(against_averaged) / min(against_averaged) <= 1.25


# n(lambda) against the covering bound at the same lambda, just below
# lambda_k for k = 2, 8 and 32 within the trusted window, kappa = 4.  On a
# plane support bound_value is the cube count (poly_space_dim(2, 1) = 1).
# A saturated covering, one cube per atom, bounds only by the atom count
# and is left out.  Measured n / cube_count (log-normal: sigma 0.5, seed 0):
#   Cantor depth 8, 9, 10, constant     0.0625  0.0625-0.125  0.0625
#   Cantor depth 8, 9, 10, log-normal   0.059-0.137  0.059-0.111  0.059-0.071
#   grid 16^2, 24^2, constant           0.047  0.020-0.027
#   grid 16^2, 24^2, log-normal         0.031-0.099  0.016-0.058
# so n <= bound_value with 7-62x slack.  Each family keeps one band at every
# depth or grid, with a margin of about 1.5 on both sides; a covering at
# half or twice the target lambda / kappa leaves it.
_COVERING_LEVELS = (2, 8, 32)
_COVERING_BANDS = {"cantor": (0.04, 0.2), "grid": (0.01, 0.15)}


@pytest.mark.parametrize("weight", ["constant", "log-normal"])
@pytest.mark.parametrize("family", ["cantor", "grid"])
def test_covering_bound_holds_against_the_counting_function(
        family, weight, kernel, monkeypatch):
    # the row-block budget bounds the search's memory only: 1 MB blocks run
    # the same searches in half the time at 1024 atoms (0.49 s against
    # 0.99 s at the default 128 KB, on a 2-core machine)
    monkeypatch.setattr(covering, "_BLOCK_BYTES", 1 << 20)
    measures = ([make_cantor_measure(d) for d in (8, 9, 10)]
                if family == "cantor"
                else [make_uniform_square_measure(g) for g in (16, 24)])
    lo, hi = _COVERING_BANDS[family]
    for measure in measures:
        n = measure.n_atoms
        V = (np.ones(n) if weight == "constant"
             else np.exp(np.random.default_rng(0).normal(0.0, 0.5, n)))
        sp = eigensolve(assemble_measure_operator(
            measure, WeightFn.tabulated(V), kernel))
        pos = sp.side("+")
        ratios = []
        for k in _COVERING_LEVELS:
            if k > sp.trusted_k_max:
                continue
            lam = float(pos[k - 1]) * (1.0 - 1e-9)
            rep = build_covering(measure, V, lam, kappa_config=4)
            if rep.cube_count == n:
                continue
            count = int(np.sum(pos >= lam))
            assert count <= rep.bound_value, (n, k)
            ratios.append(count / rep.cube_count)
        assert ratios, n
        assert lo <= min(ratios) and max(ratios) <= hi, (n, ratios)
