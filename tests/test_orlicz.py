import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critspec.errors import InvalidArgumentError, OutOfRangeError
from critspec.geometry import make_uniform_square_measure
from critspec.orlicz import (Cube, OrliczNormResult, _norms_on_sets,
                             _norms_reach, averaged_norm, j_functional, phi,
                             psi, surface_norm)

from oracles import averaged_norm_bisection, phi_inverse, t_star

T_STAR = t_star()             # root of e^t - t = 2
PHI_INV_2 = phi_inverse(2.0)  # root of e^g - 1 - g = 2


# ---------------------------------------------------------------------------
# the Orlicz pair
# ---------------------------------------------------------------------------

def test_pair_values_at_reference_points():
    assert psi(0.0) == 0.0
    assert phi(0.0) == 0.0
    assert psi(1.0) == pytest.approx(2.0 * np.log(2.0) - 1.0, rel=1e-15)
    assert phi(1.0) == pytest.approx(np.e - 2.0, rel=1e-15)


def test_pair_stable_for_small_arguments():
    # leading behavior t^2/2 must survive cancellation
    for t in (1e-9, 1e-7, 1e-5):
        assert psi(t) == pytest.approx(t * t / 2.0, rel=1e-5)
        assert phi(t) == pytest.approx(t * t / 2.0, rel=1e-5)


def test_pair_convex_increasing_and_young():
    ts = np.linspace(0.0, 4.0, 41)
    for f in (psi, phi):
        vals = f(ts)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(np.diff(vals, 2) >= -1e-12)
    # Young inequality s t <= psi(s) + phi(t) on a grid
    ss, tt = np.meshgrid(ts, ts)
    assert np.all(ss * tt <= psi(ss) + phi(tt) + 1e-12)


def test_pair_rejects_negative_argument():
    with pytest.raises(InvalidArgumentError):
        psi(-0.1)
    with pytest.raises(InvalidArgumentError):
        phi(-0.1)


# ---------------------------------------------------------------------------
# averaged norm by duality
# ---------------------------------------------------------------------------

def test_zero_weight_gives_zero():
    res = averaged_norm(np.zeros(5), np.ones(5), 5.0)
    assert res.value == 0.0
    assert res.multiplier_tau is None


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_weight_is_refused_naming_the_value(bad):
    with pytest.raises(InvalidArgumentError,
                       match="V must be finite, got %r" % bad):
        averaged_norm(np.array([1.0, bad]), np.ones(2), 2.0)


def test_constant_weight_closed_form():
    rng = np.random.default_rng(1)
    w = rng.uniform(0.1, 2.0, 50)
    c = 3.0
    res = averaged_norm(np.full(50, c), w, float(w.sum()))
    expected = c * T_STAR * w.sum()
    assert res.value == pytest.approx(expected, rel=1e-10)


def test_single_support_weight_is_phi_inverse():
    res = averaged_norm(np.array([1.0, 0.0]), np.array([1.0, 1.0]), 2.0)
    assert res.value == pytest.approx(PHI_INV_2, rel=1e-10)


def test_optimal_g_satisfies_constraint():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = rng.integers(2, 40)
        V = rng.normal(size=n) * rng.uniform(0.01, 100.0)
        w = rng.uniform(0.05, 3.0, n)
        mass = float(w.sum()) * rng.uniform(0.2, 2.0)
        res = averaged_norm(V, w, mass)
        assert abs(res.constraint_residual) <= 1e-8 * mass
        # reported g reproduces the value
        assert res.value == pytest.approx(float(np.sum(w * V * res.optimal_g)),
                                          rel=1e-14)


def test_homogeneity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = rng.integers(1, 30)
        V = rng.normal(size=n)
        w = rng.uniform(0.1, 2.0, n)
        mass = float(w.sum())
        c = float(rng.uniform(0.01, 50.0)) * rng.choice([-1.0, 1.0])
        v1 = averaged_norm(V, w, mass).value
        v2 = averaged_norm(c * V, w, mass).value
        assert v2 == pytest.approx(abs(c) * v1, rel=1e-12, abs=1e-300)


# an atom: weight value (zero, or magnitude 1e-3..1e3 of either sign), mass
_ATOM = st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-3.0, 3.0),
                  st.floats(1e-3, 1.0))


# scales down to the least subnormal, 10^-323.3; the example is
# ``critspec orlicz-norm --value 1e-320`` on the depth-8 Cantor measure
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(atoms=st.lists(_ATOM, min_size=1, max_size=20),
       budget=st.floats(0.01, 1.0), exponent=st.floats(-323.3, 300.0),
       sign=st.sampled_from([-1.0, 1.0]))
@example(atoms=[(1.0, 0.0, 2.0 ** -8)] * 256, budget=1.0, exponent=-320.0,
         sign=1.0)
def test_homogeneity_at_extreme_scales(atoms, budget, exponent, sign):
    V = np.array([s * 10.0 ** e for s, e, _ in atoms])
    w = np.array([m for _, _, m in atoms])
    mass = budget * float(w.sum())
    c = sign * 10.0 ** exponent
    v1 = averaged_norm(V, w, mass).value
    # a subnormal c V_i is off by half an ulp at most, which moves the norm
    # (monotone in |V|) by at most half an ulp times the norm of 1; the two
    # products rounded to subnormals add an ulp
    ulp = np.nextafter(0.0, 1.0)
    slack = ulp * (2.0 + averaged_norm(np.ones_like(w), w, mass).value)
    assert averaged_norm(c * V, w, mass).value == pytest.approx(
        abs(c) * v1, rel=1e-12, abs=slack)


# an atom over the whole double range: zero, or magnitude 1e-300..1e300 of
# either sign
_WIDE_ATOM = st.tuples(st.sampled_from([-1.0, 0.0, 1.0]),
                       st.floats(-300.0, 300.0), st.floats(1e-3, 1.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(atoms=st.lists(_WIDE_ATOM, min_size=1, max_size=256),
       budget=st.floats(0.01, 2.0))
def test_newton_solve_matches_bisection_oracle(atoms, budget):
    V = np.array([s * 10.0 ** e for s, e, _ in atoms])
    w = np.array([m for _, _, m in atoms])
    mass = budget * float(w.sum())
    try:
        expected = averaged_norm_bisection(V, w, mass)
    except OutOfRangeError:
        with pytest.raises(OutOfRangeError):
            averaged_norm(V, w, mass)
        return
    res = averaged_norm(V, w, mass)
    assert abs(res.value - expected.value) <= 1e-13 * expected.value
    assert abs(res.constraint_residual) <= 1e-12 * mass


# an atom of a crossing-search prefix: |V| zero or 1e-150..1e150, and mass
_PREFIX_ATOM = st.tuples(st.sampled_from([0.0, 1.0]),
                         st.floats(-150.0, 150.0), st.floats(1e-3, 1.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(data=st.data(), atoms=st.lists(_PREFIX_ATOM, min_size=1, max_size=40))
def test_per_row_masses_on_sorted_prefixes(data, atoms):
    # the crossing search's call: every row's atoms sorted by distance (few
    # distinct distances, so many ties), |V| and masses gathered into that
    # order, cut to the longest prefix and masked past each row's own; one
    # more row carries |V| = 0 throughout
    absv = np.array([s * 10.0 ** e for s, e, _ in atoms])
    w = np.array([m for _, _, m in atoms])
    n = len(atoms)
    m = data.draw(st.integers(1, 6))
    dist = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        min_size=m, max_size=m)), dtype=float)
    reach = np.array(data.draw(st.lists(st.integers(0, 4), min_size=m,
                                        max_size=m)))
    order = np.argsort(dist, axis=1, kind="stable")
    prefix = (dist <= reach[:, None]).sum(axis=1)
    width = prefix.max()
    inside = np.arange(width) < np.append(prefix, width)[:, None]
    rows_v = np.vstack([absv[order][:, :width], np.zeros(width)])
    rows_w = np.vstack([w[order][:, :width], w[:width]])
    got = _norms_on_sets(rows_v, rows_w, inside)
    shared = _norms_on_sets(absv, w, dist <= reach[:, None])
    assert got[-1] == 0.0
    for r in range(m):
        sel = order[r, :prefix[r]]
        want = averaged_norm(absv[sel], w[sel], float(w[sel].sum())).value
        assert abs(got[r] - want) <= 1e-13 * want
        assert abs(shared[r] - want) <= 1e-13 * want


def _reach_matches_norms(rows_v, rows_w, floor):
    """``_norms_reach`` on copies of the rows gives
    ``_norms_on_sets(...) >= floor`` row for row; returns the answers."""
    inside = rows_w > 0.0
    want = _norms_on_sets(rows_v, rows_w, inside) >= floor
    got = _norms_reach(rows_v.copy(), rows_w.copy(), floor)
    assert got.tolist() == want.tolist(), floor
    return got


# relative offsets of a floor from a row's J: inside the settling margin,
# at it, and well clear of it
_FLOOR_SHIFTS = [0.0, 1e-15, -1e-15, 1e-13, -1e-13, 1e-12, -1e-12, 1e-3,
                 -1e-3, 0.5, -0.5]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(data=st.data(), atoms=st.lists(_PREFIX_ATOM, min_size=1, max_size=40),
       shift=st.sampled_from(_FLOOR_SHIFTS))
def test_bound_settled_answers_match_the_converged_norms(data, atoms, shift):
    # the crossing search's probes: every row's atoms sorted by distance,
    # cut to the longest prefix and zeroed past its own (|V| and masses
    # both), one row with |V| = 0 throughout; the floor sits at one row's
    # J times (1 + shift), so some rows settle from their duality bounds
    # and the rows near the floor compare J at the converged root
    absv = np.array([s * 10.0 ** e for s, e, _ in atoms])
    w = np.array([m for _, _, m in atoms])
    n = len(atoms)
    m = data.draw(st.integers(1, 6))
    dist = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        min_size=m, max_size=m)), dtype=float)
    reach = np.array(data.draw(st.lists(st.integers(0, 4), min_size=m,
                                        max_size=m)))
    order = np.argsort(dist, axis=1, kind="stable")
    prefix = np.append((dist <= reach[:, None]).sum(axis=1), 1)
    order = np.vstack([order, np.arange(n)])
    width = prefix.max()
    past = np.arange(width) >= prefix[:, None]
    rows_v = np.where(past, 0.0, absv[order][:, :width])
    rows_v[-1] = 0.0
    rows_w = np.where(past, 0.0, w[order][:, :width])
    norms = _norms_on_sets(rows_v, rows_w, ~past)
    assert norms[-1] == 0.0
    pick = data.draw(st.integers(0, m - 1))
    floor = norms[pick] * (1.0 + shift) if norms[pick] > 0.0 else 1.0
    got = _reach_matches_norms(rows_v, rows_w, floor)
    assert not got[-1]


def test_settled_answers_at_exact_crossings_and_extreme_scales():
    # constant weight on the 16^2 grid: every set of 64 atoms, a dyadic
    # quarter among them, has J equal to the covering-dyadic target
    # (a quarter of the whole support's norm) up to rounding; prefixes of
    # 63, 64 and 65 atoms, quarter first, and one whose |V| is 0; the
    # floors are the crossing search's slack and the quarter's J itself,
    # exactly and one ulp either side, inside the settling margin
    measure = make_uniform_square_measure(16)
    n = measure.n_atoms
    quarter = np.all(measure.atoms < 0.5, axis=1)
    order = np.argsort(~quarter, kind="stable")
    prefix = np.array([63, 64, 65, 64])
    past = np.arange(65) >= prefix[:, None]
    rows_v = np.where(past, 0.0, 1.0)
    rows_v[-1] = 0.0
    rows_w = np.where(past, 0.0, measure.masses[order][:65])
    target = surface_norm(np.ones(n), measure) / 4.0
    j = _norms_on_sets(rows_v, rows_w, ~past)[1]
    assert j == pytest.approx(target, rel=1e-14)
    floors = [target * (1.0 - 1e-12), j, np.nextafter(j, 0.0),
              np.nextafter(j, 2.0)]
    for scale in (1.0, 2.0 ** 900, 2.0 ** -900):
        answers = [_reach_matches_norms(scale * rows_v, rows_w,
                                        scale * floor).tolist()
                   for floor in floors]
        assert answers == [[False, True, True, False],
                           [False, True, True, False],
                           [False, True, True, False],
                           [False, False, True, False]]


def test_settled_answers_keep_the_bracket_refusal():
    # the light atom carries the largest |V| and the heavy one 1e-30 of it:
    # the multiplier leaves its bracket before any bound is formed
    rows_v = np.array([[1.0, 1e-30], [1.0, 1.0]])
    rows_w = np.array([[1e-20, 1.0], [1.0, 1.0]])
    message = ("duality multiplier outside bracket: degenerate scaling "
               "of V/mass")
    with pytest.raises(OutOfRangeError, match=message):
        _norms_on_sets(rows_v, rows_w, rows_w > 0.0)
    with pytest.raises(OutOfRangeError, match=message):
        _norms_reach(rows_v, rows_w, 0.5)


def test_monotone_in_the_set():
    # enlarging E (atoms and budget together) never decreases the value
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = rng.integers(4, 40)
        V = rng.normal(size=n)
        w = rng.uniform(0.1, 2.0, n)
        k = rng.integers(1, n)
        small = averaged_norm(V[:k], w[:k], float(w[:k].sum())).value
        big = averaged_norm(V, w, float(w.sum())).value
        assert big >= small - 1e-12 * max(1.0, small)


def test_first_order_optimality_of_g():
    # perturbing the optimizer along feasible directions cannot increase
    # the objective: restore the constraint by scaling and compare
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.integers(3, 20)
        V = np.abs(rng.normal(size=n)) + 0.1
        w = rng.uniform(0.1, 2.0, n)
        mass = float(w.sum())
        res = averaged_norm(V, w, mass)

        for _ in range(5):
            delta = rng.normal(size=n) * 0.05
            g = np.abs(res.optimal_g + delta)
            lo, hi = 0.0, 10.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if np.sum(w * phi(mid * g)) <= mass:
                    lo = mid
                else:
                    hi = mid
            feasible = lo * g
            objective = float(np.sum(w * V * feasible))
            assert objective <= res.value * (1.0 + 1e-9)


def test_degenerate_scaling_raises():
    from critspec.errors import OutOfRangeError
    with pytest.raises(OutOfRangeError):
        averaged_norm(np.array([1.0]), np.array([1e-300]), 1e300)


def test_rejects_bad_shapes_and_weights():
    with pytest.raises(InvalidArgumentError):
        averaged_norm(np.ones(3), np.ones(4), 1.0)
    with pytest.raises(InvalidArgumentError):
        averaged_norm(np.ones(3), np.array([1.0, -1.0, 1.0]), 1.0)
    with pytest.raises(InvalidArgumentError):
        averaged_norm(np.ones(3), np.ones(3), -1.0)


# ---------------------------------------------------------------------------
# cube functional
# ---------------------------------------------------------------------------

def test_disjoint_cube_gives_zero():
    measure = make_uniform_square_measure(8)
    cube = Cube(np.array([5.0, 5.0]), 1.0)
    assert j_functional(np.ones(64), measure, cube) == 0.0


def test_full_support_cube_reproduces_constant_formula():
    measure = make_uniform_square_measure(8)
    cube = Cube(np.array([0.5, 0.5]), 4.0)
    val = j_functional(np.ones(64), measure, cube)
    assert val == pytest.approx(T_STAR, rel=1e-10)


def test_equal_mass_quarters_split_constant_value():
    measure = make_uniform_square_measure(8)
    parent = j_functional(np.ones(64), measure, Cube(np.array([0.5, 0.5]), 4.0))
    quarters = [
        Cube(np.array([0.25, 0.25]), 0.5),
        Cube(np.array([0.75, 0.25]), 0.5),
        Cube(np.array([0.25, 0.75]), 0.5),
        Cube(np.array([0.75, 0.75]), 0.5),
    ]
    for cube in quarters:
        val = j_functional(np.ones(64), measure, cube)
        assert val == pytest.approx(parent / 4.0, rel=1e-10)


def _random_dyadic_partition(rng, root_center, root_side, depth):
    cubes = [Cube(np.asarray(root_center, float), root_side)]
    for _ in range(depth):
        idx = rng.integers(0, len(cubes))
        cube = cubes.pop(idx)
        half = cube.side / 2.0
        for dx in (-0.25, 0.25):
            for dy in (-0.25, 0.25):
                cubes.append(Cube(cube.center + np.array([dx, dy]) * cube.side,
                                  half))
    return cubes


def run_semiadditivity_trials(trials: int, seed: int = 6) -> float:
    """Worst violation of sum_child J <= J(parent) over random instances."""
    rng = np.random.default_rng(seed)
    measure = make_uniform_square_measure(16)
    worst = -np.inf
    for _ in range(trials):
        V = rng.normal(size=measure.n_atoms) * rng.uniform(0.1, 10.0)
        root = Cube(np.array([0.5, 0.5]), 1.0 + rng.uniform(0.0, 1.0))
        children = _random_dyadic_partition(rng, root.center, root.side,
                                            depth=int(rng.integers(1, 4)))
        total = sum(j_functional(V, measure, c) for c in children)
        parent = j_functional(V, measure, root)
        worst = max(worst, total - parent)
    return worst


def test_semiadditivity_on_random_partitions():
    assert run_semiadditivity_trials(100) <= 1e-9


def test_surface_norm_constant_weight():
    measure = make_uniform_square_measure(8)
    assert surface_norm(np.ones(64), measure) == pytest.approx(T_STAR,
                                                               rel=1e-10)
