import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critspec.errors import InvalidArgumentError, OutOfRangeError
from critspec.geometry import make_uniform_square_measure
from critspec.orlicz import (Cube, OrliczNormResult, averaged_norm,
                             j_functional, phi, psi, surface_norm)

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
