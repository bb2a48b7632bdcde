import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import critspec
from critspec import assemble, asymptotics, spectra
from critspec.assemble import (BandMatrix, BlockOperator, HalfTurnBand,
                               OperatorMatrix, WeightFn,
                               assemble_curve_operator, assemble_mixed,
                               make_cell_grid)
from critspec.errors import (InsufficientDataError, InternalError,
                             InvalidArgumentError)
from critspec.geometry import (Circle, Ellipse, SingularMeasure, Star,
                               make_cantor_measure, make_polygon_curve,
                               make_smooth_curve)
from critspec.kernels import lower_order_kernel, reference_kernel
from critspec.spectra import Spectrum, counting, eigensolve, weyl_fit

from conftest import (UNIT_SQUARE, CountingKernel, assemble_dense,
                      circle_exact_eigenvalues)
import oracles
from oracles import (assemble_mixed_pairs, cholesky_fold_full, one_block,
                     upper_invariants, upper_invariants_rows)


def _signed(m) -> BlockOperator:
    """A one-block operator that may have eigenvalues of either sign."""
    return one_block(m, signed=True)


# ---------------------------------------------------------------------------
# eigensolve
# ---------------------------------------------------------------------------

def test_diagonal_matrix():
    sp = eigensolve(_signed(np.diag([3.0, -1.0])))
    assert np.array_equal(sp.positives, [3.0])
    assert np.array_equal(sp.negatives, [-1.0])


def test_zero_matrix_empty_spectrum():
    sp = eigensolve(one_block(np.zeros((4, 4))))
    assert len(sp.positives) == 0 and len(sp.negatives) == 0


def test_numerical_zeros_dropped():
    sp = eigensolve(_signed(np.diag([1.0, 1e-16, -1e-16])))
    assert len(sp.positives) == 1 and len(sp.negatives) == 0


def test_circle_eigenvalues_multiplicity_two(circle_spectrum_256):
    exact = circle_exact_eigenvalues(1.0, 20)
    got = circle_spectrum_256.positives[:20]
    assert np.max(np.abs(got - exact) / exact) <= 1e-8


def test_orthogonal_similarity_invariance():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(40, 40))
    m = 0.5 * (m + m.T)
    q, _ = np.linalg.qr(rng.normal(size=(40, 40)))
    # the solve overwrites the caller's array, which is used again below
    sp_a = eigensolve(_signed(m.copy()))
    sp_b = eigensolve(_signed(0.5 * ((q.T @ m @ q) + (q.T @ m @ q).T)))
    assert np.max(np.abs(sp_a.positives - sp_b.positives)) < 1e-9
    assert np.max(np.abs(sp_a.negatives - sp_b.negatives)) < 1e-9


# ---------------------------------------------------------------------------
# the one-triangle contract and the in-place solve
# ---------------------------------------------------------------------------

def _symmetric_sample(n: int, exponent: float, seed: int) -> np.ndarray:
    """A random symmetric n x n matrix of entries about 10^exponent."""
    m = np.random.default_rng(seed).normal(size=(n, n))
    return 10.0 ** exponent * (m + m.T)


def _nan_lower(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    out[np.tri(len(m), k=-1, dtype=bool)] = np.nan
    return out


_SIZES = st.integers(min_value=1, max_value=48)
_EXPONENTS = st.floats(min_value=-300.0, max_value=300.0)
_SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


@settings(max_examples=80, deadline=None)
@given(n=_SIZES, exponent=_EXPONENTS, seed=_SEEDS)
def test_upper_invariants_are_those_of_the_symmetric_matrix(n, exponent,
                                                            seed):
    full = _symmetric_sample(n, exponent, seed)
    trace, frobenius_sq, unit = upper_invariants(_nan_lower(full))
    # in units of 2^unit, the binary exponent of the largest |entry|
    assert unit == np.frexp(np.max(np.abs(full)))[1]
    full = np.ldexp(full, -unit)
    diagonal = np.diagonal(full)
    eps = np.finfo(float).eps
    assert abs(trace - np.trace(full)) <= 2 * n * eps * np.sum(
        np.abs(diagonal))
    assert frobenius_sq == pytest.approx(np.sum(full * full), rel=4 * n * eps)


@pytest.mark.parametrize("n", [300, 1030, 2503])
@pytest.mark.parametrize("exponent", [0.0, 200.0, -200.0])
def test_row_block_invariants_match_the_row_loop(n, exponent):
    # many row blocks and a ragged last one; at 1e+-200 the plain squares
    # would leave the normal range, the ones in units of the largest entry
    # do not
    full = _symmetric_sample(n, exponent, n)
    trace, frobenius_sq, unit = upper_invariants(_nan_lower(full))
    assert unit == np.frexp(np.max(np.abs(full)))[1]
    want = upper_invariants_rows(_nan_lower(np.ldexp(full, -unit)))
    eps = np.finfo(float).eps
    assert abs(trace - want[0]) <= 2 * n * eps * np.sum(
        np.abs(np.diagonal(np.ldexp(full, -unit))))
    assert frobenius_sq == pytest.approx(want[1], rel=4 * n * eps)


@settings(max_examples=40, deadline=None)
@given(n=_SIZES, exponent=_EXPONENTS, seed=_SEEDS)
def test_a_nan_lower_triangle_leaves_the_spectrum_bit_identical(n, exponent,
                                                                seed):
    full = _symmetric_sample(n, exponent, seed)
    want = eigensolve(_signed(full.copy()))
    got = eigensolve(_signed(_nan_lower(full)))
    assert np.array_equal(got.positives, want.positives)
    assert np.array_equal(got.negatives, want.negatives)


@settings(max_examples=40, deadline=None)
@given(n=_SIZES, exponent=_EXPONENTS, seed=_SEEDS)
def test_the_fallback_agrees_with_the_in_place_solve(n, exponent, seed):
    full = _symmetric_sample(n, exponent, seed)
    in_place = spectra._eigvalsh_upper(_nan_lower(full))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "_lapack", lambda name: None)
        fallback = spectra._eigvalsh_upper(_nan_lower(full))
        # the whole solve, checks included, runs on the fallback too
        sp = eigensolve(_signed(_nan_lower(full)))
    radius = np.max(np.abs(in_place))
    assert np.max(np.abs(fallback - in_place)) <= (
        spectra._tolerance_unit(n) * radius)
    keep = np.abs(fallback) > spectra._ZERO_RTOL * radius
    assert np.array_equal(np.concatenate([sp.negatives, sp.positives[::-1]]),
                          fallback[keep])


@settings(max_examples=20, deadline=None)
@given(n=_SIZES, seed=_SEEDS, signed=st.booleans())
def test_a_second_solve_of_one_operator_is_refused(n, seed, signed):
    m = _symmetric_sample(n, 0.0, seed)
    if not signed:
        m = m @ m
    op = one_block(m, signed)
    eigensolve(op)
    with pytest.raises(InvalidArgumentError, match="already eigensolved"):
        eigensolve(op)
    assert op.n == n


def test_a_failed_solve_consumes_the_operator_too(monkeypatch):
    op = _signed(np.eye(3))
    monkeypatch.setattr(spectra, "_eigvalsh_upper",
                        lambda m: np.array([1.0, 1.0, np.nan]))
    with pytest.raises(InternalError):
        eigensolve(op)
    monkeypatch.undo()
    with pytest.raises(InvalidArgumentError, match="already eigensolved"):
        eigensolve(op)


@pytest.mark.skipif(spectra._lapack("dsyevd") is None,
                    reason="NumPy's LAPACK exports no dsyevd")
def test_in_place_solve_matches_numpy_bit_for_bit(dense_512):
    # the spectra, and so the report hashes, are those of NumPy's eigvalsh
    # on the full symmetric matrix
    for name, op in dense_512.items():
        upper = op.blocks[0].entries.copy()
        full = np.triu(upper) + np.triu(upper, 1).T
        assert np.array_equal(spectra._eigvalsh_upper(upper),
                              np.linalg.eigvalsh(full)), name


_SOLVE_MEMORY_SCRIPT = """
import json
import sys

import numpy as np

from critspec import spectra
from critspec.assemble import WeightFn, assemble_curve_operator
from critspec.geometry import Circle, make_smooth_curve
from critspec.kernels import reference_kernel


def openblas_files():
    with open("/proc/self/maps") as fh:
        return sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower()})


def peak_bytes():
    # VmHWM, the peak resident set of this process image; ru_maxrss would
    # start from the resident set of the process that spawned this one
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024


# a weight off the axes with modes up to n/2: no symmetry and no band, one
# block of order n
mesh = make_smooth_curve(Circle(), 2048)
weight = WeightFn.tabulated(1.5 + np.cos(mesh.param_values - 0.3)
                            + 0.2 * np.random.default_rng(0).uniform(
                                -1.0, 1.0, 2048))
op = assemble_curve_operator(mesh, weight, reference_kernel())
assert [block.n for block in op.blocks] == [op.n]
files, peak = openblas_files(), peak_bytes()
spectra.eigensolve(op)
print(json.dumps({"rise": peak_bytes() - peak, "n": op.n,
                  "before": files, "after": openblas_files(),
                  "scipy": "scipy" in sys.modules}))
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                    reason="needs /proc/self/maps and /proc/self/status")
def test_eigensolve_makes_no_matrix_copy():
    # a fresh process, so that the peak before the solve is this
    # operator's; NumPy's eigvalsh raised it by a whole matrix, 33 MB
    src = str(Path(critspec.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", _SOLVE_MEMORY_SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    n = out["n"]
    assert out["rise"] < n * n * 8 / 4, out
    assert len(out["before"]) == 1 and out["after"] == out["before"], out
    assert not out["scipy"]


# ---------------------------------------------------------------------------
# the invariant check on the whole spectrum
# ---------------------------------------------------------------------------

def _supports(n: int) -> dict:
    """Unsigned curve, polygon, Cantor and mixed supports, a signed circle
    (a band), an odd weight on a rectangle (the trivial group's fold) and
    two circles at an angle (a coupled block), each with about n
    unknowns."""
    circle = make_smooth_curve(Circle(radius=1.0), n)
    small = make_smooth_curve(Circle(center=(0.5, 0.5), radius=0.25), 64)
    grid = make_cell_grid((0.5, 0.5), 1.0, 2.0 / np.sqrt(n),
                          exclude_meshes=[small])
    rectangle = make_polygon_curve([[0.0, 0.0], [1.3, 0.0], [1.3, 0.7],
                                    [0.0, 0.7]], n // 4, 3.0)
    one = WeightFn.constant(1.0)
    return {
        "circle": [(circle, one)],
        "signed": [(circle, WeightFn.angular())],
        "polygon": [(make_polygon_curve(UNIT_SQUARE, n // 4, 3.0), one)],
        "cantor": [(make_cantor_measure(int(np.log2(n))), one)],
        "mixed": [(grid, one), (small, one)],
        "rectangle": [(rectangle, WeightFn.tabulated(_odd_in(
            rectangle.nodes - [0.65, 0.35], [1.0, 0.4, -0.7, 0.2, 0.9,
                                             -0.3])))],
        "two circles": _two_circles(1.0, n // 2, n // 2),
    }


@pytest.fixture(scope="module")
def dense_512():
    """The operators of ``_supports(512)`` with the trivial group: one
    block of order n each."""
    return {name: assemble_dense(supports, reference_kernel())
            for name, supports in _supports(512).items()}


def _fresh(op: BlockOperator) -> BlockOperator:
    """An unsolved operator over a copy of ``op``'s storage."""
    return dataclasses.replace(op, blocks=tuple(
        type(b)(entries=b.entries.copy()) for b in op.blocks))


@pytest.mark.parametrize("n", [64, 512])
def test_clean_solves_pass_the_invariant_check_with_margin(n, dense_512,
                                                           monkeypatch):
    # each operator reduced by its symmetry group and with the trivial one:
    # the errors the solve's own check reads
    errors = []
    true_errors = spectra._invariant_errors

    def recorded(invariants, vals):
        errors.append(true_errors(invariants, vals))
        return errors[-1]

    monkeypatch.setattr(spectra, "_invariant_errors", recorded)
    kern = reference_kernel()
    for name, supports in _supports(n).items():
        dense = dense_512[name] if n == 512 else assemble_dense(supports,
                                                                kern)
        for op in (assemble_mixed(supports, kern), _fresh(dense)):
            assert op.n >= n // 2, name
            errors.clear()
            eigensolve(op)
            # largest observed: 0.0035 of the tolerance
            assert max(errors[0]) <= 0.05, (name, errors)


@pytest.fixture(scope="module")
def spectra_512(dense_512):
    return {name: np.linalg.eigvalsh(op.blocks[0].entries, UPLO="U")
            for name, op in dense_512.items()}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["circle", "signed", "polygon", "cantor",
                             "mixed"]),
       position=st.floats(min_value=0.0, max_value=1.0),
       sign=st.sampled_from([-1.0, 1.0]))
def test_one_shifted_eigenvalue_fails_the_check(dense_512, spectra_512,
                                                name, position, sign):
    op, vals = dense_512[name], spectra_512[name]
    shifted = vals.copy()
    shifted[int(position * (len(vals) - 1))] += (
        sign * 1e-6 * np.max(np.abs(vals)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "_eigvalsh_upper", lambda m: vals)
        eigensolve(_fresh(op))
        patch.setattr(spectra, "_eigvalsh_upper", lambda m: shifted)
        with pytest.raises(InternalError, match="trace error .* Frobenius"):
            eigensolve(_fresh(op))


def test_invariant_check_rejects_nan_eigenvalues(monkeypatch):
    monkeypatch.setattr(spectra, "_eigvalsh_upper",
                        lambda m: np.array([1.0, np.nan]))
    with pytest.raises(InternalError):
        eigensolve(one_block(np.eye(2)))


def test_indefinite_unsigned_operator_is_refused():
    # a 15 x 6 ellipse at n = 128, node spacing up to 0.74: under-resolved,
    # the operator of a constant weight has negative eigenvalues
    mesh = make_smooth_curve(Ellipse(a=15.0, b=6.0), 128)
    op = assemble_curve_operator(mesh, WeightFn.constant(1.0),
                                 reference_kernel())
    assert not op.signed_flag
    with pytest.raises(InvalidArgumentError,
                       match="least eigenvalue -.* refine the mesh"):
        eigensolve(op)


# ---------------------------------------------------------------------------
# the block solve of a symmetric support
# ---------------------------------------------------------------------------

def _outcome(solve, n: int):
    """The spectrum a solve of an n x n operator returns, as n sorted
    eigenvalues with the dropped numerical zeros put back as zeros, or the
    kind of error it raises: its type and the text before the first
    colon."""
    try:
        sp = solve()
    except (InvalidArgumentError, InternalError) as exc:
        return type(exc), str(exc).split(":")[0]
    vals = np.zeros(n)
    kept = np.concatenate([sp.negatives, sp.positives])
    vals[:len(kept)] = kept
    return np.sort(vals)


def _reduced(op: BlockOperator) -> bool:
    """Whether a symmetry group of order 2 or more, or a band, reduced the
    operator: anything but the trivial group's one block of order n."""
    return _kinds(op) + [(OperatorMatrix, 1)] * len(op.singles) != [
        (OperatorMatrix, op.n)]


def _kinds(op: BlockOperator) -> list:
    """The kind and the order of each of ``op``'s blocks."""
    return [(type(b), b.n) for b in op.blocks]


def _band_modes(supports):
    """The b of the band that one support takes, asked as the assembler
    asks it: ``_circle_orbits`` finds it one free orbit of C_n, and
    ``_banded`` builds one ``BandMatrix``, whose storage has 2 b + 2
    columns, or one ``HalfTurnBand``, whose storage has 2 b + 3.  None
    where either refuses."""
    points, weights, values, offsets = assemble._layout(supports)
    orbits = assemble._circle_orbits(supports, points, weights, offsets)
    if orbits is None:
        return None
    op = assemble._banded(supports[0][0], reference_kernel(),
                          values * weights, orbits[0])
    if op is None:
        return None
    (block,) = op.blocks
    assert isinstance(block, (BandMatrix, HalfTurnBand))
    return block.entries.shape[1] // 2 - 1


def _oracle_solve(matrix: OperatorMatrix, signed: bool) -> Spectrum:
    """The spectrum of the all-pairs oracle's matrix (``assemble_mixed_pairs``)
    from NumPy's ``eigvalsh`` on its upper triangle, after the checks of
    ``eigensolve`` on the oracle's own invariants."""
    vals = np.linalg.eigvalsh(matrix.entries, UPLO="U")
    return spectra._checked_spectrum(vals, upper_invariants(matrix.entries),
                                     signed)


_UNDERFLOW = (InvalidArgumentError, "operator entries underflow")


def _assert_reduced_matches_dense(supports, kern):
    """The block solve of ``supports`` gives the spectrum of the dense
    all-pairs oracle within 64 n eps of the spectral radius, or the same
    kind of error, the assembly's included (then it returns None).  Where
    V is nonzero but the oracle's products s_i K_ij s_j all flush to 0,
    V w itself included, the oracle cannot represent the operator, and the
    block solve must refuse it as underflowing."""
    _, _, values, _ = assemble._layout(supports)
    n = len(values)
    ops, built = [], []

    def solve():
        ops.append(assemble_mixed(supports, kern))
        return eigensolve(ops[0])

    reduced = _outcome(solve, n)
    op = ops[0] if ops else None

    def oracle():
        built.append(assemble_mixed_pairs(supports, kern))
        return _oracle_solve(built[0], bool(np.any(values < 0.0)))

    dense = _outcome(oracle, n)
    if built and np.any(values) and not np.any(built[0].entries):
        assert reduced == _UNDERFLOW, "the block solve gave %r" % (reduced,)
        return op
    if isinstance(dense, tuple) or isinstance(reduced, tuple):
        assert type(reduced) is type(dense) and reduced == dense, (
            "the block solve gave %r, the oracle %r"
            % tuple(x if isinstance(x, tuple) else "a spectrum"
                    for x in (reduced, dense)))
        return op
    radius = max(np.max(np.abs(dense)), np.max(np.abs(reduced)))
    assert np.max(np.abs(reduced - dense)) <= (
        spectra._tolerance_unit(n) * radius)
    return op


@settings(max_examples=60, deadline=None)
@given(radius=st.floats(min_value=0.05, max_value=20.0),
       center=st.tuples(st.floats(min_value=-10.0, max_value=10.0),
                        st.floats(min_value=-10.0, max_value=10.0)),
       half_n=st.integers(min_value=4, max_value=256),
       value=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3)),
       lower_order=st.booleans())
def test_circulant_solve_matches_the_dense_solve(radius, center, half_n,
                                                 value, lower_order):
    # an equispaced circle of a constant weight: its n Fourier modes are
    # 1 x 1 blocks, the real DFT of its kernel row
    n = 2 * half_n
    kern = lower_order_kernel() if lower_order else reference_kernel()
    mesh = make_smooth_curve(Circle(center=center, radius=radius), n)
    op = _assert_reduced_matches_dense([(mesh, WeightFn.constant(value))],
                                       kern)
    if value and not np.any(value * mesh.weights):
        # V w flushes to 0 (value 5e-324): refused before any path is
        # taken, as the oracle refuses it
        assert op is None
    else:
        assert op.blocks == () and len(op.singles) == n


def _symmetric_weight(values, n: int) -> np.ndarray:
    """A table on an equispaced circle of n nodes invariant under the
    reflection t -> -t, node j -> node -j."""
    values = np.resize(np.asarray(values, dtype=float), n // 2 + 1)
    return np.concatenate([values, values[1:n // 2][::-1]])


@st.composite
def _symmetric_supports(draw):
    kind = draw(st.sampled_from(["circle", "tabulated circle", "square",
                                 "rectangle", "cantor", "two circles",
                                 "grid and circle"]))
    values = st.floats(min_value=-2.0, max_value=2.0)
    if kind in ("circle", "tabulated circle"):
        n = 2 * draw(st.integers(min_value=4, max_value=96))
        mesh = make_smooth_curve(Circle(
            center=(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))),
            radius=draw(st.floats(min_value=0.1, max_value=2.0))), n)
        if kind == "circle":
            return [(mesh, WeightFn.constant(draw(values)))]
        return [(mesh, WeightFn.tabulated(_symmetric_weight(
            draw(st.lists(values, min_size=1, max_size=n)), n)))]
    if kind in ("square", "rectangle"):
        side = draw(st.floats(min_value=0.2, max_value=2.0))
        aspect = 1.0 if kind == "square" else draw(st.floats(1.1, 3.0))
        x0, y0 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
        a, b = side * aspect, side
        mesh = make_polygon_curve(
            [[x0, y0], [x0 + a, y0], [x0 + a, y0 + b], [x0, y0 + b]],
            2 * draw(st.integers(min_value=1, max_value=24)),
            draw(st.sampled_from([1.0, 2.0, 3.0])))
        return [(mesh, WeightFn.constant(draw(st.floats(0.0, 5.0))))]
    if kind == "cantor":
        return [(make_cantor_measure(draw(st.integers(1, 8))),
                 WeightFn.constant(draw(values)))]
    if kind == "grid and circle":
        # the mixed a.c. + singular layout, coarse: symmetric under the
        # diagonal reflection, which fixes the cells on the diagonal and
        # two nodes; the cross block between the supports is evaluated
        # from the grid's rows alone
        mesh = make_smooth_curve(Circle(radius=draw(st.floats(0.3, 0.6))),
                                 8 * draw(st.integers(min_value=2,
                                                      max_value=8)))
        grid = make_cell_grid((0.0, 0.0), 1.0, draw(st.floats(0.12, 0.25)),
                              exclude_meshes=[mesh])
        return [(grid, WeightFn.constant(draw(st.floats(0.0, 5.0)))),
                (mesh, WeightFn.constant(draw(st.floats(0.0, 5.0))))]
    n1, n2 = (2 * draw(st.integers(4, 48)) for _ in range(2))
    r1, r2 = (draw(st.floats(0.2, 1.5)) for _ in range(2))
    gap = draw(st.floats(0.5, 4.0))
    weight = WeightFn.constant(draw(st.floats(0.0, 5.0)))
    return [(make_smooth_curve(Circle(radius=r1), n1), weight),
            (make_smooth_curve(Circle(center=(r1 + gap + r2, 0.0),
                                      radius=r2), n2), weight)]


@settings(max_examples=80, deadline=None)
@given(supports=_symmetric_supports())
def test_symmetric_supports_are_reduced_to_the_dense_spectrum(supports):
    _assert_reduced_matches_dense(supports, reference_kernel())


def _moved_rectangle():
    return make_polygon_curve([[0.0, 0.0], [1.3, 0.0], [1.3 + 1e-9, 0.7],
                               [0.0, 0.7]], 32, 3.0)


def _moved_cantor():
    measure = make_cantor_measure(7)
    atoms = measure.atoms.copy()
    atoms[5, 0] += 1e-9
    return SingularMeasure(atoms=atoms, masses=measure.masses,
                           cell_size=measure.cell_size,
                           alpha_nominal=measure.alpha_nominal)


@pytest.mark.parametrize("support, group", [
    (make_smooth_curve(Ellipse(a=1.0, b=1.0 + 1e-9), 256), (2, 2)),
    (make_smooth_curve(Star(amplitude=1e-9), 256), (1, 2)),
    (_moved_rectangle(), (1, 1)),
    (_moved_cantor(), (1, 1)),
], ids=["ellipse", "star", "rectangle", "cantor"])
def test_a_near_symmetry_is_refused(support, group):
    # the ellipse and the star miss the rotations of the circle by 1e-9:
    # only their exact reflections reduce them (Z2 x Z2 and Z2); one moved
    # vertex or atom leaves the trivial group, and one block of order n
    supports = [(support, WeightFn.constant(1.0))]
    points, weights, values, offsets = assemble._layout(supports)
    table = assemble._symmetry_table(supports, points, weights, values,
                                     offsets)
    assert table.shape[:2] == group
    assert assemble._circle_orbits(supports, points, weights, offsets) is None
    op = _assert_reduced_matches_dense(supports, reference_kernel())
    assert _reduced(op) == (group != (1, 1))


_HEXAGON = [[np.cos(a), np.sin(a)] for a in np.arange(6) * np.pi / 3]


@pytest.mark.parametrize("vertices, panels, oracle", [
    (UNIT_SQUARE, 80, True), (UNIT_SQUARE, 250, False),
    (_HEXAGON, 342, False),
], ids=["square of 80", "square of 250", "hexagon of 342"])
def test_a_graded_polygon_keeps_its_reflections_at_any_panel_count(
        vertices, panels, oracle):
    # each edge's second half mirrors the first's panel widths to the last
    # bit, so the two reflections on the axes keep the polygon whatever
    # its panel count: widths taken from 1 - half lost the relative digits
    # of the small corner panels, past the tolerance unit, and these
    # polygons kept no reflection at all
    mesh = make_polygon_curve(vertices, panels, 3.0)
    widths = mesh.weights[:panels]
    assert np.array_equal(widths, widths[::-1])
    supports = [(mesh, WeightFn.constant(1.0))]
    table = assemble._symmetry_table(supports, *assemble._layout(supports))
    assert table.shape[:2] == (2, 2)
    if oracle:
        op = _assert_reduced_matches_dense(supports, reference_kernel())
        assert _kinds(op) == [(OperatorMatrix, mesh.n_nodes // 4)] * 4


@pytest.mark.parametrize("supports", [
    [(SingularMeasure(atoms=[[0.3, -0.2]], masses=[0.5], cell_size=0.1,
                      alpha_nominal=1.0), WeightFn.constant(2.0))],
    [(SingularMeasure(atoms=[[0.0, 0.0], [1.0, 0.0]], masses=[0.5, 0.7],
                      cell_size=0.1, alpha_nominal=1.0),
      WeightFn.constant(1.0))],
    [(make_smooth_curve(Circle(), 64),
      WeightFn.tabulated(1.5 + np.cos(np.pi * np.arange(64) / 32 - 0.3)))],
], ids=["one atom", "two atoms of two masses", "weight off the axes"])
def test_the_symmetry_table_is_never_none(supports):
    # where no map keeps the supports, the group is the trivial one: every
    # atom its own orbit, in one row of the table; the weight off the axes,
    # 1.5 + cos(t - 0.3) on an equispaced circle, carries the modes |m| <= 1
    # of C_n and is solved as one band, the others as one block of order n
    points, weights, values, offsets = assemble._layout(supports)
    table = assemble._symmetry_table(supports, points, weights, values,
                                     offsets)
    assert np.array_equal(table, np.arange(len(points))[None, None])
    op = _assert_reduced_matches_dense(supports, reference_kernel())
    if len(points) == 64:
        assert _band_modes(supports) == 1 and _kinds(op) == [(BandMatrix, 64)]
    else:
        assert _band_modes(supports) is None and not _reduced(op)


@pytest.mark.parametrize("shape, inside", [
    (Ellipse(a=1.0, b=1.0 + 4e-12), True),
    (Star(amplitude=2e-12), True),
    (Ellipse(a=1.0, b=1.0 + 4e-11), False),
    (Star(amplitude=2e-11), False),
])
def test_a_near_circle_takes_the_circulant_solve_only_inside_the_check(
        shape, inside):
    # at n = 512 the tolerance unit is 64 n eps = 7.3e-12: the first two
    # miss the rotations of the circle by 0.55 and 0.55 of it, the last two
    # by 5.5 and 5.5, and are reduced by their exact reflections instead
    n = 512
    supports = [(make_smooth_curve(shape, n), WeightFn.constant(1.0))]
    op = assemble_mixed(supports, reference_kernel())
    assert (op.blocks == ()) == inside
    got = _outcome(lambda: eigensolve(op), n)
    dense = np.linalg.eigvalsh(assemble_mixed_pairs(
        supports, reference_kernel()).entries, UPLO="U")
    rho = np.max(np.abs(dense))
    # measured: 0.19 and 0.14 of the unit inside, below 0.001 outside
    assert np.max(np.abs(got - dense)) <= (
        (0.3 if inside else 0.01) * spectra._tolerance_unit(n) * rho)


def test_the_circulant_tolerance_is_the_solve_tolerance():
    # one tolerance unit, defined once in assemble and read by spectra
    assert spectra._tolerance_unit is assemble._tolerance_unit
    assert assemble._tolerance_unit(512) == 64.0 * 512 * np.finfo(float).eps


def test_a_perturbed_circulant_eigenvalue_fails_the_check(monkeypatch):
    # the invariants come from the kernel row before the transform, so a
    # wrong Fourier mode of the circle's singles fails the check like a
    # wrong eigenvalue
    mesh = make_smooth_curve(Circle(radius=1.0), 512)
    supports = [(mesh, WeightFn.constant(1.0))]
    eigensolve(assemble_mixed(supports, reference_kernel()))
    true_circulant = assemble._circulant

    def one_shifted(*args):
        kappa, invariants = true_circulant(*args)
        kappa[7] += 1e-6 * np.max(np.abs(kappa))
        return kappa, invariants

    monkeypatch.setattr(assemble, "_circulant", one_shifted)
    op = assemble_mixed(supports, reference_kernel())
    with pytest.raises(InternalError, match="trace error .* Frobenius"):
        eigensolve(op)


def test_a_perturbed_block_eigenvalue_fails_the_check(monkeypatch):
    # the square's four real blocks, one of them solved wrong
    mesh = make_polygon_curve(UNIT_SQUARE, 16, 3.0)
    supports = [(mesh, WeightFn.constant(1.0))]
    op = assemble_mixed(supports, reference_kernel())
    assert [b.n for b in op.blocks] == [16, 16, 16, 16]
    true_eigvalsh = spectra._eigvalsh_upper
    solved = []

    def third_shifted(m):
        vals = true_eigvalsh(m)
        solved.append(len(m))
        if len(solved) == 3:
            vals[-1] *= 1.0 + 1e-6
        return vals

    monkeypatch.setattr(spectra, "_eigvalsh_upper", third_shifted)
    with pytest.raises(InternalError, match="trace error .* Frobenius"):
        eigensolve(op)


@pytest.mark.parametrize("signed", [False, True],
                         ids=["scaling", "fold"])
def test_a_wrong_scaling_or_fold_fails_the_check(signed, monkeypatch):
    # a weight that no map keeps, with modes up to n/2, so no band: one
    # block of order n, whose invariants come from its kernel rows
    # before the scaling or the fold, so one entry finished wrong fails the
    # check like a wrong eigenvalue
    mesh = make_smooth_curve(Circle(radius=1.0), 64)
    t = mesh.param_values
    values = (np.cos(t - 0.3) + 0.4 * np.cos(2.0 * t - 0.7)
              + 0.2 * np.random.default_rng(3).uniform(-1.0, 1.0, 64))
    supports = [(mesh, WeightFn.tabulated(values + (0.0 if signed else 1.5)))]
    op = assemble_mixed(supports, reference_kernel())
    assert not _reduced(op) and op.signed_flag == signed
    eigensolve(op)
    finalize = assemble._finalize

    def one_entry_off(kernel_matrix, v_vals, weights):
        finished = finalize(kernel_matrix, v_vals, weights)
        kernel_matrix[3, 10] *= 1.0 + 1e-6
        return finished

    monkeypatch.setattr(assemble, "_finalize", one_entry_off)
    with pytest.raises(InternalError, match="trace error .* Frobenius"):
        eigensolve(assemble_mixed(supports, reference_kernel()))


def test_a_second_solve_of_a_block_operator_is_refused():
    mesh = make_polygon_curve(UNIT_SQUARE, 16, 3.0)
    op = assemble_mixed([(mesh, WeightFn.constant(1.0))],
                            reference_kernel())
    eigensolve(op)
    with pytest.raises(InvalidArgumentError, match="already eigensolved"):
        eigensolve(op)


def test_a_regular_hexagon_takes_its_two_reflections():
    # a regular hexagon with a vertex on the x axis keeps the reflections
    # across both axes, Z2 x Z2, and no rotation is tried: four real
    # blocks of n/4, whose spectrum is the dense oracle's
    mesh = make_polygon_curve(_HEXAGON, 8, 3.0)
    supports = [(mesh, WeightFn.constant(1.0))]
    table = assemble._symmetry_table(supports, *assemble._layout(supports))
    assert table.shape == (2, 2, 12)
    op = _assert_reduced_matches_dense(supports, reference_kernel())
    assert _kinds(op) == [(OperatorMatrix, 12)] * 4 and len(op.singles) == 0


# ---------------------------------------------------------------------------
# a weight that a map negates and no map keeps: the trivial group's fold
# ---------------------------------------------------------------------------

def _odd_in(offsets: np.ndarray, coefficients) -> np.ndarray:
    """An odd polynomial of the plane offsets (x, y): a x + b y + c x^3 +
    d x^2 y + e x y^2 + f y^3, negated by the half turn about 0."""
    x, y = offsets[:, 0], offsets[:, 1]
    a, b, c, d, e, f = coefficients
    return (a * x + b * y + c * x ** 3 + d * x * x * y + e * x * y * y
            + f * y ** 3)


@st.composite
def _negated_supports(draw):
    """A support with a weight that a map of order 2 negates: the half turn
    on equispaced circles (odd harmonics, cos(t - phi) among them) and on
    rectangles, x -> 1 - x on the Cantor set.  The circles' weights carry
    modes past ``assemble._BAND_MODES`` on 16 nodes or more, so that they
    reach the fold rather than the band: the harmonics through an odd
    square wave.  On 8 to 14 nodes they may take the band."""
    kind = draw(st.sampled_from(["harmonics", "table", "rectangle",
                                 "cantor"]))
    coefficient = st.floats(min_value=-2.0, max_value=2.0)
    if kind in ("harmonics", "table"):
        n = 2 * draw(st.integers(min_value=4, max_value=96))
        mesh = make_smooth_curve(Circle(
            center=(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))),
            radius=draw(st.floats(min_value=0.1, max_value=2.0))), n)
        t = mesh.param_values
        if kind == "harmonics":
            values = np.cos(t - draw(st.floats(0.0, 2.0 * np.pi)))
            for k in (3, 5, 7):
                values += (draw(coefficient) * np.cos(k * t)
                           + draw(coefficient) * np.sin(k * t))
            values += (draw(st.sampled_from([-1.0, 1.0]))
                       * draw(st.floats(0.1, 2.0)) * _square_wave(t))
        else:
            half = np.resize(draw(st.lists(coefficient, min_size=1,
                                           max_size=n // 2)), n // 2)
            values = np.concatenate([half, -half])
        return [(mesh, WeightFn.tabulated(values))]
    if kind == "rectangle":
        a, b = draw(st.floats(0.3, 2.0)), draw(st.floats(0.3, 2.0))
        x0, y0 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
        mesh = make_polygon_curve(
            [[x0, y0], [x0 + a, y0], [x0 + a, y0 + b], [x0, y0 + b]],
            2 * draw(st.integers(min_value=1, max_value=16)),
            draw(st.sampled_from([1.0, 2.0, 3.0])))
        values = _odd_in(mesh.nodes - [x0 + a / 2, y0 + b / 2],
                         [draw(coefficient) for _ in range(6)])
        return [(mesh, WeightFn.tabulated(values))]
    measure = make_cantor_measure(draw(st.integers(1, 7)))
    u = measure.atoms[:, 0] - 0.5
    values = (np.sin(draw(st.floats(0.5, 20.0)) * u)
              + draw(coefficient) * u ** 3)
    # odd under x -> 1 - x to the last bit: the atoms are symmetric only to
    # their rounding, which the slope of a weight that nearly vanishes on
    # them lifts past the detector's tolerance, 64 n eps of max |V|
    return [(measure, WeightFn.tabulated(0.5 * (values - values[::-1])))]


def _full_product_fold(kernel_matrix: np.ndarray, v_vals: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
    """``oracles.cholesky_fold_full`` with the fold's refusal of a kernel
    matrix that is not positive definite: the dense oracle's fold, in
    place of the package's blocked one, for the tests of the fold."""
    try:
        return cholesky_fold_full(kernel_matrix, v_vals, weights)
    except np.linalg.LinAlgError:
        raise assemble._not_positive_definite(weights) from None


@settings(max_examples=40, deadline=None)
@given(supports=_negated_supports())
def test_a_negated_weight_is_solved_by_the_fold(supports):
    # no map keeps the weight: where it takes no band of either kind, its
    # table is the trivial group's and its operator the one folded block of
    # order n, whose spectrum is the dense oracle's, full-product fold and
    # all, within 64 n eps of the spectral radius, or whose refusal is the
    # oracle's
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "_cholesky_fold", _full_product_fold)
        op = _assert_reduced_matches_dense(supports, reference_kernel())
    table = assemble._symmetry_table(supports, *assemble._layout(supports))
    if (op is not None and table.shape[:2] == (1, 1)
            and _kinds(op) not in ([(BandMatrix, op.n)],
                                   [(HalfTurnBand, op.n)])):
        assert _kinds(op) == [(OperatorMatrix, op.n)] and op.signed_flag


def test_a_subnormal_negated_weight_underflows_on_both_paths():
    # +-5e-324 on an 8-node circle, a square wave of the modes 1 and 3: the
    # kernel rows times sqrt(V w) underflow to 0, and the operator's
    # largest entry, subnormal on the oracle's dense fold, must be read as
    # subnormal from the rows too, on the half-turn band (every mode odd)
    # and on the trivial group's one folded block
    mesh = make_smooth_curve(Circle(radius=1.0), 8)
    values = np.repeat([5e-324, -5e-324], 4)
    supports = [(mesh, WeightFn.tabulated(values))]
    assert _band_modes(supports) == 3
    ops = (assemble_mixed(supports, reference_kernel()),
           assemble_dense(supports, reference_kernel()))
    assert [_kinds(op) for op in ops] == [[(HalfTurnBand, 8)],
                                          [(OperatorMatrix, 8)]]
    for op in ops:
        with pytest.raises(InvalidArgumentError, match="entries underflow"):
            eigensolve(op)
    _assert_reduced_matches_dense(supports, reference_kernel())


def test_the_underflow_refusal_names_the_smallest_normal_double():
    # one threshold, the smallest normal double, whatever the exponent of
    # the largest entry: on the band, on the trivial group's one block of
    # the same operator, and on hand-made blocks whose largest entry is the
    # least subnormal double or lies just under the threshold
    mesh = make_smooth_curve(Circle(radius=1.0), 8)
    supports = [(mesh, WeightFn.tabulated(np.repeat([5e-324, -5e-324], 4)))]
    ops = [assemble_mixed(supports, reference_kernel()),
           assemble_dense(supports, reference_kernel()),
           _signed(np.diag([5e-324, -5e-324])),
           one_block(np.diag([1e-310, 0.0]))]
    assert _reduced(ops[0]) and not _reduced(ops[1])
    for op in ops:
        with pytest.raises(InvalidArgumentError) as info:
            eigensolve(op)
        assert str(info.value) == (
            "operator entries underflow: the largest |entry| is subnormal "
            "(below 2.23e-308); scale the weight up")


def _half_turn_circle(n: int = 128, phase: float = 1.234, radius=1.0):
    """An equispaced circle with the weight cos(t - phase), which the half
    turn negates and, at this phase, no map keeps: it carries the modes
    |m| = 1 of C_n alone, and is solved as one half-turn band."""
    mesh = make_smooth_curve(Circle(radius=radius), n)
    return [(mesh, WeightFn.tabulated(np.cos(mesh.param_values - phase)))]


def _even_mode_circle(n: int = 128):
    """An equispaced circle with the weight cos t + 0.3 cos 2t: its mode 2
    is even, so the half turn does not negate it, and it is solved as one
    band of order n."""
    mesh = make_smooth_curve(Circle(), n)
    t = mesh.param_values
    return [(mesh, WeightFn.tabulated(np.cos(t) + 0.3 * np.cos(2.0 * t)))]


def _square_wave(t: np.ndarray) -> np.ndarray:
    """sign(sin t), 0 where sin t rounds to near 0 (t = 0 and pi): odd
    under the half turn, with every odd mode."""
    return np.sign(np.sin(t)) * (np.abs(np.sin(t)) > 1e-9)


def _odd_circle(n: int = 128, radius=1.0):
    """An equispaced circle with the weight cos(t - 1.234) plus an odd
    square wave, which the half turn negates and no map keeps, and whose
    modes reach n/2: it is solved as the trivial group's one folded block,
    not a band."""
    mesh = make_smooth_curve(Circle(radius=radius), n)
    t = mesh.param_values
    return [(mesh, WeightFn.tabulated(np.cos(t - 1.234)
                                      + 0.5 * _square_wave(t)))]


def _half_turn_rectangle():
    mesh = make_polygon_curve([[0.0, 0.0], [1.3, 0.0], [1.3, 0.7],
                               [0.0, 0.7]], 16, 3.0)
    values = _odd_in(mesh.nodes - [0.65, 0.35],
                     [1.0, 0.4, -0.7, 0.2, 0.9, -0.3])
    return [(mesh, WeightFn.tabulated(values))]


def _half_turn_cantor():
    measure = make_cantor_measure(7)
    u = measure.atoms[:, 0] - 0.5
    return [(measure, WeightFn.tabulated(np.sin(7.0 * u) + u ** 3))]


@pytest.mark.parametrize("supports", [
    _odd_circle(), _half_turn_rectangle(), _half_turn_cantor(),
], ids=["circle", "rectangle", "cantor"])
def test_a_negated_weight_is_one_folded_block(supports, monkeypatch):
    # no map keeps the weight and it takes no band: the trivial group's
    # table, and one block of order n, folded once, whose spectrum is the
    # dense oracle's with the full-product fold within 64 n eps of the
    # spectral radius
    table = assemble._symmetry_table(supports, *assemble._layout(supports))
    assert table.shape[:2] == (1, 1) and _band_modes(supports) is None
    folds = []
    true_fold = assemble._cholesky_fold

    def counted(kernel_matrix, v_vals, weights):
        folds.append(len(kernel_matrix))
        return true_fold(kernel_matrix, v_vals, weights)

    monkeypatch.setattr(assemble, "_cholesky_fold", counted)
    monkeypatch.setattr(oracles, "_cholesky_fold", _full_product_fold)
    op = _assert_reduced_matches_dense(supports, reference_kernel())
    assert _kinds(op) == [(OperatorMatrix, op.n)] and len(op.singles) == 0
    assert op.signed_flag and folds == [op.n]


def test_a_negating_map_that_fixes_an_atom_is_not_taken():
    # sin t + sin 2t: t -> -t negates it and fixes the nodes at 0 and pi,
    # and no map of the detector keeps it, so its table is the trivial
    # group's; it carries the modes |m| <= 2 of C_n, and is solved as one
    # band.  Three atoms on a line, the middle one at the
    # centroid, with the values -1, 0, 1: the trivial group's one block
    mesh = make_smooth_curve(Circle(), 64)
    t = mesh.param_values
    line = SingularMeasure(atoms=np.array([[0.0, 0.0], [0.5, 0.0],
                                           [1.0, 0.0]]),
                           masses=np.full(3, 0.25), cell_size=0.25,
                           alpha_nominal=1.0)
    for supports, b in (
            ([(mesh, WeightFn.tabulated(np.sin(t) + np.sin(2 * t)))], 2),
            ([(line, WeightFn.tabulated([-1.0, 0.0, 1.0]))], None)):
        table = assemble._symmetry_table(supports,
                                         *assemble._layout(supports))
        assert table.shape[:2] == (1, 1)
        assert _band_modes(supports) == b
        op = assemble_mixed(supports, reference_kernel())
        assert [n for kind, n in _kinds(op) if kind is BandMatrix] == (
            [] if b is None else [64])
        assert _reduced(op) == (b is not None)


def test_a_perturbed_fold_eigenvalue_fails_the_check(monkeypatch):
    # the odd circle's one folded block, its largest eigenvalue solved wrong
    supports = _odd_circle()
    eigensolve(assemble_mixed(supports, reference_kernel()))
    true_eigvalsh = spectra._eigvalsh_upper

    def last_shifted(m):
        vals = true_eigvalsh(m)
        vals[-1] *= 1.0 + 1e-6
        return vals

    monkeypatch.setattr(spectra, "_eigvalsh_upper", last_shifted)
    op = assemble_mixed(supports, reference_kernel())
    with pytest.raises(InternalError, match="trace error .* Frobenius"):
        eigensolve(op)


def _reports_info(position: int, info: int):
    """A LAPACK routine that reports ``info`` at ``position`` of its
    arguments, in LAPACK's order."""
    def routine(*args):
        args[position].contents.value = info
    return routine


def _does_not_converge(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


# per case: a build of an operator of one block of the kind given, the
# LAPACK routine that fails, the position of info among its arguments and
# the info it reports, its NumPy fallback, and the step a failure names
_FAILED_SOLVES = {
    # dsyevd's arguments: jobz, uplo, n, a, lda, w, work, lwork, iwork,
    # liwork, info, and the two character lengths
    "dense": (lambda: one_block(np.diag([2.0, 1.0, 0.5])), OperatorMatrix,
              "dsyevd", 10, 1, "eigvalsh", "symmetric eigensolve"),
    # dsbevd's arguments: jobz, uplo, n, kd, ab, ldab, w, z, ldz, work,
    # lwork, iwork, liwork, info, and the two character lengths.  The
    # weight carries an even mode, so the half turn does not negate it
    "band": (lambda: assemble_mixed(_even_mode_circle(), reference_kernel()),
             BandMatrix, "dsbevd", 13, 1, "eigvalsh", "band eigensolve"),
    # dgbbrd's arguments: vect, m, n, ncc, kl, ku, ab, ldab, d, e, q, ldq,
    # pt, ldpt, c, ldc, work, info, and the character length
    "half-turn-reduction": (
        lambda: assemble_mixed(_half_turn_circle(), reference_kernel()),
        HalfTurnBand, "dgbbrd", 17, -7, "svd",
        "half-turn band singular values"),
    # dbdsqr's arguments: uplo, n, ncvt, nru, ncc, d, e, vt, ldvt, u, ldu,
    # c, ldc, work, info, and the character length
    "half-turn-values": (
        lambda: assemble_mixed(_half_turn_circle(), reference_kernel()),
        HalfTurnBand, "dbdsqr", 14, 3, "svd",
        "half-turn band singular values"),
    # dpotrf's arguments: uplo, n, a, lda, info, and the character length.
    # The fold fails in the assembly, and only an info below 0 (an illegal
    # argument) is internal: an info above 0, or a failed NumPy fallback,
    # is the refusal of an under-resolved mesh
    "fold": (lambda: assemble_mixed(_odd_circle(n=64), reference_kernel()),
             OperatorMatrix, "dpotrf", 4, -4, None, "Cholesky factorisation"),
}


@pytest.mark.parametrize("case,path", [
    ("dense", "lapack"), ("dense", "fallback"), ("band", "lapack"),
    ("band", "fallback"), ("fold", "lapack"),
    ("half-turn-reduction", "lapack"), ("half-turn-values", "lapack"),
    ("half-turn-values", "fallback")])
def test_a_failed_block_solve_raises_internal_error(case, path, monkeypatch):
    # the routine that fails reports its info, and every other routine is
    # LAPACK's own, so a failure after a step that ran is reached too
    build, kind, routine, position, info, fallback, step = (
        _FAILED_SOLVES[case])
    assert [type(b) for b in build().blocks] == [kind]
    if path == "lapack":
        true_lapack = spectra._lapack
        monkeypatch.setattr(spectra, "_lapack", lambda name: (
            _reports_info(position, info) if name == routine
            else true_lapack(name)))
        named = "LAPACK %s info = %d" % (routine, info)
    else:
        monkeypatch.setattr(spectra, "_lapack", lambda name: None)
        monkeypatch.setattr(np.linalg, fallback, _does_not_converge)
        named = "did not converge"
    with pytest.raises(InternalError, match="%s failed: .*%s" % (step,
                                                                 named)):
        eigensolve(build())


def test_a_fold_not_positive_definite_is_refused_naming_the_node_spacing(
        monkeypatch):
    # a factorisation that fails gives the fold's refusal, naming the node
    # spacing, and the one block of order n is factored once; on a radius-5
    # circle of 64 nodes (spacing 0.49) a DFT mode of the band's kernel row
    # is not positive, so cos(t - 1.234) takes the fold, which refuses it
    # as the dense oracle does, with either fold
    supports = _odd_circle(n=64)
    calls = []

    def failing_dpotrf(uplo, n, a, lda, info, length):
        calls.append(n.contents.value)
        info.contents.value = 1

    true_lapack = spectra._lapack
    monkeypatch.setattr(spectra, "_lapack", lambda name: (
        failing_dpotrf if name == "dpotrf" else true_lapack(name)))
    with pytest.raises(InvalidArgumentError,
                       match="under-resolved mesh: .* node spacing 0.09817"):
        assemble_mixed(supports, reference_kernel())
    assert calls == [64]
    monkeypatch.undo()
    wide = _half_turn_circle(n=64, radius=5.0)
    points, weights, _, offsets = assemble._layout(wide)
    assert assemble._circle_orbits(wide, points, weights, offsets) is not None
    refused = "under-resolved mesh: .* node spacing 0.4909"
    with pytest.raises(InvalidArgumentError, match=refused):
        assemble_mixed(wide, reference_kernel())
    for fold in (assemble._cholesky_fold, _full_product_fold):
        monkeypatch.setattr(oracles, "_cholesky_fold", fold)
        with pytest.raises(InvalidArgumentError, match=refused):
            assemble_mixed_pairs(wide, reference_kernel())


# ---------------------------------------------------------------------------
# a weight that carries few Fourier modes on an equispaced circle
# ---------------------------------------------------------------------------

def _atom_ring(n: int, radius: float = 1.0, center=(0.0, 0.0)):
    """n atoms equispaced on a circle, each of the mass and cell size of
    its arc, and their angles: one free orbit of C_n for any n, odd n
    included, which a smooth mesh does not take."""
    t = 2.0 * np.pi * np.arange(n) / n
    arc = 2.0 * np.pi * radius / n
    atoms = np.stack([center[0] + radius * np.cos(t),
                      center[1] + radius * np.sin(t)], axis=1)
    return SingularMeasure(atoms=atoms, masses=np.full(n, arc),
                           cell_size=arc, alpha_nominal=1.0), t


@st.composite
def _band_limited_circles(draw):
    """An equispaced circle of 16 to 256 nodes, a smooth mesh of even n or
    a ring of atoms of any n, at a random radius, centre and phase, node
    spacing at most 2 pi / 64, with a weight of modes |m| <= b: cos(t -
    phi), cos 5(t - phi) - 0.3 and 2 + cos 3(t - phi), or random
    coefficients up to a random b from 0 to ``_BAND_MODES`` (below n / 2),
    signed or made positive.  Returns (supports, b)."""
    n = draw(st.integers(min_value=16, max_value=256))
    center = (draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    radius = draw(st.floats(min_value=0.05, max_value=1.0)) * n / 64
    if n % 2 == 0 and draw(st.booleans()):
        mesh = make_smooth_curve(Circle(center=center, radius=radius), n)
        t = mesh.param_values
    else:
        mesh, t = _atom_ring(n, radius, center)
    t = t - draw(st.floats(0.0, 2.0 * np.pi))
    kind = draw(st.sampled_from(["cos(t - phi)", "cos 5t - 0.3",
                                 "2 + cos 3t", "random"]))
    if kind == "cos(t - phi)":
        return [(mesh, WeightFn.tabulated(np.cos(t)))], 1
    if kind == "cos 5t - 0.3":
        return [(mesh, WeightFn.tabulated(np.cos(5.0 * t) - 0.3))], 5
    if kind == "2 + cos 3t":
        return [(mesh, WeightFn.tabulated(2.0 + np.cos(3.0 * t)))], 3
    b = draw(st.integers(0, min(assemble._BAND_MODES, n // 2 - 1)))
    coefficient = st.floats(min_value=-1.0, max_value=1.0)
    values = np.full(n, draw(coefficient))
    for m in range(1, b + 1):
        # the top mode well above the truncation
        top = draw(st.floats(0.2, 1.0)) if m == b else draw(coefficient)
        values += top * np.cos(m * t) + draw(coefficient) * np.sin(m * t)
    if draw(st.booleans()):
        values += 0.1 - values.min()
    return [(mesh, WeightFn.tabulated(values))], b


@settings(max_examples=60, deadline=None)
@given(case=_band_limited_circles())
def test_a_band_limited_weight_is_one_band_of_the_dense_spectrum(case):
    # b = 0 is a constant weight, the circle's 1 x 1 blocks; every b from
    # 1 to the cutoff is one band of half-width 2 b + 1, whose spectrum is
    # the dense oracle's within 64 n eps of the spectral radius, and whose
    # invariants, read from the kernel row, are the oracle's.  Where n is
    # even and every even mode of V w lies at or below the truncation, 64 n
    # eps of its largest mode, the half turn negates the weight, and the
    # band is B of [[0, B], [B^T, 0]] alone, of order n/2 and b + 1
    # diagonals each side
    supports, b = case
    kern = reference_kernel()
    assert _band_modes(supports) == (b or None)
    op = assemble_mixed(supports, kern)
    n = op.n
    if b == 0:
        assert op.blocks == () and len(op.singles) == n
    else:
        _, weights, values, _ = assemble._layout(supports)
        modes = np.abs(np.fft.rfft(values * weights))
        odd = n % 2 == 0 and not np.any(
            modes[::2] > spectra._tolerance_unit(n) * modes.max())
        assert len(op.singles) == 0
        assert [(type(bd), bd.entries.shape) for bd in op.blocks] == [
            (HalfTurnBand, (n // 2, 2 * b + 3)) if odd
            else (BandMatrix, (n, 2 * b + 2))]
        _assert_invariants_match_the_oracle(op, supports, kern)
    _assert_reduced_matches_dense(supports, kern)


def test_a_band_of_odd_order_has_no_nyquist_mode():
    # cos(t - 1.234) on 129 atoms: the last basis position is a sine, and
    # every dropped mode counts twice; the band's spectrum and invariants
    # are the dense oracle's
    ring, t = _atom_ring(129, radius=0.9)
    supports = [(ring, WeightFn.tabulated(np.cos(t - 1.234)))]
    op = assemble_mixed(supports, reference_kernel())
    assert [(type(b), b.entries.shape) for b in op.blocks] == [
        (BandMatrix, (129, 4))]
    oracle = assemble_mixed_pairs(supports, reference_kernel())
    frobenius_sq, exponent = upper_invariants(oracle.entries)[1:]
    got = np.ldexp(op.invariants[1], 2 * (op.invariants[2] - exponent))
    assert abs(got - frobenius_sq) <= spectra._tolerance_unit(129) * frobenius_sq
    _assert_reduced_matches_dense(supports, reference_kernel())


@pytest.mark.parametrize("n", [512, 2048])
def test_a_weight_one_rotation_step_keeps_is_one_band(n):
    # 1 + 1e-9 cos t carries the modes |m| <= 1 above the truncation at
    # every n, though at n = 2048 one rotation step moves it by less than
    # the tolerance unit: one band of half-width 3, whose spectrum is the
    # dense oracle's within 64 n eps of the spectral radius
    mesh = make_smooth_curve(Circle(), n)
    supports = [(mesh, WeightFn.tabulated(
        1.0 + 1e-9 * np.cos(mesh.param_values)))]
    op = _assert_reduced_matches_dense(supports, reference_kernel())
    assert [(type(b), b.entries.shape) for b in op.blocks] == [
        (BandMatrix, (n, 4))]


@pytest.mark.parametrize("n", [510, 512, 2048])
@pytest.mark.parametrize("b", [1, 3, 5])
def test_a_weight_the_half_turn_negates_is_one_half_turn_band(b, n):
    # the odd modes m <= b at phases off the axes, on an even n, n/2 odd
    # (the Nyquist cosine among B's columns) or even: one block
    # [[0, B], [B^T, 0]] kept as B alone, of order n/2 and b + 1 diagonals
    # each side, whose spectrum +-sigma(B) is symmetric to the last bit and
    # the dense oracle's within 64 n eps of the spectral radius
    mesh = make_smooth_curve(Circle(radius=0.9), n)
    t = mesh.param_values
    values = sum(np.cos(m * (t - 0.4)) / m for m in range(1, b + 1, 2))
    supports = [(mesh, WeightFn.tabulated(values))]
    op = _assert_reduced_matches_dense(supports, reference_kernel())
    assert [(type(bd), bd.n, bd.entries.shape) for bd in op.blocks] == [
        (HalfTurnBand, n, (n // 2, 2 * b + 3))]
    got = eigensolve(assemble_mixed(supports, reference_kernel()))
    assert len(got.positives) > n // 4
    assert np.array_equal(got.positives, -got.negatives)


@pytest.mark.parametrize("case", ["even mode", "odd n", "mean"])
def test_a_weight_the_half_turn_does_not_negate_keeps_the_band(case):
    # cos t + 0.3 cos 2t carries an even mode; on 129 nodes no half turn
    # maps a node to a node; cos(t - 1.234) + 1e-6 carries the mode 0
    # above the truncation.  Each is one band of order n in symmetric band
    # storage, the dense oracle's spectrum
    n = 129 if case == "odd n" else 128
    ring, t = _atom_ring(n, radius=0.9)
    values = {"even mode": np.cos(t) + 0.3 * np.cos(2.0 * t),
              "odd n": np.cos(t - 1.234),
              "mean": np.cos(t - 1.234) + 1e-6}[case]
    supports = [(ring, WeightFn.tabulated(values))]
    op = _assert_reduced_matches_dense(supports, reference_kernel())
    b = 2 if case == "even mode" else 1
    assert [(type(bd), bd.entries.shape) for bd in op.blocks] == [
        (BandMatrix, (n, 2 * b + 2))]


def test_a_mean_below_the_truncation_is_dropped_into_the_weyl_bound():
    # cos(t - 1.234) + c with c 1e-14 of the largest value: its mode 0
    # lies below the truncation, 64 n eps of the largest mode, so it is
    # dropped, the half turn's band is taken, and the Weyl bound grows by
    # c times the spectral radius of the operator of V = 1
    ring, t = _atom_ring(128, radius=0.9)
    kern = reference_kernel()
    c = 1e-14
    ops = [assemble_mixed([(ring, WeightFn.tabulated(np.cos(t - 1.234)
                                                     + shift))], kern)
           for shift in (0.0, c)]
    assert [_kinds(op) for op in ops] == [[(HalfTurnBand, 128)]] * 2
    radius = eigensolve(assemble_mixed([(ring, WeightFn.constant(1.0))],
                                       kern)).positives[0]
    assert ops[1].weyl_bound - ops[0].weyl_bound == pytest.approx(
        c * radius, rel=1e-3)


def _orbit_cases():
    """An equispaced smooth circle of 64 nodes and a ring of 129 atoms,
    each under a constant, a cos and a random tabulated weight."""
    ring, t = _atom_ring(129, radius=0.9, center=(0.4, -1.1))
    circle = make_smooth_curve(Circle(center=(-2.0, 0.5), radius=1.3), 64)
    rng = np.random.default_rng(5)
    return {name: [[(support, WeightFn.constant(2.0))],
                   [(support, WeightFn.tabulated(np.cos(angles - 0.7)))],
                   [(support, WeightFn.tabulated(
                       rng.uniform(-1.0, 1.0, len(angles))))]]
            for name, support, angles in (
                ("circle", circle, circle.param_values),
                ("ring", ring, t))}


@pytest.mark.parametrize("name", ["circle", "ring"])
def test_circle_orbits_reads_the_geometry_alone(name):
    # whatever the weight, one free orbit of C_n in the order of the
    # rotation, as the atoms are laid out
    for supports in _orbit_cases()[name]:
        points, weights, _, offsets = assemble._layout(supports)
        orbits = assemble._circle_orbits(supports, points, weights, offsets)
        assert len(orbits) == 1
        assert np.array_equal(orbits[0], np.arange(len(points)))


@pytest.mark.parametrize("make", [
    lambda: [(make_smooth_curve(Ellipse(a=1.0, b=1.4), 64),
              WeightFn.tabulated(np.linspace(-1.0, 1.0, 64)))],
    lambda: [(make_polygon_curve([[0.0, 0.0], [1.3, 0.0], [1.3, 0.7],
                                  [0.0, 0.7]], 16, 3.0),
              WeightFn.constant(1.0))],
    lambda: [(make_cantor_measure(6), WeightFn.constant(1.0))],
    lambda: _grid_and_circle(),
], ids=["ellipse", "rectangle", "cantor", "grid and circle"])
def test_circle_orbits_refuses_what_is_not_an_equispaced_circle(make):
    supports = make()
    points, weights, _, offsets = assemble._layout(supports)
    assert assemble._circle_orbits(supports, points, weights, offsets) is None


def test_a_ring_of_four_atoms_takes_its_group():
    # four atoms on a circle are one free orbit of C_4, the group the
    # circle question asks about, though two perpendicular reflections
    # keep them too: cos t, which the half turn negates, is one half-turn
    # band of order 4, whose spectrum is the dense oracle's
    ring, t = _atom_ring(4)
    supports = [(ring, WeightFn.tabulated(np.cos(t)))]
    points, weights, values, offsets = assemble._layout(supports)
    orbit, = assemble._circle_orbits(supports, points, weights, offsets)
    assert np.array_equal(orbit, np.arange(4))
    op = _assert_reduced_matches_dense(supports, reference_kernel())
    assert _kinds(op) == [(HalfTurnBand, 4)] and len(op.singles) == 0


def test_a_band_block_keeps_its_band_storage():
    # a band block takes (n, kd + 1) storage, at most n diagonals, and a
    # half-turn band (n/2, 2 k + 1), an odd width, and stands for order n;
    # every other block stays square
    assemble.BandMatrix(entries=np.zeros((8, 4)))
    with pytest.raises(InvalidArgumentError, match="at most n diagonals"):
        assemble.BandMatrix(entries=np.zeros((3, 4)))
    assert HalfTurnBand(entries=np.zeros((8, 5))).n == 16
    with pytest.raises(InvalidArgumentError, match="2 k \\+ 1 diagonals"):
        HalfTurnBand(entries=np.zeros((8, 4)))
    with pytest.raises(InvalidArgumentError, match="must be square"):
        OperatorMatrix(entries=np.zeros((8, 4)))


def test_a_wide_band_weight_keeps_the_trivial_group_bit_for_bit():
    # a random tabulated weight carries every mode up to n / 2: no band,
    # the trivial group's table, and the one block of order n solved as the
    # trivial group's dense operator is, to the last bit
    mesh = make_smooth_curve(Circle(radius=0.93), 128)
    values = np.random.default_rng(7).uniform(-1.0, 1.0, 128)
    supports = [(mesh, WeightFn.tabulated(values))]
    table = assemble._symmetry_table(supports, *assemble._layout(supports))
    assert table.shape == (1, 1, 128) and _band_modes(supports) is None
    op = assemble_mixed(supports, reference_kernel())
    assert _kinds(op) == [(OperatorMatrix, 128)]
    got = eigensolve(op)
    want = eigensolve(assemble_dense(supports, reference_kernel()))
    assert np.array_equal(got.positives, want.positives)
    assert np.array_equal(got.negatives, want.negatives)


@pytest.mark.parametrize("n, gate", [(128, "modes"), (512, "bound"),
                                     (2048, "bound")])
def test_a_weight_moved_by_1e_9_falls_back(n, gate, monkeypatch):
    # one value of cos(t - 1.234) moved by 1e-9 of max |V| moves the
    # eigenvalues by about 1e-9 of the spectral radius: at n = 128 each of
    # its modes lies above the truncation, 64 n eps of the largest; from
    # n = 512 they lie below it, and the dropped modes' Weyl bound, above
    # the tolerance unit, refuses the band.  Either way the operator takes
    # the trivial group, as before the band existed.  With the bound lifted
    # the even modes dropped leave the modes |m| = 1, the half turn's band
    supports = _half_turn_circle(n=n)
    (mesh, weight), = supports
    values = weight.table.copy()
    values[1] += 1e-9 * np.max(np.abs(values))
    moved = [(mesh, WeightFn.tabulated(values))]
    points, weights, values, offsets = assemble._layout(moved)
    table = assemble._symmetry_table(moved, points, weights, values, offsets)
    assert table.shape[:2] == (1, 1)
    orbit, = assemble._circle_orbits(moved, points, weights, offsets)
    kern = reference_kernel()
    assert assemble._banded(mesh, kern, values * weights, orbit) is None
    # with the Weyl bound lifted the modes alone decide: too many at
    # n = 128, and the modes |m| <= 1 from n = 512
    with monkeypatch.context() as patch:
        patch.setattr(assemble, "_truncation_bound", lambda *args: np.inf)
        lifted = assemble._banded(mesh, kern, values * weights, orbit)
    if gate == "modes":
        assert lifted is None
    else:
        assert [(type(b), b.entries.shape) for b in lifted.blocks] == [
            (HalfTurnBand, (n // 2, 5))]
        # the weight as it was takes the band
        exact = assemble._layout(supports)
        assert assemble._banded(mesh, kern, exact[2] * exact[1],
                                orbit) is not None
    if n <= 512:
        op = _assert_reduced_matches_dense(moved, reference_kernel())
        assert _kinds(op) == [(OperatorMatrix, n)]


def test_a_band_whose_kernel_is_not_positive_definite_falls_back(
        monkeypatch):
    # a radius-5 circle of 64 nodes, spacing 0.49: a DFT mode of the kernel
    # row is not positive, so cos(t - 1.234) takes the trivial group's fold,
    # whose factorisation keeps its refusal and its exit 2; with every mode
    # of the row made positive, the same weight is a band of b = 1
    supports = _half_turn_circle(n=64, radius=5.0)
    points, weights, values, offsets = assemble._layout(supports)
    orbit, = assemble._circle_orbits(supports, points, weights, offsets)
    kappas = []
    circulant = assemble._circulant

    def recorded(*args):
        kappa, invariants = circulant(*args)
        kappas.append(kappa)
        return kappa, invariants

    with monkeypatch.context() as patch:
        patch.setattr(assemble, "_circulant", recorded)
        assert assemble._banded(supports[0][0], reference_kernel(),
                                values * weights, orbit) is None
    assert len(kappas) == 1 and kappas[0].min() <= 0.0
    with monkeypatch.context() as patch:
        patch.setattr(assemble, "_circulant", lambda *args: (
            np.abs(kappas[0]) + kappas[0].max(), circulant(*args)[1]))
        assert _band_modes(supports) == 1
    with pytest.raises(InvalidArgumentError,
                       match="under-resolved mesh: .* node spacing 0.4909"):
        assemble_mixed(supports, reference_kernel())


def test_a_subnormal_band_limited_weight_underflows():
    # (4, 3, 1, 3, ...) 5e-324 on an 8-node circle: V w rounds to (3, 2, 1,
    # 2, ...) 5e-324, which carries the modes 0 and 2: one band, whose
    # invariants from the row read the largest entry as subnormal, as the
    # dense operator's do
    mesh = make_smooth_curve(Circle(radius=1.0), 8)
    supports = [(mesh, WeightFn.tabulated(np.tile([4, 3, 1, 3], 2)
                                          * 5e-324))]
    assert np.array_equal(supports[0][1].table * mesh.weights,
                          np.tile([3, 2, 1, 2], 2) * 5e-324)
    op = assemble_mixed(supports, reference_kernel())
    assert _kinds(op) == [(BandMatrix, 8)]
    for op in (op, assemble_dense(supports, reference_kernel())):
        with pytest.raises(InvalidArgumentError) as info:
            eigensolve(op)
        assert str(info.value) == (
            "operator entries underflow: the largest |entry| is subnormal "
            "(below 2.23e-308); scale the weight up")


@pytest.mark.parametrize("name", ["dsyevd", "dsbevd", "dpotrf", "dgbbrd",
                                  "dbdsqr"])
def test_every_lapack_routine_resolves(name):
    # each routine the solves and the fold call is found in the OpenBLAS
    # NumPy has loaded, so no solve of the benchmark runs a NumPy fallback
    source = "".join(Path(module.__file__).read_text()
                     for module in (spectra, assemble))
    assert '"%s"' % name in source
    assert spectra._lapack(name) is not None


# ---------------------------------------------------------------------------
# the release of OpenBLAS's server threads after each solve
# ---------------------------------------------------------------------------

_SHUTDOWN = "blas_thread_shutdown_"


def _task_count() -> int:
    """The threads of this process, Python's and OpenBLAS's alike."""
    return len(os.listdir("/proc/self/task"))


def _random_symmetric(n: int) -> np.ndarray:
    a = np.random.default_rng(n).standard_normal((n, n))
    return a + a.T


@pytest.mark.skipif(spectra._lapack("dsyevd") is None,
                    reason="NumPy's LAPACK exports no dsyevd")
def test_numpy_openblas_exports_the_thread_shutdown():
    # without it every solve leaves the server threads spinning against the
    # next assembly, which costs about a tenth of the benchmark's time
    assert spectra._exported(_SHUTDOWN) is not None


@pytest.mark.skipif(not Path("/proc/self/task").is_dir()
                    or spectra._exported(_SHUTDOWN) is None,
                    reason="needs /proc/self/task and OpenBLAS's "
                           "blas_thread_shutdown_")
def test_eigensolve_stops_the_blas_server_threads(monkeypatch):
    assert threading.active_count() == 1
    spectra._exported(_SHUTDOWN)()
    before, during = _task_count(), []
    true_solve = spectra._eigvalsh_upper

    def solve(m):
        vals = true_solve(m)
        during.append(_task_count())
        return vals

    monkeypatch.setattr(spectra, "_eigvalsh_upper", solve)
    eigensolve(_signed(_random_symmetric(512)))
    if during[0] == before:
        pytest.skip("NumPy's OpenBLAS runs one thread here")
    assert _task_count() == before


@pytest.mark.skipif(spectra._lapack("dsyevd") is None,
                    reason="NumPy's LAPACK exports no dsyevd")
def test_a_solve_after_the_release_matches_numpy_bit_for_bit():
    # the threads OpenBLAS starts again compute what they did before
    m = _random_symmetric(512)
    want = np.linalg.eigvalsh(m)
    for _ in range(2):
        sp = eigensolve(_signed(m.copy()))
        assert np.array_equal(np.concatenate([sp.negatives,
                                              sp.positives[::-1]]), want)


def test_no_release_while_another_python_thread_is_alive(monkeypatch):
    calls, true_exported = [], spectra._exported
    monkeypatch.setattr(spectra, "_exported", lambda symbol: (
        (lambda: calls.append(symbol)) if symbol == _SHUTDOWN
        else true_exported(symbol)))
    stop = threading.Event()
    helper = threading.Thread(target=stop.wait)
    helper.start()
    try:
        eigensolve(_signed(np.diag([3.0, -1.0])))
    finally:
        stop.set()
        helper.join(timeout=10.0)
    assert not helper.is_alive()
    assert calls == []
    eigensolve(_signed(np.diag([3.0, -1.0])))
    assert calls == [_SHUTDOWN]


def test_a_missing_thread_shutdown_changes_nothing(monkeypatch):
    true_exported = spectra._exported
    monkeypatch.setattr(spectra, "_exported", lambda symbol: (
        None if symbol == _SHUTDOWN else true_exported(symbol)))
    sp = eigensolve(_signed(np.diag([3.0, -1.0])))
    assert np.array_equal(sp.positives, [3.0])
    assert np.array_equal(sp.negatives, [-1.0])


def test_a_perturbed_band_eigenvalue_fails_the_check(monkeypatch):
    # either kind of band, its eigenvalue of largest magnitude solved wrong
    for supports, solve in ((_even_mode_circle(), "_band_eigenvalues"),
                            (_half_turn_circle(), "_half_turn_eigenvalues")):
        eigensolve(assemble_mixed(supports, reference_kernel()))
        true_band = getattr(spectra, solve)

        def last_shifted(ab, true_band=true_band):
            vals = true_band(ab)
            vals[np.argmax(np.abs(vals))] *= 1.0 + 1e-6
            return vals

        with monkeypatch.context() as patch:
            patch.setattr(spectra, solve, last_shifted)
            op = assemble_mixed(supports, reference_kernel())
            with pytest.raises(InternalError,
                               match="trace error .* Frobenius"):
                eigensolve(op)


def _assert_fallback_matches(supports, blocks, monkeypatch):
    """The spectrum of ``supports`` solved with no LAPACK routine, from
    ``blocks`` (kind, storage shape), is LAPACK's within 64 n eps of the
    spectral radius."""
    want = eigensolve(assemble_mixed(supports, reference_kernel()))
    monkeypatch.setattr(spectra, "_lapack", lambda name: None)
    op = assemble_mixed(supports, reference_kernel())
    assert [(type(b), b.entries.shape) for b in op.blocks] == blocks
    got = eigensolve(op)
    unit = spectra._tolerance_unit(op.n) * want.positives[0]
    assert len(got.positives) == len(want.positives)
    assert len(got.negatives) == len(want.negatives)
    assert np.max(np.abs(got.positives - want.positives)) <= unit
    assert np.max(np.abs(got.negatives - want.negatives)) <= unit


def test_the_band_fallback_gives_the_same_spectrum(monkeypatch):
    # NumPy's eigvalsh on the band expanded to its n x n matrix
    supports = [(make_smooth_curve(Circle(radius=0.8), 256),
                 WeightFn.tabulated(np.cos(5.0 * np.arange(256) * np.pi / 128)
                                    - 0.3))]
    _assert_fallback_matches(supports, [(BandMatrix, (256, 12))], monkeypatch)


def test_the_half_turn_fallback_gives_the_same_spectrum(monkeypatch):
    # NumPy's svd on B expanded to its n/2 x n/2 matrix
    _assert_fallback_matches(_half_turn_circle(256),
                             [(HalfTurnBand, (128, 5))], monkeypatch)


def test_a_second_solve_of_a_band_is_refused():
    op = assemble_mixed(_half_turn_circle(), reference_kernel())
    eigensolve(op)
    with pytest.raises(InvalidArgumentError, match="already eigensolved"):
        eigensolve(op)
    with pytest.raises(InvalidArgumentError, match="already eigensolved"):
        op.blocks[0].consume()


# ---------------------------------------------------------------------------
# circles that share no symmetry: one coupled block of low Fourier modes
# ---------------------------------------------------------------------------

def _two_circles(gap: float, n1: int = 128, n2: int = 128,
                 angle: float = 1.234, weights=(1.0, 1.0), r2: float = 0.7):
    """A unit circle at the origin and a circle of radius ``r2`` at
    ``gap`` from it in the direction ``angle``, of constant weights."""
    d = 1.0 + r2 + gap
    return [(make_smooth_curve(Circle(radius=1.0), n1),
             WeightFn.constant(weights[0])),
            (make_smooth_curve(Circle(center=(d * np.cos(angle),
                                              d * np.sin(angle)),
                                      radius=r2), n2),
             WeightFn.constant(weights[1]))]


@st.composite
def _separated_circles(draw):
    """Two or three equispaced circles of 8 to 128 nodes at random radii,
    each after the first at a random angle and gap from the first: tangent,
    nearly touching, crossing (down to half the smaller radius) or far
    apart, with constant weights >= 0, any of them 0."""
    radii = [draw(st.floats(0.2, 2.0)) for _ in range(draw(st.integers(2, 3)))]
    supports = [(make_smooth_curve(Circle(radius=radii[0]),
                                   2 * draw(st.integers(4, 64))),)]
    for r in radii[1:]:
        gap = draw(st.one_of(st.just(0.0), st.floats(1e-6, 1e-2),
                             st.floats(-0.5, 8.0))) * min(radii[0], r)
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        d = radii[0] + r + gap
        supports.append((make_smooth_curve(
            Circle(center=(d * np.cos(angle), d * np.sin(angle)), radius=r),
            2 * draw(st.integers(4, 64))),))
    value = st.one_of(st.just(0.0), st.floats(0.0, 1e3))
    return [(mesh, WeightFn.constant(draw(value))) for mesh, in supports]


def _assert_invariants_match_the_oracle(op, supports, kern):
    """The operator's trace and squared Frobenius norm are those of the
    dense oracle within the solve's tolerance unit, compared in the
    oracle's units."""
    oracle = assemble_mixed_pairs(supports, kern)
    trace, frobenius_sq, exponent = upper_invariants(oracle.entries)
    got = (np.ldexp(op.invariants[0], op.invariants[2] - exponent),
           np.ldexp(op.invariants[1], 2 * (op.invariants[2] - exponent)))
    vals = np.ldexp(np.linalg.eigvalsh(oracle.entries, UPLO="U"), -exponent)
    unit = spectra._tolerance_unit(op.n)
    assert abs(got[0] - trace) <= unit * np.max(np.abs(vals))
    assert abs(got[1] - frobenius_sq) <= unit * frobenius_sq


@settings(max_examples=50, deadline=None)
@given(supports=_separated_circles())
def test_circles_without_a_common_symmetry_are_one_coupled_block(supports):
    # where the union has no symmetry, the kept low modes are one dense
    # block and every other mode a single; the dropped coupling is within
    # the Weyl bound, and the spectrum, or the kind of refusal, is the
    # dense oracle's within 64 n eps of the spectral radius
    kern = reference_kernel()
    table = assemble._symmetry_table(supports, *assemble._layout(supports))
    op = _assert_reduced_matches_dense(supports, kern)
    if op is None or table.shape[:2] != (1, 1):
        return
    n = op.n
    assert all(kind is OperatorMatrix for kind, _ in _kinds(op))
    assert len(op.blocks) <= 1
    assert sum(b.n for b in op.blocks) + len(op.singles) == n
    assert op.weyl_bound <= np.ldexp(
        assemble._truncation_bound(op.invariants, n), op.invariants[2])
    if op.invariants[2] >= spectra._MIN_EXPONENT:
        _assert_invariants_match_the_oracle(op, supports, kern)


def test_the_benchmark_layout_keeps_few_modes():
    # the two-surfaces split of n = 768 at a random angle and a gap of 3:
    # a coupled block of a few dozen modes, its dropped coupling within the
    # bound, and the dense oracle's spectrum
    first = make_smooth_curve(Circle(radius=0.93), 256)
    second = make_smooth_curve(Circle(center=(5.95 * np.cos(4.1),
                                              5.95 * np.sin(4.1)),
                                      radius=2.02), 512)
    one = WeightFn.constant(1.0)
    op = _assert_reduced_matches_dense([(first, one), (second, one)],
                                       reference_kernel())
    assert [b.n for b in op.blocks] < [768 // 8]
    assert len(op.singles) == 768 - op.blocks[0].n
    assert 0.0 < op.weyl_bound <= np.ldexp(
        assemble._truncation_bound(op.invariants, 768), op.invariants[2])


def test_nearly_touching_circles_keep_every_mode():
    # at a gap of 0.01 no tail bound of the kernel's table closes: the
    # circles take the trivial group's one block of order n, nothing is
    # dropped, and its spectrum is the dense oracle's
    supports = _two_circles(0.01)
    op = _assert_reduced_matches_dense(supports, reference_kernel())
    assert [b.n for b in op.blocks] == [256] and len(op.singles) == 0
    assert op.weyl_bound == 0.0


def _coupled_outcomes(monkeypatch) -> list:
    """What each ``assemble._coupled`` call returns, an operator or None
    where it leaves the circles to the group path, as the calls come."""
    outcomes = []
    true_coupled = assemble._coupled

    def recorded(*args):
        outcomes.append(true_coupled(*args))
        return outcomes[-1]

    monkeypatch.setattr(assemble, "_coupled", recorded)
    return outcomes


@pytest.mark.parametrize("center, weights", [
    ((2.0, 0.0), (-1.0, -5.8e-77)), ((1.5, 0.0), (1.0, 1.0)),
    ((1.5, 0.0), (-1.0, -2.0))],
    ids=["tangent, disparate negative", "crossing", "crossing, negative"])
def test_circles_with_no_table_take_the_group_path(monkeypatch, center,
                                                   weights):
    # no tail bound closes for tangent or crossing circles, so the coupled
    # path declines them before any block is built, and they take the
    # group path and its fold.  Two tangent 8-node unit circles of weights
    # -1 and -5.8e-77 then get the dense oracle's refusal: the coupled path
    # dropped the second circle's coupling below the Weyl bound and gave
    # them a spectrum, though their kernel matrix is indefinite.  Circles
    # of radii 1 and 2 crossing at center_2 (1.5, 0) get its spectrum
    outcomes = _coupled_outcomes(monkeypatch)
    r2 = 1.0 if center == (2.0, 0.0) else 2.0
    n1, n2 = (8, 8) if r2 == 1.0 else (32, 64)
    supports = _two_circles(center[0] - 1.0 - r2, n1=n1, n2=n2, angle=0.0,
                            weights=weights, r2=r2)
    op = _assert_reduced_matches_dense(supports, reference_kernel())
    assert outcomes == [None]
    assert (op is None) == (weights[0] < 0.0 and r2 == 1.0)


def test_circles_whose_kernel_underflows_are_all_singles():
    # centers 800 apart: K_0 between the circles underflows, with its
    # warning, the table is zero, and every mode is a single
    supports = _two_circles(797.0, n1=32, n2=64, r2=2.0)
    with pytest.warns(RuntimeWarning, match="K_n underflows"):
        op = _assert_reduced_matches_dense(supports, reference_kernel())
    assert op.blocks == () and len(op.singles) == 96
    assert op.weyl_bound == 0.0


# the ends of the benchmark's two-surfaces geometry, radii and gap, and the
# experiment's default: radii 1 and 2 with centers 5 apart
@pytest.mark.parametrize("r1, r2, gap", [
    (r1, r2, gap) for r1 in (0.85, 1.05) for r2 in (1.95, 2.05)
    for gap in (2.5, 3.5)] + [(1.0, 2.0, 2.0)])
def test_the_table_gives_the_direct_cross_block(r1, r2, gap):
    # the cross block in the circles' real Fourier bases, written from the
    # kernel's table, against the real FFT of the kernel values evaluated
    # in full, at the two-surfaces split of the smoke size, n = 768: every
    # entry within the table's error over the block and the tolerance unit
    kern = reference_kernel()
    supports = _two_circles(gap, n1=256, n2=512, angle=4.1, r2=r2)
    supports[0] = (make_smooth_curve(Circle(radius=r1), 256),
                   supports[0][1])
    points, weights, _, offsets = assemble._layout(supports)
    rows, cols = (points[orbit] for orbit in assemble._circle_orbits(
        supports, points, weights, offsets))
    block, error, largest = assemble._cross_modes(kern, rows, cols, 1e-15,
                                                  768)
    direct = kern.profile(assemble._pairwise_dist(rows, cols))
    want = oracles.real_fourier(oracles.real_fourier(direct, 1), 0)
    assert error <= 1e-15 and largest <= np.max(direct)
    got = np.zeros_like(want)
    got[:block.shape[0], :block.shape[1]] = block
    assert block.shape[0] < 256 // 2 and block.shape[1] < 512 // 4
    assert np.max(np.abs(got - want)) <= (
        np.sqrt(256 * 512) * error
        + spectra._tolerance_unit(768) * np.max(np.abs(want)))


def test_a_table_that_misses_the_kernel_is_an_internal_error(monkeypatch):
    # the one row and one column evaluated directly catch a table that is
    # off by 1e-6 of itself
    true_table = type(reference_kernel()).separated_circles

    def off(self, *args):
        table, error = true_table(self, *args)
        return table * (1.0 + 1e-6), error

    monkeypatch.setattr(type(reference_kernel()), "separated_circles", off)
    with pytest.raises(InternalError, match="misses the kernel"):
        assemble_mixed(_two_circles(2.0), reference_kernel())


def test_a_circle_of_zero_weight_is_all_singles():
    # no coupling at all: every mode a single, the zero ones included
    supports = _two_circles(2.0, weights=(0.0, 1.5))
    op = _assert_reduced_matches_dense(supports, reference_kernel())
    assert op.blocks == () and len(op.singles) == 256
    assert op.weyl_bound == 0.0


def test_subnormal_weights_on_circles_underflow():
    # V w subnormal on both circles: the largest entry is read in units of
    # powers of two, and the operator is refused by name
    supports = _two_circles(2.0, weights=(3e-320, 1e-321))
    _, weights, values, _ = assemble._layout(supports)
    assert np.all(values * weights > 0.0)
    op = assemble_mixed(supports, reference_kernel())
    assert op.weyl_bound <= np.ldexp(
        assemble._truncation_bound(op.invariants, 256), op.invariants[2])
    with pytest.raises(InvalidArgumentError,
                       match="operator entries underflow"):
        eigensolve(op)
    _assert_reduced_matches_dense(supports, reference_kernel())


@pytest.mark.parametrize("gap, n, weights", [
    (2.0, 128, (1.0, 2.0)), (2.0, 128, (-1.0, -2.0)),
    (2.0, 128, (-1.0, 0.0)), (0.0, 8, (1.0, 2.0)), (0.0, 8, (-1.0, -2.0)),
    (0.0, 8, (0.0, -1.0)),
], ids=["apart", "apart, negative", "apart, negative and zero", "tangent",
        "tangent, negative", "tangent, zero and negative"])
def test_two_circles_of_constant_weights_match_the_dense_oracle(
        gap, n, weights):
    # constant weights all >= 0 or all < 0 on two circles on the x axis,
    # which the reflection y -> -y keeps apart: one coupled block and a
    # single per other mode, the operator of |V| negated where V < 0, whose
    # spectrum and invariants are the dense oracle's.  A weight 0 beside a
    # negative one takes the fold of the reflection's two blocks, which
    # factors the kernel rows of the circle of weight 0 too.  Tangent
    # circles of 8 nodes nearly share a node, and the coupling makes the
    # kernel matrix indefinite though each circle's Fourier eigenvalues
    # are positive: V < 0 keeps the fold's refusal of the dense oracle,
    # and V >= 0 the semidefinite check's
    kern = reference_kernel()
    supports = _two_circles(gap, n1=n, n2=n, angle=0.0, weights=weights,
                            r2=1.0)
    op = _assert_reduced_matches_dense(supports, kern)
    if gap == 0.0:
        with pytest.raises(InvalidArgumentError, match="under-resolved"):
            eigensolve(assemble_mixed(supports, kern))
        return
    table = assemble._symmetry_table(supports, *assemble._layout(supports))
    assert table.shape[:2] == (1, 2)
    assert op.signed_flag == (min(weights) < 0.0)
    if 0.0 in weights:
        assert [kind for kind, _ in _kinds(op)] == [OperatorMatrix] * 2
        assert sum(b.n for b in op.blocks) == op.n
        return
    assert _kinds(op) == [(OperatorMatrix, op.blocks[0].n)]
    assert op.blocks[0].n + len(op.singles) == op.n
    _assert_invariants_match_the_oracle(op, supports, kern)


@pytest.mark.parametrize("case", ["signed", "non-constant", "on the axis",
                                  "one polygon"])
def test_other_unions_keep_their_path_bit_for_bit(case, monkeypatch):
    # a weight of both signs, a weight that varies on a circle and a
    # polygon beside a circle do not take the coupled block: their
    # eigenvalues are those of the path without it, to the last bit.  The
    # default two-surfaces layout on the x axis, which the reflection
    # y -> -y keeps, takes the coupled block all the same: one block of
    # its low modes and a single per other mode, the dense oracle's
    # spectrum
    if case == "signed":
        supports = _two_circles(2.0, weights=(1.0, -0.5))
    elif case == "non-constant":
        supports = _two_circles(2.0)
        t = supports[1][0].param_values
        supports[1] = (supports[1][0], WeightFn.tabulated(1.5 + np.cos(t)))
    elif case == "on the axis":
        supports = _two_circles(2.0, n1=96, n2=160, angle=0.0, r2=2.0)
    else:
        supports = _two_circles(2.0)
        supports[0] = (make_polygon_curve([[0.0, 0.0], [1.3, 0.0], [1.3, 0.7],
                                           [0.0, 0.7]], 24, 3.0),
                       WeightFn.constant(1.0))
    kern = reference_kernel()
    if case == "on the axis":
        op = _assert_reduced_matches_dense(supports, kern)
        assert _kinds(op) == [(OperatorMatrix, op.blocks[0].n)]
        assert 0 < len(op.singles) == op.n - op.blocks[0].n
        return
    op = assemble_mixed(supports, kern)
    assert op.weyl_bound == 0.0
    got = eigensolve(op)
    monkeypatch.setattr(assemble, "_circle_orbits", lambda *args: None)
    want = eigensolve(assemble_mixed(supports, kern))
    assert np.array_equal(got.positives, want.positives)
    assert np.array_equal(got.negatives, want.negatives)


def test_the_real_fourier_basis_diagonalises_a_circulant():
    # C is orthogonal, and C K C^T is diagonal for a symmetric circulant K,
    # cos and sin of each mode sharing its eigenvalue, on even and odd n
    for n in (7, 8):
        basis = oracles.real_fourier(np.eye(n), 0)
        assert np.allclose(basis @ basis.T, np.eye(n), atol=1e-14)
        row = np.random.default_rng(n).uniform(size=n)
        row = row + np.roll(row[::-1], 1)
        circulant = np.array([np.roll(row, k) for k in range(n)])
        diagonal = oracles.real_fourier(
            oracles.real_fourier(circulant, 1), 0)
        kappa = np.fft.rfft(row).real
        assert np.allclose(diagonal, np.diag(kappa[(np.arange(n) + 1) // 2]),
                           atol=1e-13)


@pytest.mark.parametrize("n, m", [(7, 2), (8, 3), (7, 9), (8, 9), (8, 4)])
def test_the_real_basis_of_fourier_coefficients_is_the_real_fft(n, m):
    # x_a = sum_f c_f e^(2 pi i f a / n), |f| <= m, real: its real basis
    # from the coefficients, their modes aliased mod n where 2m + 1 > n,
    # is the real FFT of x at the first min(n, 2m + 1) positions, and the
    # synthesis from those positions gives x back
    rng = np.random.default_rng(n + m)
    c = rng.normal(size=2 * m + 1) + 1j * rng.normal(size=2 * m + 1)
    c = c + c[::-1].conj()
    f = np.arange(-m, m + 1)
    x = (np.exp(2j * np.pi * np.outer(np.arange(n), f) / n) @ c).real
    want = oracles.real_fourier(x, 0)
    got = assemble._real_basis(c, n, 0)
    assert len(got) == min(n, 2 * m + 1)
    assert np.allclose(got, want[:len(got)], atol=1e-12)
    assert np.allclose(want[len(got):], 0.0, atol=1e-12)
    assert np.allclose(assemble._real_synthesis(got.real, n), x, atol=1e-12)


# ---------------------------------------------------------------------------
# the helper that compares a reduced solve with the dense oracle
# ---------------------------------------------------------------------------

def test_an_operator_the_oracle_flushes_to_zero_must_underflow():
    # a 2 x 2 square of 8 nodes at the weight 5e-324: every product s_i
    # K_ij s_j of the oracle is 0, and the block solve refuses the
    # operator as underflowing
    square = make_polygon_curve([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0],
                                 [0.0, 2.0]], 2, 1.0)
    supports = [(square, WeightFn.constant(5e-324))]
    assert not np.any(assemble_mixed_pairs(supports,
                                           reference_kernel()).entries)
    _assert_reduced_matches_dense(supports, reference_kernel())


def test_a_spectrum_against_a_refusal_fails_the_comparison(monkeypatch):
    # one side raising where the other returns a spectrum is an assertion
    # failure naming both, not a comparison of a tuple with an array
    def refused(op):
        raise InvalidArgumentError("under-resolved mesh: made up")

    monkeypatch.setattr(sys.modules[__name__], "eigensolve", refused)
    with pytest.raises(AssertionError, match="the block solve gave .*"
                                             "under-resolved mesh.*the "
                                             "oracle 'a spectrum'"):
        _assert_reduced_matches_dense(_two_circles(2.0, 16, 16),
                                      reference_kernel())


# ---------------------------------------------------------------------------
# the upper orbit triangle
# ---------------------------------------------------------------------------

def _grid_and_circle(delta: float = 0.15, n_curve: int = 64):
    """The mixed a.c. + singular layout: a cell grid on the unit disk and a
    circle inside it, symmetric under the diagonal reflection x <-> y
    alone, which fixes the cells on the diagonal and two nodes."""
    mesh = make_smooth_curve(Circle(radius=0.5), n_curve)
    grid = make_cell_grid((0.0, 0.0), 1.0, delta, exclude_meshes=[mesh])
    return [(grid, WeightFn.constant(1.25)), (mesh, WeightFn.constant(1.0))]


def _rectangle():
    mesh = make_polygon_curve([[0.0, 0.0], [1.3, 0.0], [1.3, 0.7],
                               [0.0, 0.7]], 48, 3.0)
    return [(mesh, WeightFn.constant(1.0))]


def _circle(weight, n: int = 256):
    return [(make_smooth_curve(Circle(radius=1.0), n), weight)]


def _circles_off_the_axes():
    """Two circles of different sizes on a line at an angle to the axes:
    no symmetry, the trivial group."""
    return [(make_smooth_curve(Circle(radius=1.0), 96),
             WeightFn.constant(1.0)),
            (make_smooth_curve(Circle(center=(2.5, 1.7), radius=0.6), 64),
             WeightFn.constant(2.0))]


_ORBIT_SUPPORTS = {
    "rectangle": (_rectangle, (2, 2)),
    "cos t circle": (lambda: _circle(WeightFn.angular()), (1, 2)),
    "half-turn circle": (lambda: _half_turn_circle(n=256), (1, 1)),
    "cantor": (lambda: [(make_cantor_measure(8), WeightFn.constant(0.7))],
               (1, 2)),
    "grid and circle": (_grid_and_circle, (1, 2)),
    "constant circle": (lambda: _circle(WeightFn.constant(1.0)), (2, 2)),
    "two circles off the axes": (_circles_off_the_axes, (1, 1)),
}


def _orbit_inputs(name):
    """The supports of ``_ORBIT_SUPPORTS[name]`` and the arguments of
    ``assemble._orbit_rows`` after ``kernel``."""
    make, group = _ORBIT_SUPPORTS[name]
    supports = make()
    points, weights, values, offsets = assemble._layout(supports)
    table = assemble._symmetry_table(supports, points, weights, values,
                                     offsets)
    assert table.shape[:2] == group
    return supports, (points, offsets, table, values * weights)


@pytest.mark.parametrize("name", list(_ORBIT_SUPPORTS))
def test_the_orbit_rows_evaluate_the_upper_orbit_triangle_once(name,
                                                               monkeypatch):
    # a block of rows [o0, o1) is evaluated against the orbits p >= o0
    # alone, each column atom once per group element: about n^2/(2|G|)
    # kernel entries, and the part of its leading square below the orbit
    # diagonal; small blocks make the leading squares a small share.  A
    # grid's rows gather their entries from its table of distinct offsets,
    # whose kernel calls are not per pair: such a block counts the entries
    # it returns.  A polygon's block takes the log antiderivative once per
    # row node and distinct end of the column panels, and once per column
    # node and distinct end of the row panels: one end per panel, and one
    # more where a run of them starts: at a corner, at the middle of a
    # side, where its second frame starts, or after a gap
    supports, args = _orbit_inputs(name)
    table = args[2]
    order, r = table.shape[0] * table.shape[1], table.shape[2]
    monkeypatch.setattr(assemble, "_WORKERS", 1)
    monkeypatch.setattr(assemble, "_BLOCK_BYTES", 1 << 13)
    rows, evaluated, ends = [], [], []
    true_rows = assemble._support_rows
    true_ends = assemble._at_ends

    def distinct_ends(panel_set):
        # the rectangle's 48 panels per side share their ends along each
        # half of a side
        p = np.unique(panel_set)
        return len(p) + np.count_nonzero((p % 24 == 0) | ~np.isin(p - 1, p))

    def recorded_rows(support, kern):
        before = kern.entries
        block = true_rows(support, kern)
        kern.entries = before

        def counted(block_rows, cols):
            rows.append(len(block_rows))
            if name == "rectangle":
                ends.append(len(block_rows) * distinct_ends(cols)
                            + len(cols) * distinct_ends(block_rows))
            before = kern.entries
            values = block(block_rows, cols)
            if kern.entries == before:
                kern.entries += values.size
            return values

        return counted

    def counted_ends(points, at, chains):
        evaluated.append(len(points) * len(at))
        return true_ends(points, at, chains)

    monkeypatch.setattr(assemble, "_support_rows", recorded_rows)
    monkeypatch.setattr(assemble, "_at_ends", counted_ends)
    kern = CountingKernel(reference_kernel())
    assemble._orbit_rows(supports, kern, *args)
    rows = np.array(rows)
    # exactly the orbit pairs p >= o and the rest of the leading squares
    assert kern.entries == order * (r * (r + 1) + np.sum(rows * (rows - 1))
                                    ) // 2
    # |G| r columns of a full row, n of them where no symmetry fixes an atom
    columns = order * r
    n = len(args[0])
    assert (columns > n) == (name in ("cos t circle", "constant circle",
                                      "grid and circle"))
    assert kern.entries <= columns ** 2 / (2 * order) + order * np.sum(
        rows ** 2)
    assert sum(evaluated) == sum(ends)
    # about half the per-panel form's four, both ends of the panel for both
    # halves of (K + K^T) / 2, per entry
    if name == "rectangle":
        assert 2 * kern.entries < sum(evaluated) < 0.55 * 4 * kern.entries


@pytest.mark.parametrize("name", list(_ORBIT_SUPPORTS))
def test_the_orbit_row_invariants_are_those_of_the_dense_operator(name):
    # the trace and the squared Frobenius norm from the upper orbit
    # triangle, before the transform, against the dense operator's: the
    # scaled kernel matrix, in the same unit, or for a signed weight the
    # fold, whose largest entry is not the kernel's
    supports, args = _orbit_inputs(name)
    _, (trace, frobenius_sq, unit) = assemble._orbit_rows(
        supports, reference_kernel(), *args)
    dense = assemble_mixed_pairs(supports, reference_kernel()).entries
    want = upper_invariants(dense)
    if not np.any(assemble._layout(supports)[2] < 0.0):
        assert unit == want[2]
    trace, frobenius_sq = (np.ldexp(trace, unit - want[2]),
                           np.ldexp(frobenius_sq, 2 * (unit - want[2])))
    n = len(dense)
    eps = np.finfo(float).eps
    diagonal = np.ldexp(np.diagonal(dense), -want[2])
    assert abs(trace - want[0]) <= 2 * n * eps * np.sum(np.abs(diagonal))
    assert frobenius_sq == pytest.approx(want[1], rel=4 * n * eps)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_counting_empty_and_simple():
    empty = Spectrum.from_eigenvalues([])
    assert counting(empty, 1.0, "+") == 0
    sp = Spectrum.from_eigenvalues([0.5, -0.3])
    assert counting(sp, 0.2, "-") == 1
    assert counting(sp, 0.2, "+") == 1
    assert counting(sp, 0.5, "+") == 0  # strict inequality


def test_counting_circle_at_point_two(circle_spectrum_256):
    # modes 0.533, 0.340 x2, 0.2206 x2 exceed 0.2; mode three is 0.157
    assert counting(circle_spectrum_256, 0.2, "+") == 5


def test_counting_eigenvalue_duality(circle_spectrum_256):
    pos = circle_spectrum_256.positives
    eps = 1e-12
    for k in (1, 3, 10, 25):
        lam = pos[k - 1]
        assert counting(circle_spectrum_256, lam - eps, "+") >= k
        assert counting(circle_spectrum_256, lam + eps, "+") <= k


def test_counting_rejects_nonpositive_lambda(circle_spectrum_256):
    with pytest.raises(InvalidArgumentError):
        counting(circle_spectrum_256, 0.0)
    with pytest.raises(InvalidArgumentError,
                       match="lambda must be positive, got nan"):
        counting(circle_spectrum_256, float("nan"))


# ---------------------------------------------------------------------------
# coefficient fits
# ---------------------------------------------------------------------------

def test_fit_exact_harmonic_sequence():
    sp = Spectrum.from_eigenvalues([1.0 / k for k in range(1, 101)])
    fit = weyl_fit(sp, (20, 60))
    assert fit.c_plus == pytest.approx(1.0, rel=1e-14)
    assert fit.dispersion == pytest.approx(0.0, abs=1e-12)
    assert fit.c_minus is None


def test_fit_with_second_order_term():
    sp = Spectrum.from_eigenvalues([2.0 / k + 5.0 / k ** 2
                                    for k in range(1, 101)])
    fit = weyl_fit(sp, (20, 60))
    assert fit.c_plus == pytest.approx(2.0, abs=0.15)


def test_fit_circle_coefficient(circle_spectrum_512):
    fit = weyl_fit(circle_spectrum_512, (20, 60))
    assert 0.95 <= fit.c_plus <= 1.05
    assert fit.c_minus is None


def test_fit_window_validation(circle_spectrum_256):
    with pytest.raises(InvalidArgumentError):
        weyl_fit(circle_spectrum_256, (20, 2000))
    with pytest.raises(InvalidArgumentError):
        weyl_fit(circle_spectrum_256, (5, 5))


def test_fit_insufficient_data():
    sp = Spectrum.from_eigenvalues([1.0, 0.5, 0.25])
    with pytest.raises(InsufficientDataError):
        weyl_fit(sp, (1, 3))


# ---------------------------------------------------------------------------
# localization additivity (separated supports)
# ---------------------------------------------------------------------------

def test_two_circle_counting_additivity(two_circle_spectra):
    combined, sp1, sp2 = two_circle_spectra
    pos = combined.positives
    hi = min(combined.trusted_k_max, len(pos))
    for lam in np.geomspace(pos[hi - 1], pos[9], 12):
        for sign in ("+",):
            n_comb = counting(combined, float(lam), sign)
            n_split = (counting(sp1, float(lam), sign)
                       + counting(sp2, float(lam), sign))
            assert abs(n_comb - n_split) <= max(2, 0.1 * n_comb)


# ---------------------------------------------------------------------------
# lower-order decay
# ---------------------------------------------------------------------------

def test_lower_order_kernel_spectrum_decays_faster():
    mesh = make_smooth_curve(Circle(radius=1.0), 256)
    op = assemble_curve_operator(mesh, WeightFn.constant(1.0),
                                 lower_order_kernel())
    sp = eigensolve(op)
    seq = np.arange(1, 41) * sp.positives[:40]
    assert seq[39] <= 0.5 * seq[9]
    # monotone trend over the decade
    assert np.all(seq[9:40:10][1:] < seq[9:40:10][:-1])


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_spectrum_csv_export(tmp_path, circle_spectrum_256):
    path = tmp_path / "spec.csv"
    spectra.write_spectrum_csv(circle_spectrum_256, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "k,lambda_k,k_lambda_k"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.all(np.diff(vals) <= 0.0)  # positives-only spectrum, sorted


def test_counting_csv_export(tmp_path, circle_spectrum_256):
    path = tmp_path / "count.csv"
    grid = np.geomspace(0.01, 0.5, 20)
    spectra.write_counting_csv(circle_spectrum_256, grid, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "lambda,n_plus,n_minus,lambda_times_n"
    n_plus = np.array([int(line.split(",")[1]) for line in lines[1:]])
    assert np.all(np.diff(n_plus) <= 0)  # nonincreasing in lambda


# ---------------------------------------------------------------------------
# additivity of the counting coefficient over components
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(r1=st.floats(min_value=0.25, max_value=2.0),
       r2=st.floats(min_value=0.25, max_value=2.0),
       gap=st.floats(min_value=0.5, max_value=4.0))
def test_coefficient_is_additive_over_separated_circles(r1, r2, gap):
    # the two-surfaces layout at n = 768: a third of the nodes on the first
    # circle, the rest on the second
    kern = reference_kernel()
    one = WeightFn.constant(1.0)
    first = make_smooth_curve(Circle(radius=r1), 256)
    second = make_smooth_curve(Circle(center=(r1 + gap + r2, 0.0),
                                      radius=r2), 512)
    fit = weyl_fit(eigensolve(assemble_mixed([(first, one), (second, one)],
                                             kern)), (20, 60))
    parts = (asymptotics.coefficient_surface(first, one).c_plus
             + asymptotics.coefficient_surface(second, one).c_plus)
    assert parts == pytest.approx(r1 + r2, rel=1e-12)
    assert abs(fit.c_plus - parts) <= 0.10 * parts
