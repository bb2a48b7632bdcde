import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critspec import spectra
from critspec.assemble import (OperatorMatrix, WeightFn,
                               assemble_curve_operator,
                               assemble_measure_operator, assemble_mixed,
                               make_cell_grid)
from critspec.errors import (InsufficientDataError, InternalError,
                             InvalidArgumentError)
from critspec.geometry import (Circle, Ellipse, make_cantor_measure,
                               make_polygon_curve, make_smooth_curve)
from critspec.kernels import lower_order_kernel, reference_kernel
from critspec.spectra import Spectrum, counting, eigensolve, weyl_fit

from conftest import UNIT_SQUARE, circle_exact_eigenvalues


def _signed(m) -> OperatorMatrix:
    """An operator matrix that may have eigenvalues of either sign."""
    return OperatorMatrix(entries=m, signed_flag=True)


# ---------------------------------------------------------------------------
# eigensolve
# ---------------------------------------------------------------------------

def test_diagonal_matrix():
    sp = eigensolve(_signed(np.diag([3.0, -1.0])))
    assert np.array_equal(sp.positives, [3.0])
    assert np.array_equal(sp.negatives, [-1.0])


def test_zero_matrix_empty_spectrum():
    sp = eigensolve(OperatorMatrix(entries=np.zeros((4, 4))))
    assert len(sp.positives) == 0 and len(sp.negatives) == 0


def test_numerical_zeros_dropped():
    sp = eigensolve(_signed(np.diag([1.0, 1e-16, -1e-16])))
    assert len(sp.positives) == 1 and len(sp.negatives) == 0


def test_asymmetric_matrix_rejected():
    # an asymmetric matrix never becomes an operator, the only input of
    # eigensolve
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(InvalidArgumentError, match="exactly symmetric"):
        OperatorMatrix(entries=m, signed_flag=True)


def test_circle_eigenvalues_multiplicity_two(circle_spectrum_256):
    exact = circle_exact_eigenvalues(1.0, 20)
    got = circle_spectrum_256.positives[:20]
    assert np.max(np.abs(got - exact) / exact) <= 1e-8


def test_orthogonal_similarity_invariance():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(40, 40))
    m = 0.5 * (m + m.T)
    q, _ = np.linalg.qr(rng.normal(size=(40, 40)))
    sp_a = eigensolve(_signed(m))
    sp_b = eigensolve(_signed(0.5 * ((q.T @ m @ q) + (q.T @ m @ q).T)))
    assert np.max(np.abs(sp_a.positives - sp_b.positives)) < 1e-9
    assert np.max(np.abs(sp_a.negatives - sp_b.negatives)) < 1e-9


# ---------------------------------------------------------------------------
# the invariant check on the whole spectrum
# ---------------------------------------------------------------------------

def _operators(n: int) -> dict:
    """Unsigned curve, polygon, Cantor and mixed operators and a signed
    circle, each with about n unknowns."""
    kern = reference_kernel()
    circle = make_smooth_curve(Circle(radius=1.0), n)
    small = make_smooth_curve(Circle(center=(0.5, 0.5), radius=0.25), 64)
    grid = make_cell_grid(("box", (-0.5, -0.5), (1.5, 1.5)),
                          2.0 / np.sqrt(n), exclude_meshes=[small])
    one = WeightFn.constant(1.0)
    return {
        "circle": assemble_curve_operator(circle, one, kern),
        "signed": assemble_curve_operator(circle, WeightFn.angular(), kern),
        "polygon": assemble_curve_operator(
            make_polygon_curve(UNIT_SQUARE, n // 4, 3.0), one, kern),
        "cantor": assemble_measure_operator(
            make_cantor_measure(int(np.log2(n))), one, kern),
        "mixed": assemble_mixed(grid, [(small, one)], kern),
    }


@pytest.fixture(scope="module")
def operators_512():
    return _operators(512)


@pytest.mark.parametrize("n", [64, 512])
def test_clean_solves_pass_the_invariant_check_with_margin(n, operators_512):
    ops = operators_512 if n == 512 else _operators(n)
    for name, op in ops.items():
        assert op.n >= n // 2, name
        errors = spectra._invariant_errors(op.entries,
                                           np.linalg.eigvalsh(op.entries))
        # largest observed: 0.0035 of the tolerance
        assert max(errors) <= 0.05, (name, errors)


@pytest.fixture(scope="module")
def spectra_512(operators_512):
    return {name: np.linalg.eigvalsh(op.entries)
            for name, op in operators_512.items()}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["circle", "signed", "polygon", "cantor",
                             "mixed"]),
       position=st.floats(min_value=0.0, max_value=1.0),
       sign=st.sampled_from([-1.0, 1.0]))
def test_one_shifted_eigenvalue_fails_the_check(operators_512, spectra_512,
                                                name, position, sign):
    op, vals = operators_512[name], spectra_512[name]
    shifted = vals.copy()
    shifted[int(position * (len(vals) - 1))] += (
        sign * 1e-6 * np.max(np.abs(vals)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", lambda m: vals)
        eigensolve(op)
        patch.setattr(np.linalg, "eigvalsh", lambda m: shifted)
        with pytest.raises(InternalError, match="trace error .* Frobenius"):
            eigensolve(op)


def test_invariant_check_rejects_nan_eigenvalues(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: np.array([1.0, np.nan]))
    with pytest.raises(InternalError):
        eigensolve(OperatorMatrix(entries=np.eye(2)))


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
