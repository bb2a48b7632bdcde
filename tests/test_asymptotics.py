import numpy as np
import pytest

from critspec.assemble import WeightFn
from critspec.asymptotics import (coefficient_ac, coefficient_surface,
                                  coefficient_total, r_symbol,
                                  r_symbol_closed_form, r_symbol_quadrature,
                                  sphere_surface)
from critspec.errors import InvalidArgumentError
from critspec.geometry import Circle, make_smooth_curve, transform

from oracles import r_symbol_quadrature_quad


# ---------------------------------------------------------------------------
# normal-fiber symbol average
# ---------------------------------------------------------------------------

def test_r_symbol_reference_values():
    # N=2, d=1: integral of (xi^2 + eta^2)^{-1} over the line is pi/|xi|
    assert r_symbol(2, 1) == pytest.approx(0.5, rel=1e-14)
    assert r_symbol(4, 2) == pytest.approx(1.0 / (4.0 * np.pi), rel=1e-14)
    assert r_symbol(4, 1) == pytest.approx(1.0 / (8.0 * np.pi), rel=1e-14)


def test_r_symbol_closed_form_vs_quadrature_all_dims():
    for n_dim in range(2, 7):
        for d in range(1, n_dim):
            closed = r_symbol_closed_form(n_dim, d)
            quad_val = r_symbol_quadrature(n_dim, d)
            assert abs(closed - quad_val) <= 1e-8 * max(1.0, closed)


def test_r_symbol_gauss_legendre_vs_scipy_quad():
    # the in-repo rule against the adaptive SciPy quadrature it replaced
    for n_dim in range(2, 7):
        for d in range(1, n_dim):
            got = r_symbol_quadrature(n_dim, d)
            want = r_symbol_quadrature_quad(n_dim, d)
            assert abs(got - want) <= 1e-13 * want


def test_r_symbol_rejects_bad_dims():
    with pytest.raises(InvalidArgumentError):
        r_symbol(2, 2)
    with pytest.raises(InvalidArgumentError):
        r_symbol(3, 0)


def test_sphere_surface_values():
    assert sphere_surface(0) == pytest.approx(2.0)
    assert sphere_surface(1) == pytest.approx(2.0 * np.pi)
    assert sphere_surface(2) == pytest.approx(4.0 * np.pi)


# ---------------------------------------------------------------------------
# surface contributions
# ---------------------------------------------------------------------------

def test_unit_circle_constant_weight_coefficient():
    mesh = make_smooth_curve(Circle(radius=1.0), 256)
    coeff = coefficient_surface(mesh, WeightFn.constant(1.0))
    assert coeff.c_plus == pytest.approx(1.0, rel=1e-12)
    assert coeff.c_minus == 0.0


def test_circle_cosine_weight_coefficient():
    mesh = make_smooth_curve(Circle(radius=1.0), 512)
    coeff = coefficient_surface(mesh, WeightFn.angular())
    assert coeff.c_plus == pytest.approx(1.0 / np.pi, rel=1e-4)
    assert coeff.c_minus == pytest.approx(1.0 / np.pi, rel=1e-4)


def test_nonpositive_weight_kills_plus_side():
    mesh = make_smooth_curve(Circle(radius=1.0), 64)
    coeff = coefficient_surface(mesh, WeightFn.constant(-2.0))
    assert coeff.c_plus == 0.0
    assert coeff.c_minus == pytest.approx(2.0, rel=1e-12)


def test_analytic_surface_by_total_measure():
    # C = R for a circle of radius R with a constant unit weight
    mesh = make_smooth_curve(Circle(radius=3.0), 128)
    coeff = coefficient_surface(mesh, WeightFn.constant(1.0))
    assert coeff.c_plus == pytest.approx(3.0, rel=1e-12)


def test_scaling_homogeneity_of_curve_contribution():
    mesh = make_smooth_curve(Circle(radius=1.0), 128)
    big = make_smooth_curve(Circle(radius=2.5), 128)
    c1 = coefficient_surface(mesh, WeightFn.constant(1.0)).c_plus
    c2 = coefficient_surface(big, WeightFn.constant(1.0)).c_plus
    assert c2 == pytest.approx(2.5 * c1, rel=1e-12)


def test_sign_decomposition():
    mesh = make_smooth_curve(Circle(radius=1.0), 128)
    w = WeightFn.angular()
    plus = coefficient_surface(mesh, w)
    rng = np.random.default_rng(0)
    tab = rng.normal(size=128)
    wt = WeightFn.tabulated(tab)
    wneg = WeightFn.tabulated(-tab)
    wabs = WeightFn.tabulated(np.abs(tab))
    a = coefficient_surface(mesh, wt)
    b = coefficient_surface(mesh, wneg)
    c = coefficient_surface(mesh, wabs)
    assert a.c_plus + b.c_plus == pytest.approx(c.c_plus, rel=1e-12)
    assert plus.c_plus == pytest.approx(plus.c_minus, rel=1e-12)


# ---------------------------------------------------------------------------
# absolutely continuous contributions
# ---------------------------------------------------------------------------

def test_unit_disk_classical_weyl_constant():
    coeff = coefficient_ac(np.pi, 1.0)
    assert abs(coeff.c_plus - 0.25) < 1e-15
    assert coeff.c_minus == 0.0


def test_ac_zero_density_and_linearity():
    assert coefficient_ac(np.pi, 0.0).c_plus == 0.0
    assert coefficient_ac(np.pi, 2.0).c_plus == pytest.approx(
        2.0 * coefficient_ac(np.pi, 1.0).c_plus, rel=1e-14)


# ---------------------------------------------------------------------------
# totals
# ---------------------------------------------------------------------------

def test_total_additivity_disk_plus_circle():
    half = make_smooth_curve(Circle(radius=0.5), 64)
    parts = [
        coefficient_ac(np.pi, 1.0),
        coefficient_surface(half, WeightFn.constant(1.0)),
    ]
    total = coefficient_total(parts)
    assert total.c_plus == pytest.approx(0.75, rel=1e-12)
    assert total.c_minus == 0.0


def test_total_single_part_identity():
    part = coefficient_ac(np.pi, 1.0)
    total = coefficient_total([part])
    assert total.c_plus == part.c_plus
    assert total.c_minus == part.c_minus


def test_total_two_circles():
    m1 = make_smooth_curve(Circle(radius=1.0), 64)
    m2 = make_smooth_curve(Circle(radius=2.0), 64)
    total = coefficient_total([
        coefficient_surface(m1, WeightFn.constant(1.0)),
        coefficient_surface(m2, WeightFn.constant(1.0)),
    ])
    assert total.c_plus == pytest.approx(3.0, rel=1e-12)


def test_total_rejects_empty():
    with pytest.raises(InvalidArgumentError):
        coefficient_total([])
