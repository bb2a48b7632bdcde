import numpy as np
import pytest

from critspec.bessel import EULER_GAMMA, bessel, bessel_i, bessel_k
from critspec.errors import InvalidArgumentError
from critspec.kernels import (lower_order_kernel, reference_kernel,
                              self_cell_coefficient)

from _frozen_bessel import FROZEN_BESSEL
from oracles import log_energy_segment, log_energy_square

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Bessel functions vs the frozen independent oracle
# ---------------------------------------------------------------------------

def test_bessel_matches_frozen_oracle():
    worst = 0.0
    for (kind, n, x), expected in FROZEN_BESSEL.items():
        got = bessel(kind, n, x)
        worst = max(worst, abs(got - expected) / abs(expected))
    assert worst <= 1e-12


def test_bessel_i0_limit_at_zero():
    assert abs(bessel_i(0, 1e-8) - 1.0) <= 1e-15


def test_bessel_reference_values():
    assert bessel_k(0, 1.0) == pytest.approx(0.4210244382, abs=1e-10)
    assert bessel_i(1, 1.0) * bessel_k(1, 1.0) == pytest.approx(0.34017, abs=5e-6)


def test_bessel_wronskian_identity():
    xs = np.geomspace(1e-4, 25.0, 40)
    for n in range(0, 6):
        vals = xs * (bessel_i(n, xs) * bessel_k(n + 1, xs)
                     + bessel_i(n + 1, xs) * bessel_k(n, xs))
        assert np.max(np.abs(vals - 1.0)) <= 1e-12


def test_bessel_k0_positive_decreasing():
    xs = np.geomspace(1e-3, 20.0, 200)
    vals = bessel_k(0, xs)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_bessel_rejects_bad_arguments():
    with pytest.raises(InvalidArgumentError):
        bessel_i(0, -1.0)
    with pytest.raises(InvalidArgumentError):
        bessel_k(0, 0.0)
    with pytest.raises(InvalidArgumentError):
        bessel("J", 0, 1.0)
    with pytest.raises(InvalidArgumentError):
        bessel_i(-1, 1.0)


def test_bessel_k_underflow_returns_zero_with_flag():
    with pytest.warns(RuntimeWarning):
        val = bessel_k(0, 800.0)
    assert val == 0.0


# ---------------------------------------------------------------------------
# reference kernel
# ---------------------------------------------------------------------------

def test_kernel_value_at_unit_distance():
    val = float(reference_kernel().profile(1.0))
    assert val == pytest.approx(bessel_k(0, 1.0) / TWO_PI, rel=1e-14)
    # frozen from the K_0 oracle: 0.42102443824070834 / (2 pi)
    assert val == pytest.approx(0.06700812050849714, rel=1e-13)


def test_kernel_log_split_limit():
    # kernel + (2 pi)^{-1} log r -> (2 pi)^{-1} (log 2 - gamma)
    kern = reference_kernel()
    limit = (np.log(2.0) - EULER_GAMMA) / TWO_PI
    for r in (1e-3, 1e-5, 1e-7):
        val = kern.profile(r) + np.log(r) / TWO_PI
        # approach is O(r^2 |log r|)
        tol = r * r * (abs(np.log(r)) + 2.0) + 1e-14
        assert val == pytest.approx(limit, abs=tol)
    assert kern.remainder_at_zero == pytest.approx(limit, rel=1e-15)


def test_kernel_log_split_remainder_smooth():
    # second finite differences of kernel - A log r stay bounded near 0
    kern = reference_kernel()
    h = 1e-3
    r = np.arange(1, 40) * h
    vals = kern.profile(r) - kern.log_coefficient * np.log(r)
    second = np.diff(vals, 2) / h ** 2
    assert np.max(np.abs(second)) < 1.0


# ---------------------------------------------------------------------------
# self-cell coefficients
# ---------------------------------------------------------------------------

def test_self_cell_segment_matches_double_integral_oracle():
    # oracle: the unit-segment value of the -log average is 3/2
    energy = log_energy_segment()
    assert energy == pytest.approx(1.5, abs=1e-12)
    expected = (energy + np.log(2.0) - EULER_GAMMA) / TWO_PI
    assert self_cell_coefficient("segment", 1.0) == pytest.approx(
        expected, rel=1e-12)


def test_self_cell_log_scaling_law():
    for h, h2 in ((0.1, 0.7), (1e-4, 2.0), (3.0, 5.0)):
        diff = (self_cell_coefficient("segment", h)
                - self_cell_coefficient("segment", h2))
        assert diff == pytest.approx(np.log(h2 / h) / TWO_PI, rel=1e-12)
        diff_sq = (self_cell_coefficient("square", h)
                   - self_cell_coefficient("square", h2))
        assert diff_sq == pytest.approx(np.log(h2 / h) / TWO_PI, rel=1e-12)


def test_self_cell_square_constant_vs_adaptive_oracle():
    # implementation caches a scipy quadrature; oracle is mpmath tanh-sinh
    expected = (log_energy_square() + np.log(2.0) - EULER_GAMMA) / TWO_PI
    first = self_cell_coefficient("square", 1.0)
    assert first == pytest.approx(expected, abs=1e-8)
    assert self_cell_coefficient("square", 1.0) == first  # reproducible


def test_self_cell_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        self_cell_coefficient("segment", 0.0)
    with pytest.raises(InvalidArgumentError):
        self_cell_coefficient("ball", 1.0)


# ---------------------------------------------------------------------------
# lower-order companion kernel
# ---------------------------------------------------------------------------

def test_lower_order_kernel_matches_closed_form():
    # the subordination quadrature must reproduce e^{-r} / (2 pi); the
    # implementation never assumes this form
    kern = lower_order_kernel()
    r = np.array([0.05, 0.3, 1.0, 2.5, 6.0])
    expected = np.exp(-r) / TWO_PI
    assert np.max(np.abs(kern.profile(r) - expected) / expected) < 1e-8
    assert kern.order == -3
