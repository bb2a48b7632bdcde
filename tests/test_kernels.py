import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critspec import bessel as bessel_module
from critspec.bessel import EULER_GAMMA, bessel, bessel_i, bessel_k
from critspec.errors import InvalidArgumentError
from critspec.kernels import _WINDOW_END as WINDOW_END
from critspec.kernels import _WINDOW_START as WINDOW_START
from critspec.kernels import (
    _UNIT_SQUARE_LOG_ENERGY as UNIT_SQUARE_LOG_ENERGY)
from critspec.kernels import (lower_order_kernel, reference_kernel,
                              self_cell_coefficient)

from _frozen_bessel import FROZEN_BESSEL
from oracles import (bessel_k0_matvec, log_energy_segment, log_energy_square,
                     lower_order_kernel_subordination,
                     unit_square_log_energy_dblquad)

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


def test_bessel_k0_unchanged_on_all_branches():
    # K_0 alone, with the band summed row by row, against the K_0 that was
    # computed alongside K_1 with a matrix-vector band sum
    x = np.concatenate([np.geomspace(1e-6, 2.2, 2000, endpoint=False),
                        np.linspace(2.2, 15.0, 2000, endpoint=False),
                        np.geomspace(15.0, 700.0, 2000)])
    got = bessel_k(0, x)
    want = bessel_k0_matvec(x)
    assert np.max(np.abs(got - want) / np.spacing(want)) <= 4.0


def test_fixed_grid_temporaries_are_bounded(monkeypatch):
    # about 1M points: an unchunked band would hold a 344 MB (m, 43)
    # temporary; the closed-form lower-order kernel holds none
    rng = np.random.default_rng(7)
    m = 1 << 20
    cases = ((lambda a: bessel_k(0, a), rng.uniform(2.2, 15.0, m)),
             (lower_order_kernel().profile, rng.uniform(0.0, 4.0, m)))
    cap = 64 << 20
    head = 20011
    for fn, arg in cases:
        tracemalloc.start()
        try:
            chunked = fn(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cap
        with monkeypatch.context() as mctx:
            mctx.setattr(bessel_module, "_GRID_CHUNK_BYTES", 1 << 40)
            unchunked = fn(arg[:head])
        assert np.array_equal(chunked[:head], unchunked)


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


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=1e-6, max_value=30.0))
@example(4.9).via("the series side of the window")
@example(7.5).via("inside the window")
@example(12.0).via("past the window")
def test_split_matches_profile_and_mpmath(r):
    kern = reference_kernel()
    log_factor, smooth = (float(v[0]) for v in kern.split(np.array([r])))
    # the two halves add up to the profile, up to their cancellation
    profile = float(kern.profile(r))
    scale = abs(profile) + abs(log_factor * np.log(r))
    assert abs(log_factor * np.log(r) + smooth - profile) <= 1e-13 * scale
    x = mp.mpf(r)
    i0 = mp.besseli(0, x)
    want_log = float(-i0 / (2 * mp.pi))
    if r <= WINDOW_START:
        # mpmath: log_factor = -I_0 / 2 pi, smooth = (K_0 + I_0 log r) / 2 pi
        want_smooth = float((mp.besselk(0, x) + i0 * mp.log(x)) / (2 * mp.pi))
        assert log_factor == pytest.approx(want_log, rel=1e-14)
        assert smooth == pytest.approx(want_smooth, rel=1e-13)
    elif r >= WINDOW_END:
        assert (log_factor, smooth) == (0.0, profile)
    else:
        # the window keeps a fraction of the log amplitude
        assert want_log * (1.0 + 1e-14) <= log_factor <= 0.0


def test_split_beyond_the_series_switch_and_at_zero():
    kern = reference_kernel()
    r = np.array([0.0, 1.0, 4.9, WINDOW_START, 7.5, WINDOW_END, 29.0, 31.0,
                  40.0])
    log_factor, smooth = kern.split(r)
    assert log_factor[0] == kern.log_coefficient
    assert smooth[0] == pytest.approx(kern.remainder_at_zero, rel=1e-15)
    inside = (r > 0.0) & (r <= WINDOW_START)
    for x, lf, sm in zip(r[inside], log_factor[inside], smooth[inside]):
        i0 = mp.besseli(0, mp.mpf(x))
        want = (mp.besselk(0, mp.mpf(x)) + i0 * mp.log(x)) / (2 * mp.pi)
        assert lf == pytest.approx(float(-i0 / (2 * mp.pi)), rel=1e-12)
        assert sm == pytest.approx(float(want), rel=1e-12)
    # past the window the split is (0, profile), with no cancellation
    outside = r >= WINDOW_END
    assert np.all(log_factor[outside] == 0.0)
    assert np.array_equal(smooth[outside], kern.profile(r[outside]))
    assert np.array_equal(kern.log_factor(r), log_factor)
    with pytest.raises(InvalidArgumentError):
        kern.split(np.array([1.0, -1e-3]))


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
    # implementation takes Maxwell's closed form; oracle is mpmath tanh-sinh
    expected = (log_energy_square() + np.log(2.0) - EULER_GAMMA) / TWO_PI
    first = self_cell_coefficient("square", 1.0)
    assert first == pytest.approx(expected, abs=1e-8)
    assert self_cell_coefficient("square", 1.0) == first  # reproducible


def test_square_log_energy_closed_form_vs_quadratures():
    # 25/12 - (pi + log 2)/3 is the double the package's former SciPy
    # dblquad gave, bit for bit, and the mpmath value to 1e-15
    assert UNIT_SQUARE_LOG_ENERGY == unit_square_log_energy_dblquad()
    assert abs(UNIT_SQUARE_LOG_ENERGY - log_energy_square()) <= 1e-15


def test_self_cell_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        self_cell_coefficient("segment", 0.0)
    with pytest.raises(InvalidArgumentError):
        self_cell_coefficient("ball", 1.0)


# ---------------------------------------------------------------------------
# lower-order companion kernel
# ---------------------------------------------------------------------------

def test_lower_order_kernel_matches_closed_form():
    # the closed form e^{-r} / (2 pi) against the subordination integral it
    # replaced
    kern = lower_order_kernel()
    r = np.linspace(0.0, 30.0, 3001)
    want = lower_order_kernel_subordination(r)
    assert np.max(np.abs(kern.profile(r) - want) / want) < 1e-13


def test_lower_order_kernel_split_has_no_log_part():
    kern = lower_order_kernel()
    r = np.array([0.0, 0.05, 1.0, 6.0])
    log_factor, smooth = kern.split(r)
    assert np.all(log_factor == 0.0)
    assert np.array_equal(smooth, kern.profile(r))
    assert smooth[0] == pytest.approx(kern.remainder_at_zero, rel=1e-12)
