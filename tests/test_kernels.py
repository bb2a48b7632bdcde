import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critspec import assemble, kernels
from critspec import bessel as bessel_module
from critspec.assemble import WeightFn
from critspec.bessel import EULER_GAMMA, bessel, bessel_i, bessel_k
from critspec.errors import InvalidArgumentError
from critspec.geometry import Circle, make_smooth_curve
from critspec.kernels import _WINDOW_END as WINDOW_END
from critspec.kernels import _WINDOW_START as WINDOW_START
from critspec.kernels import (
    _UNIT_SQUARE_LOG_ENERGY as UNIT_SQUARE_LOG_ENERGY)
from critspec.kernels import (lower_order_kernel, reference_kernel,
                              self_cell_coefficient)

from _frozen_bessel import FROZEN_BESSEL
from oracles import (_k0_log_series, _k_band_matvec, bessel_k0_matvec,
                     k0_log_series_tested_per_step, k_band_row_by_row,
                     log_energy_segment,
                     log_energy_square, lower_order_kernel_subordination,
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


@pytest.mark.parametrize("fn", [bessel_i, bessel_k])
def test_bessel_refuses_nan(fn):
    # a NaN fails every branch's mask; it must not read uninitialised memory
    with pytest.raises(InvalidArgumentError):
        fn(0, float("nan"))
    with pytest.raises(InvalidArgumentError):
        fn(3, np.array([1.0, np.nan, 20.0]))


def test_bessel_i_past_the_series_switch_matches_mpmath():
    # the asymptotic expansion cancels unless n^2 is small against x
    # (I_40(31) came out 1.9e8 times too large), so orders 2 and up take
    # the series up to x = 700, where no term overflows
    xs = np.geomspace(np.nextafter(30.0, 31.0), 700.0, 13)
    for n in range(0, 61):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bessel_i(n, xs)
        want = np.array([float(mp.besseli(n, x)) for x in xs])
        assert np.max(np.abs(got - want) / want) <= 1e-12, n
    # orders 2 and up refuse where their series would overflow
    assert bessel_i(2, 700.0) > 0.0
    for n in (2, 40):
        with pytest.raises(InvalidArgumentError):
            bessel_i(n, np.array([1.0, np.nextafter(700.0, 701.0)]))


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


# arguments of the K_0 log series: the ends of its branch in bessel_k,
# anywhere on it, and on to the end of the split window
_SERIES_ARGS = st.one_of(st.sampled_from([1e-6, 2.19]),
                         st.floats(1e-6, 2.19), st.floats(1e-6, WINDOW_END))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_SERIES_ARGS, max_size=40), data=st.data())
@example(values=[], data=None)
@example(values=[1.0], data=None)
@example(values=[0.7] * 9, data=None)
@example(values=[1e-6, 2.19] * 8, data=None)
def test_k0_series_matches_the_series_tested_per_step_bit_for_bit(values,
                                                                  data):
    x = np.array(values, dtype=float)
    if data is not None:
        x = np.array(data.draw(st.permutations(values)), dtype=float)
    i0, s0 = bessel_module.k0_log_series(x)
    want_i0, want_s0 = k0_log_series_tested_per_step(x)
    assert np.array_equal(i0, want_i0) and np.array_equal(s0, want_s0)
    want = _k0_log_series(x)
    assert np.array_equal(want, -(np.log(x / 2.0) + EULER_GAMMA) * want_i0
                          + want_s0)
    assert np.array_equal(bessel_module._k0_series(x), want)
    # bessel_k takes the series below 2.2, gathered or, where every
    # argument is there, whole
    series = x < 2.2
    assert np.array_equal(bessel_k(0, x)[series], want[series])
    assert np.array_equal(bessel_k(0, x[series]), want[series])
    # the split takes the series whole where no distance passes the window
    # start, and gathers it otherwise
    near = x[x <= WINDOW_START]
    whole = reference_kernel().split(near)
    gathered = reference_kernel().split(np.append(near, WINDOW_END))
    assert all(np.array_equal(a, b[:-1]) for a, b in zip(whole, gathered))


def test_fixed_grid_temporaries_are_bounded(monkeypatch):
    # about 1M points: an unchunked band would hold a 344 MB (43, m)
    # temporary; order 1 also multiplies it by cosh(t); the closed-form
    # lower-order kernel holds none
    rng = np.random.default_rng(7)
    m = 1 << 20
    cases = ((lambda a: bessel_k(0, a), rng.uniform(2.2, 15.0, m)),
             (lambda a: bessel_k(1, a), rng.uniform(2.2, 15.0, m)),
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
# the band trapezoid
# ---------------------------------------------------------------------------

_BAND_X = np.linspace(2.2, 15.0, 20000, endpoint=False)


def test_bessel_kn_on_the_band_matches_the_full_grid():
    x = _BAND_X
    km, kc = _k_band_matvec(0, x), _k_band_matvec(1, x)
    assert np.max(np.abs(bessel_k(1, x) - kc) / np.spacing(kc)) <= 4.0
    # K_n = P_n K_0 + Q_n K_1 with P_n, Q_n >= 0, so the recurrence carries
    # the pair's relative error (4 ulps, at most 4 eps) to K_n unamplified;
    # each of its n - 1 steps rounds three times in either run, adding at
    # most 1.5 eps to each
    eps = np.finfo(float).eps
    for n in range(2, 11):
        km, kc = kc, km + (2.0 * (n - 1) / x) * kc
        rel = np.max(np.abs(bessel_k(n, x) - kc) / kc)
        assert rel <= (4 + 3 * (n - 1)) * eps


@pytest.mark.parametrize("n", [0, 1])
def test_the_band_sums_every_node_in_its_documented_order(n, monkeypatch):
    x = np.concatenate([[2.2], _BAND_X[1:], [np.nextafter(15.0, 0.0)]])
    want = k_band_row_by_row(n, x)
    # the default chunks, and chunks of 7 points that split the band
    # at other places
    assert np.array_equal(bessel_k(n, x), want)
    monkeypatch.setattr(bessel_module, "_GRID_CHUNK_BYTES", 8 * 43 * 7)
    assert np.array_equal(bessel_k(n, x), want)


def test_band_values_depend_on_the_point_alone(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.uniform(2.2, 15.0, 5000)
    perm = rng.permutation(len(x))
    for n in (0, 1, 7):
        want = bessel_k(n, x)
        assert np.array_equal(bessel_k(n, x[perm]), want[perm])
        assert np.array_equal([bessel_k(n, v) for v in x[:100]], want[:100])
        with monkeypatch.context() as mctx:
            mctx.setattr(bessel_module, "_GRID_CHUNK_BYTES", 8 * 43 * 7)
            assert np.array_equal(bessel_k(n, x), want)


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


@pytest.mark.parametrize("kern", [reference_kernel(), lower_order_kernel()])
def test_split_refuses_nan(kern):
    with pytest.raises(InvalidArgumentError):
        kern.split([np.nan, 1.0])


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


# ---------------------------------------------------------------------------
# the reference kernel between two separated circles (Graf's addition theorem)
# ---------------------------------------------------------------------------

# the ends of the benchmark's two-surfaces geometry, radii and gap, and the
# experiment's default: radii 1 and 2 with centers 5 apart
SEPARATED_CIRCLES = [(r1, r2, r1 + r2 + gap) for r1 in (0.85, 1.05)
                     for r2 in (1.95, 2.05) for gap in (2.5, 3.5)] + [
                         (1.0, 2.0, 5.0)]


def _two_surfaces_orders(monkeypatch, r1, r2, distance):
    """The (x, top) of every K_m and I_m recurrence the table takes when
    the operator of two-surfaces at the benchmark's n = 2048 is assembled
    on these circles, at a random angle."""
    calls = {"K": [], "I": []}
    for kind, name in (("K", "_k_orders"), ("I", "_i_orders")):
        true = getattr(kernels, name)

        def recorded(x, top, *rest, true=true, kind=kind):
            calls[kind].append((x, top))
            return true(x, top, *rest)

        monkeypatch.setattr(kernels, name, recorded)
    n1 = (2048 // 3) & ~1
    one = WeightFn.constant(1.0)
    assemble.assemble_mixed(
        [(make_smooth_curve(Circle(radius=r1), n1), one),
         (make_smooth_curve(Circle(center=(distance * np.cos(4.1),
                                           distance * np.sin(4.1)),
                                   radius=r2), 2048 - n1), one)],
        reference_kernel())
    return calls


@pytest.mark.parametrize("r1, r2, distance", SEPARATED_CIRCLES)
def test_the_table_recurrences_match_mpmath_at_every_order(
        monkeypatch, r1, r2, distance):
    # K_m(D) upward from K_0 and K_1, and I_m(r) by Miller's backward
    # recurrence, at every order the table of the benchmark's two circles
    # takes, against mpmath's K_m and I_m in 30 digits
    calls = _two_surfaces_orders(monkeypatch, r1, r2, distance)
    assert [x for x, _ in calls["K"]] == [pytest.approx(distance)]
    assert [x for x, _ in calls["I"]] == [pytest.approx(r1),
                                          pytest.approx(r2)]
    top = calls["K"][0][1]
    assert 40 <= top <= 120 and all(t == top // 2 for _, t in calls["I"])
    mp.mp.dps = 30
    for kind, (x, top) in [("K", calls["K"][0])] + [("I", c)
                                                    for c in calls["I"]]:
        if kind == "K":
            mantissa, exponent = kernels._k_orders(
                x, top, bessel_k(0, x), bessel_k(1, x))
            want = [mp.besselk(m, x) for m in range(top + 1)]
        else:
            mantissa, exponent = kernels._i_orders(x, top, bessel_i(0, x))
            want = [mp.besseli(m, x) for m in range(top + 1)]
        got = [mp.ldexp(mp.mpf(float(a)), int(e))
               for a, e in zip(mantissa, exponent)]
        worst = max(abs(g / w - 1) for g, w in zip(got, want))
        assert worst <= 1e-13, (kind, x, float(worst))


@pytest.mark.parametrize("r1, r2, distance", SEPARATED_CIRCLES)
def test_the_table_sums_to_the_kernel_within_its_error(r1, r2, distance):
    # sum_pq c_pq e^(i p theta) e^(i q phi), both angles from the line of
    # centers, is K_0(|x - y|) / (2 pi) at random points of the two circles,
    # to within the error the table states and the rounding of the sum
    table, error = reference_kernel().separated_circles(r1, r2, distance,
                                                        1e-16)
    assert error <= 1e-16 and table.shape[0] % 2 == 1
    m = (len(table) - 1) // 2
    p = np.arange(-m, m + 1)
    theta, phi = np.random.default_rng(7).uniform(0.0, TWO_PI, (2, 200))
    got = np.einsum("pq,pk,qk->k", table, np.exp(1j * np.outer(p, theta)),
                    np.exp(1j * np.outer(p, phi))).real
    gap = np.abs(distance + r2 * np.exp(1j * phi) - r1 * np.exp(1j * theta))
    want = reference_kernel().profile(gap)
    assert np.max(np.abs(got - want)) <= error + 1e-14 * np.max(want)


def test_circles_that_touch_cross_or_nearly_touch_have_no_table():
    # no tail bound closes for crossing or tangent circles, nor, within
    # the largest order, at a gap of 1e-3; the lower-order kernel has no
    # addition theorem in the package at all
    kern = reference_kernel()
    assert kern.separated_circles(1.0, 2.0, 1.5, 1e-16) is None
    assert kern.separated_circles(1.0, 2.0, 3.0, 1e-16) is None
    assert kern.separated_circles(1.0, 2.0, 3.001, 1e-16) is None
    assert kern.separated_circles(1.0, 2.0, 3.3, 1e-16) is not None
    assert lower_order_kernel().separated_circles(1.0, 2.0, 5.0, 1.0) is None


def test_circles_whose_kernel_underflows_have_a_zero_table():
    # at centers 800 apart K_0(D) underflows, with bessel_k's warning: the
    # table is zero, and its error the kernel at the closest approach, 0
    # too; where it would not be within the tail, there is no table
    kern = reference_kernel()
    with pytest.warns(RuntimeWarning, match="K_n underflows"):
        table, error = kern.separated_circles(1.0, 2.0, 800.0, 1e-300)
    assert np.array_equal(table, np.zeros((1, 1))) and error == 0.0
    with pytest.warns(RuntimeWarning, match="K_n underflows"):
        assert kern.separated_circles(300.0, 300.0, 720.0, 1e-300) is None
