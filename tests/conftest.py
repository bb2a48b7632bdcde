import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from critspec import assemble, spectra
from critspec.assemble import (WeightFn, assemble_curve_operator,
                               assemble_measure_operator, assemble_mixed)
from critspec.geometry import (Circle, make_cantor_measure,
                               make_polygon_curve, make_smooth_curve)
from critspec.kernels import reference_kernel

UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


@pytest.fixture(scope="session")
def kernel():
    return reference_kernel()


@pytest.fixture(scope="session")
def unit_weight():
    return WeightFn.constant(1.0)


@pytest.fixture(scope="session")
def circle_mesh_256():
    return make_smooth_curve(Circle(radius=1.0), 256)


@pytest.fixture(scope="session")
def circle_spectrum_256(circle_mesh_256, unit_weight, kernel):
    op = assemble_curve_operator(circle_mesh_256, unit_weight, kernel)
    return spectra.eigensolve(op)


@pytest.fixture(scope="session")
def circle_spectrum_512(unit_weight, kernel):
    mesh = make_smooth_curve(Circle(radius=1.0), 512)
    return spectra.eigensolve(assemble_curve_operator(mesh, unit_weight, kernel))


@pytest.fixture(scope="session")
def signed_circle_spectrum_512(kernel):
    mesh = make_smooth_curve(Circle(radius=1.0), 512)
    op = assemble_curve_operator(mesh, WeightFn.angular(), kernel)
    return spectra.eigensolve(op)


@pytest.fixture(scope="session")
def square_spectra(unit_weight, kernel):
    """Unit-square polygon spectra at two resolutions (graded q = 3)."""
    out = {}
    for panels in (128, 256):
        mesh = make_polygon_curve(UNIT_SQUARE, panels, 3.0)
        op = assemble_curve_operator(mesh, unit_weight, kernel)
        out[mesh.n_nodes] = spectra.eigensolve(op)
    return out


@pytest.fixture(scope="session")
def cantor_spectra(unit_weight, kernel):
    """Cantor-measure operator spectra for depths 9-11."""
    out = {}
    for depth in (9, 10, 11):
        measure = make_cantor_measure(depth)
        op = assemble_measure_operator(measure, unit_weight, kernel)
        out[depth] = (measure, spectra.eigensolve(op))
    return out


@pytest.fixture(scope="session")
def two_circle_meshes():
    m1 = make_smooth_curve(Circle(radius=1.0), 256)
    m2 = make_smooth_curve(Circle(center=(5.0, 0.0), radius=2.0), 512)
    return m1, m2


@pytest.fixture(scope="session")
def two_circle_spectra(two_circle_meshes, unit_weight, kernel):
    m1, m2 = two_circle_meshes
    combined = assemble_mixed([(m1, unit_weight), (m2, unit_weight)], kernel)
    sp1 = spectra.eigensolve(assemble_curve_operator(m1, unit_weight, kernel))
    sp2 = spectra.eigensolve(assemble_curve_operator(m2, unit_weight, kernel))
    return spectra.eigensolve(combined), sp1, sp2


class CountingKernel:
    """``kernel``, counting in ``entries`` the arguments its ``profile``
    and ``split`` are called on, from any worker thread."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.log_coefficient = kernel.log_coefficient
        self.remainder_at_zero = kernel.remainder_at_zero
        self.entries = 0
        self._lock = threading.Lock()

    def _count(self, r) -> None:
        with self._lock:
            self.entries += np.size(r)

    def split(self, r):
        self._count(r)
        return self.kernel.split(r)

    def profile(self, r):
        self._count(r)
        return self.kernel.profile(r)


def trivial_table(supports, points, *rest):
    """``_symmetry_table``'s answer for the trivial group {e}: every atom
    its own orbit."""
    return np.arange(len(points))[None, None]


def assemble_dense(supports, kernel) -> assemble.BlockOperator:
    """``assemble_mixed`` over ``supports`` with the trivial group {e} in
    place of the one ``_symmetry_table`` finds and no circle path
    (``_circle_orbits`` answers None): however symmetric the supports, the
    operator is one block of order n (n >= 2), the dense matrix given by
    its upper triangle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assemble, "_symmetry_table", trivial_table)
        patch.setattr(assemble, "_circle_orbits", lambda *args: None)
        return assemble_mixed(supports, kernel)


def circle_exact_eigenvalues(radius: float, count: int) -> np.ndarray:
    """Oracle: R I_m(R) K_m(R), multiplicity two for m >= 1, descending."""
    from critspec.bessel import bessel_i, bessel_k

    vals = [radius * bessel_i(0, radius) * bessel_k(0, radius)]
    m = 1
    while len(vals) < count + 2:
        lam = radius * bessel_i(m, radius) * bessel_k(m, radius)
        vals.extend([lam, lam])
        m += 1
    return np.sort(np.array(vals))[::-1][:count]
