"""Asymptotic coefficients of the eigenvalue counting function.

For the radial reference symbol |Xi|^{-N/2} in R^N, the normal-fiber average
over a d-dimensional tangent plane is rho(N, d) |xi|^{-d} with

    rho(N, d) = (2 pi)^{-(N-d)} pi^{(N-d)/2} Gamma(d/2) / Gamma(N/2),

cross-checked on every call against a direct quadrature of the radial
integral: on r = tan(theta) it becomes the smooth integral of
sin^{codim-1} cos^{d-1} over [0, pi/2], which a 64-node Gauss-Legendre rule
(NumPy's ``leggauss``) integrates to about 1e-15.  A surface of
dimension d contributes

    C_plus_minus = d^{-1} (2 pi)^{-d} vol(S^{d-1}) rho(N, d) * integral V_pm dmu,

and an absolutely continuous density in the full space contributes
N^{-1} (2 pi)^{-N} vol(S^{N-1}) * integral V_pm dX (the symbol has modulus one
on the cosphere).  Contributions of disjoint components add.

The cosphere fiber carries the standard unit-sphere measure; this
normalization is the one validated by the circle diagonalization oracle
(C = R for the unit-weight circle of radius R).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, pi

import numpy as np

from .assemble import WeightFn
from .errors import InternalError, InvalidArgumentError
from .geometry import SurfaceMesh

TWO_PI = 2.0 * pi

_CROSS_CHECK_TOL = 1e-8
# Gauss-Legendre rule of the cross-check, mapped from [-1, 1] to
# [0, pi/2]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_THETA = (_GL_NODES + 1.0) * (pi / 4.0)
_GL_WEIGHTS = _GL_WEIGHTS * (pi / 4.0)


@dataclass(frozen=True)
class AsymCoeff:
    """Counting coefficients with a per-component breakdown."""

    c_plus: float
    c_minus: float
    breakdown: tuple[tuple[str, float, float], ...]

    def __post_init__(self):
        if self.c_plus < 0.0 or self.c_minus < 0.0:
            raise InvalidArgumentError("coefficients must be nonnegative")
        tp = sum(b[1] for b in self.breakdown)
        tm = sum(b[2] for b in self.breakdown)
        if (abs(tp - self.c_plus) > 1e-12 * max(1.0, self.c_plus)
                or abs(tm - self.c_minus) > 1e-12 * max(1.0, self.c_minus)):
            raise InternalError("breakdown does not sum to the totals")


def sphere_surface(dim_minus_1: int) -> float:
    """Surface measure of S^{k} in R^{k+1}; S^0 carries two points."""
    k = dim_minus_1
    if k < 0:
        raise InvalidArgumentError("sphere dimension must be >= 0")
    return 2.0 * pi ** ((k + 1) / 2.0) / gamma((k + 1) / 2.0)


def r_symbol_closed_form(ambient_dim: int, surface_dim: int) -> float:
    codim = ambient_dim - surface_dim
    return ((2.0 * pi) ** (-codim) * pi ** (codim / 2.0)
            * gamma(surface_dim / 2.0) / gamma(ambient_dim / 2.0))


def r_symbol_quadrature(ambient_dim: int, surface_dim: int) -> float:
    """(2 pi)^{-codim} integral over R^codim of (1 + |s|^2)^{-N/2}, reduced
    to one radial dimension; r = tan(theta) turns the radial integral into
    integral_0^{pi/2} sin^{codim-1}(theta) cos^{d-1}(theta) dtheta, whose
    smooth integrand the Gauss-Legendre rule integrates."""
    codim = ambient_dim - surface_dim
    val = float(np.sum(_GL_WEIGHTS * np.sin(_GL_THETA) ** (codim - 1)
                       * np.cos(_GL_THETA) ** (surface_dim - 1)))
    return (2.0 * pi) ** (-codim) * sphere_surface(codim - 1) * val


def r_symbol(ambient_dim: int, surface_dim: int) -> float:
    """Coefficient rho(N, d) of the normal-fiber symbol average.

    Computed in closed form and cross-checked against the radial quadrature
    to 1e-8.
    """
    if not (1 <= surface_dim < ambient_dim):
        raise InvalidArgumentError("need 1 <= d < N")
    closed = r_symbol_closed_form(ambient_dim, surface_dim)
    quad_val = r_symbol_quadrature(ambient_dim, surface_dim)
    if abs(closed - quad_val) > _CROSS_CHECK_TOL * max(1.0, abs(closed)):
        raise InternalError(
            "closed form and quadrature disagree: %r vs %r"
            % (closed, quad_val))
    return closed


def coefficient_surface(mesh: SurfaceMesh, V: WeightFn,
                        label: str = "surface") -> AsymCoeff:
    """Contribution of one curve in the plane (d = 1, N = 2): the mesh's
    quadrature integrates V_+ and V_-."""
    if mesh.ambient_dim != 2:
        raise InvalidArgumentError("meshes are curves in the plane")
    factor = (2.0 * pi) ** -1 * sphere_surface(0) * r_symbol(2, 1)
    wplus = float(np.sum(V.positive_part(mesh) * mesh.weights))
    wminus = float(np.sum(V.negative_part(mesh) * mesh.weights))
    return AsymCoeff(
        c_plus=factor * wplus,
        c_minus=factor * wminus,
        breakdown=((label, factor * wplus, factor * wminus),),
    )


def coefficient_ac(volume: float, v0: float, label: str = "ac") -> AsymCoeff:
    """Contribution of a constant density ``v0`` on a plane domain of area
    ``volume`` (N = 2)."""
    factor = 0.5 * (2.0 * pi) ** -2 * sphere_surface(1)
    vol = float(volume)
    v = float(v0)
    wplus, wminus = max(v, 0.0) * vol, max(-v, 0.0) * vol
    return AsymCoeff(
        c_plus=factor * wplus,
        c_minus=factor * wminus,
        breakdown=((label, factor * wplus, factor * wminus),),
    )


def coefficient_total(parts) -> AsymCoeff:
    """Componentwise sum of contributions, breakdown retained."""
    parts = list(parts)
    if not parts:
        raise InvalidArgumentError("need at least one contribution")
    breakdown = tuple(b for p in parts for b in p.breakdown)
    return AsymCoeff(
        c_plus=float(sum(p.c_plus for p in parts)),
        c_minus=float(sum(p.c_minus for p in parts)),
        breakdown=breakdown,
    )
