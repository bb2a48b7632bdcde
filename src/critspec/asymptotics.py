"""Asymptotic coefficients of the eigenvalue counting function.

For the radial reference symbol |Xi|^{-N/2} in R^N, the normal-fiber average
over a d-dimensional tangent plane is rho(N, d) |xi|^{-d} with

    rho(N, d) = (2 pi)^{-(N-d)} pi^{(N-d)/2} Gamma(d/2) / Gamma(N/2),

cross-checked against direct radial quadrature on every call.  A surface of
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
from scipy.integrate import quad

from .assemble import CellGrid, WeightFn
from .errors import InternalError, InvalidArgumentError
from .geometry import SurfaceMesh

TWO_PI = 2.0 * pi

_CROSS_CHECK_TOL = 1e-8


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
    to one radial dimension."""
    codim = ambient_dim - surface_dim
    integrand = lambda r: r ** (codim - 1) * (1.0 + r * r) ** (-ambient_dim / 2.0)
    val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12)
    return (2.0 * pi) ** (-codim) * sphere_surface(codim - 1) * val


def r_symbol(ambient_dim: int, surface_dim: int,
             cross_check: bool = True) -> float:
    """Coefficient rho(N, d) of the normal-fiber symbol average.

    Computed in closed form and, by default, cross-checked against the
    radial quadrature to 1e-8.
    """
    if not (1 <= surface_dim < ambient_dim):
        raise InvalidArgumentError("need 1 <= d < N")
    closed = r_symbol_closed_form(ambient_dim, surface_dim)
    if cross_check:
        quad_val = r_symbol_quadrature(ambient_dim, surface_dim)
        if abs(closed - quad_val) > _CROSS_CHECK_TOL * max(1.0, abs(closed)):
            raise InternalError(
                "closed form and quadrature disagree: %r vs %r"
                % (closed, quad_val))
    return closed


def _signed_integrals(surface, V) -> tuple[float, float]:
    """(integral V_+, integral V_-) over a mesh, or from (total, const V)."""
    if isinstance(surface, SurfaceMesh):
        vfn = V if isinstance(V, WeightFn) else WeightFn.constant(float(V))
        wplus = float(np.sum(vfn.positive_part(surface) * surface.weights))
        wminus = float(np.sum(vfn.negative_part(surface) * surface.weights))
        return wplus, wminus
    total = float(surface)
    if isinstance(V, WeightFn):
        if V.kind != "constant":
            raise InvalidArgumentError(
                "analytic surfaces support constant weights only")
        v = V.value
    else:
        v = float(V)
    return max(v, 0.0) * total, max(-v, 0.0) * total


def coefficient_surface(surface, V, ambient_dim: int = 2,
                        surface_dim: int = 1,
                        label: str = "surface") -> AsymCoeff:
    """Contribution of one surface: meshes integrate V by their quadrature;
    an analytic surface is passed as its total measure with constant V."""
    if isinstance(surface, SurfaceMesh):
        if surface.ambient_dim != ambient_dim or surface_dim != 1:
            raise InvalidArgumentError("meshes are curves in the plane")
    rho = r_symbol(ambient_dim, surface_dim)
    factor = (1.0 / surface_dim) * (2.0 * pi) ** (-surface_dim) \
        * sphere_surface(surface_dim - 1) * rho
    wplus, wminus = _signed_integrals(surface, V)
    return AsymCoeff(
        c_plus=factor * wplus,
        c_minus=factor * wminus,
        breakdown=((label, factor * wplus, factor * wminus),),
    )


def coefficient_ac(domain, V0, ambient_dim: int = 2,
                   label: str = "ac") -> AsymCoeff:
    """Contribution of an absolutely continuous part.

    ``domain`` is either the domain volume (with constant V0) or a CellGrid
    whose cells integrate the tabulated density.
    """
    factor = (1.0 / ambient_dim) * (2.0 * pi) ** (-ambient_dim) \
        * sphere_surface(ambient_dim - 1)
    if isinstance(domain, CellGrid):
        cellarea = domain.delta ** 2
        wplus = float(np.clip(domain.v0, 0.0, None).sum() * cellarea)
        wminus = float(np.clip(-domain.v0, 0.0, None).sum() * cellarea)
    else:
        vol = float(domain)
        v = V0.value if isinstance(V0, WeightFn) else float(V0)
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
