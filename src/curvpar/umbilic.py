"""Umbilic curvature: distance from the singular point to the parabola's affine hull.

Three closed forms cover the three shape families.  The independent
least-squares estimate from sampled parabola points
(``oracle.parabola_hull_distance``) runs only under verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .forms import SecondForm
from .linalg import cross3, dot3, float_vec, vec_is_zero, vec_norm
from .parabola import ParabolaProfile

__all__ = ["UmbilicResult", "umbilic_curvature", "kappa_stratum_check"]


@dataclass(frozen=True)
class UmbilicResult:
    kappa_u: float
    formula_used: str      # nondegenerate_proj | halfline_det | point_distance
    is_zero: bool          # decided exactly on the rational path


def _det3f(a, b, c) -> float:
    return float(np.linalg.det(np.array([a, b, c], dtype=float)))


def umbilic_curvature(
    pp: ParabolaProfile, sf: SecondForm, tol: Tolerances = DEFAULT_TOL
) -> UmbilicResult:
    """Umbilic curvature with the shape-appropriate formula.

    Nondegenerate parabola: |<eta(y), nu3>| with nu3 normal to the
    distinguished plane (constant in y, asserted at y in {-1, 0, 1}).
    Half-line or line: |det(eta, eta', nu3)| / |eta'| at a parameter with
    nonvanishing velocity (vertex+1 for half-lines, 0 for lines; the shape
    test rules out a zero N or M).  Point: the distance to the point.
    """
    shape = pp.shape
    nu3 = pp.ep.nu3

    if shape.kind == "parabola":
        values = [abs(float(np.dot(float_vec(pp.eta(y)), nu3))) for y in (-1.0, 0.0, 1.0)]
        if max(values) - min(values) > 1e-10 * pp.ref:
            raise RuntimeError(
                "projection onto the plane normal is not constant along the parabola"
            )
        kappa = values[1]
        formula = "nondegenerate_proj"
    elif shape.kind in ("half_line", "line"):
        y = float(shape.vertex_param) + 1.0 if shape.kind == "half_line" else 0.0
        velocity = float_vec(pp.eta_prime(y))  # 2N for half-lines, 2M for lines
        if vec_is_zero(velocity, 1e-12, pp.ref):
            raise RuntimeError("could not find a parameter with nonvanishing velocity")
        point = float_vec(pp.eta(y))
        kappa = abs(_det3f(point, velocity, nu3)) / float(np.linalg.norm(velocity))
        formula = "halfline_det"
    else:
        kappa = vec_norm(pp.Lvec)
        formula = "point_distance"

    if not sf.is_exact:
        is_zero = kappa <= tol.eps_rank * pp.ref
    elif shape.kind == "parabola":
        is_zero = dot3(pp.Lvec, cross3(pp.Mvec, pp.Nvec)) == 0
    elif shape.kind == "point":
        is_zero = bool(shape.is_origin)
    else:
        is_zero = bool(shape.radial)

    return UmbilicResult(kappa_u=float(kappa), formula_used=formula, is_zero=is_zero)


def kappa_stratum_check(pp: ParabolaProfile, ur: UmbilicResult) -> bool:
    """Whether shape, stratum, and vanishing of the umbilic curvature are consistent.

    Parabola: top stratum iff nonzero.  Half-line or line: stratum 2 iff
    nonzero.  Point: stratum 1 iff nonzero.
    """
    nonzero = not ur.is_zero
    if pp.shape.kind == "parabola":
        return (pp.stratum == 3) == nonzero
    if pp.shape.kind in ("half_line", "line"):
        return (pp.stratum == 2) == nonzero
    return (pp.stratum == 1) == nonzero
