"""Umbilic curvature: distance from the singular point to the parabola's affine hull.

Four closed forms in the second form's invariants cover the four shapes:
|L.(M x N)| / |M x N| for a nondegenerate parabola, |L x N| / |N| for a
half-line, |L x M| / |M| for a line and |L| for a point.  The independent
least-squares estimate from sampled parabola points
(``oracle.parabola_hull_distance``) runs only under verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import DEFAULT_TOL, Tolerances
from .forms import SecondForm
from .linalg import negligible_quotient
from .parabola import ParabolaProfile

__all__ = ["UmbilicResult", "umbilic_curvature", "kappa_stratum_check"]


@dataclass(frozen=True)
class UmbilicResult:
    kappa_u: float
    formula_used: str      # nondegenerate_proj | halfline_det | point_distance
    is_zero: bool          # decided exactly on the rational path


def umbilic_curvature(
    pp: ParabolaProfile, sf: SecondForm, tol: Tolerances = DEFAULT_TOL
) -> UmbilicResult:
    """Umbilic curvature, the distance from the origin to the trace's affine hull.

    Nondegenerate parabola: |L.(M x N)| / |M x N|, zero when that distance
    is negligible at degree 1 (on rationals, when the triple product
    vanishes).  Half-line |L x N| / |N| and line |L x M| / |M|: zero when
    the shape test calls the trace radial.  Point: |L|, zero at the origin.
    The shape test rules out a zero divisor.
    """
    shape = pp.shape
    if shape.kind == "parabola":
        num, den, formula = (sf.triple,), sf.w, "nondegenerate_proj"
        is_zero = negligible_quotient(sf.triple, sf.w, tol.eps_rank * sf.ref)
    elif shape.kind == "point":
        num, den, formula = sf.L, (1,), "point_distance"
        is_zero = shape.is_origin
    else:
        half = shape.kind == "half_line"
        num, den = (sf.l_x_n, sf.N) if half else (sf.l_x_m, sf.M)
        formula, is_zero = "halfline_det", shape.radial
    kappa = math.hypot(*map(float, num)) / math.hypot(*map(float, den))
    return UmbilicResult(kappa_u=kappa, formula_used=formula, is_zero=bool(is_zero))


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
