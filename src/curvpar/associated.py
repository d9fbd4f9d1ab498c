"""Associated regular surfaces and the transfer of second-order geometry.

A prenormal singular germ lifts to an immersion into R^5 by re-inserting the
kernel coordinate, and projects to a regular surface in R^4 spanned by the
tangent plane of the lift and the distinguished plane.  The lift shares the
singular surface's second fundamental form; the projection shares its
asymptotic directions and point type.  The lift has the 1-jet
(x, y, 0, ...), so its second form is read off its 2-jet with
``forms.form_rows``; the projection is built from its second form, which
is the germ's along the plane's basis (``ParabolaProfile.plane_rows``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .directions import AsymptoticSet, plane_quadratic, point_type, solve_quadratic, type_of_count
from .forms import SecondForm, form_rows
from .germs import TruncatedPoly2
from .linalg import scale_of
from .parabola import ParabolaProfile

__all__ = [
    "RegularSurfaceR5",
    "RegularSurfaceR4",
    "lift_to_r5",
    "project_to_s",
    "s_asymptotic_directions",
    "curvature_ellipse",
    "verify_transfer",
    "TransferVerdict",
]

# largest |sin(angle)| between matched projective directions of M and S
ANGULAR_TOL = 1e-7


@dataclass(frozen=True)
class RegularSurfaceR5:
    """Immersion into R^5 with its 3x3 second-form matrix at the origin."""

    components: tuple
    alpha: SecondForm


@dataclass(frozen=True)
class RegularSurfaceR4:
    """Immersion into R^4 with second-form coefficients (l, m, n) per normal vector."""

    components: tuple
    coeffs: tuple  # ((l1, m1, n1), (l2, m2, n2))


def lift_to_r5(adapted) -> RegularSurfaceR5:
    """Insert the kernel coordinate: (x, y) -> (x, y, f2, f3, f4).

    Dropping the second output coordinate recovers the germ exactly, and the
    lift's second form equals the germ's entrywise.
    """
    g = adapted.germ if hasattr(adapted, "germ") else adapted
    comps = (
        g.components[0],
        TruncatedPoly2.variable("y", g.order),
        g.components[1],
        g.components[2],
        g.components[3],
    )
    return RegularSurfaceR5(components=comps, alpha=SecondForm(form_rows(comps[2:])))


def project_to_s(adapted, pp: ParabolaProfile) -> RegularSurfaceR4:
    """Regular surface spanned by the lift's tangent plane and the distinguished plane.

    Its normals are the plane's basis (u1, u2), so its second-form rows are
    ``pp.plane_rows`` and its 2-jet is (x, y, l1/2 x^2 + m1 xy + n1/2 y^2,
    l2/2 x^2 + m2 xy + n2/2 y^2), in floats.
    """
    g = adapted.germ if hasattr(adapted, "germ") else adapted
    order = g.order
    normals = (
        TruncatedPoly2({(2, 0): l / 2, (1, 1): m, (0, 2): n / 2}, order)
        for l, m, n in pp.plane_rows
    )
    comps = (g.components[0], TruncatedPoly2.variable("y", order), *normals)
    return RegularSurfaceR4(components=comps, coeffs=pp.plane_rows)


def s_asymptotic_directions(s: RegularSurfaceR4, tol: Tolerances = DEFAULT_TOL):
    """Solutions of the asymptotic binary differential equation at the origin.

    Returns "all" when the equation vanishes identically, otherwise unit
    projective tangent directions (dx, dy).
    """
    a, b, c = plane_quadratic(s.coeffs)
    ref = scale_of(*s.coeffs)  # S's own rows: the germ's umbilic part is not in S
    thresh = tol.eps_rank * ref * ref
    if abs(a) <= thresh and abs(b) <= thresh and abs(c) <= thresh:
        return "all"
    if abs(c) > thresh:
        roots, _ = solve_quadratic(a, b, c, tol)
        return [_unit_dir(1.0, slope) for slope in roots]
    dirs = [(0.0, 1.0)]
    if abs(b) > thresh:
        dirs.append(_unit_dir(1.0, -a / b))
    # a == 0 too would have been "all"; with only c ~ 0 the (0,1) root is double
    return dirs


def _unit_dir(dx, dy):
    n = math.hypot(dx, dy)
    return (dx / n, dy / n)


def curvature_ellipse(s: RegularSurfaceR4, theta: float) -> np.ndarray:
    """Normal curvature vector of the normal section at angle theta (two normal coords)."""
    (l1, m1, n1), (l2, m2, n2) = s.coeffs
    c, sn = math.cos(theta), math.sin(theta)
    return np.array(
        [
            l1 * c * c + 2.0 * m1 * c * sn + n1 * sn * sn,
            l2 * c * c + 2.0 * m2 * c * sn + n2 * sn * sn,
        ]
    )


@dataclass(frozen=True)
class TransferVerdict:
    m_directions: object
    s_directions: object
    directions_match: bool
    m_point_type: str
    s_point_type: str
    types_match: bool

    @property
    def passed(self) -> bool:
        return self.directions_match and self.types_match


def _angular_mismatch(a, b) -> float:
    # |sin(angle)| between projective unit directions
    return abs(a[0] * b[1] - a[1] * b[0])


def verify_transfer(
    adapted,
    pp: ParabolaProfile,
    aset: AsymptoticSet,
    s: RegularSurfaceR4,
    tol: Tolerances = DEFAULT_TOL,
) -> TransferVerdict:
    """Check that asymptotic directions and point type transfer to the projection."""
    s_dirs = s_asymptotic_directions(s, tol)
    s_type = type_of_count(math.inf if s_dirs == "all" else len(s_dirs))
    if aset.kind == "all":
        m_dirs = "all"
        directions_match = s_dirs == "all"
    else:
        m_dirs = [_unit_dir(*d) for d in aset.directions()]
        directions_match = s_dirs != "all" and len(m_dirs) == len(s_dirs)
        if directions_match:
            remaining = list(s_dirs)
            for d in m_dirs:
                best = min(remaining, key=lambda r: _angular_mismatch(d, r))
                if _angular_mismatch(d, best) > ANGULAR_TOL:
                    directions_match = False
                    break
                remaining.remove(best)
    m_type = point_type(aset)
    return TransferVerdict(
        m_directions=m_dirs,
        s_directions=s_dirs,
        directions_match=bool(directions_match),
        m_point_type=m_type,
        s_point_type=s_type,
        types_match=m_type == s_type,
    )
