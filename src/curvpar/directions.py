"""Asymptotic and binormal directions, osculating hyperplanes, point types.

Tangent directions are tracked through the parabola parameter: y stands for
the unit tangent direction (1, y) and the marker ``y_inf`` for the null
direction (0, 1).  All computations happen in a frame whose first two normal
vectors span the distinguished plane of the profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .forms import SecondForm
from .germs import extract_jet2
from .linalg import cross3, dot3, negligible
from .parabola import ParabolaProfile

__all__ = [
    "Y_INF",
    "AsymptoticSet",
    "Binormal",
    "BinormalSet",
    "Hyperplane",
    "asymptotic_directions",
    "binormal_directions",
    "osculating_hyperplanes",
    "point_type",
    "type_of_count",
    "ik_classify",
    "solve_quadratic",
]

Y_INF = "y_inf"


@dataclass(frozen=True)
class AsymptoticSet:
    """Either finitely many asymptotic parameters or all tangent directions.

    ``quadratic`` holds the coefficients (q0, q1, q2) of the root polynomial
    q0 + q1*y + q2*y^2 in the plane frame; it is kept even when the shape
    rule, not the quadratic, decided the answer.
    """

    kind: str                 # "finite" | "all"
    params: tuple             # finite parameters, ascending
    includes_infinity: bool
    quadratic: tuple
    discriminant: object

    @property
    def count(self):
        if self.kind == "all":
            return math.inf
        return len(self.params) + (1 if self.includes_infinity else 0)

    def directions(self):
        """Finite asymptotic parameters as tangent direction pairs (1, y) / (0, 1)."""
        dirs = [(1.0, float(y)) for y in self.params]
        if self.includes_infinity:
            dirs.append((0.0, 1.0))
        return dirs


@dataclass(frozen=True)
class Binormal:
    """Unit binormal vector in normal-frame coordinates, with its source parameter.

    ``param`` is the paired asymptotic parameter: a number, ``y_inf``, or
    None when the direction comes from the degenerate-shape rule rather than
    a particular parameter.
    """

    param: object
    vector: np.ndarray


@dataclass(frozen=True)
class BinormalSet:
    kind: str                 # "finite" | "all"
    items: tuple

    @property
    def count(self):
        if self.kind == "all":
            return math.inf
        return len(self.items)


@dataclass(frozen=True)
class Hyperplane:
    """Osculating hyperplane through the origin, stored by its unit normal in R^4."""

    normal: np.ndarray


def _det3(a, b, c):
    return dot3(a, cross3(b, c))


def _quadratic_exact(sf: SecondForm):
    """Exact root polynomial for the nondegenerate case, up to a positive factor.

    With w = M x N, the collinearity determinant of the projected parabola
    equals det(eta, eta', w) / |w| up to sign, and det(eta(y), eta'(y), w) =
    2*(det(L,M,w) + det(L,N,w) y + det(M,N,w) y^2) has exact coefficients.
    """
    L, M, N = sf.L, sf.M, sf.N
    w = cross3(M, N)
    return (_det3(L, M, w), _det3(L, N, w), _det3(M, N, w))


def solve_quadratic(q0, q1, q2, tol: Tolerances):
    """Real roots of q0 + q1*t + q2*t^2 with the declared double-root policy.

    The double root is decided exactly on rational coefficients, and is then
    itself rational.  Returns (roots, disc); two distinct roots come in the
    order (-q1 - sqrt(disc)) / (2*q2), (-q1 + sqrt(disc)) / (2*q2).
    """
    disc = q1 * q1 - 4 * q0 * q2
    # in the coefficients' own arithmetic: exact ones may lie beyond the float range
    threshold = Fraction(tol.eps_disc) * max(q1**2, abs(4 * q0 * q2))
    if negligible(disc, threshold):
        return [-q1 / (2 * q2)], disc
    if disc > 0:
        sq = math.sqrt(disc)
        return [(-q1 - sq) / (2 * q2), (-q1 + sq) / (2 * q2)], disc
    return [], disc


def asymptotic_directions(
    pp: ParabolaProfile, sf: SecondForm, tol: Tolerances = DEFAULT_TOL
) -> AsymptoticSet:
    """Asymptotic parameter set; the shape rule decides degenerate cases.

    Counts follow the geometry: nondegenerate parabola 0/1/2 by discriminant
    sign, non-radial half-line {vertex, y_inf}, non-radial line {y_inf},
    and every direction for the radial and point shapes.
    """
    frame = sf.reframe(pp.ep.rows())
    (l1, m1, n1), (l2, m2, n2), _ = frame.matrix
    quad = (l1 * m2 - l2 * m1, l1 * n2 - l2 * n1, m1 * n2 - m2 * n1)

    shape = pp.shape
    if shape.kind == "parabola":
        q = _quadratic_exact(sf) if sf.is_exact else quad
        roots, disc = solve_quadratic(*q, tol)
        return AsymptoticSet(
            kind="finite",
            params=tuple(sorted(roots)),
            includes_infinity=False,
            quadratic=quad,
            discriminant=disc,
        )
    disc = quad[1] * quad[1] - 4 * quad[0] * quad[2]
    if shape.kind == "half_line" and not shape.radial:
        return AsymptoticSet(
            kind="finite",
            params=(shape.vertex_param,),
            includes_infinity=True,
            quadratic=quad,
            discriminant=disc,
        )
    if shape.kind == "line" and not shape.radial:
        return AsymptoticSet(
            kind="finite",
            params=(),
            includes_infinity=True,
            quadratic=quad,
            discriminant=disc,
        )
    return AsymptoticSet(
        kind="all", params=(), includes_infinity=True, quadratic=quad, discriminant=disc
    )


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    for c in vec:
        if abs(c) > 1e-14:
            return vec if c > 0 else -vec
    return vec


def _null_direction_binormal(pp, sf, y):
    """Binormal for a finite asymptotic parameter from the 2x2 null space.

    The shape test guarantees a nonzero system: M + yN never vanishes on a
    nondegenerate parabola, nor L + yM at a non-radial half-line's vertex.
    """
    u = (1.0, float(y))
    row1 = pp.ep.to_plane_coords(
        tuple(l + m * u[1] for l, m in zip(sf.L, sf.M))
    )
    row2 = pp.ep.to_plane_coords(
        tuple(m + n * u[1] for m, n in zip(sf.M, sf.N))
    )
    r = row1 if np.linalg.norm(row1) >= np.linalg.norm(row2) else row2
    ab = np.array([-r[1], r[0]])
    ab = ab / np.linalg.norm(ab)
    vec = pp.ep.from_plane_coords(ab[0], ab[1])
    return _fix_sign(vec)


def binormal_directions(
    pp: ParabolaProfile,
    sf: SecondForm,
    aset: AsymptoticSet,
    tol: Tolerances = DEFAULT_TOL,
) -> BinormalSet:
    """Binormal directions paired with the asymptotic parameters producing them.

    Each vector is orthogonal, inside the distinguished plane, to the span of
    the projected parabola point and velocity at its parameter.  Counts per
    shape: parabola one per root; non-radial half-line two; radial half-line
    one (all when the vertex is the origin); line and point away from the
    origin one; point at the origin all.
    """
    shape = pp.shape
    u2 = pp.ep.u2

    if shape.kind == "parabola":
        items = tuple(
            Binormal(param=y, vector=_null_direction_binormal(pp, sf, y)) for y in aset.params
        )
        return BinormalSet(kind="finite", items=items)

    if shape.kind == "half_line":
        if shape.radial:
            if shape.vertex_is_origin:
                return BinormalSet(kind="all", items=())
            return BinormalSet(
                kind="finite", items=(Binormal(param=None, vector=u2.copy()),)
            )
        vertex_binormal = _null_direction_binormal(pp, sf, shape.vertex_param)
        items = [Binormal(param=shape.vertex_param, vector=vertex_binormal)]
        items.append(Binormal(param=Y_INF, vector=u2.copy()))
        return BinormalSet(kind="finite", items=tuple(items))

    if shape.kind == "line":
        # one direction whether or not the line is radial
        return BinormalSet(kind="finite", items=(Binormal(param=Y_INF, vector=u2.copy()),))

    if shape.is_origin:
        return BinormalSet(kind="all", items=())
    return BinormalSet(kind="finite", items=(Binormal(param=Y_INF, vector=-u2),))


def osculating_hyperplanes(bs: BinormalSet):
    """One hyperplane (unit normal through the origin) per binormal; "all" marker otherwise.

    Normals are embedded in the adapted target coordinates, where the tangent
    line is the first axis.
    """
    if bs.kind == "all":
        return "all"
    planes = []
    for b in bs.items:
        normal = np.concatenate(([0.0], np.asarray(b.vector, dtype=float)))
        planes.append(Hyperplane(normal=normal))
    return planes


_POINT_TYPES = {0: "elliptic", 1: "parabolic", 2: "hyperbolic", math.inf: "inflection"}


def type_of_count(n) -> str:
    """elliptic / parabolic / hyperbolic / inflection for 0 / 1 / 2 / infinitely many directions."""
    if n not in _POINT_TYPES:
        raise ValueError(f"unexpected asymptotic direction count {n}")
    return _POINT_TYPES[n]


def point_type(aset: AsymptoticSet) -> str:
    """Point type from the number of asymptotic directions."""
    return type_of_count(aset.count)


def ik_classify(adapted, tol: Tolerances = DEFAULT_TOL) -> str:
    """Point type of a germ in the reduced nondegenerate normal form.

    Requires the 2-jet (x, xy, b20 x^2 + b11 xy + b02 y^2, c20 x^2) with
    b02 > 0; the answer is the sign of b20.
    """
    j2 = extract_jet2(adapted)
    vals = (j2.a20, j2.a11 - 1, j2.a02, j2.c11, j2.c02)
    bound = tol.eps_rank * j2.ref
    if not (all(negligible(v, bound) for v in vals) and j2.b02 > 0):
        raise ValueError(
            "germ 2-jet is not in the reduced form (x, xy, b20 x^2 + b11 xy + b02 y^2, c20 x^2)"
        )
    b20 = j2.b20
    if negligible(b20, bound):
        return "parabolic"
    return "hyperbolic" if b20 > 0 else "elliptic"
