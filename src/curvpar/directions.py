"""Asymptotic and binormal directions, osculating hyperplanes, point types.

Tangent directions are tracked through the parabola parameter: y stands for
the unit tangent direction (1, y) and the marker ``y_inf`` for the null
direction (0, 1).  All computations happen in a frame whose first two normal
vectors span the distinguished plane of the profile.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .config import DEFAULT_TOL, Tolerances
from .forms import SecondForm
from .linalg import first_entry_positive, negligible_lazy, unit, vec_norm
from .parabola import ParabolaProfile

__all__ = [
    "Y_INF",
    "AsymptoticSet",
    "Binormal",
    "BinormalSet",
    "asymptotic_directions",
    "binormal_directions",
    "directions_match",
    "osculating_hyperplanes",
    "point_type",
    "type_of_count",
    "plane_quadratic",
    "solve_quadratic",
    "unit_direction",
]

Y_INF = "y_inf"


class AsymptoticSet(NamedTuple):
    """Either finitely many asymptotic parameters or all tangent directions.

    ``quadratic`` holds the coefficients (q0, q1, q2) of the root polynomial
    q0 + q1*y + q2*y^2 in the plane frame, kept even when the shape rule
    decided.  A parabola's roots are those of
    ``SecondForm.asymptotic_quadratic``, solved monic, and its
    ``discriminant`` is the monic one's, (y1 - y2)^2; a degenerate shape's
    is that of ``quadratic``.
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
        """Finite asymptotic parameters as unit tangent directions: along (1, y), then (0, 1)."""
        dirs = [unit_direction(y) for y in self.params]
        if self.includes_infinity:
            dirs.append((0.0, 1.0))
        return dirs


def unit_direction(y) -> tuple:
    """The unit tangent direction along (1, y)."""
    y = float(y)
    n = math.hypot(1.0, y)
    return (1.0 / n, y / n)


def directions_match(a, b, tol) -> bool:
    """Whether two lists of unit tangent directions pair one to one, each pair
    within ``tol`` of the sine of the angle between them; "all" matches only "all"."""
    if a == "all" or b == "all":
        return a == b
    return len(a) == len(b) and any(
        all(abs(x[0] * y[1] - x[1] * y[0]) <= tol for x, y in zip(a, pairing))
        for pairing in itertools.permutations(b)
    )


class Binormal(NamedTuple):
    """Unit binormal vector in normal-frame coordinates, with its source parameter.

    ``param`` is the paired asymptotic parameter: a number, ``y_inf``, or
    None when the direction comes from the degenerate-shape rule rather than
    a particular parameter.
    """

    param: object
    vector: tuple


class BinormalSet(NamedTuple):
    kind: str                 # "finite" | "all"
    items: tuple

    @property
    def count(self):
        if self.kind == "all":
            return math.inf
        return len(self.items)


def plane_quadratic(rows) -> tuple:
    """Asymptotic equation q0 dx^2 + q1 dx dy + q2 dy^2 = 0 of second-form rows
    (l, m, n) along two normals: det([[l1, m1, n1], [l2, m2, n2], [dy^2, -dx dy, dx^2]])."""
    (l1, m1, n1), (l2, m2, n2) = rows
    return (l1 * m2 - l2 * m1, l1 * n2 - l2 * n1, m1 * n2 - m2 * n1)


def solve_quadratic(q0, q1, q2, tol: Tolerances):
    """Real roots of q0 + q1*t + q2*t^2 with the declared double-root policy.

    Exact input decides the double root without a threshold, by
    ``disc == 0``, and the root is then itself rational; float input
    compares ``disc`` with ``eps_disc`` times its largest term.  Returns
    (roots, disc); two distinct roots come in the order
    (-q1 - sqrt(disc)) / (2*q2), (-q1 + sqrt(disc)) / (2*q2).
    """
    disc = q1 * q1 - 4 * q0 * q2
    # the threshold, in the coefficients' own arithmetic: float q1**2 raises
    # where q1 * q1 would give an infinite threshold, which would decide a
    # double root
    try:
        double = negligible_lazy(disc, lambda: Fraction(tol.eps_disc) * max(q1**2, abs(4 * q0 * q2)))
    except OverflowError:
        raise ValueError("the asymptotic quadratic leaves the float range") from None
    if double:
        return [-q1 / (2 * q2)], disc
    if disc > 0:
        # q takes the sign of -q1, so neither root cancels
        sq = math.copysign(math.sqrt(disc), q1)
        q = -(q1 + sq) / 2
        return ([q / q2, q0 / q] if sq > 0 else [q0 / q, q / q2]), disc
    return [], disc


def asymptotic_directions(
    pp: ParabolaProfile, sf: SecondForm, tol: Tolerances = DEFAULT_TOL
) -> AsymptoticSet:
    """Asymptotic parameter set; the shape rule decides degenerate cases.

    Counts follow the geometry: nondegenerate parabola 0/1/2 by discriminant
    sign, non-radial half-line {vertex, y_inf}, non-radial line {y_inf},
    and every direction for the radial and point shapes.
    """
    quad = plane_quadratic(pp.plane_rows)

    shape = pp.shape
    if shape.kind == "parabola":
        # solved monic (q2 = |w|^2 > 0): the discriminant, the squared root
        # difference, lies in the float range whenever the roots do
        q0, q1, q2 = sf.asymptotic_quadratic
        roots, disc = solve_quadratic(q0 / q2, q1 / q2, 1, tol)
        return AsymptoticSet("finite", tuple(sorted(roots)), False, quad, disc)
    disc = quad[1] * quad[1] - 4 * quad[0] * quad[2]
    if shape.kind in ("half_line", "line") and not shape.radial:
        params = (shape.vertex_param,) if shape.kind == "half_line" else ()
        return AsymptoticSet("finite", params, True, quad, disc)
    return AsymptoticSet("all", (), True, quad, disc)


def _null_direction_binormal(pp, sf, y):
    """Binormal for a finite asymptotic parameter from the 2x2 null space.

    The shape test guarantees a nonzero system: M + yN never vanishes on a
    nondegenerate parabola, nor L + yM at a non-radial half-line's vertex.
    """
    y = float(y)
    # a Fraction meeting a float converts itself first: the float columns give the same bits
    L, M, N = sf.float_columns
    row1 = pp.ep.to_plane_coords(tuple(l + m * y for l, m in zip(L, M)))
    row2 = pp.ep.to_plane_coords(tuple(m + n * y for m, n in zip(M, N)))
    # a norm beyond the float range is inf, which compares as the larger
    r = row1 if vec_norm(row1) >= vec_norm(row2) else row2
    ab = unit([-r[1], r[0]])
    return first_entry_positive(pp.ep.from_plane_coords(ab[0], ab[1]))


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
                kind="finite", items=(Binormal(param=None, vector=u2),)
            )
        vertex_binormal = _null_direction_binormal(pp, sf, shape.vertex_param)
        items = [Binormal(param=shape.vertex_param, vector=vertex_binormal)]
        items.append(Binormal(param=Y_INF, vector=u2))
        return BinormalSet(kind="finite", items=tuple(items))

    if shape.kind == "line":
        # one direction whether or not the line is radial
        return BinormalSet(kind="finite", items=(Binormal(param=Y_INF, vector=u2),))

    if shape.is_origin:
        return BinormalSet(kind="all", items=())
    return BinormalSet(kind="finite", items=(Binormal(param=Y_INF, vector=tuple(-c for c in u2)),))


def osculating_hyperplanes(bs: BinormalSet):
    """The unit normal in R^4 of the osculating hyperplane (through the origin)
    of each binormal; "all" marker otherwise.

    Normals are embedded in the adapted target coordinates, where the tangent
    line is the first axis.
    """
    if bs.kind == "all":
        return "all"
    return [(0.0, *b.vector) for b in bs.items]


_POINT_TYPES = {0: "elliptic", 1: "parabolic", 2: "hyperbolic", math.inf: "inflection"}


def type_of_count(n) -> str:
    """elliptic / parabolic / hyperbolic / inflection for 0 / 1 / 2 / infinitely many directions."""
    if n not in _POINT_TYPES:
        raise ValueError(f"unexpected asymptotic direction count {n}")
    return _POINT_TYPES[n]


def point_type(aset: AsymptoticSet) -> str:
    """Point type from the number of asymptotic directions."""
    return type_of_count(aset.count)
