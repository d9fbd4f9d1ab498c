"""Curvature parabola: shape, affine hull, distinguished plane, orbit, stratum.

The parabola trace is eta(y) = L + 2 M y + N y^2 in normal-frame coordinates,
where L, M, N are the columns of the second-form matrix.  Shape decisions run
exactly on rational input; the frames attached to the profile are float
tuples.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from .config import DEFAULT_TOL, Tolerances
from .forms import SecondForm, rank_second_form
from .germs import Jet2
from .linalg import (
    collinear3,
    cross3,
    dot3,
    first_entry_positive,
    float_dot,
    float_vec,
    identity,
    orthonormal_extension,
    unit,
    vec_is_zero,
    vec_norm,
)

__all__ = [
    "ORBIT_PARABOLA",
    "ORBIT_HALF_LINE",
    "ORBIT_LINE",
    "ORBIT_POINT",
    "ParabolaShape",
    "AffineSubspace",
    "PlaneBasis",
    "ParabolaProfile",
    "build_parabola",
    "classify_two_jet",
    "ReducedTwoJet",
    "reduce_to_normal_form",
    "sample_parabola",
]

ORBIT_PARABOLA = "(x,xy,y^2,0)"
ORBIT_HALF_LINE = "(x,y^2,0,0)"
ORBIT_LINE = "(x,xy,0,0)"
ORBIT_POINT = "(x,0,0,0)"

_EYE3 = identity(3)


class ParabolaShape(NamedTuple):
    """Geometric type of the parabola trace.

    ``kind`` is one of "parabola", "half_line", "line", "point".  The radial
    flag tells whether the line containing the trace passes through the
    origin; for half-lines the vertex data is recorded separately because the
    binormal count distinguishes a radial half-line with vertex at the origin
    from one with the vertex elsewhere.  ``vertex`` is the half-line's
    vertex point, in the entries' own arithmetic.
    """

    kind: str
    radial: bool | None = None
    vertex_param: object | None = None
    vertex_is_origin: bool | None = None
    is_origin: bool | None = None
    vertex: tuple | None = None

    def label(self) -> str:
        if self.kind == "parabola":
            return "nondegenerate parabola"
        if self.kind == "half_line":
            return ("radial" if self.radial else "non-radial") + " half-line"
        if self.kind == "line":
            return ("radial" if self.radial else "non-radial") + " line"
        return "point at origin" if self.is_origin else "point away from origin"


class AffineSubspace(NamedTuple):
    """Affine subspace of the normal space: base point + orthonormal directions."""

    point: tuple
    basis: tuple
    dim: int


class PlaneBasis(NamedTuple):
    """Orthonormal basis (u1, u2) of the distinguished plane and its unit normal.

    ``forced`` records whether the plane was determined by the geometry or
    completed by the canonical free choice (radial and point cases).
    """

    u1: tuple
    u2: tuple
    nu3: tuple
    forced: bool

    def rows(self) -> tuple:
        return (self.u1, self.u2, self.nu3)

    def to_plane_coords(self, v) -> tuple:
        f = float_vec(v)
        return (dot3(self.u1, f), dot3(self.u2, f))

    def from_plane_coords(self, a, b) -> tuple:
        return tuple(a * x + b * y for x, y in zip(self.u1, self.u2))


class _ProfileFields(NamedTuple):
    sf: SecondForm
    shape: ParabolaShape
    aff: AffineSubspace
    ep: PlaneBasis
    stratum: int


class ParabolaProfile(_ProfileFields):
    """The parabola trace's second form, shape, hull, plane and stratum.

    The columns of the trace and the scale of its zero tests are the second
    form's, ``sf.L``, ``sf.M``, ``sf.N`` and ``sf.ref``, and the shape implies
    the orbit.  A subclass without ``__slots__``, so that each instance has a
    dict for the ``plane_rows`` cache, which ``_replace`` leaves empty.
    """

    @property
    def orbit(self) -> str:
        return _SHAPE_TO_ORBIT[self.shape.kind]

    def eta(self, y):
        sf = self.sf
        return tuple(l + 2 * m * y + n * y * y for l, m, n in zip(sf.L, sf.M, sf.N))

    def float_eta(self, y: float) -> tuple:
        """``eta(y)`` at a float ``y``, with the bits of ``float_vec(eta(y))``: there a
        Fraction meeting a float converts itself first, here each column once."""
        return tuple(l + 2 * m * y + n * y * y for l, m, n in zip(*self.sf.float_columns))

    @cached_property
    def plane_rows(self) -> tuple:
        """The second form's rows (l, m, n) along u1 and u2, in floats.

        A cache, not a field, so that ``_replace`` recomputes it.
        """
        cols = self.sf.float_columns
        return tuple(tuple(float_dot(u, col) for col in cols) for u in (self.ep.u1, self.ep.u2))


_SHAPE_TO_ORBIT = {
    "parabola": ORBIT_PARABOLA,
    "half_line": ORBIT_HALF_LINE,
    "line": ORBIT_LINE,
    "point": ORBIT_POINT,
}


def _orbit_kind(sf: SecondForm, tol: Tolerances) -> str:
    """The shape kind that decides the orbit: "point" when M and N are zero,
    "line" when N alone is, "half_line" when M x N is, else "parabola"."""
    n_zero = vec_is_zero(sf.N, tol.eps_rank, sf.ref)
    m_zero = vec_is_zero(sf.M, tol.eps_rank, sf.ref)
    if n_zero:
        return "point" if m_zero else "line"
    if m_zero or collinear3(sf.w, sf.M, sf.N, tol.eps_rank):
        return "half_line"
    return "parabola"


def _decide_shape(sf: SecondForm, tol: Tolerances) -> ParabolaShape:
    kind = _orbit_kind(sf, tol)
    if kind == "parabola":
        return ParabolaShape(kind="parabola")
    L, M, N, ref = sf.L, sf.M, sf.N, sf.ref
    l_zero = vec_is_zero(L, tol.eps_rank, ref)
    if kind == "point":
        return ParabolaShape(kind="point", is_origin=l_zero)
    if kind == "line":
        radial = l_zero or collinear3(sf.l_x_m, L, M, tol.eps_rank)
        return ParabolaShape(kind="line", radial=radial)
    mu = dot3(M, N) / dot3(N, N)
    vertex = tuple(l - mu * mu * n for l, n in zip(L, N))
    vertex_zero = vec_is_zero(vertex, tol.eps_rank, ref)
    # the line through the vertex along N misses the origin by |L x N| / |N|
    radial = l_zero or vertex_zero or collinear3(sf.l_x_n, L, N, tol.eps_rank)
    return ParabolaShape(kind="half_line", radial=radial, vertex_param=-mu, vertex_is_origin=vertex_zero, vertex=vertex)


def _plane_basis_from_normal(nu3: tuple, forced: bool) -> PlaneBasis:
    """Canonical right-handed basis of the plane with unit normal nu3.

    The first basis vector is the projection of the lowest-index coordinate
    axis that is not close to the normal, so coordinate planes keep their
    coordinate bases.
    """
    nu3 = first_entry_positive(nu3)
    k = next(i for i in range(3) if abs(nu3[i]) < 0.9)
    u1 = tuple(float(i == k) - nu3[k] * x for i, x in enumerate(nu3))
    size = vec_norm(u1)
    u1 = tuple(x / size for x in u1)
    return PlaneBasis(u1=u1, u2=cross3(nu3, u1), nu3=nu3, forced=forced)


def _build_frames(sf: SecondForm, shape: ParabolaShape):
    lf, mf, nf = sf.float_columns
    if shape.kind == "parabola":
        ep = _plane_basis_from_normal(unit(sf.w), forced=True)
        aff = AffineSubspace(point=lf, basis=(ep.u1, ep.u2), dim=2)
        return aff, ep
    if shape.kind == "point":
        # the plane must contain the segment from the origin to the trace
        aff = AffineSubspace(point=lf, basis=(), dim=0)
        rows = _EYE3 if shape.is_origin else orthonormal_extension([unit(lf)], 3)
        return aff, PlaneBasis(rows[0], rows[1], cross3(rows[0], rows[1]), forced=False)
    # half-line along N from its vertex, or line along M through L; off the
    # origin, the plane is spanned by the direction and L
    half = shape.kind == "half_line"
    direction = unit(nf if half else mf)
    point = float_vec(shape.vertex) if half else lf
    aff = AffineSubspace(point=point, basis=(direction,), dim=1)
    rows = orthonormal_extension([direction] if shape.radial else [direction, lf], 3)
    ep = PlaneBasis(rows[0], rows[1], cross3(rows[0], rows[1]), forced=not shape.radial)
    return aff, ep


def build_parabola(sf: SecondForm, tol: Tolerances = DEFAULT_TOL) -> ParabolaProfile:
    """Classify the parabola trace of a second form and attach hull, plane, stratum."""
    shape = _decide_shape(sf, tol)
    aff, ep = _build_frames(sf, shape)
    return ParabolaProfile(sf=sf, shape=shape, aff=aff, ep=ep, stratum=rank_second_form(sf, tol))


# ---------------------------------------------------------------------------
# Orbit label of a 2-jet
# ---------------------------------------------------------------------------


def classify_two_jet(j2: Jet2, tol: Tolerances = DEFAULT_TOL) -> str:
    """Orbit label of a 2-jet: the shape kind of its second form, decided by
    the tests that ``build_parabola`` runs (exact on rational coefficients)."""
    return _SHAPE_TO_ORBIT[_orbit_kind(j2.second_form, tol)]


# ---------------------------------------------------------------------------
# Reduction to the normal forms of the four orbits
# ---------------------------------------------------------------------------


class ReducedTwoJet(NamedTuple):
    """Normal-form 2-jet with the witnessing source change and target rotation.

    ``target_rotation @ jet  composed with  source_matrix`` reproduces the
    reduced coefficients.  The source change is (x, y) -> (x, lam*x + mu*y).
    """

    jet2: Jet2
    orbit: str
    source_matrix: tuple
    target_rotation: tuple


def apply_source_to_jet(rows, lam, mu):
    """Coefficient action of the source change (x, y) -> (x, lam*x + mu*y)."""
    out = []
    for a, b, c in rows:
        out.append(
            [
                a + lam * b + lam * lam * c,
                mu * b + 2 * lam * mu * c,
                mu * mu * c,
            ]
        )
    return out


def reduce_to_normal_form(j2: Jet2, tol: Tolerances = DEFAULT_TOL) -> ReducedTwoJet:
    """Reduce a prenormal 2-jet to its orbit normal form by a source change
    and a target rotation, returning both witnesses.

    The orbit fixes the rotation of components 2..4 from the columns of the
    jet, and the source change from the rotated first row.  When both come
    out as the identity, computed in floats, the jet is already reduced: it
    comes back as given, exact entries staying exact, with identity
    witnesses.  So an exact jet within rounding of its normal form, such as
    one with a02 = 1 + 1/10^20 on the half-line orbit, comes back unchanged,
    and its witnesses reproduce it exactly.  A point-orbit jet with a zero
    x^2 column, such as the zero jet, has nothing to rotate and comes back
    as given too.
    """
    sf = j2.second_form
    orbit = classify_two_jet(j2, tol)
    # the raw columns: halving the form's doubled x^2 and y^2 columns moves no bit
    lf, B, nf = sf.float_columns
    A, C = (tuple(x / 2 for x in col) for col in (lf, nf))

    def right_handed(w1, w2):
        return (w1, w2, cross3(w1, w2))

    def secondary_axis(w1, v):
        # unit vector orthogonal to w1, following v (the x^2 column, shorter than
        # ref) when it has a usable component off the w1-line, else the canonical one
        d = dot3(v, w1)
        off_line = vec_norm([x - d * y for x, y in zip(v, w1)])
        if off_line > 1e-13 * sf.ref:
            return orthonormal_extension([w1, v], 3)[1]
        return orthonormal_extension([w1], 3)[1]

    if orbit == ORBIT_PARABOLA:
        # B's part off C, without the cancellation of subtracting its projection
        rot3 = right_handed(unit(cross3(C, cross3(B, C))), unit(C))
    elif orbit in (ORBIT_HALF_LINE, ORBIT_LINE):
        w1 = unit(C if orbit == ORBIT_HALF_LINE else B)
        rot3 = right_handed(w1, secondary_axis(w1, A))
    elif any(A):  # ORBIT_POINT: move the x^2 column onto the second normal direction
        a_hat = unit(A)
        rot3 = right_handed(orthonormal_extension([a_hat], 3)[1], a_hat)
    else:  # a zero x^2 column, as on the zero jet: nothing to rotate
        rot3 = _EYE3
    rotated = [[float_dot(r, col) for col in (A, B, C)] for r in rot3]
    a = rotated[0]
    if orbit == ORBIT_HALF_LINE:
        lam, mu = -a[1] / (2.0 * a[2]), 1.0 / math.sqrt(a[2])
    elif orbit in (ORBIT_PARABOLA, ORBIT_LINE):
        lam, mu = -a[0] / a[1], 1.0 / a[1]
    else:
        lam, mu = 0.0, 1.0
    if rot3 == _EYE3 and lam == 0 and mu == 1:
        return ReducedTwoJet(jet2=j2, orbit=orbit, source_matrix=identity(2), target_rotation=identity(4))

    reduced = apply_source_to_jet(rotated, lam, mu)
    target = ((1.0, 0.0, 0.0, 0.0),) + tuple((0.0, *row) for row in rot3)
    return ReducedTwoJet(
        jet2=Jet2(*(v for row in reduced for v in row)),
        orbit=orbit,
        source_matrix=((1.0, 0.0), (lam, mu)),
        target_rotation=target,
    )


def sample_parabola(pp: ParabolaProfile, lo: float = -5.0, hi: float = 5.0, n: int = 401):
    """Sample (y, eta1, eta2, eta3) rows in normal-frame coordinates."""
    rows = []
    if n == 1:
        ys = [lo]
    else:
        ys = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
    for y in ys:
        e = pp.eta(float(y))
        rows.append((float(y), float(e[0]), float(e[1]), float(e[2])))
    return rows
