"""Curvature parabola: shape, affine hull, distinguished plane, orbit, stratum.

The parabola trace is eta(y) = L + 2 M y + N y^2 in normal-frame coordinates,
where L, M, N are the columns of the second-form matrix.  Shape decisions run
exactly on rational input; the frames attached to the profile are float.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .forms import SecondForm, rank_second_form
from .germs import Jet2
from .linalg import (
    collinear3,
    cross3,
    dot3,
    float_vec,
    orthonormal_extension,
    unit,
    vec_is_zero,
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


@dataclass(frozen=True)
class ParabolaShape:
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


@dataclass(frozen=True)
class AffineSubspace:
    """Affine subspace of the normal space: base point + orthonormal directions."""

    point: np.ndarray
    basis: np.ndarray
    dim: int


@dataclass(frozen=True)
class PlaneBasis:
    """Orthonormal basis (u1, u2) of the distinguished plane and its unit normal.

    ``forced`` records whether the plane was determined by the geometry or
    completed by the canonical free choice (radial and point cases).
    """

    u1: np.ndarray
    u2: np.ndarray
    nu3: np.ndarray
    forced: bool

    def rows(self) -> np.ndarray:
        return np.array([self.u1, self.u2, self.nu3])

    def to_plane_coords(self, v) -> np.ndarray:
        arr = np.asarray([float(c) for c in v])
        return np.array([float(np.dot(self.u1, arr)), float(np.dot(self.u2, arr))])

    def from_plane_coords(self, a, b) -> np.ndarray:
        return a * self.u1 + b * self.u2


@dataclass(frozen=True)
class ParabolaProfile:
    Lvec: tuple
    Mvec: tuple
    Nvec: tuple
    shape: ParabolaShape
    orbit: str
    aff: AffineSubspace
    ep: PlaneBasis
    stratum: int
    ref: float  # the second form's ref: the scale of every float zero test

    def eta(self, y):
        return tuple(
            l + 2 * m * y + n * y * y
            for l, m, n in zip(self.Lvec, self.Mvec, self.Nvec)
        )

    @cached_property
    def plane_rows(self) -> tuple:
        """The second form's rows (l, m, n) along u1 and u2, in floats.

        A cache, not a field, so that ``dataclasses.replace`` recomputes it.
        """
        cols = (self.Lvec, self.Mvec, self.Nvec)
        return tuple(
            tuple(sum(float(u[i]) * float(col[i]) for i in range(3)) for col in cols)
            for u in (self.ep.u1, self.ep.u2)
        )


_SHAPE_TO_ORBIT = {
    "parabola": ORBIT_PARABOLA,
    "half_line": ORBIT_HALF_LINE,
    "line": ORBIT_LINE,
    "point": ORBIT_POINT,
}


def _decide_shape(sf: SecondForm, tol: Tolerances) -> ParabolaShape:
    L, M, N, ref = sf.L, sf.M, sf.N, sf.ref
    n_zero = vec_is_zero(N, tol.eps_rank, ref)
    m_zero = vec_is_zero(M, tol.eps_rank, ref)
    l_zero = vec_is_zero(L, tol.eps_rank, ref)
    if n_zero and m_zero:
        return ParabolaShape(kind="point", is_origin=l_zero)
    if n_zero:
        radial = l_zero or collinear3(sf.l_x_m, L, M, tol.eps_rank)
        return ParabolaShape(kind="line", radial=radial)
    if m_zero or collinear3(sf.w, M, N, tol.eps_rank):
        mu = dot3(M, N) / dot3(N, N)
        vertex = tuple(l - mu * mu * n for l, n in zip(L, N))
        vertex_zero = vec_is_zero(vertex, tol.eps_rank, ref)
        # the line through the vertex along N misses the origin by |L x N| / |N|
        radial = l_zero or vertex_zero or collinear3(sf.l_x_n, L, N, tol.eps_rank)
        return ParabolaShape(
            kind="half_line",
            radial=radial,
            vertex_param=-mu,
            vertex_is_origin=vertex_zero,
            vertex=vertex,
        )
    return ParabolaShape(kind="parabola")


def _plane_basis_from_normal(nu3: np.ndarray, forced: bool) -> PlaneBasis:
    """Canonical right-handed basis of the plane with unit normal nu3.

    The first basis vector is the projection of the lowest-index coordinate
    axis that is not close to the normal, so coordinate planes keep their
    coordinate bases.
    """
    for c in nu3:
        if abs(c) > 1e-13:
            if c < 0:
                nu3 = -nu3
            break
    k = next(i for i in range(3) if abs(nu3[i]) < 0.9)
    axis = np.zeros(3)
    axis[k] = 1.0
    u1 = axis - nu3[k] * nu3
    u1 /= np.linalg.norm(u1)
    u2 = np.array(cross3(nu3, u1))
    return PlaneBasis(u1=u1, u2=u2, nu3=nu3, forced=forced)


def _build_frames(sf: SecondForm, shape: ParabolaShape):
    lf = float_vec(sf.L)
    if shape.kind == "parabola":
        ep = _plane_basis_from_normal(unit(sf.w), forced=True)
        aff = AffineSubspace(point=lf, basis=np.array([ep.u1, ep.u2]), dim=2)
        return aff, ep
    if shape.kind == "point":
        # the plane must contain the segment from the origin to the trace
        aff = AffineSubspace(point=lf, basis=np.zeros((0, 3)), dim=0)
        rows = np.eye(3) if shape.is_origin else orthonormal_extension([unit(lf)], 3)
        return aff, PlaneBasis(rows[0], rows[1], np.array(cross3(rows[0], rows[1])), forced=False)
    # half-line along N from its vertex, or line along M through L; off the
    # origin, the plane is spanned by the direction and L
    half = shape.kind == "half_line"
    direction = unit(sf.N if half else sf.M)
    point = float_vec(shape.vertex) if half else lf
    aff = AffineSubspace(point=point, basis=np.array([direction]), dim=1)
    rows = orthonormal_extension([direction] if shape.radial else [direction, lf], 3)
    ep = PlaneBasis(rows[0], rows[1], np.array(cross3(rows[0], rows[1])), forced=not shape.radial)
    return aff, ep


def build_parabola(sf: SecondForm, tol: Tolerances = DEFAULT_TOL) -> ParabolaProfile:
    """Classify the parabola trace of a second form and attach hull, plane, stratum."""
    shape = _decide_shape(sf, tol)
    aff, ep = _build_frames(sf, shape)
    return ParabolaProfile(
        Lvec=sf.L,
        Mvec=sf.M,
        Nvec=sf.N,
        shape=shape,
        orbit=_SHAPE_TO_ORBIT[shape.kind],
        aff=aff,
        ep=ep,
        stratum=rank_second_form(sf, tol),
        ref=sf.ref,
    )


# ---------------------------------------------------------------------------
# Coefficient-level orbit classification
# ---------------------------------------------------------------------------


def classify_two_jet(j2: Jet2, tol: Tolerances = DEFAULT_TOL) -> str:
    """Orbit label from the 2-jet coefficient criteria, independent of geometry.

    Decided exactly on rational coefficients.  On floats the xy and y^2
    columns are compared with the whole jet's scale, and the degree-2 minors
    (their cross product, up to sign) with the product of their norms.
    """
    xy_col = (j2.a11, j2.b11, j2.c11)
    yy_col = (j2.a02, j2.b02, j2.c02)
    yy_zero = vec_is_zero(yy_col, tol.eps_rank, j2.ref)
    xy_zero = vec_is_zero(xy_col, tol.eps_rank, j2.ref)
    minors = cross3(xy_col, yy_col)
    gamma_zero = yy_zero or xy_zero or collinear3(minors, xy_col, yy_col, tol.eps_rank)
    if not gamma_zero:
        return ORBIT_PARABOLA
    if not yy_zero:
        return ORBIT_HALF_LINE
    if not xy_zero:
        return ORBIT_LINE
    return ORBIT_POINT


# ---------------------------------------------------------------------------
# Reduction to the normal forms of the four orbits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducedTwoJet:
    """Normal-form 2-jet with the witnessing source change and target rotation.

    ``target_rotation @ jet  composed with  source_matrix`` reproduces the
    reduced coefficients.  The source change is (x, y) -> (x, lam*x + mu*y).
    """

    jet2: Jet2
    orbit: str
    source_matrix: np.ndarray
    target_rotation: np.ndarray


def _jet_from_matrix(rows) -> Jet2:
    flat = [v for row in rows for v in row]
    return Jet2(*flat)


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


def apply_target_to_jet(rows, rot3):
    """Coefficient action of a target rotation acting on components 2..4."""
    out = []
    for i in range(3):
        out.append(
            [
                sum(rot3[i][k] * rows[k][col] for k in range(3))
                for col in range(3)
            ]
        )
    return out


def _already_reduced(j2: Jet2, orbit: str) -> bool:
    r = j2.rows()
    if orbit == ORBIT_PARABOLA:
        return (
            r[0] == (0, 1, 0)
            and j2.c11 == 0
            and j2.c02 == 0
            and j2.b02 > 0
        )
    if orbit == ORBIT_HALF_LINE:
        return (
            j2.a11 == 0
            and j2.a02 == 1
            and r[1][1] == 0
            and r[1][2] == 0
            and r[2] == (0, 0, 0)
        )
    if orbit == ORBIT_LINE:
        return (
            r[0] == (0, 1, 0)
            and r[1][1] == 0
            and r[1][2] == 0
            and r[2] == (0, 0, 0)
        )
    return (
        r[0] == (0, 0, 0)
        and r[1][1] == 0
        and r[1][2] == 0
        and r[2] == (0, 0, 0)
    )


def reduce_to_normal_form(j2: Jet2, tol: Tolerances = DEFAULT_TOL) -> ReducedTwoJet:
    """Reduce a prenormal 2-jet to its orbit normal form by a source change
    and a target rotation, returning both witnesses.

    Already-reduced jets come back unchanged with identity witnesses.
    """
    orbit = classify_two_jet(j2, tol)
    if _already_reduced(j2, orbit):
        return ReducedTwoJet(
            jet2=j2,
            orbit=orbit,
            source_matrix=np.eye(2),
            target_rotation=np.eye(4),
        )

    rows = [[float(v) for v in row] for row in j2.rows()]
    col = lambda k: np.array([rows[i][k] for i in range(3)])
    A, B, C = col(0), col(1), col(2)

    def right_handed(w1, w2):
        return np.array([w1, w2, cross3(w1, w2)])

    def secondary_axis(w1, v):
        # unit vector orthogonal to w1, following v (the x^2 column, shorter than
        # ref) when it has a usable component off the w1-line, else the canonical one
        off_line = np.linalg.norm(v - np.dot(v, w1) * w1)
        if off_line > 1e-13 * j2.ref:
            return orthonormal_extension([w1, v], 3)[1]
        return orthonormal_extension([w1], 3)[1]

    if orbit == ORBIT_PARABOLA:
        # B's part off C, without the cancellation of subtracting its projection
        rot3 = right_handed(unit(cross3(C, cross3(B, C))), unit(C))
        rotated = apply_target_to_jet(rows, rot3)
        lam = -rotated[0][0] / rotated[0][1]
        mu = 1.0 / rotated[0][1]
    elif orbit == ORBIT_HALF_LINE:
        w1 = unit(C)
        rot3 = right_handed(w1, secondary_axis(w1, A))
        rotated = apply_target_to_jet(rows, rot3)
        lam = -rotated[0][1] / (2.0 * rotated[0][2])
        mu = 1.0 / np.sqrt(rotated[0][2])
    elif orbit == ORBIT_LINE:
        w1 = unit(B)
        rot3 = right_handed(w1, secondary_axis(w1, A))
        rotated = apply_target_to_jet(rows, rot3)
        lam = -rotated[0][0] / rotated[0][1]
        mu = 1.0 / rotated[0][1]
    else:  # ORBIT_POINT: move the x^2 column onto the second normal direction
        a_hat = unit(A)
        rot3 = right_handed(orthonormal_extension([a_hat], 3)[1], a_hat)
        rotated = apply_target_to_jet(rows, rot3)
        lam, mu = 0.0, 1.0

    reduced = apply_source_to_jet(rotated, lam, mu)
    target = np.eye(4)
    target[1:, 1:] = rot3
    source = np.array([[1.0, 0.0], [lam, mu]])
    return ReducedTwoJet(
        jet2=_jet_from_matrix(reduced),
        orbit=orbit,
        source_matrix=source,
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
