"""Height-function analysis: Hessians, the degenerate-direction cone, corank-2 loci.

The height function along a normal direction has the second form as its
Hessian at the singular point, so its degeneracy locus is a quadratic cone
over the normal space and its corank-2 locus is the common kernel of the
coefficient columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .config import DEFAULT_TOL, Tolerances
from .directions import AsymptoticSet, BinormalSet
from .forms import SecondForm, rank_second_form
from .linalg import (
    cross3,
    dot3,
    float_vec,
    identity,
    orthonormal_extension,
    subspace_distance,
    unit,
)
from .parabola import _plane_basis_from_normal

__all__ = [
    "DegeneracyCone",
    "Corank2Verdict",
    "height_hessian",
    "degeneracy_cone",
    "corank2_conditions",
    "cone_parabola_orthogonality",
    "sample_cone",
]

# operator-norm distance below which the expected and computed corank-2 loci agree
BASIS_TOL = 1e-9
# sample_cone's spherical grid: azimuth and polar angle counts, poles included
CONE_THETA_SAMPLES = 36
CONE_PHI_SAMPLES = 19


@dataclass(frozen=True)
class DegeneracyCone:
    """Quadratic form of det H(h_nu) over normal coordinates plus the corank-2 locus.

    ``quad`` is symmetric 3x3 with nu . quad . nu = det of the height Hessian
    along nu; ``corank2_basis`` rows span the directions whose Hessian
    vanishes entirely, in a canonical basis that rounding noise cannot turn:
    a null line's unit vector with its first nonzero entry positive, a null
    plane's (u1, u2) as ``PlaneBasis`` builds them.
    """

    quad: tuple
    corank2_dim: int
    corank2_basis: tuple
    ref: float  # the second form's ref; the entries of quad have degree 2


def height_hessian(sf: SecondForm, nu):
    """Hessian [[l_nu, m_nu], [m_nu, n_nu]] of the height function along nu.

    ``nu`` is given in normal-frame coordinates; entries stay exact when both
    the form and nu are rational.
    """
    l = sum(v * c for v, c in zip(nu, sf.L))
    m = sum(v * c for v, c in zip(nu, sf.M))
    n = sum(v * c for v, c in zip(nu, sf.N))
    return ((l, m), (m, n))


def degeneracy_cone(sf: SecondForm, tol: Tolerances = DEFAULT_TOL) -> DegeneracyCone:
    """The quadratic det H(h_nu) = <L,nu><N,nu> - <M,nu>^2, the second form's
    ``cone_quadratic``, and the solved corank-2 system.

    The corank-2 locus is the null space of the rows (L, M, N).  At rank 2 it
    is the line along the cross product of the two most independent rows,
    the pair with the largest cross product; at rank 1 it is the plane
    normal to the largest row.  The rows are divided by ``ref`` first, a
    power of two, so that their products stay in the float range, and sizes
    are largest entries; on exact rows the cross product is exact.
    """
    L, M, N = sf.L, sf.M, sf.N
    dim = 3 - rank_second_form(sf, tol)
    if dim in (0, 3):
        basis = identity(3)[:dim]
    else:
        scale = Fraction(sf.ref)
        rows = [tuple(c / scale for c in v) for v in (L, M, N)]
        candidates = [cross3(a, b) for a, b in combinations(rows, 2)] if dim == 1 else rows
        normal = max(candidates, key=lambda v: max(map(abs, v)))
        ep = _plane_basis_from_normal(unit(normal), forced=False)
        basis = (ep.nu3,) if dim == 1 else (ep.u1, ep.u2)
    return DegeneracyCone(quad=sf.cone_quadratic, corank2_dim=dim, corank2_basis=basis, ref=sf.ref)


@dataclass(frozen=True)
class Corank2Verdict:
    """Comparison of the solved corank-2 locus against the case analysis.

    Expected locus per case: nondegenerate parabola gives the plane normal
    (or nothing) depending on whether the umbilic curvature vanishes;
    half-lines and lines give the plane normal when it is nonzero and the
    full orthogonal complement of the trace line when it vanishes; points
    give the complement of the segment direction, or all of the normal space
    when the trace is the origin itself.
    """

    case: str
    expected_dim: int
    agrees: bool


def corank2_conditions(
    pp,
    dc: DegeneracyCone,
    ur,
    tol: Tolerances = DEFAULT_TOL,
) -> Corank2Verdict:
    shape = pp.shape
    nonzero = not ur.is_zero
    if shape.kind == "parabola":
        if nonzero:
            case = "parabola, nonzero umbilic curvature: trivial locus"
            expected = ()
        else:
            case = "parabola, zero umbilic curvature: plane normal"
            expected = (pp.ep.nu3,)
    elif shape.kind in ("half_line", "line"):
        direction = pp.aff.basis[0]
        if nonzero:
            case = f"{shape.kind}, nonzero umbilic curvature: plane normal"
            expected = (pp.ep.nu3,)
        else:
            case = f"{shape.kind}, zero umbilic curvature: complement of the trace line"
            expected = orthonormal_extension([direction], 3)[1:]
    else:
        if nonzero:
            case = "point away from origin: complement of the segment direction"
            expected = orthonormal_extension([unit(pp.Lvec)], 3)[1:]
        else:
            case = "point at origin: all normal directions"
            expected = identity(3)
    agrees = (
        len(expected) == dc.corank2_dim
        and subspace_distance(expected, dc.corank2_basis) <= BASIS_TOL
    )
    return Corank2Verdict(
        case=case,
        expected_dim=len(expected),
        agrees=agrees,
    )


def cone_parabola_orthogonality(pp, aset: AsymptoticSet, bset: BinormalSet) -> bool:
    """Every finite asymptotic parameter's parabola point is orthogonal to its binormal."""
    if bset.kind == "all":
        return True
    ok = True
    for b in bset.items:
        if b.param is None or isinstance(b.param, str):
            continue
        y = float(b.param)  # eta(y) = L + 2yM + y^2 N: degree 1 in the jet, 2 in y
        ok = ok and abs(dot3(float_vec(pp.eta(y)), b.vector)) <= 1e-8 * pp.ref * (1.0 + y * y)
    return ok


def sample_cone(dc: DegeneracyCone, tol: Tolerances = DEFAULT_TOL):
    """Sample (theta, phi, det_sign, det_value) on a spherical grid of the normal space."""
    import numpy as np

    q = np.asarray([[float(x) for x in row] for row in dc.quad], dtype=float)
    rows = []
    for i in range(CONE_THETA_SAMPLES):
        theta = 2.0 * np.pi * i / CONE_THETA_SAMPLES
        for j in range(CONE_PHI_SAMPLES):
            phi = np.pi * j / (CONE_PHI_SAMPLES - 1)
            nu = np.array(
                [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
            )
            value = float(nu @ q @ nu)
            if abs(value) <= tol.eps_rank * dc.ref * dc.ref:
                sign = 0
            else:
                sign = 1 if value > 0 else -1
            rows.append((theta, phi, sign, value))
    return rows
