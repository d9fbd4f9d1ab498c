"""Direct implementations that serve the tests as independent references.

The analysis reads the second form only through its invariants and the
plane rows of ``ParabolaProfile``; these direct evaluations, the polynomial
rotation that ``project_to_s`` once made, the orbit of an exact 2-jet by
its coefficient table, the point type of a reduced normal form (the
acceptance suite's reference), the term-by-term
printing of a polynomial, the report as a tree of raw values, which
``build_report`` once handed to ``format_value`` whole, and ``adapt`` as
it was built from per-value helpers live here.
"""

import functools
import importlib
import math
import operator
import sys
from fractions import Fraction

import numpy as np

from curvpar.adapt import AdaptedGerm, CorankError
from curvpar.config import DEFAULT_TOL, Tolerances
from curvpar.directions import osculating_hyperplanes
from curvpar.forms import SecondForm, form_rows
from curvpar.germs import MapGermR4, TruncatedPoly2, extract_jet2
from curvpar.heights import cone_parabola_orthogonality
from curvpar.linalg import float_dot, householder_rotation_to_e1, is_exact_scalar, negligible, scale_of, unit
from curvpar.parabola import ORBIT_HALF_LINE, ORBIT_LINE, ORBIT_PARABOLA, ORBIT_POINT
from curvpar.umbilic import kappa_stratum_check

# curvpar.adapt is the function: the package exports it over the module
adapt_module = importlib.import_module("curvpar.adapt")


def value_along(sf: SecondForm, nu, u, v):
    """Bilinear value II_nu(u, v) for a normal-frame vector nu."""
    a, b = u
    c, d = v
    total = 0
    for w, (l, m, n) in zip(nu, sf.matrix):
        if w != 0:
            total = total + w * (a * c * l + (a * d + b * c) * m + b * d * n)
    return total


def reframe(sf: SecondForm, frame_rows) -> SecondForm:
    """Coefficients w.r.t. a new orthonormal normal frame (rows, floats)."""
    new = []
    for frame_vec in frame_rows:
        row = []
        for col in range(3):
            row.append(
                sum(float(frame_vec[i]) * float(sf.matrix[i][col]) for i in range(3))
            )
        new.append(tuple(row))
    return SecondForm(new)


# sum() up to Python 3.11; from 3.12 on sum() of floats compensates its
# rounding, and the uncompensated left fold from the int 0 stands for it
_SUM = sum if sys.version_info < (3, 12) else lambda terms: functools.reduce(operator.add, terms, 0)


def sum_first_form(adapted) -> tuple:
    """(E, F, G) by the ``sum()`` formula that ``forms.first_form`` replaced."""
    g = getattr(adapted, "germ", adapted)
    fx = [p.coefficient(1, 0) for p in g.components]
    fy = [p.coefficient(0, 1) for p in g.components]
    dot = lambda a, b: _SUM(x * y for x, y in zip(a, b))
    return dot(fx, fx), dot(fx, fy), dot(fy, fy)


def eta_prime(pp, y):
    return tuple(2 * m + 2 * n * y for m, n in zip(pp.sf.M, pp.sf.N))


def det_value(dc, nu) -> float:
    v = np.asarray([float(c) for c in nu], dtype=float)
    q = np.asarray([[float(x) for x in row] for row in dc.quad], dtype=float)
    return float(v @ q @ v)


def table_orbit(j2) -> str:
    """Orbit of an exact 2-jet by the coefficient table, apart from its second form.

    The gammas are the 2x2 minors of the raw xy and y^2 columns: all zero
    when the columns are dependent.  Nonzero gammas give the parabola orbit;
    else a nonzero y^2 column the half-line orbit, a nonzero xy column the
    line orbit, and no xy or y^2 term the point orbit.
    """
    if not all(map(is_exact_scalar, j2)):
        raise ValueError("the coefficient table is decided on exact coefficients only")
    xy = (j2.a11, j2.b11, j2.c11)
    yy = (j2.a02, j2.b02, j2.c02)
    gammas = [xy[i] * yy[k] - xy[k] * yy[i] for i, k in ((0, 1), (0, 2), (1, 2))]
    if any(gammas):
        return ORBIT_PARABOLA
    if any(yy):
        return ORBIT_HALF_LINE
    if any(xy):
        return ORBIT_LINE
    return ORBIT_POINT


def ik_classify(adapted, tol: Tolerances = DEFAULT_TOL) -> str:
    """Point type of a germ in the reduced nondegenerate normal form.

    Requires the 2-jet (x, xy, b20 x^2 + b11 xy + b02 y^2, c20 x^2) with
    b02 > 0; the answer is the sign of b20.
    """
    j2 = extract_jet2(adapted)
    vals = (j2.a20, j2.a11 - 1, j2.a02, j2.c11, j2.c02)
    bound = tol.eps_rank * j2.second_form.ref
    if not (all(negligible(v, bound) for v in vals) and j2.b02 > 0):
        raise ValueError(
            "germ 2-jet is not in the reduced form (x, xy, b20 x^2 + b11 xy + b02 y^2, c20 x^2)"
        )
    b20 = j2.b20
    if negligible(b20, bound):
        return "parabolic"
    return "hyperbolic" if b20 > 0 else "elliptic"


def rotated_projection(g, pp):
    """The projection to S by rotating every monomial of the normal components.

    Returns (components, coeffs).  The distinguished plane becomes the first
    two normal coordinates, and S keeps those two; when the plane already is
    the first coordinate plane the components pass through unchanged.
    """
    order = g.order
    rows = pp.ep.rows()
    if np.array_equal(rows, np.eye(3)):
        rotated = list(g.components[1:])
    else:
        rotated = []
        for frame_vec in rows:
            acc = TruncatedPoly2.zero(order)
            for w, comp in zip(frame_vec, g.components[1:]):
                if w != 0.0:
                    acc = acc + comp.map_coeffs(float) * float(w)
            rotated.append(acc)
    comps = (
        g.components[0],
        TruncatedPoly2.variable("y", order),
        rotated[0],
        rotated[1],
    )
    coeffs = tuple(tuple(float(v) for v in row) for row in form_rows(comps[2:]))
    return comps, coeffs


def to_expression(p: TruncatedPoly2) -> str:
    """``p.to_expression()``, built as the printer before the monomial table did:
    the keys sorted, then each term from its monomial's factors."""
    if not p.coeffs:
        return "0"
    parts = []
    for (i, j) in sorted(p.coeffs, key=lambda k: (k[0] + k[1], k[0], k[1])):
        c = p.coeffs[(i, j)]
        factors = []
        if i == 1:
            factors.append("x")
        elif i > 1:
            factors.append(f"x^{i}")
        if j == 1:
            factors.append("y")
        elif j > 1:
            factors.append(f"y^{j}")
        mag = abs(c)
        if not factors or mag != 1:
            factors.insert(0, str(mag) if isinstance(mag, (Fraction, int)) else repr(float(mag)))
        term = "*".join(factors)
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def _count_or_inf(value):
    return "inf" if value == math.inf else int(value)


def raw_report(res, input_text):
    """The report of an ``AnalysisResult`` as raw values, before ``format_value``.

    The only conversions made here choose how a value prints: the parameters
    and the asymptotic quadratic print as floats even when exact, and an
    infinite count prints as ``"inf"``.  A verified result adds its
    ``verification`` block, each check as its fields.
    """
    ad, pp, umb = res.adapted, res.profile, res.umbilic
    vertex = pp.shape.vertex_param
    report = {
        "input": {
            "germ": input_text if input_text is not None else res.germ.to_expression(),
            "exact": res.germ.is_exact,
        },
        "adaptation": {
            "exact": ad.exact,
            "tangent_frame": ad.tangent_frame,
            "normal_frame": ad.normal_frame,
            "target_rotation": ad.target_rotation,
        },
        "first_form": {"E": res.first.E, "F": res.first.F, "G": res.first.G},
        "second_form": res.sf.matrix,
        "jet2": res.jet2._asdict(),
        "orbit": {
            "from_coefficients": res.orbit_table,
            "from_geometry": pp.orbit,
            "consistent": res.orbit_table == pp.orbit,
        },
        "parabola": {
            "shape": pp.shape.label(),
            "kind": pp.shape.kind,
            "radial": pp.shape.radial,
            "vertex_param": None if vertex is None else float(vertex),
            "vertex_is_origin": pp.shape.vertex_is_origin,
            "point_is_origin": pp.shape.is_origin,
            "stratum": f"M{pp.stratum}",
            "affine_hull": {"point": pp.aff.point, "basis": pp.aff.basis, "dim": pp.aff.dim},
            "plane": {"u1": pp.ep.u1, "u2": pp.ep.u2, "normal": pp.ep.nu3, "forced": pp.ep.forced},
        },
        "asymptotic": {
            "kind": res.aset.kind,
            "parameters": [float(y) for y in res.aset.params],
            "includes_infinity": res.aset.includes_infinity,
            "quadratic": [float(q) for q in res.aset.quadratic],
            "discriminant": float(res.aset.discriminant),
            "count": _count_or_inf(res.aset.count),
        },
        "binormal": {
            "kind": res.bset.kind,
            "items": [
                {
                    "param": "shape" if b.param is None
                    else b.param if type(b.param) is str else float(b.param),
                    "vector": b.vector,
                }
                for b in res.bset.items
            ],
            "count": _count_or_inf(res.bset.count),
        },
        "osculating_hyperplanes": osculating_hyperplanes(res.bset),
        "point_type": res.ptype,
        "umbilic": {"kappa_u": umb.kappa_u, "formula": umb.formula_used, "is_zero": umb.is_zero},
        "kappa_stratum_consistent": kappa_stratum_check(pp, umb),
        "heights": {
            "cone_quadratic": res.cone.quad,
            "corank2": {
                "dim": res.cone.corank2_dim,
                "basis": res.cone.corank2_basis,
                "expected_dim": res.corank2.expected_dim,
                "case": res.corank2.case,
                "agrees": res.corank2.agrees,
            },
            "cone_parabola_orthogonal": cone_parabola_orthogonality(pp, res.aset, res.bset),
        },
        "reduced_two_jet": {
            "orbit": res.reduced.orbit,
            "jet2": res.reduced.jet2._asdict(),
            "source_matrix": res.reduced.source_matrix,
            "target_rotation": res.reduced.target_rotation,
        },
        "transfer": {
            "m_directions": res.transfer.m_directions,
            "s_directions": res.transfer.s_directions,
            "directions_match": res.transfer.directions_match,
            "m_point_type": res.transfer.m_point_type,
            "s_point_type": res.transfer.s_point_type,
            "types_match": res.transfer.types_match,
        },
    }
    if res.verification is not None:
        vr = res.verification
        report["verification"] = {"passed": vr.passed, "checks": [c._asdict() for c in vr.checks]}
    return report


def _quadratic_form(p) -> tuple:
    """``(a, b, c)`` with ``a x^2 + 2 b xy + c y^2`` the degree-2 part of ``p``, in floats."""
    return (float(p.coefficient(2, 0)), float(p.coefficient(1, 1)) / 2, float(p.coefficient(0, 2)))


def _congruence(form, m) -> tuple:
    """The form ``M^T F M`` for ``F`` an ``(a, b, c)`` form and ``M`` a 2x2 matrix of rows."""
    a, b, c = form
    (p0, q0), (p1, q1) = m  # the columns of M are (p0, p1) and (q0, q1)
    ap, bp = a * p0 + b * p1, b * p0 + c * p1  # F times the first column
    return (ap * p0 + bp * p1, ap * q0 + bp * q1, (a * q0 + b * q1) * q0 + (b * q0 + c * q1) * q1)


def _poly(linear, form, order: int) -> TruncatedPoly2:
    """The polynomial with 1-jet row ``linear`` and quadratic form ``form``."""
    vals = (*linear, form[0], 2 * form[1], form[2])
    return TruncatedPoly2(dict(zip(((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)), vals)), order)


def _source_frame(jac) -> tuple:
    """The unit source direction ``v0`` with the sign rule of ``AdaptedGerm``, and ``J v0``.

    ``J`` has rank 1, so its largest row spans the row space; the kernel is
    ``v0`` turned by +90 degrees.
    """
    v0 = unit(max(jac, key=lambda row: max(map(abs, row))))
    t = [row[0] * v0[0] + row[1] * v0[1] for row in jac]
    if max(t, key=abs) < 0:
        v0, t = (-v0[0], -v0[1]), [-c for c in t]
    return v0, t


def helper_adapt(f: MapGermR4, tol: Tolerances = DEFAULT_TOL) -> AdaptedGerm:
    """``adapt`` as it was built from per-value helpers, the reference for its one pass.

    Each coefficient is read by ``coefficient`` and made a float by
    ``float()`` where it is used, the rotated forms are summed by
    ``float_dot``, and every polynomial goes through ``TruncatedPoly2``'s
    filter.  Identical results are required: values, types, key order.
    """
    if f.order > 2:
        f = MapGermR4([TruncatedPoly2(p.coeffs, min(p.order, 2)) for p in f.components])
    if f.is_prenormal():
        return adapt_module._identity_adaptation(f)
    rank = adapt_module.check_corank(f, tol)
    if rank != 1:
        raise CorankError(rank)

    jac = [[float(v) for v in row] for row in f.jacobian_at_origin()]
    (a, b), t = _source_frame(jac)
    vt = ((a, -b), (b, a))  # V^T: its columns are v0 and the kernel v1 = (-b, a)
    u = [a * row[1] - b * row[0] for row in jac]  # J v1
    rot = householder_rotation_to_e1(t)
    lin = [(float_dot(r, t), float_dot(r, u)) for r in rot]  # R J V^T
    # sum_j R_ij H_j for each row of R, as (a, b, c) forms, then moved by V
    entries = list(zip(*(_quadratic_form(p) for p in f.components)))
    forms = [_congruence(tuple(float_dot(r, col) for col in entries), vt) for r in rot]
    # no adapted 2-jet exists yet: the residue test reads the moved germ's own jets
    ref = scale_of(*lin, *forms, [2 * h[1] for h in forms])

    c, e = lin[0]
    sub = ((1.0 / c, -e / c), (0.0, 1.0))
    forms = [_congruence(h, sub) for h in forms]
    # as R J v0 = c e1, components 2..4 have no x-term for s2 to reach
    s2 = tuple(-x / c for x in forms[0])

    for l0, l1 in lin[1:]:
        for val in (l0 * sub[0][0], l0 * sub[0][1] + l1):
            if abs(val) > tol.eps_jet * ref:
                raise ValueError(
                    f"adaptation left 1-jet entry {val:.3e} in a normal component"
                )
    x_var = TruncatedPoly2.variable("x", f.order).map_coeffs(float)
    adapted = MapGermR4([x_var] + [_poly((0.0, 0.0), h, f.order) for h in forms[1:]])
    return AdaptedGerm(
        germ=adapted,
        source_change=tuple(
            _poly(
                (row[0] * sub[0][0], row[0] * sub[0][1] + row[1]),
                tuple(v0k * x for x in s2),
                f.order,
            )
            for row, v0k in zip(vt, (a, b))
        ),
        target_rotation=rot,
        exact=False,
    )
