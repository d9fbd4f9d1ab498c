"""Direct implementations that serve the tests as independent references.

The analysis reads the second form only through its invariants and the
plane rows of ``ParabolaProfile``; these direct evaluations, the polynomial
rotation that ``project_to_s`` once made, the point type of a reduced
normal form (the acceptance suite's reference), the term-by-term
printing of a polynomial and the report as a tree of raw values, which
``build_report`` once handed to ``format_value`` whole, live here.
"""

import functools
import math
import operator
import sys
from fractions import Fraction

import numpy as np

from curvpar.config import DEFAULT_TOL, Tolerances
from curvpar.directions import osculating_hyperplanes
from curvpar.forms import SecondForm, form_rows
from curvpar.germs import TruncatedPoly2, extract_jet2
from curvpar.heights import cone_parabola_orthogonality
from curvpar.linalg import negligible
from curvpar.umbilic import kappa_stratum_check


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
    return tuple(2 * m + 2 * n * y for m, n in zip(pp.Mvec, pp.Nvec))


def det_value(dc, nu) -> float:
    v = np.asarray([float(c) for c in nu], dtype=float)
    q = np.asarray([[float(x) for x in row] for row in dc.quad], dtype=float)
    return float(v @ q @ v)


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
