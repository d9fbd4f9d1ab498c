"""Direct implementations that serve the tests as independent references.

The analysis reads the second form only through its invariants and the
plane rows of ``ParabolaProfile``; these direct evaluations, the polynomial
rotation that ``project_to_s`` once made, the point type of a reduced
normal form (the acceptance suite's reference) and the term-by-term
printing of a polynomial live here.
"""

from fractions import Fraction

import numpy as np

from curvpar.config import DEFAULT_TOL, Tolerances
from curvpar.forms import SecondForm, form_rows
from curvpar.germs import TruncatedPoly2, extract_jet2
from curvpar.linalg import negligible


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
    """``p.to_expression()``, built term by term from each monomial's factors."""
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
