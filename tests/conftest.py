from fractions import Fraction

import numpy as np
import pytest

from curvpar.germs import Jet2, MapGermR4, TruncatedPoly2, parse_map_germ

from composition import compose_source, rotate_target


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def germ(text, order=6, params=None):
    return parse_map_germ(text, order=order, params=params)


def rand_fraction(rng, span=5, den=4, allow_zero=True):
    while True:
        f = Fraction(int(rng.integers(-span, span + 1)), int(rng.integers(1, den + 1)))
        if allow_zero or f != 0:
            return f


def random_jet2(rng, kind="any"):
    """Random exact 2-jet, optionally forced into a degeneracy family.

    kind: "any" (generic), "collinear" (xy and y^2 columns dependent),
    "line" (no y^2 column), "point" (no xy or y^2 column).
    """
    a = [rand_fraction(rng) for _ in range(3)]   # x^2 column
    if kind == "point":
        b = [Fraction(0)] * 3
        c = [Fraction(0)] * 3
    elif kind == "line":
        b = [rand_fraction(rng) for _ in range(3)]
        c = [Fraction(0)] * 3
    elif kind == "collinear":
        c = [rand_fraction(rng) for _ in range(3)]
        while all(v == 0 for v in c):
            c = [rand_fraction(rng) for _ in range(3)]
        mu = rand_fraction(rng, span=3)
        b = [mu * v for v in c]
    else:
        b = [rand_fraction(rng) for _ in range(3)]
        c = [rand_fraction(rng) for _ in range(3)]
    return Jet2(
        a20=a[0], a11=b[0], a02=c[0],
        b20=a[1], b11=b[1], b02=c[1],
        c20=a[2], c11=b[2], c02=c[2],
    )


def random_rotation(rng, n):
    a = rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def transform_germ(g, source_mat, target_mat):
    """target_mat . g . source_mat with float coefficients."""
    order = g.order
    x = TruncatedPoly2.variable("x", order).map_coeffs(float)
    y = TruncatedPoly2.variable("y", order).map_coeffs(float)
    px = x * float(source_mat[0][0]) + y * float(source_mat[0][1])
    py = x * float(source_mat[1][0]) + y * float(source_mat[1][1])
    return rotate_target(compose_source(g.to_float(), px, py), target_mat)


def signed_sum(*terms):
    """Render (coefficient, monomial) pairs as a grammar-conforming expression."""
    parts = []
    for c, mono in terms:
        if c == 0:
            continue
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def jet2_to_germ(j2, order=2):
    """Prenormal map germ whose 2-jet is j2."""
    x = TruncatedPoly2.variable("x", order)
    comps = [x]
    for (p, q, r) in j2.rows():
        comps.append(TruncatedPoly2({(2, 0): p, (1, 1): q, (0, 2): r}, order))
    return MapGermR4(comps)
