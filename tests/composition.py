"""Polynomial composition, differentiation and target maps for the tests.

The library adapts germs in closed form and never composes polynomials, so
this algebra serves only the references and the germ motions of the tests.
"""

from fractions import Fraction

from curvpar.germs import MapGermR4, TruncatedPoly2


def is_zero(p: TruncatedPoly2) -> bool:
    return not p.coeffs


def diff(p: TruncatedPoly2, var: str) -> TruncatedPoly2:
    """Formal partial derivative; the truncation order drops by one."""
    out = {}
    if var == "x":
        for (i, j), c in p.coeffs.items():
            if i > 0:
                out[(i - 1, j)] = c * i
    elif var == "y":
        for (i, j), c in p.coeffs.items():
            if j > 0:
                out[(i, j - 1)] = c * j
    else:
        raise ValueError(f"unknown variable {var!r}")
    return TruncatedPoly2(out, max(p.order - 1, 0))


def compose(p: TruncatedPoly2, px: TruncatedPoly2, py: TruncatedPoly2) -> TruncatedPoly2:
    """Substitute x -> px, y -> py; both must vanish at the origin."""
    if px.coefficient(0, 0) != 0 or py.coefficient(0, 0) != 0:
        raise ValueError("composition requires substitutions with zero constant term")
    order = min(p.order, px.order, py.order)
    max_i = max((i for i, _ in p.coeffs), default=0)
    max_j = max((j for _, j in p.coeffs), default=0)
    one = TruncatedPoly2.const(Fraction(1), order)
    x_pows = [one]
    for _ in range(max_i):
        x_pows.append(x_pows[-1] * px)
    y_pows = [one]
    for _ in range(max_j):
        y_pows.append(y_pows[-1] * py)
    result = TruncatedPoly2.zero(order)
    for (i, j), c in p.coeffs.items():
        result = result + (x_pows[i] * y_pows[j]) * c
    return result


def compose_source(g: MapGermR4, px: TruncatedPoly2, py: TruncatedPoly2) -> MapGermR4:
    return MapGermR4([compose(p, px, py) for p in g.components])


def rotate_target(g: MapGermR4, matrix) -> MapGermR4:
    """Apply a linear target map: component_i <- sum_j matrix[i][j] * component_j."""
    out = []
    for row in matrix:
        acc = TruncatedPoly2.zero(g.order)
        for entry, comp in zip(row, g.components):
            if entry != 0:
                acc = acc + comp * entry
        out.append(acc)
    return MapGermR4(out)
