"""First and second fundamental forms of the singular surface at the origin.

The forms are evaluated only at the singular point, in the adapted frame of
the prenormal germ: the tangent line is the first coordinate axis and the
normal frame is the remaining three axes, so coefficient extraction is exact
when the germ is.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .config import DEFAULT_TOL, Tolerances
from .linalg import ColumnProducts, float_multiple, is_exact_scalar, rank3, scale_of, sparse_dot

__all__ = [
    "FirstForm",
    "FloatColumns",
    "SecondForm",
    "first_form",
    "form_row",
    "form_rows",
    "second_form",
    "rank_second_form",
]


class FirstForm(NamedTuple):
    """Pseudometric coefficients at the singular point."""

    E: object
    F: object
    G: object


# column indices of the matrix: the coefficients of x^2, xy and y^2
L, M, N = range(3)


class FloatColumns(NamedTuple):
    """The columns of a second form as tuples of floats.

    They carry the names of ``SecondForm``'s column views, so a reader of
    the columns alone, such as ``heights.height_hessian``, takes either.
    """

    L: tuple
    M: tuple
    N: tuple


class SecondForm:
    """3x3 coefficient matrix of the second fundamental form.

    Rows follow the normal frame (nu1, nu2, nu3); columns hold the
    coefficients (l, m, n) of x^2, xy and y^2 directions.  The invariants
    that decide the labels are computed here, once and when first read, by
    one ``linalg.ColumnProducts`` of the matrix.  An exact matrix is cleared
    of its denominators once, into one integer matrix over a common
    denominator; every invariant is computed from those integers, one
    Fraction per entry, and ``rank3`` eliminates on them.  A matrix with a
    float entry keeps the float expressions.
    """

    def __init__(self, matrix):
        rows = tuple(tuple(row) for row in matrix)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("second form matrix must be 3x3")
        object.__setattr__(self, "matrix", rows)
        # the scale of every float zero test on this 2-jet: |x| <= eps * ref**d at degree d
        object.__setattr__(self, "ref", scale_of(*self.float_columns))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("SecondForm is immutable")

    def __eq__(self, other):
        if not isinstance(other, SecondForm):
            return NotImplemented
        return self.matrix == other.matrix

    def __repr__(self):
        return f"SecondForm({self.matrix!r})"

    @property
    def is_exact(self) -> bool:
        return all(is_exact_scalar(v) for row in self.matrix for v in row)

    # column views: the parabola eta(y) = L + 2 M y + N y^2 in frame coordinates
    @property
    def L(self):
        return tuple(row[0] for row in self.matrix)

    @property
    def M(self):
        return tuple(row[1] for row in self.matrix)

    @property
    def N(self):
        return tuple(row[2] for row in self.matrix)

    # the deciding invariants of the parabola trace
    @cached_property
    def _products(self):
        return ColumnProducts(self.matrix)

    @cached_property
    def w(self):
        """M x N, normal to the plane of a nondegenerate trace."""
        return self._products.cross(M, N)

    @cached_property
    def l_x_n(self):
        return self._products.cross(L, N)

    @cached_property
    def l_x_m(self):
        return self._products.cross(L, M)

    @cached_property
    def triple(self):
        """L . (M x N), zero exactly when L, M and N lie in a plane through the origin."""
        return self._products.triple()

    @cached_property
    def asymptotic_quadratic(self):
        """(det(L,M,w), det(L,N,w), det(M,N,w)): det(eta, eta', w) / 2 as a quadratic in y.

        Its roots are the asymptotic parameters of a nondegenerate trace.
        """
        return self._products.asymptotic_quadratic()

    @cached_property
    def cone_quadratic(self):
        """Symmetric Q with nu . Q . nu = <L,nu><N,nu> - <M,nu>^2, the determinant of
        the height Hessian along nu (see ``linalg.cone_quadratic``)."""
        return self._products.cone_quadratic()

    @cached_property
    def float_columns(self) -> FloatColumns:
        """(L, M, N) as floats, a Fraction entry by one int division and an int
        entry by ``float()``, whose ``OverflowError`` it keeps."""
        return FloatColumns(*(float_multiple(c, 1) for c in (self.L, self.M, self.N)))

    def corank2_normal(self, rank: int) -> tuple:
        """The float normal of the null space of the columns at rank 2 or 1 (see
        ``linalg.ColumnProducts.corank2_normal``), at this form's ``ref``."""
        return self._products.corank2_normal(rank, self.ref)

    @cached_property
    def _ranks(self):
        return {}

    def rank(self, eps: float) -> int:
        """Matrix rank (see ``linalg.rank3``), computed once per ``eps``."""
        ranks = self._ranks
        if eps not in ranks:
            ranks[eps] = rank3(self._products.rank_rows, eps)
        return ranks[eps]


def first_form(adapted) -> FirstForm:
    """Coefficients (E, F, G) of the pseudometric at the origin."""
    g = getattr(adapted, "germ", adapted)
    fx = [p.coefficient(1, 0) for p in g.components]
    fy = [p.coefficient(0, 1) for p in g.components]
    return FirstForm(E=sparse_dot(fx, fx), F=sparse_dot(fx, fy), G=sparse_dot(fy, fy))


def form_row(a, m, c) -> tuple:
    """Second-form row (2a, m, 2c) of x^2, xy and y^2 coefficients a, m and c."""
    return (2 * a, m, 2 * c)


def form_rows(components) -> tuple:
    """Second-form row ``form_row`` of each normal component.

    For a parametrisation whose 1-jet is (x, y, 0, ...) or (x, 0, ...), these
    are the coefficients (l, m, n) of its second fundamental form along the
    coordinate normals.
    """
    return tuple(form_row(p.coefficient(2, 0), p.coefficient(1, 1), p.coefficient(0, 2)) for p in components)


def second_form(adapted) -> SecondForm:
    """Second-form coefficient matrix of a prenormal germ in its adapted frame.

    Row i holds the form rows of component i+1; exact on the rational path.
    """
    g = getattr(adapted, "germ", adapted)
    return SecondForm(form_rows(g.components[1:]))


def rank_second_form(sf: SecondForm, tol: Tolerances = DEFAULT_TOL) -> int:
    """Matrix rank; exact over rationals, by the float rule of ``linalg.rank3`` otherwise."""
    return sf.rank(tol.eps_rank)
