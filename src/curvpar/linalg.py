"""Small vector/matrix helpers shared by the geometry modules.

Decision helpers (``negligible``, ``vec_is_zero``, ``collinear3``, ``rank3``)
run exactly on Fraction entries, so callers never branch on exactness.  On
floats a degree-d quantity is zero when |x| <= eps * ref**d, ref = ``scale_of``
of the whole 2-jet.  Norms and orthonormal frames are float by nature.

Exact arithmetic runs in integers.  ``ColumnProducts`` clears an exact 3x3
matrix, the second form, of its denominators once: its nine entries become
ints over one common denominator, every cross, triple and quadratic-form
product of its columns runs on those ints, and each result entry becomes
one Fraction.  A float that the exact path needs, a column or the normal of
the corank-2 locus, comes from those ints by one int division, which rounds
correctly: ``n / d`` has the bits of ``float(Fraction(n, d))`` and raises
the same ``OverflowError``.  ``dot3`` and ``cross3`` clear each exact vector
that they are given in the same way, and ``rank3`` its whole matrix.  Input
with a float entry keeps the plain float expressions.

Vectors and matrices are tuples of Python numbers; nothing here needs numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

__all__ = [
    "is_exact_scalar",
    "is_exact_vec",
    "dot3",
    "cross3",
    "cone_quadratic",
    "ColumnProducts",
    "vec_norm",
    "float_vec",
    "float_multiple",
    "float_dot",
    "sparse_dot",
    "first_entry_positive",
    "scale_of",
    "negligible",
    "negligible_quotient",
    "negligible_lazy",
    "vec_is_zero",
    "collinear3",
    "unit",
    "rank3",
    "orthonormal_extension",
    "identity",
    "householder_rotation_to_e1",
    "subspace_distance",
]


# the usual exact types, looked up before isinstance: Fraction's ABC makes
# isinstance slow on every other type
_EXACT_TYPES = frozenset({Fraction, int, bool})


def is_exact_scalar(v) -> bool:
    return type(v) in _EXACT_TYPES or (not isinstance(v, float) and isinstance(v, (Fraction, int)))


def is_exact_vec(v) -> bool:
    return all(is_exact_scalar(c) for c in v)


def _integers(entries):
    """``(nums, den)`` with ``entries[i] == nums[i] / den`` and ``den > 0`` when every
    entry is exact (``is_exact_scalar``), None otherwise."""
    ratios = []
    for c in entries:
        if not is_exact_scalar(c):
            return None
        ratios.append(c.as_integer_ratio())
    den = math.lcm(*[d for _, d in ratios])
    return [n if d == den else n * (den // d) for n, d in ratios], den


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot3(a, b):
    """a . b: one Fraction on exact vectors, the float expression otherwise."""
    ia = _integers(a)
    ib = None if ia is None else _integers(b)
    if ib is None:
        return _dot(a, b)
    (x, dx), (y, dy) = ia, ib
    return Fraction(_dot(x, y), dx * dy)


def cross3(a, b):
    """a x b: Fractions on exact vectors, the float expressions otherwise."""
    ia = _integers(a)
    ib = None if ia is None else _integers(b)
    if ib is None:
        return _cross(a, b)
    (x, dx), (y, dy) = ia, ib
    den = dx * dy
    return tuple(Fraction(c, den) for c in _cross(x, y))


def cone_quadratic(L, M, N) -> tuple:
    """Symmetric 3x3 Q with nu . Q . nu = <L,nu><N,nu> - <M,nu>^2, by the float expressions.

    Q = (L N^T + N L^T) / 2 - M M^T, each entry computed as written; an int
    sum is halved exactly, to a Fraction.  An exact second form takes
    ``ColumnProducts.cone_quadratic``, over one denominator.
    """
    quad = []
    for i in range(3):
        row = []
        for j in range(3):
            s = L[i] * N[j] + N[i] * L[j]
            row.append((Fraction(s, 2) if isinstance(s, int) else s / 2) - M[i] * M[j])
        quad.append(tuple(row))
    return tuple(quad)


class ColumnProducts:
    """The products of the three columns of a 3x3 matrix that the second form reads.

    With the columns ``(L, M, N)`` these are the cross products, the triple
    product ``L . (M x N)``, the asymptotic quadratic and the cone
    quadratic, each cross product computed once.  An exact matrix is
    cleared of its denominators once, ``rows[i][j] == ints[i][j] / den``
    for one ``den > 0``: the products run on those ints and each result
    entry becomes one Fraction, over ``den**2`` for a cross product,
    ``den**3`` for the triple product and ``den**4`` for a dot product of
    two cross products.  ``rank_rows`` are the int rows, of the matrix's
    rank.  A matrix with a float entry keeps the per-vector kernels
    (``cross3``, ``dot3``, ``cone_quadratic``), and its ``rank_rows`` are
    its own rows.
    """

    __slots__ = ("rank_rows", "_cols", "_den", "_crosses")

    def __init__(self, rows):
        cleared = _integers([c for row in rows for c in row])
        if cleared is None:
            self.rank_rows, self._den = rows, None
        else:
            nums, self._den = cleared
            self.rank_rows = (tuple(nums[0:3]), tuple(nums[3:6]), tuple(nums[6:9]))
        self._cols = tuple(zip(*self.rank_rows))
        self._crosses = {}

    def _product(self, i, j):
        """Column i x column j: ints over ``den**2`` on an exact matrix, ``cross3``'s otherwise."""
        key = (i, j)
        if key not in self._crosses:
            a, b = self._cols[i], self._cols[j]
            self._crosses[key] = cross3(a, b) if self._den is None else _cross(a, b)
        return self._crosses[key]

    def _over(self, nums, power: int) -> tuple:
        """Exact ints as Fractions over ``den**power``; float results as they are."""
        if self._den is None:
            return tuple(nums)
        den = self._den**power
        return tuple(Fraction(n, den) for n in nums)

    def cross(self, i: int, j: int) -> tuple:
        """Column i x column j."""
        return self._over(self._product(i, j), 2)

    def triple(self):
        """Column 0 . (column 1 x column 2), the determinant."""
        w = self._product(1, 2)
        if self._den is None:
            return dot3(self._cols[0], w)
        return Fraction(_dot(self._cols[0], w), self._den**3)

    def asymptotic_quadratic(self) -> tuple:
        """``(w . (c0 x c1), w . (c0 x c2), w . w)`` for columns ``c`` and ``w = c1 x c2``."""
        w, u, v = self._product(1, 2), self._product(0, 1), self._product(0, 2)
        if self._den is None:
            return (dot3(w, u), dot3(w, v), dot3(w, w))
        return self._over((_dot(w, u), _dot(w, v), _dot(w, w)), 4)

    def cone_quadratic(self) -> tuple:
        """``cone_quadratic`` of the columns; on an exact matrix its six distinct
        entries are Fractions over the one denominator ``2 * den**2``."""
        if self._den is None:
            return cone_quadratic(*self._cols)
        l, m, n = self._cols
        den = 2 * self._den**2
        q = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                q[i][j] = q[j][i] = Fraction(l[i] * n[j] + n[i] * l[j] - 2 * m[i] * m[j], den)
        return tuple(map(tuple, q))

    def float_columns(self) -> tuple:
        """The columns as floats; an exact entry by one int division, ``int / den``."""
        if self._den is None:
            return tuple(map(float_vec, self._cols))
        return tuple(tuple(n / self._den for n in col) for col in self._cols)

    def corank2_normal(self, rank: int, ref: float) -> tuple:
        """The normal, as floats, of the null space of the columns at rank 2 or 1.

        The columns are divided by ``ref``, a power of two, so that their
        products stay in the float range.  At rank 2 the normal is the
        largest of the cross products (c0 x c1, c0 x c2, c1 x c2), and at
        rank 1 the largest column, sized by its largest entry; the first
        wins a tie.  On an exact matrix the sizes compare as ints and the
        chosen vector becomes floats by one int division per entry, over
        ``(den * ref)**2`` or ``den * ref``.
        """
        if self._den is None:
            cols = [tuple(c / ref for c in v) for v in self._cols]
            candidates = [cross3(a, b) for a, b in combinations(cols, 2)] if rank == 2 else cols
            return float_vec(max(candidates, key=_largest_entry))
        if rank == 2:
            candidates = [self._product(i, j) for i, j in combinations(range(3), 2)]
        else:
            candidates = self._cols
        num, den = ref.as_integer_ratio()
        power = 2 if rank == 2 else 1
        top, bottom = den**power, (self._den * num) ** power
        return tuple(n * top / bottom for n in max(candidates, key=_largest_entry))


def _largest_entry(v):
    return max(map(abs, v))


def vec_norm(v) -> float:
    # summed left to right from the int 0, as sum() is up to Python 3.11;
    # from 3.12 on sum() of floats compensates its rounding, this loop does not
    total = 0
    for c in v:
        c = float(c)
        total += c * c
    return math.sqrt(total)


def float_vec(v) -> tuple:
    """The entries of a vector, exact or float, as a tuple of floats."""
    return tuple(float(c) for c in v)


def float_multiple(v, k: int) -> tuple:
    """The entries of ``k * v`` as floats, for an int ``k``.

    A Fraction entry takes one int division of its integer ratio, which has
    the bits of ``float(k * c)`` and raises its ``OverflowError``, and
    builds no Fraction; an int or float entry is ``float(k * c)``.
    """
    out = []
    for c in v:
        if type(c) is float or isinstance(c, int) or not is_exact_scalar(c):
            out.append(float(k * c))
        else:
            n, d = c.as_integer_ratio()
            out.append(k * n / d)
    return tuple(out)


def float_dot(a, b) -> float:
    """a . b for float vectors of any length, summed left to right from the int 0
    with no compensation, as ``sum()`` is up to Python 3.11: ``0 + -0.0`` is
    ``0.0``, and Fraction entries give a Fraction."""
    total = 0
    for x, y in zip(a, b):
        total += x * y
    return total


def sparse_dot(a, b):
    """a . b for vectors of any length, with the value and type of ``float_dot``.

    On exact entries only the products of two nonzero entries are formed:
    the result is their exact sum, a Fraction when any entry is one and an
    int otherwise.  A pair with a float entry sends the vectors to ``float_dot``.
    """
    total, fraction = None, False
    for x, y in zip(a, b):
        if not (is_exact_scalar(x) and is_exact_scalar(y)):
            return float_dot(a, b)
        if x and y:
            total = x * y if total is None else total + x * y
        elif not fraction:
            fraction = _is_fraction(x) or _is_fraction(y)
    if total is None:
        total = 0
    return Fraction(total) if fraction and type(total) is int else total


def _is_fraction(c) -> bool:
    return type(c) is Fraction or (type(c) not in _EXACT_TYPES and isinstance(c, Fraction))


def first_entry_positive(v) -> tuple:
    """``v`` or ``-v``, the one whose first entry above 1e-13 in size is positive: the sign
    rule of unit frame vectors, whose entries are at most 1.  ``v`` when there is none."""
    for c in v:
        if abs(c) > 1e-13:
            return v if c > 0 else tuple(-x for x in v)
    return v


def scale_of(*vecs) -> float:
    """Reference scale of float zero tests: ``2**e`` with ``2**(e-1) <= m < 2**e`` for the
    largest absolute coefficient ``m`` (1 when m = 0), a power of two so dividing is exact."""
    mags = [abs(float(c)) for v in vecs for c in v]
    if not all(map(math.isfinite, mags)):
        raise OverflowError("a coefficient left the float range")
    return 2.0 ** math.frexp(max(mags, default=0.0))[1]


def negligible(x, bound: float) -> bool:
    """Zero test for one scalar: ``x == 0`` on rationals, ``|x| <= bound`` on floats."""
    if is_exact_scalar(x):
        return x == 0
    return abs(x) <= bound


def negligible_quotient(num, den, bound: float) -> bool:
    """Zero test for ``|num| / |den|``, a scalar over a nonzero vector: ``num == 0`` on
    rationals, ``|num| <= bound * |den|`` on floats."""
    if is_exact_scalar(num):
        return num == 0
    return abs(num) <= bound * math.hypot(*map(float, den))


def negligible_lazy(x, threshold) -> bool:
    """``negligible`` with a bound that is built only on floats: ``x == 0`` on
    rationals, ``|x| <= threshold()`` otherwise."""
    if is_exact_scalar(x):
        return x == 0
    return abs(x) <= threshold()


def vec_is_zero(v, eps: float, ref: float) -> bool:
    if is_exact_vec(v):
        return all(c == 0 for c in v)
    return vec_norm(v) <= eps * ref


def collinear3(axb, a, b, eps: float) -> bool:
    """Whether two 3-vectors are linearly dependent, given their cross product.

    Exact on rational entries; numerically the cross product is compared
    against eps times the product of the norms, so callers must rule out
    vectors that are themselves negligible first.
    """
    if is_exact_vec(axb):
        return all(v == 0 for v in axb)
    return vec_norm(axb) <= eps * vec_norm(a) * vec_norm(b)


def unit(v) -> tuple:
    """v / |v| as a tuple of floats; raises ValueError on the zero vector."""
    f = float_vec(v)
    n = vec_norm(f)
    if (n == math.inf or n == 0.0) and all(map(math.isfinite, f)) and any(f):
        # the squares overflowed or underflowed: divide by the largest entry first
        big = max(map(abs, f))
        f = tuple(c / big for c in f)
        n = vec_norm(f)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return tuple(c / n for c in f)


def rank3(rows, eps: float) -> int:
    """Rank of a matrix with at most three columns.

    Exact rows: fraction-free elimination on their integers over one
    common denominator, which does not change the rank.  Float rows, padded
    to 3-vectors, are divided by their largest entry, so that the matrix has
    scale 1 and no square underflows or overflows; then the rules of the
    zero tests and ``collinear3`` decide, pivoting on the largest row ``a``.
    A row is zero when its norm is at most ``eps`` (``vec_is_zero`` at
    scale 1).  The rank is 1 when every row is dependent on ``a`` by
    ``collinear3``'s rule, ``|a x b| <= eps |a| |b|``.  Otherwise ``b`` is
    the independent row farthest from ``a``'s line, and the rank is 3 when
    some row's distance from the plane of ``a`` and ``b``, a degree-1
    quantity, exceeds ``eps``, and 2 otherwise.
    """
    cleared = _integers([c for row in rows for c in row])
    if cleared is not None:
        nums = iter(cleared[0])
        m = [[next(nums) for _ in row] for row in rows]
        rank = 0
        ncols = len(m[0]) if m else 0
        for col in range(ncols):
            pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            pv = m[rank][col]
            for r in range(rank + 1, len(m)):
                f = m[r][col]
                if f != 0:
                    m[r] = [pv * a - f * b for a, b in zip(m[r], m[rank])]
            rank += 1
        return rank
    if any(len(row) > 3 for row in rows):
        raise ValueError("rank3 takes rows of at most three entries")
    big = max(abs(float(c)) for row in rows for c in row)
    if not math.isfinite(big):
        raise OverflowError("a coefficient left the float range")
    if big == 0.0:
        return 0
    vecs = [tuple(float(c) / big for c in row) + (0.0,) * (3 - len(row)) for row in rows]
    live = [(v, n) for v in vecs if (n := vec_norm(v)) > eps]
    if not live:
        return 0
    a, na = max(live, key=lambda item: item[1])
    # b: of the rows that collinear3 calls independent of a, the farthest from a's line
    w, nw = None, 0.0
    for b, nb in live:
        axb = _cross(a, b)
        size = vec_norm(axb)
        if size > eps * na * nb and size > nw:
            w, nw = axb, size
    if w is None:
        return 1
    return 3 if any(abs(_dot(w, c)) > eps * nw for c, _ in live) else 2


def orthonormal_extension(vectors, dim: int) -> tuple:
    """Complete the given (float) vectors to an orthonormal basis of R^dim.

    Extension vectors are picked deterministically: coordinate axes in index
    order, Gram-Schmidt orthogonalized against what is already there.  An
    input is dependent when its residue is below 1e-13 of its own norm.
    """
    basis = []
    for v in vectors:
        w = float_vec(v)
        size = vec_norm(w)
        for b in basis:
            d = float_dot(w, b)
            w = tuple(x - d * y for x, y in zip(w, b))
        n = vec_norm(w)
        if n <= 1e-13 * size:
            raise ValueError("input vectors are numerically dependent")
        basis.append(tuple(x / n for x in w))
    for axis in range(dim):
        if len(basis) == dim:
            break
        w = tuple(float(i == axis) for i in range(dim))
        for b in basis:
            d = float_dot(w, b)
            w = tuple(x - d * y for x, y in zip(w, b))
        n = vec_norm(w)
        if n > 1e-7:
            basis.append(tuple(x / n for x in w))
    return tuple(basis)


def identity(n: int) -> tuple:
    """The n x n identity matrix in floats, as a tuple of rows."""
    return tuple(tuple(float(i == j) for j in range(n)) for i in range(n))


def householder_rotation_to_e1(w) -> tuple:
    """Rotation R (det +1) with R w = |w| e1, built from a Householder reflection."""
    w = float_vec(w)
    n = len(w)
    norm = vec_norm(w)
    if norm == 0.0:
        raise ValueError("cannot rotate the zero vector")
    v = (w[0] - norm,) + w[1:]
    vn = vec_norm(v)
    if vn <= 1e-14 * norm:
        return identity(n)
    vn2 = vn * vn
    h = [[float(i == j) - 2.0 * (v[i] * v[j]) / vn2 for j in range(n)] for i in range(n)]
    # a reflection has det -1; flip one later axis to restore orientation
    h[-1] = [-c for c in h[-1]]
    return tuple(map(tuple, h))


def subspace_distance(basis_a, basis_b) -> float:
    """Operator-norm distance between the orthogonal projectors onto two subspaces of R^3.

    The bases are orthonormal.  For equal dimensions the distance is the sine
    of the largest principal angle: ``|a x b|`` between two lines, the same
    between the normals of two planes, and 0 for two points or all of R^3.
    Projectors of different ranks are at distance 1.
    """
    if len(basis_a) != len(basis_b):
        return 1.0
    if len(basis_a) in (0, 3):
        return 0.0
    a, b = (x[0] if len(x) == 1 else cross3(*x) for x in (basis_a, basis_b))
    return vec_norm(cross3(a, b))
