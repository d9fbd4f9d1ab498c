"""Small vector/matrix helpers shared by the geometry modules.

Decision helpers (``negligible``, ``vec_is_zero``, ``collinear3``, ``rank3``)
run exactly on Fraction entries, so callers never branch on exactness.  On
floats a degree-d quantity is zero when |x| <= eps * ref**d, ref = ``scale_of``
of the whole 2-jet.  Norms and orthonormal frames are float by nature.

The exact kernels (``dot3``, ``cross3``, ``cone_quadratic``, ``rank3``) work in
integers: each exact vector is cleared of its denominators once, the
arithmetic runs on Python ints, and each result entry becomes one Fraction.
Vectors with a float entry take the plain float expressions.

Vectors and matrices are tuples of Python numbers; nothing here needs numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "is_exact_scalar",
    "is_exact_vec",
    "dot3",
    "cross3",
    "cone_quadratic",
    "vec_norm",
    "float_vec",
    "float_dot",
    "first_entry_positive",
    "scale_of",
    "negligible",
    "negligible_quotient",
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


def _integers(v):
    """``(nums, den)`` with ``v[i] == nums[i] / den`` and ``den > 0`` when ``v`` is
    exact (``is_exact_vec``), None otherwise."""
    ratios = []
    for c in v:
        if not is_exact_scalar(c):
            return None
        ratios.append(c.as_integer_ratio())
    den = math.lcm(*[d for _, d in ratios])
    return [n if d == den else n * (den // d) for n, d in ratios], den


def dot3(a, b):
    """a . b: one Fraction on exact vectors, the float expression otherwise."""
    ia = _integers(a)
    ib = None if ia is None else _integers(b)
    if ib is None:
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    (x, dx), (y, dy) = ia, ib
    return Fraction(x[0] * y[0] + x[1] * y[1] + x[2] * y[2], dx * dy)


def cross3(a, b):
    """a x b: Fractions on exact vectors, the float expressions otherwise."""
    ia = _integers(a)
    ib = None if ia is None else _integers(b)
    if ib is None:
        return (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )
    (x, dx), (y, dy) = ia, ib
    den = dx * dy
    return (
        Fraction(x[1] * y[2] - x[2] * y[1], den),
        Fraction(x[2] * y[0] - x[0] * y[2], den),
        Fraction(x[0] * y[1] - x[1] * y[0], den),
    )


def cone_quadratic(L, M, N) -> tuple:
    """Symmetric 3x3 Q with nu . Q . nu = <L,nu><N,nu> - <M,nu>^2.

    Q = (L N^T + N L^T) / 2 - M M^T.  On exact columns its six distinct
    entries are Fractions over the one denominator 2 dL dN dM^2; otherwise
    each entry is the float expression, an int sum halved exactly.
    """
    il, im, i_n = _integers(L), _integers(M), _integers(N)
    if il is None or im is None or i_n is None:
        quad = []
        for i in range(3):
            row = []
            for j in range(3):
                s = L[i] * N[j] + N[i] * L[j]
                row.append((Fraction(s, 2) if isinstance(s, int) else s / 2) - M[i] * M[j])
            quad.append(tuple(row))
        return tuple(quad)
    (l, dl), (m, dm), (n, dn) = il, im, i_n
    sym, cross = dm * dm, 2 * dl * dn
    den = sym * cross
    q = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            q[i][j] = q[j][i] = Fraction(sym * (l[i] * n[j] + n[i] * l[j]) - cross * m[i] * m[j], den)
    return tuple(map(tuple, q))


def vec_norm(v) -> float:
    return math.sqrt(float(sum(float(c) * float(c) for c in v)))


def float_vec(v) -> tuple:
    """The entries of a vector, exact or float, as a tuple of floats."""
    return tuple(float(c) for c in v)


def float_dot(a, b) -> float:
    """a . b for float vectors of any length, summed left to right."""
    return sum(x * y for x, y in zip(a, b))


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

    Exact rows: fraction-free elimination on their integers (a row's
    denominator does not change the rank).  Float rows, padded to
    3-vectors, are divided by their largest entry, so that the matrix has
    scale 1 and no square underflows or overflows; then the rules of the
    zero tests and ``collinear3`` decide, pivoting on the largest row ``a``.
    A row is zero when its norm is at most ``eps`` (``vec_is_zero`` at
    scale 1).  The rank is 1 when every row is dependent on ``a`` by
    ``collinear3``'s rule, ``|a x b| <= eps |a| |b|``.  Otherwise ``b`` is
    the independent row farthest from ``a``'s line, and the rank is 3 when
    some row's distance from the plane of ``a`` and ``b``, a degree-1
    quantity, exceeds ``eps``, and 2 otherwise.
    """
    ints = [_integers(row) for row in rows]
    if all(r is not None for r in ints):
        m = [nums for nums, _ in ints]
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
        axb = cross3(a, b)
        size = vec_norm(axb)
        if size > eps * na * nb and size > nw:
            w, nw = axb, size
    if w is None:
        return 1
    return 3 if any(abs(dot3(w, c)) > eps * nw for c, _ in live) else 2


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
