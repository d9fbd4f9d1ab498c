"""Small vector/matrix helpers shared by the geometry modules.

Decision helpers (``negligible``, ``vec_is_zero``, ``collinear3``, ``rank3``)
run exactly on Fraction entries, so callers never branch on exactness.  On
floats a degree-d quantity is zero when |x| <= eps * ref**d, ref = ``scale_of``
of the whole 2-jet.  Norms and orthonormal frames are float by nature.

The exact kernels (``dot3``, ``cross3``, ``cone_quadratic``, ``rank3``) work in
integers: each exact vector is cleared of its denominators once, the
arithmetic runs on Python ints, and each result entry becomes one Fraction.
Vectors with a float entry take the plain float expressions.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "is_exact_scalar",
    "is_exact_vec",
    "dot3",
    "cross3",
    "cone_quadratic",
    "vec_norm",
    "float_vec",
    "scale_of",
    "negligible",
    "negligible_quotient",
    "vec_is_zero",
    "collinear3",
    "unit",
    "rank3",
    "orthonormal_extension",
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


def float_vec(v) -> np.ndarray:
    """The entries of a vector, exact or float, as a float array."""
    return np.asarray([float(c) for c in v], dtype=float)


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


def unit(v) -> np.ndarray:
    arr = float_vec(v)
    with np.errstate(over="ignore"):
        n = np.linalg.norm(arr)
    if (math.isinf(n) or n == 0.0) and np.isfinite(arr).all() and arr.any():
        # the squares overflowed or underflowed: divide by the largest entry first
        arr = arr / np.abs(arr).max()
        n = np.linalg.norm(arr)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return arr / n


def rank3(rows, eps: float) -> int:
    """Rank of a small matrix: fraction-free elimination on the integers of
    exact rows (a row's denominator does not change the rank), SVD otherwise."""
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
    arr = np.asarray([[float(v) for v in row] for row in rows], dtype=float)
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > eps * s[0]))


def orthonormal_extension(vectors, dim: int) -> np.ndarray:
    """Complete the given (float) vectors to an orthonormal basis of R^dim.

    Extension vectors are picked deterministically: coordinate axes in index
    order, Gram-Schmidt orthogonalized against what is already there.  An
    input is dependent when its residue is below 1e-13 of its own norm.
    """
    basis = []
    for v in vectors:
        w = np.asarray([float(c) for c in v], dtype=float)
        size = np.linalg.norm(w)
        for b in basis:
            w = w - np.dot(w, b) * b
        n = np.linalg.norm(w)
        if n <= 1e-13 * size:
            raise ValueError("input vectors are numerically dependent")
        basis.append(w / n)
    for axis in range(dim):
        if len(basis) == dim:
            break
        w = np.zeros(dim)
        w[axis] = 1.0
        for b in basis:
            w -= np.dot(w, b) * b
        n = np.linalg.norm(w)
        if n > 1e-7:
            basis.append(w / n)
    return np.asarray(basis)


def householder_rotation_to_e1(w) -> np.ndarray:
    """Rotation R (det +1) with R w = |w| e1, built from a Householder reflection."""
    w = float_vec(w)
    n = w.shape[0]
    norm = np.linalg.norm(w)
    if norm == 0.0:
        raise ValueError("cannot rotate the zero vector")
    e1 = np.zeros(n)
    e1[0] = 1.0
    v = w - norm * e1
    vn = np.linalg.norm(v)
    if vn <= 1e-14 * norm:
        return np.eye(n)
    h = np.eye(n) - 2.0 * np.outer(v, v) / (vn * vn)
    # a reflection has det -1; flip one later axis to restore orientation
    flip = np.eye(n)
    flip[-1, -1] = -1.0
    return flip @ h


def subspace_distance(basis_a, basis_b) -> float:
    """Operator-norm distance between orthogonal projectors onto two subspaces."""
    def projector(basis):
        if len(basis) == 0:
            return np.zeros((3, 3))
        b = np.asarray(basis, dtype=float)
        return b.T @ b

    return float(np.linalg.norm(projector(basis_a) - projector(basis_b), 2))
