"""Small vector/matrix helpers shared by the geometry modules.

Decision helpers (``negligible``, ``vec_is_zero``, ``collinear3``, ``rank3``)
run exactly on Fraction entries, so callers never branch on exactness.  On
floats a degree-d quantity is zero when |x| <= eps * ref**d, ref = ``scale_of``
of the whole 2-jet.  Norms and orthonormal frames are float by nature.
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


def is_exact_scalar(v) -> bool:
    return isinstance(v, (Fraction, int))


def is_exact_vec(v) -> bool:
    return all(is_exact_scalar(c) for c in v)


def dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


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
    if math.isinf(n) and np.isfinite(arr).all():
        # the squares left the float range: divide by the largest entry first
        arr = arr / np.abs(arr).max()
        n = np.linalg.norm(arr)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return arr / n


def rank3(rows, eps: float) -> int:
    """Rank of a small matrix: exact elimination on rationals, SVD otherwise."""
    if all(is_exact_scalar(v) for row in rows for v in row):
        m = [list(map(Fraction, row)) for row in rows]
        rank = 0
        ncols = len(m[0]) if m else 0
        col = 0
        for col in range(ncols):
            pivot = None
            for r in range(rank, len(m)):
                if m[r][col] != 0:
                    pivot = r
                    break
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            pv = m[rank][col]
            for r in range(rank + 1, len(m)):
                if m[r][col] != 0:
                    factor = m[r][col] / pv
                    m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
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
