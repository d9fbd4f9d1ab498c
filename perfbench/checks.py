"""Reference computations and the checks applied to every analysis.

The references are computed exactly from the 2-jet the benchmark generated
(or expanded itself), never taken from a stored copy of curvpar's output.
This module imports nothing heavy, so the measured process can use
``summarize`` without paying for the checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

# report fields every analysis must have set to true
FLAGS = (
    ("orbit", "consistent"),
    ("kappa_stratum_consistent",),
    ("heights", "corank2", "agrees"),
    ("transfer", "directions_match"),
    ("transfer", "types_match"),
)
LABELS = ("orbit", "kind", "stratum", "point_type", "asymptotic_count")


def summarize(report: dict) -> dict:
    """The fields of a report that the checks read."""
    out = {
        "orbit": report["orbit"]["from_geometry"],
        "kind": report["parabola"]["kind"],
        "stratum": report["parabola"]["stratum"],
        "point_type": report["point_type"],
        "asymptotic_count": report["asymptotic"]["count"],
        "kappa_u": report["umbilic"]["kappa_u"],
    }
    for path in FLAGS:
        node = report
        for key in path:
            node = node[key]
        out[".".join(path)] = node
    if "verification" in report:
        out["verification.passed"] = report["verification"]["passed"]
    return out


def second_form_columns(germ):
    """Columns L, M, N of the second-form matrix of an exact prenormal germ.

    Row k is (2*[x^2], [xy], 2*[y^2]) of component k+2, so the parabola is
    eta(y) = L + 2 M y + N y^2.
    """
    rows = [(2 * p.get((2, 0), 0), p.get((1, 1), 0), 2 * p.get((0, 2), 0)) for p in germ[1:]]
    return tuple(tuple(Fraction(r[c]) for r in rows) for c in range(3))


def exact_rank(columns) -> int:
    """Rank of a matrix over the rationals, by Gaussian elimination."""
    rows = [list(r) for r in zip(*columns)]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def hull_distance(L, M, N) -> float:
    """Distance from the origin to the affine hull of {L + 2My + Ny^2}.

    The hull is L + span{M, N}; the squared distance is exact, from an
    orthogonal (unnormalised) basis of that span.
    """
    basis = []
    for v in (M, N):
        for b in basis:
            v = tuple(x - _dot(v, b) / _dot(b, b) * y for x, y in zip(v, b))
        if any(v):
            basis.append(v)
    d2 = _dot(L, L) - sum(_dot(L, b) ** 2 / _dot(b, b) for b in basis)
    return math.sqrt(d2)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def shape_kind(L, M, N) -> str:
    """Shape of the parabola trace decided exactly from its coefficient vectors."""
    if not any(N):
        return "line" if any(M) else "point"
    return "parabola" if any(_cross(M, N)) else "half_line"


def on_boundary(germ) -> bool:
    """Whether the exact labels sit where a float decision has no margin.

    A zero 2-jet (the point at the origin, stratum M0) and a parabola with a
    zero discriminant (a parabolic point) are decided exactly on the rational
    path, but the float path decides them from rounding noise.
    """
    L, M, N = second_form_columns(germ)
    if not any(L + M + N):
        return True
    return shape_kind(L, M, N) == "parabola" and discriminant(L, M, N) == 0


def discriminant(L, M, N) -> Fraction:
    """Discriminant of the asymptotic quadratic of a nondegenerate parabola.

    With w = M x N the roots solve det(L, M, w) + det(L, N, w) y +
    det(M, N, w) y^2 = 0: two asymptotic directions (hyperbolic) when the
    discriminant is positive, none (elliptic) when it is negative.
    """
    w = _cross(M, N)
    q0, q1, q2 = (_dot(a, _cross(b, w)) for a, b in ((L, M), (L, N), (M, N)))
    return q1 * q1 - 4 * q0 * q2


def check_exact(summary: dict, germ) -> list:
    """Problems with an analysis of an exact prenormal germ (empty if none)."""
    L, M, N = second_form_columns(germ)
    problems = [".".join(p) for p in FLAGS if summary[".".join(p)] is not True]
    if summary.get("verification.passed") is False:
        problems.append("verification.passed")
    rank = exact_rank((L, M, N))
    if summary["stratum"] != f"M{rank}":
        problems.append(f"stratum {summary['stratum']} != M{rank}")
    kappa = hull_distance(L, M, N)
    if abs(summary["kappa_u"] - kappa) > 1e-9 * (1.0 + kappa):
        problems.append(f"kappa_u {summary['kappa_u']!r} != {kappa!r}")
    return problems


def check_moved(summary: dict, twin: dict) -> list:
    """Problems with a moved germ's analysis against its unmoved exact twin."""
    problems = [f"{k} {summary[k]!r} != {twin[k]!r}" for k in LABELS if summary[k] != twin[k]]
    kappa = twin["kappa_u"]
    if abs(summary["kappa_u"] - kappa) > 1e-8 * (1.0 + kappa):
        problems.append(f"kappa_u {summary['kappa_u']!r} != {kappa!r}")
    return problems
