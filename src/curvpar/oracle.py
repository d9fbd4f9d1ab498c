"""Independent brute-force verifiers for the closed-form pipeline.

Everything here re-derives a result by sampling, scanning, or finite
differences, never by the formula it is checking.  The oracles' settings and
agreement tolerances are the constants below, deliberately looser than the
closed-form thresholds in ``curvpar.config``; these exist to catch formula
transcription errors, not to be precise.  The functions read the constants
at call time.  numpy is imported by the functions that use it, so that
importing this module, as the analysis does, does not load it; the oracles
return plain floats, tuples and lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._kernels import N_CANDIDATES, scan_scores
from .config import DEFAULT_TOL, Tolerances
from .forms import SecondForm
from .linalg import float_vec

# the scan grid: SCAN_POINTS parameters spread evenly over [-1, 1] in each
# chart of the tangent directions, (1, y) and (s, 1)
SCAN_POINTS = 2001
# a sample is marked when its score is at most SCAN_ZERO_TOL * ref; a scan that
# marks at least SCAN_SATURATION of its samples finds every direction asymptotic
SCAN_ZERO_TOL = 1e-6
SCAN_SATURATION = 0.99
# the step of the finite-difference Hessian's stencil
FD_STEP = 1e-4
# agreement tolerances of the umbilic curvature with the affine hull, of each
# closed-form root with a scan cluster, and of the Hessians (times the 2-jet's scale)
ORACLE_HULL_TOL = 1e-7
ORACLE_ROOT_TOL = 1e-3
ORACLE_HESSIAN_TOL = 1e-6

__all__ = [
    "CheckResult",
    "VerificationReport",
    "ScanResult",
    "affine_hull_distance",
    "parabola_hull_distance",
    "asymptotic_scan",
    "chart_gap",
    "chart_point",
    "roots_match",
    "finite_difference_hessian",
    "hessian_gap",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    closed_form: object
    oracle: object
    tolerance: float
    passed: bool


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    def add(self, name, closed_form, oracle, tolerance, passed):
        self.checks.append(CheckResult(name, closed_form, oracle, tolerance, bool(passed)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def affine_hull_distance(points, tol: Tolerances = DEFAULT_TOL) -> float:
    """Distance from the origin to the least-squares affine hull of the samples.

    The hull dimension is decided from the singular values of the centered
    sample matrix relative to the largest one.
    """
    import numpy as np

    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 3:
        raise ValueError("affine hull estimation needs at least 3 sample points")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    if not np.isfinite(centered).all():
        raise ValueError("affine hull samples leave the float range")
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    scale = max(float(np.max(np.abs(pts))), 1.0)
    if svals.size == 0 or svals[0] <= tol.eps_rank * scale:
        directions = np.zeros((0, pts.shape[1]))
    else:
        rank = int(np.sum(svals > tol.eps_rank * svals[0]))
        directions = vt[:rank]
    residual = centroid - directions.T @ (directions @ centroid)
    return float(np.linalg.norm(residual))


def parabola_hull_distance(pp, tol: Tolerances = DEFAULT_TOL) -> float:
    """``affine_hull_distance`` of the parabola trace sampled at 101 points of [-5, 5].

    The samples are summed in the order of ``ParabolaProfile.eta``,
    ``l + 2*m*y + n*y*y``, so each equals ``eta(y)`` bit for bit.
    """
    import numpy as np

    ys = np.linspace(-5.0, 5.0, 101)[:, None]
    Lf = np.array(float_vec(pp.Lvec))
    M2f = np.array(float_vec(2 * m for m in pp.Mvec))
    Nf = np.array(float_vec(pp.Nvec))
    return affine_hull_distance(Lf + M2f * ys + Nf * ys * ys, tol)


@dataclass(frozen=True)
class ScanResult:
    kind: str                # "all" | "finite"
    clusters: tuple          # approximate asymptotic directions as chart_points, in cycle order
    marked_fraction: float


def _cluster_roots(candidates, gap: float, period: float):
    """Group candidate positions on a cycle of length ``period``.

    Precise (interpolated) entries win inside a group.  A last group that
    reaches the first across the cycle's seam joins it, and the joined
    group's center may lie below the first position.
    """
    if not candidates:
        return ()
    candidates = sorted(candidates)
    groups = [[candidates[0]]]
    for item in candidates[1:]:
        if item[0] - groups[-1][-1][0] <= gap:
            groups[-1].append(item)
        else:
            groups.append([item])
    if len(groups) > 1 and candidates[0][0] + period - candidates[-1][0] <= gap:
        groups[0] = [(u - period, precise) for u, precise in groups.pop()] + groups[0]
    centers = []
    for group in groups:
        precise = [y for y, is_precise in group if is_precise]
        pool = precise if precise else [y for y, _ in group]
        centers.append(sum(pool) / len(pool))
    return tuple(centers)


def _root_candidates(ys, det, marked):
    """Candidate roots of the collinearity determinant along the grid.

    Sign changes give linearly interpolated (precise) roots and exact zeros
    give precise grid roots.  Touching roots, where |det| dips to the scale
    of the discrete second difference without a sign change, and grid points
    marked by the scan give coarse candidates.  Returns ``(y, precise)`` pairs.
    """
    import numpy as np

    h = ys[1] - ys[0]
    absdet = np.abs(det)
    neg, pos = det < 0.0, det > 0.0
    i = np.flatnonzero((neg[:-1] & pos[1:]) | (pos[:-1] & neg[1:]))
    crossings = ys[i] - det[i] * h / (det[i + 1] - det[i])
    # a touching root is a local minimum of |det|
    mid = absdet[1:-1]
    j = np.flatnonzero((mid <= absdet[:-2]) & (mid <= absdet[2:])) + 1
    dd = np.abs(det[j + 1] - 2.0 * det[j] + det[j - 1])
    touching = j[(absdet[j] <= 0.3 * dd) & (dd > 0)]
    # det == 0.0, not ~(neg | pos), which would also match NaN
    precise = np.concatenate((crossings, ys[det == 0.0]))
    coarse = np.concatenate((ys[touching], ys[marked]))
    return [(y, True) for y in precise.tolist()] + [(y, False) for y in coarse.tolist()]


def _tangent_pairs(lp, mp, np_, ts):
    """Plane coordinates ``p1, p2, q1, q2`` of II((1, t), v) for the two basis tangent vectors v.

    Called with L and N swapped, they are II((t, 1), v) for v = e2, e1: the
    chart s, with p and q swapped, which changes no score and no root.
    """
    return lp[0] + mp[0] * ts, lp[1] + mp[1] * ts, mp[0] + np_[0] * ts, mp[1] + np_[1] * ts


def _cycle_point(u) -> tuple:
    """The direction at position ``u`` of the cycle the two charts make.

    The chart y runs over u in [-1, 1] and the chart s, from s = 1 down to
    s = -1, over u = 2 - s in [1, 3]; u = 3 is u = -1 again.  The direction
    comes as ``chart_point`` gives it, so u = 3 gives (1, -1) as u = -1 does.
    """
    if u < -1.0:
        u += 4.0
    return chart_point(1.0, u) if u <= 1.0 else chart_point(2.0 - u, 1.0)


def chart_point(a, b) -> tuple:
    """The tangent direction ``(a, b)`` in the chart that owns it: ``(1, y)`` for ``|y| <= 1``, else ``(s, 1)``."""
    return (1.0, b / a) if abs(b) <= abs(a) else (a / b, 1.0)


def chart_gap(root, cluster) -> float:
    """The distance from ``root`` to ``cluster``, two ``chart_point``s, in the chart that owns ``root``."""
    k = 0 if root[0] == 1.0 else 1
    return abs(root[1 - k] - cluster[1 - k] / cluster[k]) if cluster[k] else math.inf


def roots_match(roots, clusters, tol) -> bool:
    """Whether ``roots`` and ``clusters``, ``chart_point``s, pair one to one within ``tol``.

    Each root pairs with its nearest cluster by ``chart_gap``; no two roots
    may share a cluster and none may be left over on either side.
    """
    if len(roots) != len(clusters):
        return False
    nearest = [min(range(len(clusters)), key=lambda i: chart_gap(r, clusters[i])) for r in roots]
    return len(set(nearest)) == len(roots) and all(chart_gap(r, clusters[i]) <= tol for r, i in zip(roots, nearest))


def asymptotic_scan(sf: SecondForm, ep) -> ScanResult:
    """Grid-scan estimate of the asymptotic directions.

    The scan covers the projective line of tangent directions with its two
    affine charts, ``(1, y)`` and ``(s, 1)`` for ``|y|, |s| <= 1``, each
    sampled at ``SCAN_POINTS`` evenly spread parameters; the null direction
    (0, 1) is s = 0.  In both charts ``p`` and ``q`` are affine in the
    parameter (see ``_tangent_pairs``).  Each sample is scored by the exact
    minimum over unit directions of the plane of the largest bilinear-form
    value against the basis tangent vectors (``_kernels.scan_scores``).
    Marking at least ``SCAN_SATURATION`` of all samples means every
    direction is asymptotic.  Otherwise isolated roots are located from the
    collinearity determinant ``det = p1*q2 - p2*q1`` along each chart (see
    ``_root_candidates``) and clustered by direction, so that the charts
    join at y = s = +-1.  Each cluster is a ``chart_point``.

    ``report.run_verification`` pairs the closed-form directions one to one
    with the clusters, each compared in the chart that owns it
    (``roots_match``).  For ``|y| > 1``
    a tolerance in s is about that tolerance times ``y**2`` in y: looser
    than a fixed tolerance in y, but the same for every direction.
    """
    import numpy as np

    lp, mp, np_ = (np.array(ep.to_plane_coords(v)) for v in (sf.L, sf.M, sf.N))
    ts = np.linspace(-1.0, 1.0, SCAN_POINTS)
    # a score has degree 1 in the jet, so its zero bound scales with ref
    zero = SCAN_ZERO_TOL * sf.ref
    # one row per chart: the chart y, then the chart s, which swaps L and N;
    # each plane coordinate of L and N is a column over the two charts
    ln, nl = (np.array(rows).T[..., None] for rows in ((lp, np_), (np_, lp)))
    pairs = _tangent_pairs(ln, mp, nl, ts)
    p1, p2, q1, q2 = pairs
    det = p1 * q2 - p2 * q1
    marked = (scan_scores(*(x.ravel() for x in pairs), N_CANDIDATES) <= zero).reshape(det.shape)
    fraction = float(np.count_nonzero(marked) / marked.size)
    if fraction >= SCAN_SATURATION:
        return ScanResult(kind="all", clusters=(), marked_fraction=fraction)

    candidates = _root_candidates(ts, det[0], marked[0]) + [
        (2.0 - s, precise) for s, precise in _root_candidates(ts, det[1], marked[1])
    ]
    centers = _cluster_roots(candidates, gap=4.0 * (ts[1] - ts[0]), period=4.0)
    return ScanResult(
        kind="finite", clusters=tuple(_cycle_point(u) for u in centers), marked_fraction=fraction
    )


def finite_difference_hessian(germ, normals) -> list:
    """Central-difference Hessians at the origin of the height functions along ``normals``.

    ``normals`` is a sequence of normals with 4 ambient coordinates each; the
    stencil is evaluated once and one Hessian per normal comes back, a 2x2
    list of floats each.
    The Hessian at the origin is the 2-jet's, so the stencil differentiates
    the 2-jet, a quadratic, on which central differences are exact up to
    rounding.
    """
    import numpy as np

    g = getattr(germ, "germ", germ).truncated(2).to_float()
    normals = [np.asarray([float(c) for c in n], dtype=float) for n in normals]
    s = FD_STEP
    values = {(i, j): g.evaluate(i * s, j * s) for i in (-1, 0, 1) for j in (-1, 0, 1)}

    def hessian(n):
        h = {k: float(np.dot(n, v)) for k, v in values.items()}
        hxx = (h[1, 0] - 2.0 * h[0, 0] + h[-1, 0]) / (s * s)
        hyy = (h[0, 1] - 2.0 * h[0, 0] + h[0, -1]) / (s * s)
        hxy = (h[1, 1] - h[1, -1] - h[-1, 1] + h[-1, -1]) / (4.0 * s * s)
        return [[hxx, hxy], [hxy, hyy]]

    return [hessian(n) for n in normals]


def hessian_gap(closed, fds, source_change) -> float:
    """Largest entry of ``closed - lin^T fd lin`` over pairs of Hessians.

    ``closed`` holds the closed-form Hessians in the adapted source
    coordinates and ``fds`` the finite-difference ones in the input's.  The
    height along a normal vanishes to first order (the normal is normal to
    the tangent line), so its Hessian pulls back through the linear part
    ``lin`` of ``source_change`` as a tensor.
    """
    import numpy as np

    lin = np.array([[float(p.coefficient(1, 0)), float(p.coefficient(0, 1))] for p in source_change])
    worst = 0.0
    for hess, fd in zip(closed, fds):
        c = np.array([[float(v) for v in row] for row in hess])
        worst = max(worst, float(np.max(np.abs(c - lin.T @ np.array(fd) @ lin))))
    return worst
