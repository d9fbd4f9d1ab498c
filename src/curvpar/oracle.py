"""Independent brute-force verifiers for the closed-form pipeline.

Everything here re-derives a result by sampling, scanning, or finite
differences, never by the formula it is checking.  Tolerances are
deliberately looser than the closed-form ones; these exist to catch formula
transcription errors, not to be precise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import N_CANDIDATES, scan_reach, scan_scores
from .config import DEFAULT_TOL, Tolerances
from .forms import SecondForm
from .linalg import float_vec

__all__ = [
    "CheckResult",
    "VerificationReport",
    "ScanResult",
    "affine_hull_distance",
    "parabola_hull_distance",
    "asymptotic_scan",
    "finite_difference_hessian",
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
    ys = np.linspace(-5.0, 5.0, 101)[:, None]
    Lf = float_vec(pp.Lvec)
    M2f = float_vec(2 * m for m in pp.Mvec)
    Nf = float_vec(pp.Nvec)
    return affine_hull_distance(Lf + M2f * ys + Nf * ys * ys, tol)


@dataclass(frozen=True)
class ScanResult:
    kind: str                # "all" | "finite"
    clusters: tuple          # approximate finite roots, ascending
    includes_infinity: bool
    marked_fraction: float


def _cluster_roots(candidates, gap: float):
    """Group candidate roots; precise (interpolated) entries win inside a group."""
    if not candidates:
        return ()
    candidates = sorted(candidates)
    groups = [[candidates[0]]]
    for item in candidates[1:]:
        if item[0] - groups[-1][-1][0] <= gap:
            groups[-1].append(item)
        else:
            groups.append([item])
    centers = []
    for group in groups:
        precise = [y for y, is_precise in group if is_precise]
        pool = precise if precise else [y for y, _ in group]
        centers.append(sum(pool) / len(pool))
    return tuple(centers)


def _root_candidates(ys, det, marked, absdet=None):
    """Candidate roots of the collinearity determinant along the grid.

    Sign changes give linearly interpolated (precise) roots and exact zeros
    give precise grid roots.  Touching roots, where |det| dips to the scale
    of the discrete second difference without a sign change, and grid points
    marked by the scan give coarse candidates.  ``absdet`` is ``|det|`` when
    the caller has it.  Returns ``(y, precise)`` pairs.
    """
    h = ys[1] - ys[0]
    if absdet is None:
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


def _tangent_pairs(lp, mp, np_, ys):
    """Plane coordinates ``p1, p2, q1, q2`` of II((1, y), v) for the two basis tangent vectors v."""
    return lp[0] + mp[0] * ys, lp[1] + mp[1] * ys, mp[0] + np_[0] * ys, mp[1] + np_[1] * ys


def asymptotic_scan(sf: SecondForm, ep, tol: Tolerances = DEFAULT_TOL) -> ScanResult:
    """Grid-scan estimate of the asymptotic parameter set.

    Over a uniform parameter grid the scan scores each tangent direction by
    the exact minimum over unit directions of the plane of the largest
    bilinear-form value against the basis tangent vectors.  Saturation of the
    zero threshold means every direction is asymptotic.  Isolated roots are
    located from the collinearity determinant along the grid (see
    ``_root_candidates``).

    A score is ``|det| / reach`` (see ``_kernels``), and ``reach`` is convex
    in y because ``p`` and ``q`` are affine in y, so its largest grid value
    ``R`` sits at an end of the grid.  A sample with ``|det|`` above
    ``zero * R`` cannot be marked, and one with ``det == 0`` scores exactly
    0, so the kernel scores only the samples left.  The bound's slack covers
    the rounding of ``p`` and ``q``, a few ulps of ``R``; it holds while the
    kernel's squares stay normal floats, and outside that range every sample
    is scored.
    """
    lp = ep.to_plane_coords(sf.L)
    mp = ep.to_plane_coords(sf.M)
    np_ = ep.to_plane_coords(sf.N)

    ys = np.linspace(-tol.scan_window, tol.scan_window, tol.scan_points)
    h = ys[1] - ys[0]

    # det = p1*q2 - p2*q1 in three buffers, in _tangent_pairs' operation order
    det = np.multiply(mp[0], ys)
    det += lp[0]
    buf = np.multiply(np_[1], ys)
    buf += mp[1]
    det *= buf
    np.multiply(mp[1], ys, out=buf)
    buf += lp[1]
    absdet = np.multiply(np_[0], ys)
    absdet += mp[0]
    buf *= absdet
    det -= buf
    np.abs(det, out=absdet)

    # a score has degree 1 in the jet, so its zero bound scales with ref
    zero = tol.scan_zero_tol * sf.ref
    reach = float(np.max(scan_reach(*_tangent_pairs(lp, mp, np_, ys[[0, -1]]))))
    # a zero reach means p = q = 0 on the whole grid, so every score is 0
    if reach == 0.0 or (1e-150 <= min(zero, reach) and reach <= 1e150):
        marked, bound = det == 0.0, zero * reach * (1.0 + 1e-9)
    else:
        marked, bound = np.zeros(ys.size, dtype=bool), np.inf
    scored = np.flatnonzero(~((absdet > bound) | marked))
    if scored.size:
        pairs = _tangent_pairs(lp, mp, np_, ys[scored])
        marked[scored] = scan_scores(*pairs, N_CANDIDATES) <= zero
    fraction = float(np.count_nonzero(marked) / ys.size)

    # the null tangent direction (0, 1)
    inf_score = float(scan_scores([mp[0]], [mp[1]], [np_[0]], [np_[1]], N_CANDIDATES)[0])
    includes_infinity = inf_score <= zero

    if fraction >= tol.scan_saturation:
        return ScanResult(
            kind="all", clusters=(), includes_infinity=True, marked_fraction=fraction
        )

    clusters = _cluster_roots(_root_candidates(ys, det, marked, absdet), gap=20.0 * h)
    return ScanResult(
        kind="finite",
        clusters=clusters,
        includes_infinity=includes_infinity,
        marked_fraction=fraction,
    )


def finite_difference_hessian(germ, nu, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Central-difference Hessian at the origin of the height function along nu.

    ``nu`` has 4 ambient coordinates.  The Hessian at the origin is the 2-jet's,
    so the stencil differentiates the 2-jet, a quadratic, on which central
    differences are exact up to rounding.
    """
    g = getattr(germ, "germ", germ).truncated(2).to_float()
    nu = np.asarray([float(c) for c in nu], dtype=float)

    def height(x, y):
        return float(np.dot(nu, g.evaluate(x, y)))

    s = tol.fd_step
    h0 = height(0.0, 0.0)
    hxx = (height(s, 0.0) - 2.0 * h0 + height(-s, 0.0)) / (s * s)
    hyy = (height(0.0, s) - 2.0 * h0 + height(0.0, -s)) / (s * s)
    hxy = (height(s, s) - height(s, -s) - height(-s, s) + height(-s, -s)) / (4.0 * s * s)
    return np.array([[hxx, hxy], [hxy, hyy]])
