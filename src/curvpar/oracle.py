"""Independent brute-force verifiers for the closed-form pipeline.

Everything here re-derives a result by sampling, scanning, or finite
differences, never by the formula it is checking.  Tolerances are
deliberately looser than the closed-form ones; these exist to catch formula
transcription errors, not to be precise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import N_CANDIDATES, scan_scores
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


def _root_candidates(ys, det, marked):
    """Candidate roots of the collinearity determinant along the grid.

    Sign changes give linearly interpolated (precise) roots and exact zeros
    give precise grid roots.  Touching roots, where |det| dips to the scale
    of the discrete second difference without a sign change, and grid points
    marked by the scan give coarse candidates.  Returns ``(y, precise)``
    pairs.
    """
    h = ys[1] - ys[0]
    signs = np.sign(det)
    i = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    crossings = ys[i] - det[i] * h / (det[i + 1] - det[i])
    absdet = np.abs(det)
    mid = absdet[1:-1]
    dd = np.abs(det[2:] - 2.0 * det[1:-1] + det[:-2])
    touching = (mid <= absdet[:-2]) & (mid <= absdet[2:]) & (mid <= 0.3 * dd) & (dd > 0)
    precise = np.concatenate((crossings, ys[signs == 0]))
    coarse = np.concatenate((ys[1:-1][touching], ys[marked]))
    return [(y, True) for y in precise.tolist()] + [(y, False) for y in coarse.tolist()]


def asymptotic_scan(sf: SecondForm, ep, tol: Tolerances = DEFAULT_TOL) -> ScanResult:
    """Grid-scan estimate of the asymptotic parameter set.

    Over a uniform parameter grid the scan scores each tangent direction by
    the exact minimum over unit directions of the plane of the largest
    bilinear-form value against the basis tangent vectors.  Saturation of the
    zero threshold means every direction is asymptotic.  Isolated roots are
    located from the collinearity determinant along the grid (see
    ``_root_candidates``).
    """
    lp = ep.to_plane_coords(sf.L)
    mp = ep.to_plane_coords(sf.M)
    np_ = ep.to_plane_coords(sf.N)

    ys = np.linspace(-tol.scan_window, tol.scan_window, tol.scan_points)
    h = ys[1] - ys[0]

    # plane coordinates of II((1,y), v) for the two basis tangent vectors v
    p1 = lp[0] + mp[0] * ys
    p2 = lp[1] + mp[1] * ys
    q1 = mp[0] + np_[0] * ys
    q2 = mp[1] + np_[1] * ys

    scores = scan_scores(p1, p2, q1, q2, N_CANDIDATES)
    marked = scores <= tol.scan_zero_tol
    fraction = float(marked.mean())

    # the null tangent direction (0, 1)
    inf_score = float(scan_scores([mp[0]], [mp[1]], [np_[0]], [np_[1]], N_CANDIDATES)[0])
    includes_infinity = inf_score <= tol.scan_zero_tol

    if fraction >= tol.scan_saturation:
        return ScanResult(
            kind="all", clusters=(), includes_infinity=True, marked_fraction=fraction
        )

    det = p1 * q2 - p2 * q1
    clusters = _cluster_roots(_root_candidates(ys, det, marked), gap=20.0 * h)
    return ScanResult(
        kind="finite",
        clusters=clusters,
        includes_infinity=includes_infinity,
        marked_fraction=fraction,
    )


def finite_difference_hessian(germ, nu, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Central-difference Hessian at the origin of the height function along nu.

    ``nu`` has 4 ambient coordinates; error is O(step^2).
    """
    g = getattr(germ, "germ", germ)
    nu = np.asarray([float(c) for c in nu], dtype=float)
    s = tol.fd_step

    def height(x, y):
        return float(np.dot(nu, [float(v) for v in g.evaluate(x, y)]))

    h0 = height(0.0, 0.0)
    hxx = (height(s, 0.0) - 2.0 * h0 + height(-s, 0.0)) / (s * s)
    hyy = (height(0.0, s) - 2.0 * h0 + height(0.0, -s)) / (s * s)
    hxy = (height(s, s) - height(s, -s) - height(-s, s) + height(-s, -s)) / (4.0 * s * s)
    return np.array([[hxx, hxy], [hxy, hyy]])
