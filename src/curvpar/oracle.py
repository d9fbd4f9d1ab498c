"""Independent brute-force verifiers for the closed-form pipeline.

Everything here re-derives a result by sampling, scanning, or finite
differences, never by the formula it is checking.  The oracles' settings and
agreement tolerances are the constants below, deliberately looser than the
closed-form thresholds in ``curvpar.config``; these exist to catch formula
transcription errors, not to be precise.  The functions read the constants
at call time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._kernels import N_CANDIDATES, scan_reach, scan_scores
from .config import DEFAULT_TOL, Tolerances
from .forms import SecondForm
from .linalg import float_vec

# the scan grid: SCAN_POINTS tangent parameters spread evenly over [-SCAN_WINDOW, SCAN_WINDOW]
SCAN_WINDOW = 50.0
SCAN_POINTS = 100_000
# a sample is marked when its score is at most SCAN_ZERO_TOL * ref; a scan that
# marks at least SCAN_SATURATION of the grid finds every direction asymptotic
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


def _root_candidates(ys, det, marked, h=None):
    """Candidate roots of the collinearity determinant along the grid.

    Sign changes give linearly interpolated (precise) roots and exact zeros
    give precise grid roots.  Touching roots, where |det| dips to the scale
    of the discrete second difference without a sign change, and grid points
    marked by the scan give coarse candidates.  ``h`` is the grid spacing
    when ``ys`` is a piece of the grid.  Returns ``(y, precise)`` pairs.
    """
    if h is None:
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


def _tangent_pairs(lp, mp, np_, ys):
    """Plane coordinates ``p1, p2, q1, q2`` of II((1, y), v) for the two basis tangent vectors v."""
    return lp[0] + mp[0] * ys, lp[1] + mp[1] * ys, mp[0] + np_[0] * ys, mp[1] + np_[1] * ys


def _det_along(lp, mp, np_, ys):
    """``det = p1*q2 - p2*q1`` at each sample, in three buffers, in ``_tangent_pairs``' operation order."""
    det = np.multiply(mp[0], ys)
    det += lp[0]
    buf = np.multiply(np_[1], ys)
    buf += mp[1]
    det *= buf
    np.multiply(mp[1], ys, out=buf)
    buf += lp[1]
    q1 = np.multiply(np_[0], ys)
    q1 += mp[0]
    buf *= q1
    det -= buf
    return det


# samples per block of the scan grid; neighbouring blocks share their end sample
SCAN_BLOCK = 64
# the |det| range of a clean block: every product, sum and difference of the
# test below stays a normal float, so each rounds with relative error <= 2**-53
_CLEAN_RANGE = (1e-290, 1e290)


class _ScanGrid(NamedTuple):
    ys: np.ndarray      # the tangent parameters, ascending
    h: float            # ys[1] - ys[0], the spacing the candidates use
    ends: np.ndarray    # ys at the block ends: block k spans ends[k] .. ends[k + 1]
    owned: np.ndarray   # block k owns samples owned[k] .. owned[k + 1] - 1
    sizes: np.ndarray   # samples owned by each block


@lru_cache(maxsize=4)
def _scan_grid(window: float, points: int) -> _ScanGrid:
    """The scan grid and its blocks, built once per ``(window, points)``; read-only."""
    ys = np.linspace(-window, window, points)
    edges = np.append(np.arange(0, points - 1, SCAN_BLOCK), points - 1)
    owned = edges.copy()
    owned[-1] = points
    grid = _ScanGrid(ys, ys[1] - ys[0], ys[edges], owned, np.diff(owned))
    for a in (grid.ys, grid.ends, grid.owned, grid.sizes):
        a.flags.writeable = False
    return grid


def _block_ranges(x, y):
    """Per block, the least and greatest rounded product ``x*y`` over the four end-value corners."""
    d = x * y
    c1, c2 = x[:, :-1] * y[:, 1:], x[:, 1:] * y[:, :-1]
    lo = np.minimum(np.minimum(d[:, :-1], d[:, 1:]), np.minimum(c1, c2))
    hi = np.maximum(np.maximum(d[:, :-1], d[:, 1:]), np.maximum(c1, c2))
    return lo, hi


def _classify_blocks(x, y, bound: float):
    """``(clean, zero)`` flags per block.

    ``x`` holds the rows ``p1, p2`` and ``y`` the rows ``q2, q1`` at the
    block ends.  Ends that overflow (only under an infinite bound) give an
    inf or NaN range, which leaves a block neither clean nor zero.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        plo, phi = _block_ranges(x, y)
        lo, hi = plo[0] - phi[1], phi[0] - plo[1]
    # the range over the block and its neighbours bounds each second difference
    lo3, hi3 = lo.copy(), hi.copy()
    for r3, r, fold in ((lo3, lo, np.minimum), (hi3, hi, np.maximum)):
        fold(r3[1:], r[:-1], out=r3[1:])
        fold(r3[:-1], r[1:], out=r3[:-1])
    big = np.maximum(np.abs(lo3), np.abs(hi3))
    least = np.minimum(np.abs(lo), np.abs(hi))
    clean = (
        ((lo > bound) | (hi < -bound))
        & (least > 0.6 * (hi3 - lo3) * (1.0 + 1e-9) + 1e-15 * big)
        & (least >= _CLEAN_RANGE[0])
        & (big <= _CLEAN_RANGE[1])
    )
    return clean, (lo == 0.0) & (hi == 0.0)


def _runs(flags):
    """``(first, stop)`` block indices of each maximal run of set flags."""
    change = np.flatnonzero(np.diff(np.concatenate(([False], flags, [False]))))
    return zip(change[::2].tolist(), change[1::2].tolist())


def asymptotic_scan(sf: SecondForm, ep) -> ScanResult:
    """Grid-scan estimate of the asymptotic parameter set.

    Over a uniform parameter grid the scan scores each tangent direction by
    the exact minimum over unit directions of the plane of the largest
    bilinear-form value against the basis tangent vectors.  Saturation of the
    zero threshold means every direction is asymptotic.  Isolated roots are
    located from the collinearity determinant ``det = p1*q2 - p2*q1`` along
    the grid (see ``_root_candidates``).

    A score is ``|det| / reach`` (see ``_kernels``), and ``reach`` is convex
    in y because ``p`` and ``q`` are affine in y, so its largest grid value
    ``R`` sits at an end of the grid.  A sample with ``|det|`` above
    ``bound = zero * R`` cannot be marked, and one with ``det == 0`` scores
    exactly 0, so the kernel scores only the samples left.  The bound's
    slack covers the rounding of ``p`` and ``q``, a few ulps of ``R``; it
    holds while the kernel's squares stay normal floats, and outside that
    range the bound is infinite and every sample is scored.

    The grid is cut into blocks of ``SCAN_BLOCK`` samples that share their
    end samples, and each block is judged from ``p1, p2, q1, q2`` at its two
    ends.  Each of these is a rounded affine map of y, and rounding is
    monotone, so along a block it lies between its end values; for the same
    reason each rounded product lies between the rounded products of the
    end-value corners, and the rounded difference between the differences
    of those ranges.  That gives a range ``[lo, hi]`` holding every
    *computed* ``det`` of the block, with no closed form of the quadratic.

    - A *clean* block lies beyond ``+-bound``: no sample is marked, zero or
      changes sign.  Its least ``|det|`` also exceeds
      ``0.6 * width * (1 + 1e-9) + 1e-15 * max|det|``, where ``width`` and
      ``max|det|`` span the block and its neighbours.  A touching candidate
      needs ``|det| <= 0.3 * |second difference|``, and that difference is
      at most ``2 * width`` plus a rounding of ``3 * 2**-53 * max|det|``,
      which the slack covers while the range stays in ``_CLEAN_RANGE``.  A
      clean block contributes nothing and is never read.
    - A *zero* block has ``lo == hi == 0``: every sample is an exact zero
      and, under a finite bound, marked.  Its marks are counted per block, so
      a saturated scan returns without reading a sample.
    - Any other block is *dirty*: the per-sample code runs on each maximal
      run of dirty blocks, with a one-sample halo on each side.

    A zero block cannot neighbour a clean one, as they would share an end
    sample, so when the scan is not saturated each maximal run of blocks
    that are not clean is bordered by dirty blocks, whose halos lie in the
    clean blocks beyond.  ``_root_candidates`` runs on each such run, and
    every candidate comes from a sample or pair the run owns.  Under an
    infinite bound no block is clean or zero, and the one dirty run is the
    whole grid.
    """
    lp = ep.to_plane_coords(sf.L)
    mp = ep.to_plane_coords(sf.M)
    np_ = ep.to_plane_coords(sf.N)

    grid = _scan_grid(SCAN_WINDOW, SCAN_POINTS)
    ys, n = grid.ys, grid.ys.size

    # a score has degree 1 in the jet, so its zero bound scales with ref
    zero = SCAN_ZERO_TOL * sf.ref
    # rows (p1, p2) and (q2, q1) at the block ends, rounded as _tangent_pairs rounds them;
    # the first and last ends are the grid's
    x = lp[:, None] + mp[:, None] * grid.ends
    y = mp[::-1, None] + np_[::-1, None] * grid.ends
    reach = float(np.max(scan_reach(x[0, [0, -1]], x[1, [0, -1]], y[1, [0, -1]], y[0, [0, -1]])))
    # a zero reach means p = q = 0 on the whole grid, so every score is 0
    bounded = reach == 0.0 or (1e-150 <= min(zero, reach) and reach <= 1e150)
    bound = zero * reach * (1.0 + 1e-9) if bounded else np.inf
    clean, zeros = _classify_blocks(x, y, bound)
    zeros &= bounded

    # samples are read only in runs of dirty blocks, each with a one-sample
    # halo; a run counts the marks of the samples it owns
    det = np.empty(n)
    marked = np.zeros(n, dtype=bool)
    count = int(grid.sizes[zeros].sum())
    for k0, k1 in _runs(~(clean | zeros)):
        s, t = grid.owned[k0], grid.owned[k1]
        a, b = max(s - 1, 0), min(t + 1, n)
        d = det[a:b] = _det_along(lp, mp, np_, ys[a:b])
        m = marked[a:b]
        if bounded:
            np.equal(d, 0.0, out=m)
        scored = np.flatnonzero(~((np.abs(d) > bound) | m))
        if scored.size:
            pairs = _tangent_pairs(lp, mp, np_, ys[a:b][scored])
            m[scored] = scan_scores(*pairs, N_CANDIDATES) <= zero
        count += np.count_nonzero(m[s - a : t - a])
    fraction = float(count / n)

    # the null tangent direction (0, 1)
    inf_score = float(scan_scores([mp[0]], [mp[1]], [np_[0]], [np_[1]], N_CANDIDATES)[0])
    includes_infinity = inf_score <= zero

    if fraction >= SCAN_SATURATION:
        return ScanResult(
            kind="all", clusters=(), includes_infinity=True, marked_fraction=fraction
        )

    # every run of blocks that are not clean is bordered by dirty blocks, whose
    # halos were read; the zero blocks inside it need no reading
    if zeros.any():
        held = np.repeat(zeros, grid.sizes)
        det[held] = 0.0
        marked[held] = True
    candidates = []
    for k0, k1 in _runs(~clean):
        a, b = max(grid.owned[k0] - 1, 0), min(grid.owned[k1] + 1, n)
        candidates += _root_candidates(ys[a:b], det[a:b], marked[a:b], h=grid.h)
    return ScanResult(
        kind="finite",
        clusters=_cluster_roots(candidates, gap=20.0 * grid.h),
        includes_infinity=includes_infinity,
        marked_fraction=fraction,
    )


def finite_difference_hessian(germ, normals) -> np.ndarray:
    """Central-difference Hessians at the origin of the height functions along ``normals``.

    ``normals`` is a sequence of normals with 4 ambient coordinates each; the
    stencil is evaluated once and one Hessian per normal comes back, stacked.
    The Hessian at the origin is the 2-jet's, so the stencil differentiates
    the 2-jet, a quadratic, on which central differences are exact up to
    rounding.
    """
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

    return np.array([hessian(n) for n in normals])
