"""Independent brute-force verifiers for the closed-form pipeline.

Everything here re-derives a result by sampling, scanning, or finite
differences, never by the formula it is checking.  The oracles' settings and
agreement tolerances are the constants below, deliberately looser than the
closed-form thresholds in ``curvpar.config``; these exist to catch formula
transcription errors, not to be precise.  The functions read the constants
at call time.  The affine hull, the asymptotic scan and its kernel
(``_kernels.scan_scores``) import numpy when called, so that importing this
module, as the analysis does, does not load it.  The Hessian check runs in
plain floats: each height and each sum of its pull-back is a
``linalg.float_dot``, so the gap it prints does not depend on numpy's BLAS.
The oracles read the second form's float view, ``SecondForm.float_columns``,
and return plain floats, tuples and lists.  The asymptotic scan returns unit
tangent directions, which ``directions.directions_match`` pairs with the
closed form's.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._kernels import N_CANDIDATES, scan_scores
from .config import DEFAULT_TOL, Tolerances
from .forms import SecondForm
from .linalg import float_dot

# the scan samples one cycle of tangent directions at SCAN_POINTS positions, a
# step of 1e-3 (see asymptotic_scan)
SCAN_POINTS = 4000
# a sample is marked when its score is at most SCAN_ZERO_TOL times the smaller
# plane value, or times SCAN_ZERO_TOL, in units of ref
SCAN_ZERO_TOL = 1e-6
# the step of the finite-difference Hessian's stencil
FD_STEP = 1e-4
# the hull oracle keeps each direction whose singular value exceeds
# HULL_RANK_TOL times the largest: the samples' rounding noise lies near 1e-15
# of their spread, while a parabola trace may be 1e-9 thin and still a plane
HULL_RANK_TOL = 1e-12
# agreement tolerances of the umbilic curvature with the affine hull, of each
# closed-form direction with a scan direction (a sine of the angle between
# them), and of the Hessians (times the 2-jet's scale)
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
    "hessian_gap",
]


class CheckResult(NamedTuple):
    name: str
    closed_form: object
    oracle: object
    tolerance: float
    passed: bool


class VerificationReport(NamedTuple):
    checks: list  # of CheckResult, which add() appends to: construct with a new list

    def add(self, name, closed_form, oracle, tolerance, passed):
        self.checks.append(CheckResult(name, closed_form, oracle, tolerance, bool(passed)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def affine_hull_distance(points, tol: Tolerances = DEFAULT_TOL) -> float:
    """Distance from the origin to the least-squares affine hull of the samples.

    The samples span no direction when the largest singular value of the
    centered sample matrix is at most ``eps_rank`` times the largest sample
    entry, so the cut follows the samples' own size; otherwise the hull
    dimension is decided from the singular values relative to the largest
    one, cut at ``HULL_RANK_TOL``.  The residual is always measured at unit
    scale, in units of the power of two below its largest entry, so that no
    square leaves the normal float range; this scaling is exact.  An
    underflow is rounding far below the samples' size, and is not reported.
    """
    import numpy as np

    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 3:
        raise ValueError("affine hull estimation needs at least 3 sample points")
    with np.errstate(under="ignore"):
        centroid = np.add.reduce(pts, axis=0) / pts.shape[0]  # pts.mean(axis=0), bit for bit
        centered = pts - centroid
        if not np.logical_and.reduce(np.isfinite(centered), axis=None):
            raise ValueError("affine hull samples leave the float range")
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        top = float(svals[0]) if svals.size else 0.0
        if top <= tol.eps_rank * float(np.maximum.reduce(np.abs(pts), axis=None, initial=0.0)):
            directions = vt[:0]
        else:
            directions = vt[: int(np.count_nonzero(svals > HULL_RANK_TOL * top))]
        residual = centroid - directions.T @ (directions @ centroid)
        big = float(np.maximum.reduce(np.abs(residual), initial=0.0))
        scale = math.ldexp(1.0, math.frexp(big)[1] - 1)
        u = residual / scale
        return math.sqrt(u.dot(u)) * scale


def parabola_hull_distance(pp, tol: Tolerances = DEFAULT_TOL) -> float:
    """``affine_hull_distance`` of the parabola trace sampled at 101 points of [-5, 5].

    The samples are taken in units of ``pp.sf.ref``, a power of two, and the
    distance multiplied back, so that the oracle reads the trace at unit
    scale whatever the jet's.  They are read from ``SecondForm.float_columns``
    and summed in the order of ``ParabolaProfile.eta``, ``l + 2*m*y + n*y*y``,
    so each equals ``eta(y) / ref`` bit for bit (short of subnormals).
    """
    import numpy as np

    ref = pp.sf.ref
    ys = (np.arange(101.0) * 0.1 - 5.0)[:, None]  # np.linspace(-5.0, 5.0, 101), bit for bit
    l, m, n = pp.sf.float_columns
    Lf, M2f, Nf = (np.array([c / ref for c in v]) for v in (l, [2.0 * c for c in m], n))
    return affine_hull_distance(Lf + M2f * ys + Nf * ys * ys, tol) * ref


class ScanResult(NamedTuple):
    kind: str                # "all" | "finite"
    directions: tuple        # approximate asymptotic directions, unit (a, b) with a >= 0, in cycle order


def _cycle_roots(det, score, marked) -> list:
    """Positions of the roots of ``det`` on the cycle of samples, each found once.

    ``marked`` must hold an unmarked sample.  The cycle is rotated to start
    at one, so that no run of marked samples wraps.  Each run of marked
    samples gives its least-scored sample.  Each sign change of ``det``
    between two unmarked neighbours gives its linearly interpolated zero.
    Each unmarked local minimum of ``|det|`` between unmarked neighbours of
    its own sign gives its sample when the parabola through it and its
    neighbours, ``d_1, d0, d1`` in units of the larger neighbour, has its
    vertex at zero: ``|8 s d0 - (d1 - d_1)^2| <= 8 SCAN_ZERO_TOL s^2``, ``s``
    the second difference.  ``det`` is quadratic along each chart, so a
    double root between samples passes up to rounding (a tie goes to the
    first sample), and a minimum c (t^2 + e^2) in steps t only for e < 1.4e-3.
    Signs are compared, not products, which can underflow.  Positions lie
    in ``[0, len(det))``, ascending.
    """
    import numpy as np

    n = len(det)
    start = int(marked.argmin())

    def ring(x):
        # the rotated cycle with one more sample on each end: sample k at k + 1
        return np.concatenate(([x[start - 1]], x[start:], x[:start], [x[start]]))

    ext, free = ring(det), ~ring(marked)
    prv, det, nxt = ext[:-2], ext[1:-1], ext[2:]
    score, marked = ring(score)[1:-1], ~free[1:-1]
    # the runs of marked samples: [flip 0, flip 1), [flip 2, flip 3), ...
    flips = (marked[1:] != marked[:-1]).nonzero()[0] + 1
    bounds = [*flips.tolist(), n] if marked[-1] else flips.tolist()
    found = [lo + int(score[lo:hi].argmin()) for lo, hi in zip(bounds[0::2], bounds[1::2])]
    # the sign of an unmarked sample, whose det is nonzero
    neg = ext < 0.0
    pair = free[1:-1] & free[2:]  # k and k + 1 unmarked
    i = (pair & (neg[1:-1] != neg[2:])).nonzero()[0]
    crossings = zip(i.tolist(), det[i].tolist(), nxt[i].tolist())
    # the unmarked local minima of |det| between unmarked neighbours of its
    # sign, a tie going to the first sample: a few, tested one by one
    absext = np.abs(ext)
    lows = (
        (absext[1:-1] < absext[:-2])
        & (absext[1:-1] <= absext[2:])
        & free[:-2]
        & pair
        & (neg[:-2] == neg[1:-1])
        & (neg[1:-1] == neg[2:])
    ).nonzero()[0]
    for k in lows.tolist():
        # the samples in units of the larger neighbour
        d_1, d0, d1 = ext[k : k + 3].tolist()
        big = max(abs(d_1), abs(d1))
        d_1, d0, d1 = d_1 / big, d0 / big, d1 / big
        s = d1 - 2.0 * d0 + d_1
        if abs(8.0 * s * d0 - (d1 - d_1) ** 2) <= 8.0 * SCAN_ZERO_TOL * s * s:
            found.append(k)
    positions = [(start + k) % n for k in found]
    positions += [(start + k) % n + d / (d - e) for k, d, e in crossings]
    return sorted(positions)


def _cycle_direction(x) -> tuple:
    """The unit direction at position ``x`` of the cycle, ``(a, b)`` with ``a >= 0``.

    Position k is u = 4k / SCAN_POINTS - 1: the direction (1, u) for u in
    [-1, 1], then (2 - u, 1) for u in (1, 3); u = 3 is u = -1 again.
    """
    u = x * 4.0 / SCAN_POINTS - 1.0
    a, b = (1.0, u) if u <= 1.0 else (2.0 - u, 1.0)
    norm = math.copysign(math.hypot(a, b), a)
    return (a / norm, b / norm)


def asymptotic_scan(sf: SecondForm, ep) -> ScanResult:
    """Grid-scan estimate of the asymptotic directions.

    The scan samples one cycle of tangent directions at ``SCAN_POINTS``
    positions: (1, u) for u in [-1, 1], then (2 - u, 1) for u in (1, 3), at
    the step 1e-3, so that u = -1, 0, 1 and 2 (the null direction (0, 1))
    are samples.  The plane coordinates of the float columns L, M and N are
    divided by ``sf.ref``, a power of two, first, so that no square leaves
    the float range.  At a direction t = (a, b) the plane values
    ``p = II(t, e1)`` and ``q = II(t, e2)`` are scored by the exact minimum
    over unit directions of the plane of ``max(|p . nu|, |q . nu|)``
    (``_kernels.scan_scores``), which is at most ``min(|p|, |q|)``.  A sample is marked when its score
    is at most ``SCAN_ZERO_TOL * max(min(|p|, |q|), SCAN_ZERO_TOL)``: p and q
    are parallel to within about 1e-6 rad, or a plane value below 1e-6
    times ``ref`` counts as zero.  Every direction is asymptotic exactly
    when every sample is marked.  Otherwise each root of the collinearity
    determinant ``det = p1*q2 - p2*q1`` is found once (``_cycle_roots``) and
    comes as a unit direction.

    ``report.run_verification`` pairs the closed-form directions one to one
    with these (``directions.directions_match``), within ``ORACLE_ROOT_TOL``
    of the sine of the angle between them: the same tolerance over the
    whole projective line.
    """
    import numpy as np

    # rows L, M, N in units of ref, a power of two: exact
    lmn = np.array([ep.to_plane_coords(v) for v in sf.float_columns]) / sf.ref
    u = np.arange(SCAN_POINTS) * 4.0 / SCAN_POINTS - 1.0
    a, b = np.minimum(2.0 - u, 1.0), np.minimum(u, 1.0)
    # the rows p1, p2, q1, q2: p = a*L + b*M and q = a*M + b*N
    pq = np.multiply.outer(lmn[:2].ravel(), a) + np.multiply.outer(lmn[1:].ravel(), b)
    p1, p2, q1, q2 = pq
    score = scan_scores(p1, p2, q1, q2, N_CANDIDATES)
    sq = pq * pq
    small = np.sqrt(np.minimum.reduce(sq[0::2] + sq[1::2], axis=0))  # min(|p|, |q|)
    marked = score <= SCAN_ZERO_TOL * np.maximum(small, SCAN_ZERO_TOL)
    if np.logical_and.reduce(marked):
        return ScanResult(kind="all", directions=())
    det = p1 * q2 - p2 * q1
    return ScanResult(
        kind="finite", directions=tuple(_cycle_direction(x) for x in _cycle_roots(det, score, marked))
    )


def finite_difference_hessian(germ, normals) -> list:
    """Central-difference Hessians at the origin of the height functions along ``normals``.

    ``normals`` is a sequence of normals with 4 ambient coordinates each; the
    stencil is evaluated once and one Hessian per normal comes back, a 2x2
    list of floats each.
    The Hessian at the origin is the 2-jet's, so the stencil differentiates
    the 2-jet, a quadratic, on which central differences are exact up to
    rounding.  Each height is ``linalg.float_dot`` of the normal and the
    stencil value, a left fold whose rounding no BLAS kernel chooses.
    """
    g = getattr(germ, "germ", germ).truncated(2).to_float()
    s = FD_STEP
    values = {(i, j): g.evaluate(i * s, j * s) for i in (-1, 0, 1) for j in (-1, 0, 1)}

    def hessian(n):
        h = {k: float_dot(n, v) for k, v in values.items()}
        hxx = (h[1, 0] - 2.0 * h[0, 0] + h[-1, 0]) / (s * s)
        hyy = (h[0, 1] - 2.0 * h[0, 0] + h[0, -1]) / (s * s)
        hxy = (h[1, 1] - h[1, -1] - h[-1, 1] + h[-1, -1]) / (4.0 * s * s)
        return [[hxx, hxy], [hxy, hyy]]

    return [hessian([float(c) for c in n]) for n in normals]


def hessian_gap(closed, fds, source_change) -> float:
    """Largest entry of ``|closed - lin^T fd lin|`` over pairs of Hessians, NaN if any is.

    ``closed`` holds the closed-form Hessians in the adapted source
    coordinates and ``fds`` the finite-difference ones in the input's.  The
    height along a normal vanishes to first order (the normal is normal to
    the tangent line), so its Hessian pulls back through the linear part
    ``lin`` of ``source_change`` as a tensor, ``(lin^T fd) lin`` in plain
    float products.
    """
    cols = [[float(p.coefficient(*e)) for p in source_change] for e in ((1, 0), (0, 1))]  # of lin
    gaps = []
    for hess, fd in zip(closed, fds):
        left = [[float_dot(ci, fc) for fc in zip(*fd)] for ci in cols]  # lin^T fd
        for row, lrow in zip(hess, left):
            gaps += (abs(float(c) - float_dot(lrow, cj)) for c, cj in zip(row, cols))
    return math.nan if any(map(math.isnan, gaps)) else max(gaps, default=0.0)
