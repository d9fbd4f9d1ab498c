"""Brute-force verifiers and the scan kernel."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import curvpar.oracle
import curvpar.report
from curvpar import analyze_germ
from curvpar._kernels import N_CANDIDATES, scan_scores
from curvpar.adapt import adapt
from curvpar.forms import second_form
from curvpar.germs import MapGermR4, TruncatedPoly2
from curvpar.heights import height_hessian
from curvpar.directions import directions_match
from curvpar.oracle import (
    SCAN_POINTS,
    _cycle_direction,
    _cycle_roots,
    affine_hull_distance,
    asymptotic_scan,
    finite_difference_hessian,
    hessian_gap,
    parabola_hull_distance,
)
from curvpar.parabola import build_parabola
from curvpar.report import render_json

from conftest import germ, random_rotation, transform_germ
from golden import GOLDEN_GERMS


def test_affine_hull_distance_parabola_plane():
    pts = [np.array([0.0, 2 * y, 2 * y * y, 0.0]) for y in np.linspace(-5, 5, 101)]
    assert affine_hull_distance(pts) == pytest.approx(0.0, abs=1e-9)


def test_affine_hull_distance_constant_point():
    pts = [np.array([0.0, 2.0, 0.0, 0.0])] * 101
    assert affine_hull_distance(pts) == pytest.approx(2.0, abs=1e-12)


def test_affine_hull_distance_shifted_plane():
    c = -1.75
    pts = [np.array([0.0, 2 * y, 2 + 2 * y * y, 2 * c]) for y in np.linspace(-5, 5, 101)]
    assert affine_hull_distance(pts) == pytest.approx(2 * abs(c), abs=1e-9)


def scaled_trace(s):
    # the trace (0, 2 s y, s y^2 + s, s) spans the plane x4 = s, at distance s
    # from the origin
    return [[0.0, 2 * s * y, s * y * y + s, s] for y in np.linspace(-5, 5, 101)]


def test_affine_hull_distance_reads_small_samples_at_their_own_scale():
    # a zero-hull cut with a floor of 1 took the trace for a point.  Below
    # about 1.5e-154 the square of the residual (0, 0, 0, s) is subnormal
    # and loses bits (1e-158, 1e-161, 2e-162), and below about 1.5e-162 it
    # underflows to 0 (1e-200, 1e-300).  The residual is measured at unit
    # scale, and an underflow elsewhere is rounding far below the samples'
    # size: no numpy error is raised, nor a warning (pytest's filter)
    # (approx's default abs=1e-12 would pass any tiny result)
    for s in (1e-12, 1e-100, 1e-158, 1e-161, 2e-162, 1e-200, 1e-300):
        with np.errstate(all="raise"):
            assert affine_hull_distance(scaled_trace(s)) == pytest.approx(s, rel=1e-9, abs=0)


def test_affine_hull_distance_survives_squares_that_overflow():
    for s in (1e155, 1e200, 1e300):
        with np.errstate(all="raise"):
            assert affine_hull_distance(scaled_trace(s)) == pytest.approx(s, rel=1e-9, abs=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row", [0, 50, 100])
def test_affine_hull_refuses_a_non_finite_sample(bad, row):
    # a NaN centres quietly; an infinite centroid minus an infinite sample is
    # numpy's invalid operation first
    pts = scaled_trace(1.0)
    pts[row][2] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="leave the float range"):
        affine_hull_distance(pts)
    if math.isnan(bad):
        with pytest.raises(ValueError, match="leave the float range"):
            affine_hull_distance(pts)
    else:
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError, match="invalid value"):
            affine_hull_distance(pts)


def test_affine_hull_needs_three_points():
    with pytest.raises(ValueError, match="at least 3"):
        affine_hull_distance([np.zeros(3), np.ones(3)])


def test_affine_hull_refuses_samples_that_leave_the_float_range():
    # centring 1.7e308 and -1.7e308 overflows
    pts = [[1.7e308, 0.0, 0.0], [1.7e308, 0.0, 0.0], [-1.7e308, 0.0, 0.0]]
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="leave the float range"):
        affine_hull_distance(pts)


def test_parabola_hull_distance_samples_eta_bit_for_bit(rng):
    # in units of ref, a power of two: eta(y) / ref bit for bit
    exact = germ("(x, 1/3*x*y + y^3, 2/7*x^2 - 5/3*y^2, 3/11*x^2 + x*y)")
    moved = transform_germ(exact, [[1.3, 0.4], [-0.2, 0.9]], random_rotation(rng, 4))
    for g in (exact, moved):
        pp = build_parabola(second_form(adapt(g)))
        samples = [[float(c) / pp.sf.ref for c in pp.eta(y)] for y in np.linspace(-5.0, 5.0, 101)]
        assert parabola_hull_distance(pp) == affine_hull_distance(samples) * pp.sf.ref


def scan_for(text, order=6):
    ad = adapt(germ(text, order=order))
    sf = second_form(ad)
    pp = build_parabola(sf)
    return asymptotic_scan(sf, pp.ep)


def unit(a, b):
    # a tangent direction as the scan prints it: unit, first entry >= 0
    n = math.copysign(math.hypot(a, b), a)
    return (a / n, b / n)


def test_scan_hyperbolic():
    # the roots y = +-1 lie where the cycle turns from (1, u) to (2 - u, 1)
    # and where it closes, and each is found once
    scan = scan_for("(x, x*y, y^2 + x^2, 0)", order=4)
    assert scan.kind == "finite"
    assert np.allclose(scan.directions, [unit(1.0, -1.0), unit(1.0, 1.0)], rtol=0.0, atol=1e-3)


def test_scan_elliptic_empty():
    scan = scan_for("(x, x*y, y^2 - x^2, 0)", order=4)
    assert scan.kind == "finite"
    assert scan.directions == ()


def test_scan_parabolic_double_root():
    scan = scan_for("(x, x*y, y^2, 0)", order=4)
    assert scan.kind == "finite"
    assert scan.directions == ((1.0, 0.0),)


def test_scan_radial_half_line_saturates():
    scan = scan_for("(x, y^2, 0, 0)", order=4)
    assert scan.kind == "all"
    assert scan.directions == ()


def test_scan_non_radial_half_line_vertex_and_infinity():
    # the null direction (0, 1) is the sample u = 2
    scan = scan_for("(x, y^2 + x*y, x^2, 0)", order=4)
    assert scan.kind == "finite"
    assert np.allclose(scan.directions, [unit(1.0, -0.5), (0.0, 1.0)], rtol=0.0, atol=1e-3)


@pytest.mark.parametrize(
    "text,roots",
    [
        # y = +-100 and +-sqrt(1000): directions near the null direction
        ("(x, x*y, y^2 + 10000*x^2, 0)", [(0.01, 1.0), (-0.01, 1.0)]),
        ("(x, x*y, 1/10000*y^2 + x^2, 0)", [(0.01, 1.0), (-0.01, 1.0)]),
        ("(x, x*y, y^2 + 1000*x^2, 0)", [(0.1 ** 1.5, 1.0), (-(0.1 ** 1.5), 1.0)]),
        # just beyond and just inside y = +-1, on both sides of the turn u = 1
        # and of the closing sample u = -1
        ("(x, x*y, y^2 + (1 + 1/10^7)^2*x^2, 0)", [(1 / (1 + 1e-7), 1.0), (-1 / (1 + 1e-7), 1.0)]),
        ("(x, x*y, y^2 + (1 - 1/10^7)^2*x^2, 0)", [(1.0, -(1 - 1e-7)), (1.0, 1 - 1e-7)]),
    ],
)
def test_scan_finds_each_root_once(text, roots):
    scan = scan_for(text, order=4)
    assert scan.kind == "finite"
    assert directions_match(list(scan.directions), [unit(*r) for r in roots], 1e-5), scan.directions


@pytest.mark.parametrize("scale", ["1/10^6", "1/10^12", "10^6"])
def test_scan_is_scale_invariant(scale):
    # a score has degree 1 in the jet: scaling the normal space scales the
    # scores and the plane values alike
    text = "(x, x*y, y^2 + x^2, 0)"
    scaled = f"(x, {scale}*x*y, {scale}*y^2 + {scale}*x^2, 0)"
    twin, scan = scan_for(text, order=4), scan_for(scaled, order=4)
    assert scan.kind == twin.kind
    assert len(scan.directions) == len(twin.directions) == 2
    assert np.allclose(scan.directions, twin.directions, atol=1e-9)


@pytest.mark.parametrize("k", [-300, -350])
def test_scan_of_golden_germs_scaled_far_down(k):
    # the plane values are divided by ref, a power of two, so the scan of a
    # germ scaled by 2^k finds the directions of the unscaled germ
    s = Fraction(2) ** k
    for text in GOLDEN_GERMS:
        g = germ(text, order=2)
        scaled = MapGermR4([g.components[0]] + [p.map_coeffs(lambda c: c * s) for p in g.components[1:]])
        sf, twin_sf = second_form(adapt(scaled)), second_form(adapt(g))
        scan = asymptotic_scan(sf, build_parabola(sf).ep)
        twin = asymptotic_scan(twin_sf, build_parabola(twin_sf).ep)
        assert scan.kind == twin.kind, text
        assert directions_match(list(scan.directions), list(twin.directions), 1e-9), text


def test_fd_hessian_example():
    ad = adapt(germ("(x, x*y, y^2, 0)", order=4))
    h = finite_difference_hessian(ad, [(0.0, 0.0, 1.0, 0.0)])[0]
    assert np.max(np.abs(h - np.array([[0.0, 0.0], [0.0, 2.0]]))) < 1e-6
    assert np.max(np.abs(finite_difference_hessian(ad, [np.zeros(4)])[0])) == 0.0


def test_fd_hessian_evaluates_one_stencil_for_many_normals(monkeypatch, rng):
    ad = adapt(germ("(x, x*y - y^2, x^2 + 2*y^2, 3*x^2 + x*y)", order=4))
    normals = [rng.normal(size=4) for _ in range(3)]
    singles = [finite_difference_hessian(ad, [n])[0] for n in normals]
    calls = []
    evaluate = MapGermR4.evaluate

    def counted(self, x, y):
        calls.append((x, y))
        return evaluate(self, x, y)

    monkeypatch.setattr(MapGermR4, "evaluate", counted)
    stacked = finite_difference_hessian(ad, normals)
    assert len(calls) == 9
    assert np.shape(stacked) == (3, 2, 2)
    for single, h in zip(singles, stacked):
        assert np.array_equal(single, h)


def test_fd_hessian_matches_closed_form(rng):
    ad = adapt(germ("(x, x*y - y^2, x^2 + 2*y^2, 3*x^2 + x*y)", order=4))
    sf = second_form(ad)
    for _ in range(10):
        nu = rng.normal(size=3)
        closed = np.array(
            [[float(v) for v in row] for row in height_hessian(sf, nu)]
        )
        fd = finite_difference_hessian(ad, [np.concatenate(([0.0], nu))])[0]
        assert np.max(np.abs(closed - fd)) < 1e-6


IDENTITY = (TruncatedPoly2.from_terms({(1, 0): 1}, 2), TruncatedPoly2.from_terms({(0, 1): 1}, 2))
ZERO = [[0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize(
    "closed, fds",
    [
        ([((math.nan, 0.0), (0.0, 0.0))], [ZERO]),  # in a closed-form Hessian
        ([((0.0, 0.0), (0.0, 0.0))], [[[math.nan, 0.0], [0.0, 0.0]]]),  # in a finite-difference one
        ([((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, math.nan))], [ZERO, ZERO]),  # after a finite first normal
        ([((0.0, math.nan), (0.0, 0.0)), ((3.0, 0.0), (0.0, 0.0))], [ZERO, ZERO]),  # before a larger finite gap
    ],
)
def test_hessian_gap_propagates_a_nan(closed, fds):
    # max(0.0, nan) is 0.0: a fold by max() let a NaN gap pass the check
    gap = hessian_gap(closed, fds, IDENTITY)
    assert math.isnan(gap)
    assert not gap <= 1e-6


def test_hessian_gap_pulls_back_through_the_linear_part():
    # lin = [[2, 1], [0, 3]]: lin^T fd lin with fd = [[1, 0], [0, 1]] is
    # [[4, 2], [2, 10]], so the gap to [[4, 2], [2, 7]] is 3
    change = (TruncatedPoly2.from_terms({(1, 0): 2, (0, 1): 1}, 2), TruncatedPoly2.from_terms({(0, 1): 3}, 2))
    assert hessian_gap([((4.0, 2.0), (2.0, 7.0))], [[[1.0, 0.0], [0.0, 1.0]]], change) == 3.0
    assert hessian_gap([], [], change) == 0.0


def test_verification_fails_on_a_nan_finite_difference_hessian(monkeypatch):
    fds = [ZERO, ZERO, [[math.nan, 0.0], [0.0, 0.0]]]
    monkeypatch.setattr(curvpar.report, "finite_difference_hessian", lambda jet, normals: fds)
    res = analyze_germ("(x, x*y, y^2 + x^2, 0)", verify=True)
    check = {c.name: c for c in res.verification.checks}["height_hessian_vs_fd"]
    assert math.isnan(check.oracle) and not check.passed
    assert not res.verification.passed
    with pytest.raises(ValueError, match=r"^report\.verification\.checks\[2\]\.oracle is nan: the analysis left"):
        render_json(res.report)


# -- the exact scan kernel ---------------------------------------------------


def random_pairs(rng, n):
    scale = 10.0 ** rng.uniform(-3, 3, size=n)
    return tuple(scale * rng.normal(size=n) for _ in range(4))


def grid_scores(p1, p2, q1, q2, n_angles=720):
    angles = np.arange(n_angles) * (2.0 * np.pi / n_angles)
    c, s = np.cos(angles), np.sin(angles)
    v1 = np.abs(np.outer(p1, c) + np.outer(p2, s))
    v2 = np.abs(np.outer(q1, c) + np.outer(q2, s))
    return np.maximum(v1, v2).min(axis=1)


def four_candidate_scores(p1, p2, q1, q2, n=N_CANDIDATES):
    """The former kernel, kept as the reference: score nu orthogonal to p, q, p - q, p + q.

    A zero candidate falls back to ``nu = (1, 0)``, which bounds the minimum
    from above; another candidate then reaches it.
    """
    p1, p2, q1, q2 = (np.asarray(a, dtype=np.float64) for a in (p1, p2, q1, q2))
    best = np.full(p1.shape, np.inf)
    for w1, w2 in ((p1, p2), (q1, q2), (p1 - q1, p2 - q2), (p1 + q1, p2 + q2)):
        norm = np.hypot(w1, w2)
        zero = norm == 0.0
        w2 = np.where(zero, 1.0, w2)
        norm[zero] = 1.0
        worst = np.maximum(np.abs(p1 * w2 - p2 * w1), np.abs(q1 * w2 - q2 * w1))
        worst /= norm
        np.minimum(best, worst, out=best)
    return best


def test_kernel_matches_four_candidate_reference(rng):
    p1, p2, q1, q2 = random_pairs(rng, 20_000)
    got = scan_scores(p1, p2, q1, q2, N_CANDIDATES)
    np.testing.assert_allclose(got, four_candidate_scores(p1, p2, q1, q2), rtol=1e-9, atol=0.0)
    # the direction count is bookkeeping only
    assert np.array_equal(scan_scores(p1, p2, q1, q2, 720), got)


def test_scan_with_reference_kernel_agrees_on_golden_corpus(monkeypatch):
    closed = [scan_for(text) for text in GOLDEN_GERMS]
    monkeypatch.setattr(curvpar.oracle, "scan_scores", four_candidate_scores)
    for text, got in zip(GOLDEN_GERMS, closed):
        assert scan_for(text) == got, text


def test_kernel_never_above_angle_grid(rng):
    p1, p2, q1, q2 = random_pairs(rng, 2_000)
    exact = scan_scores(p1, p2, q1, q2, N_CANDIDATES)
    grid = grid_scores(p1, p2, q1, q2)
    assert np.all(exact <= grid * (1.0 + 1e-12))
    # the nearest of 720 angles lies within pi / 720 of the exact minimiser
    reach = np.maximum(np.hypot(p1, p2), np.hypot(q1, q2))
    assert np.all(grid <= exact + np.pi / 720 * reach)


def test_kernel_degenerate_pairs_score_zero(rng):
    p1, p2 = rng.normal(size=8), rng.normal(size=8)
    zero = np.zeros(8)
    cases = {
        "p = 0": (zero, zero, p1, p2),
        "q = 0": (p1, p2, zero, zero),
        "p = q": (p1, p2, p1, p2),
        "p = -q": (p1, p2, -p1, -p2),
        "all zero": (zero, zero, zero, zero),
    }
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for name, args in cases.items():
            got = scan_scores(*args, N_CANDIDATES)
            assert np.array_equal(got, zero), name


def cycle_samples(text, monkeypatch):
    """The scan of a golden germ and the kernel's inputs and scores, as lists of floats."""
    seen = []
    kernel = curvpar.oracle.scan_scores

    def recorded(*args):
        seen.append([*args[:4], kernel(*args)])
        return seen[-1][-1]

    monkeypatch.setattr(curvpar.oracle, "scan_scores", recorded)
    scan = scan_for(text)
    monkeypatch.undo()
    return scan, [x.tolist() for x in seen[0]]


def loop_roots(p1, p2, q1, q2, score):
    """A plain per-sample loop over the cycle, kept as the root finder's reference."""
    n = len(score)
    tol = curvpar.oracle.SCAN_ZERO_TOL
    det, marked = [], []
    for k in range(n):
        det.append(p1[k] * q2[k] - p2[k] * q1[k])
        small = math.sqrt(min(p1[k] * p1[k] + p2[k] * p2[k], q1[k] * q1[k] + q2[k] * q2[k]))
        marked.append(score[k] <= tol * max(small, tol))
    if all(marked):
        return "all"
    start = marked.index(False)
    positions = []
    for j in range(n):
        k, prv, nxt = (start + j) % n, (start + j - 1) % n, (start + j + 1) % n
        if marked[k]:
            if not marked[prv] or score[k] < score[best]:
                best = k
            if not marked[nxt]:
                positions.append(best)
            continue
        if marked[nxt]:
            continue
        if (det[k] < 0.0) != (det[nxt] < 0.0):
            positions.append(k + det[k] / (det[k] - det[nxt]))
        if (
            not marked[prv]
            and (det[prv] < 0.0) == (det[k] < 0.0) == (det[nxt] < 0.0)
            and abs(det[prv]) > abs(det[k]) <= abs(det[nxt])
        ):
            # the vertex of the parabola through the three samples touches zero
            big = max(abs(det[prv]), abs(det[nxt]))
            d_1, d0, d1 = det[prv] / big, det[k] / big, det[nxt] / big
            s = d1 - 2.0 * d0 + d_1
            if abs(8.0 * s * d0 - (d1 - d_1) ** 2) <= 8.0 * tol * s * s:
                positions.append(k)
    return sorted(positions)


def test_root_finder_matches_loop_version_on_golden_corpus(monkeypatch):
    # and a double root between samples, found as a touching minimum
    for text in [*GOLDEN_GERMS, "(x, x*y - 3/2000*x^2, y^2 - 3/1000*x*y + 9/4000000*x^2, 0)"]:
        scan, samples = cycle_samples(text, monkeypatch)
        roots = loop_roots(*samples)
        if roots == "all":
            assert scan.kind == "all", text
        else:
            assert scan.directions == tuple(_cycle_direction(x) for x in roots), text


def test_root_finder_tells_a_double_root_from_a_narrow_minimum():
    # det = (t - t0)^2 + e^2 in steps t around sample 100 of an unmarked cycle:
    # a double root between samples (e = 0) is found once, at its nearer
    # sample; a minimum that stays positive is no root, however narrow
    t = np.arange(SCAN_POINTS) - 100.0
    marked = np.zeros(SCAN_POINTS, dtype=bool)
    for t0 in (0.05, 0.3, -0.45):
        for e, want in ((0.0, [100]), (1e-4, [100]), (1e-2, []), (0.5, []), (0.8, [])):
            det = (t - t0) ** 2 + e * e
            assert _cycle_roots(det, det, marked) == want, (t0, e)
            assert _cycle_roots(-det, det, marked) == want, (t0, e)


def test_root_finder_reads_signs_at_any_scale(monkeypatch):
    # the roots of det and of det * 2^-600 are the same: a product of two
    # such determinants underflows, their signs do not
    seen = []
    monkeypatch.setattr(curvpar.oracle, "_cycle_roots", lambda *args: seen.append(args) or _cycle_roots(*args))
    for text in GOLDEN_GERMS:
        scan_for(text)
    tiny = 2.0**-600
    found = 0
    for det, score, marked in seen:
        roots = _cycle_roots(det, score, marked)
        assert _cycle_roots(det * tiny, score * tiny, marked) == roots
        found += len(roots)
    assert found >= 20
