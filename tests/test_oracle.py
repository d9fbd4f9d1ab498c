"""Brute-force verifiers and the scan kernel."""

import warnings

import numpy as np
import pytest

import curvpar.oracle
from curvpar._kernels import N_CANDIDATES, scan_scores
from curvpar.adapt import adapt
from curvpar.forms import second_form
from curvpar.germs import MapGermR4
from curvpar.heights import height_hessian
from curvpar.oracle import (
    _root_candidates,
    affine_hull_distance,
    asymptotic_scan,
    finite_difference_hessian,
    parabola_hull_distance,
)
from curvpar.parabola import build_parabola

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


def test_affine_hull_needs_three_points():
    with pytest.raises(ValueError, match="at least 3"):
        affine_hull_distance([np.zeros(3), np.ones(3)])


def test_parabola_hull_distance_samples_eta_bit_for_bit(rng):
    exact = germ("(x, 1/3*x*y + y^3, 2/7*x^2 - 5/3*y^2, 3/11*x^2 + x*y)")
    moved = transform_germ(exact, [[1.3, 0.4], [-0.2, 0.9]], random_rotation(rng, 4))
    for g in (exact, moved):
        pp = build_parabola(second_form(adapt(g)))
        samples = [[float(c) for c in pp.eta(y)] for y in np.linspace(-5.0, 5.0, 101)]
        assert parabola_hull_distance(pp) == affine_hull_distance(samples)


def scan_for(text, order=6):
    ad = adapt(germ(text, order=order))
    sf = second_form(ad)
    pp = build_parabola(sf)
    return asymptotic_scan(sf, pp.ep)


def test_scan_hyperbolic_clusters():
    # the roots y = +-1 lie where the charts meet, and each is found once
    scan = scan_for("(x, x*y, y^2 + x^2, 0)", order=4)
    assert scan.kind == "finite"
    assert np.allclose(scan.clusters, [(1.0, -1.0), (1.0, 1.0)], rtol=0.0, atol=1e-3)


def test_scan_elliptic_empty():
    scan = scan_for("(x, x*y, y^2 - x^2, 0)", order=4)
    assert scan.kind == "finite"
    assert scan.clusters == ()


def test_scan_parabolic_double_root():
    scan = scan_for("(x, x*y, y^2, 0)", order=4)
    assert scan.kind == "finite"
    assert len(scan.clusters) == 1
    assert scan.clusters[0][0] == 1.0 and abs(scan.clusters[0][1]) < 1e-3


def test_scan_radial_half_line_saturates():
    scan = scan_for("(x, y^2, 0, 0)", order=4)
    assert scan.kind == "all"
    assert scan.marked_fraction > 0.99


def test_scan_non_radial_half_line_vertex_and_infinity():
    # the null direction (0, 1) is s = 0 in the chart (s, 1)
    scan = scan_for("(x, y^2 + x*y, x^2, 0)", order=4)
    assert scan.kind == "finite"
    assert np.allclose(scan.clusters, [(1.0, -0.5), (0.0, 1.0)], rtol=0.0, atol=1e-3)


@pytest.mark.parametrize(
    "text,roots",
    [
        # y = +-100 and +-sqrt(1000): s = +-0.01 and +-0.0316
        ("(x, x*y, y^2 + 10000*x^2, 0)", [(0.01, 1.0), (-0.01, 1.0)]),
        ("(x, x*y, 1/10000*y^2 + x^2, 0)", [(0.01, 1.0), (-0.01, 1.0)]),
        ("(x, x*y, y^2 + 1000*x^2, 0)", [(0.1 ** 1.5, 1.0), (-(0.1 ** 1.5), 1.0)]),
        # just beyond y = +-1: the chart y marks its end sample y = -1, which
        # joins the chart s's root across the seam where the cycle closes
        ("(x, x*y, y^2 + (1 + 1/10^7)^2*x^2, 0)", [(1 / (1 + 1e-7), 1.0), (-1 / (1 + 1e-7), 1.0)]),
        ("(x, x*y, y^2 + (1 - 1/10^7)^2*x^2, 0)", [(1.0, -(1 - 1e-7)), (1.0, 1 - 1e-7)]),
    ],
)
def test_scan_finds_each_root_once_in_the_chart_that_owns_it(text, roots):
    scan = scan_for(text, order=4)
    assert scan.kind == "finite"
    assert np.allclose(sorted(scan.clusters), sorted(roots), rtol=0.0, atol=1e-5), scan.clusters


@pytest.mark.parametrize("scale", ["1/10^6", "1/10^12", "10^6"])
def test_scan_is_scale_invariant(scale):
    # a score has degree 1 in the jet: scaling the normal space scales the
    # scores, and the zero bound scales with ref
    text = "(x, x*y, y^2 + x^2, 0)"
    scaled = f"(x, {scale}*x*y, {scale}*y^2 + {scale}*x^2, 0)"
    twin, scan = scan_for(text, order=4), scan_for(scaled, order=4)
    assert scan.kind == twin.kind
    assert len(scan.clusters) == len(twin.clusters) == 2
    assert np.allclose(scan.clusters, twin.clusters, atol=1e-9)


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


def _loop_candidates(ys, det, marked):
    """The per-point loops that _root_candidates replaced, kept as its reference."""
    n = len(ys)
    h = ys[1] - ys[0]
    candidates = []
    signs = np.sign(det)
    for i in range(n - 1):
        if signs[i] != 0 and signs[i + 1] != 0 and signs[i] != signs[i + 1]:
            y_root = ys[i] - det[i] * h / (det[i + 1] - det[i])
            candidates.append((float(y_root), True))
        elif signs[i] == 0:
            candidates.append((float(ys[i]), True))
    if signs[-1] == 0:
        candidates.append((float(ys[-1]), True))
    absdet = np.abs(det)
    dd = np.abs(det[2:] - 2.0 * det[1:-1] + det[:-2])
    for i in range(1, n - 1):
        if absdet[i] <= absdet[i - 1] and absdet[i] <= absdet[i + 1]:
            if absdet[i] <= 0.3 * dd[i - 1] and dd[i - 1] > 0:
                candidates.append((float(ys[i]), False))
    for i in np.flatnonzero(marked):
        candidates.append((float(ys[i]), False))
    return candidates


def test_root_candidates_match_loop_version_on_golden_corpus():
    o = curvpar.oracle
    ts = np.linspace(-1.0, 1.0, o.SCAN_POINTS)
    for text in GOLDEN_GERMS:
        sf = second_form(adapt(germ(text)))
        ep = build_parabola(sf).ep
        lp, mp, np_ = (ep.to_plane_coords(v) for v in (sf.L, sf.M, sf.N))
        # the chart y, then the chart s: L and N swapped
        for a, c in ((lp, np_), (np_, lp)):
            p1, p2 = a[0] + mp[0] * ts, a[1] + mp[1] * ts
            q1, q2 = mp[0] + c[0] * ts, mp[1] + c[1] * ts
            marked = scan_scores(p1, p2, q1, q2, N_CANDIDATES) <= o.SCAN_ZERO_TOL
            det = p1 * q2 - p2 * q1
            got = sorted(_root_candidates(ts, det, marked))
            assert got == sorted(_loop_candidates(ts, det, marked)), text
