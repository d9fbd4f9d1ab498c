"""Brute-force verifiers and the scan kernel."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

import curvpar.oracle
from curvpar._kernels import N_CANDIDATES, scan_scores
from curvpar.adapt import adapt
from curvpar.forms import second_form
from curvpar.germs import Jet2, MapGermR4
from curvpar.heights import height_hessian
from curvpar.oracle import (
    ScanResult,
    _cluster_roots,
    _root_candidates,
    affine_hull_distance,
    asymptotic_scan,
    finite_difference_hessian,
    parabola_hull_distance,
)
from curvpar.parabola import build_parabola

from conftest import germ, jet2_to_germ, random_jet2, random_rotation, transform_germ
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
    scan = scan_for("(x, x*y, y^2 + x^2, 0)", order=4)
    assert scan.kind == "finite"
    assert len(scan.clusters) == 2
    assert abs(scan.clusters[0] + 1.0) < 1e-3
    assert abs(scan.clusters[1] - 1.0) < 1e-3
    assert not scan.includes_infinity


def test_scan_elliptic_empty():
    scan = scan_for("(x, x*y, y^2 - x^2, 0)", order=4)
    assert scan.kind == "finite"
    assert scan.clusters == ()


def test_scan_parabolic_double_root():
    scan = scan_for("(x, x*y, y^2, 0)", order=4)
    assert scan.kind == "finite"
    assert len(scan.clusters) == 1
    assert abs(scan.clusters[0]) < 1e-3


def test_scan_radial_half_line_saturates():
    scan = scan_for("(x, y^2, 0, 0)", order=4)
    assert scan.kind == "all"
    assert scan.marked_fraction > 0.99


def test_scan_non_radial_half_line_vertex_and_infinity():
    scan = scan_for("(x, y^2 + x*y, x^2, 0)", order=4)
    assert scan.kind == "finite"
    assert len(scan.clusters) == 1
    assert abs(scan.clusters[0] - (-0.5)) < 1e-3
    assert scan.includes_infinity


@pytest.mark.parametrize("scale", ["1/10^6", "1/10^12", "10^6"])
def test_scan_is_scale_invariant(scale):
    # a score has degree 1 in the jet: scaling the normal space scales the
    # scores, and the zero bound scales with ref
    text = "(x, x*y, y^2 + x^2, 0)"
    scaled = f"(x, {scale}*x*y, {scale}*y^2 + {scale}*x^2, 0)"
    twin, scan = scan_for(text, order=4), scan_for(scaled, order=4)
    assert (scan.kind, scan.includes_infinity) == (twin.kind, twin.includes_infinity)
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
    assert stacked.shape == (3, 2, 2)
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
    ys = np.linspace(-o.SCAN_WINDOW, o.SCAN_WINDOW, o.SCAN_POINTS)
    for text in GOLDEN_GERMS:
        sf = second_form(adapt(germ(text)))
        ep = build_parabola(sf).ep
        lp, mp, np_ = (ep.to_plane_coords(v) for v in (sf.L, sf.M, sf.N))
        p1, p2 = lp[0] + mp[0] * ys, lp[1] + mp[1] * ys
        q1, q2 = mp[0] + np_[0] * ys, mp[1] + np_[1] * ys
        marked = scan_scores(p1, p2, q1, q2, N_CANDIDATES) <= o.SCAN_ZERO_TOL
        det = p1 * q2 - p2 * q1
        got = sorted(_root_candidates(ys, det, marked))
        assert got == sorted(_loop_candidates(ys, det, marked)), text


# -- the bounded scan against the whole-grid scan ------------------------------


def full_grid_scan(sf, ep):
    """The whole-grid scan that ``asymptotic_scan`` replaced, kept as its reference.

    It scores every grid sample with the kernel and finds root candidates
    over the whole grid.  Like the scan, it reads the oracle's constants
    when called.
    """
    o = curvpar.oracle
    lp, mp, np_ = (ep.to_plane_coords(v) for v in (sf.L, sf.M, sf.N))
    ys = np.linspace(-o.SCAN_WINDOW, o.SCAN_WINDOW, o.SCAN_POINTS)
    h = ys[1] - ys[0]
    p1 = lp[0] + mp[0] * ys
    p2 = lp[1] + mp[1] * ys
    q1 = mp[0] + np_[0] * ys
    q2 = mp[1] + np_[1] * ys
    zero = o.SCAN_ZERO_TOL * sf.ref
    marked = scan_scores(p1, p2, q1, q2, N_CANDIDATES) <= zero
    fraction = float(marked.mean())
    inf_score = float(scan_scores([mp[0]], [mp[1]], [np_[0]], [np_[1]], N_CANDIDATES)[0])
    if fraction >= o.SCAN_SATURATION:
        return ScanResult(kind="all", clusters=(), includes_infinity=True, marked_fraction=fraction)

    det = p1 * q2 - p2 * q1
    signs = np.sign(det)
    i = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    crossings = ys[i] - det[i] * h / (det[i + 1] - det[i])
    absdet = np.abs(det)
    mid = absdet[1:-1]
    dd = np.abs(det[2:] - 2.0 * det[1:-1] + det[:-2])
    touching = (mid <= absdet[:-2]) & (mid <= absdet[2:]) & (mid <= 0.3 * dd) & (dd > 0)
    precise = np.concatenate((crossings, ys[signs == 0]))
    coarse = np.concatenate((ys[1:-1][touching], ys[marked]))
    candidates = [(y, True) for y in precise.tolist()] + [(y, False) for y in coarse.tolist()]
    return ScanResult(
        kind="finite",
        clusters=_cluster_roots(candidates, gap=20.0 * h),
        includes_infinity=inf_score <= zero,
        marked_fraction=fraction,
    )


# the scan settings that tests vary, at their defaults
SCAN_DEFAULTS = {
    name: getattr(curvpar.oracle, name) for name in ("SCAN_WINDOW", "SCAN_POINTS", "SCAN_ZERO_TOL")
}


def set_scan(monkeypatch, **settings):
    """Set the scan's constants to their defaults, overridden by ``settings``."""
    for name, value in {**SCAN_DEFAULTS, **settings}.items():
        monkeypatch.setattr(curvpar.oracle, name, value)


def assert_scan_matches_full_grid(sf, ep, label):
    got, want = asymptotic_scan(sf, ep), full_grid_scan(sf, ep)
    assert got == want, label
    assert got.marked_fraction == want.marked_fraction, label


def forms_of(g):
    sf = second_form(adapt(g))
    return sf, build_parabola(sf).ep


def test_bounded_scan_equals_full_grid_on_golden_corpus(monkeypatch):
    # a zero SCAN_ZERO_TOL leaves the bound no room: every sample is scored
    for zero_tol in (SCAN_DEFAULTS["SCAN_ZERO_TOL"], 0.0):
        set_scan(monkeypatch, SCAN_ZERO_TOL=zero_tol)
        for text in GOLDEN_GERMS:
            assert_scan_matches_full_grid(*forms_of(germ(text)), (text, zero_tol))


SCALES = [Fraction(2) ** k for k in (-60, -30, 0, 30, 60)] + [
    Fraction(10) ** k for k in (-12, -6, 6, 12)
]


def test_bounded_scan_equals_full_grid_on_scaled_random_jets(rng):
    kinds = ["any", "any", "collinear", "line", "point"]
    for i in range(10):
        j2 = random_jet2(rng, kinds[i % len(kinds)])
        src = rng.uniform(-2.0, 2.0, size=(2, 2))
        src[0, 0] += 3.0  # keeps the source change invertible
        rot = random_rotation(rng, 4)
        for s in SCALES:
            exact = jet2_to_germ(Jet2(*(s * c for row in j2.rows() for c in row)), order=3)
            for name, g in (("exact", exact), ("moved", transform_germ(exact, src, rot))):
                assert_scan_matches_full_grid(*forms_of(g), (j2, s, name))


class _PlaneForms:
    """A second form given directly by plane coordinates, with identity plane basis."""

    def __init__(self, l, m, n):
        self.L, self.M, self.N = l, m, n
        self.ref = float(np.max(np.abs([l, m, n])))

    @staticmethod
    def to_plane_coords(v):
        return np.asarray(v, dtype=float)


def test_bounded_scan_equals_full_grid_on_degenerate_planes():
    ys = np.linspace(-curvpar.oracle.SCAN_WINDOW, curvpar.oracle.SCAN_WINDOW, curvpar.oracle.SCAN_POINTS)
    cases = {"point shape": ((0.3, -1.7), (0.0, 0.0), (0.0, 0.0))}
    # p = q = 0 at a grid sample: L = N y0^2 and M = -N y0, with det ≡ 0
    # exactly or as rounding noise
    for k in (0, 1234, 61_803):
        y0 = ys[k]
        for n in ((1.0, 0.0), (0.6, 0.8), (1 / 3, -2 / 7)):
            l = tuple(c * y0 * y0 for c in n)
            m = tuple(-c * y0 for c in n)
            cases[f"p = q = 0 at ys[{k}], N = {n}"] = (l, m, n)
    # a hyperbolic plane out of the range where the kernel's squares are
    # normal floats, and just inside it
    for s in (1e-160, 1e-140, 1.0, 1e140, 1e151):
        cases[f"hyperbolic x {s}"] = ((s, 0.0), (0.0, s), (s, 0.0))
    for label, (l, m, n) in cases.items():
        forms = _PlaneForms(l, m, n)
        assert_scan_matches_full_grid(forms, forms, label)


def test_bounded_scan_equals_full_grid_where_the_bound_is_tight(monkeypatch):
    # det = 1 - a*y^2 has roots +-y0 near the grid's ends, where reach is
    # close to its largest grid value R.  The zero bound is first loose, then
    # exactly the score of the end sample, whose reach is R itself.
    for y0 in (49.0, 49.9, 49.99):
        forms = _PlaneForms((1.0, 0.0), (0.0, 1.0), (1.0 / (y0 * y0), 0.0))
        lp, mp, np_ = forms.L, forms.M, forms.N
        end = np.array([SCAN_DEFAULTS["SCAN_WINDOW"]])
        end_score = scan_scores(lp[0] + mp[0] * end, lp[1] + mp[1] * end,
                                mp[0] + np_[0] * end, mp[1] + np_[1] * end, N_CANDIDATES)[0]
        for zero_tol in (1e-3, end_score / forms.ref):
            set_scan(monkeypatch, SCAN_ZERO_TOL=float(zero_tol))
            assert_scan_matches_full_grid(forms, forms, (y0, zero_tol))
            assert asymptotic_scan(forms, forms).marked_fraction > 0.0


def test_bounded_scan_equals_full_grid_on_moved_radial_half_lines(rng):
    # the collinearity determinant of a moved radial half-line is rounding noise
    for text in ("(x, y^2, 0, 0)", "(x, 2*x^2 + y^2, 0, 0)", "(x, y^2 + 4*x*y + 4*x^2, 0, 0)"):
        for _ in range(4):
            src = rng.uniform(-2.0, 2.0, size=(2, 2))
            src[0, 0] += 3.0
            moved = transform_germ(germ(text, order=4), src, random_rotation(rng, 4))
            assert_scan_matches_full_grid(*forms_of(moved), text)


def test_kernel_sees_only_samples_near_roots(monkeypatch):
    # a deterministic guard on the convexity bound: a finite scan scores at
    # most 1% of the grid plus the null direction, and a point shape (det ≡ 0)
    # only the null direction
    seen = []

    def counted(p1, *args):
        seen.append(len(p1))
        return scan_scores(p1, *args)

    monkeypatch.setattr(curvpar.oracle, "scan_scores", counted)
    for text in GOLDEN_GERMS:
        seen.clear()
        sf = second_form(adapt(germ(text)))
        pp = build_parabola(sf)
        scan = asymptotic_scan(sf, pp.ep)
        if pp.shape.kind == "point":
            assert seen == [1], text
        elif scan.kind == "finite":
            assert sum(seen) <= 0.01 * curvpar.oracle.SCAN_POINTS + 1, (text, seen)


# -- the block bound ------------------------------------------------------------


def assert_same_scan(forms, label):
    # repr also equates the NaN clusters that a determinant overflowing to
    # inf - inf gives at extreme scales
    got, want = asymptotic_scan(forms, forms), full_grid_scan(forms, forms)
    assert repr(got) == repr(want), label


def plane_family(rng, kind):
    """Plane coordinates of L, M, N for one degeneracy family."""
    l, m, n = (rng.normal(size=2) for _ in range(3))
    if kind == "point":
        m, n = np.zeros(2), np.zeros(2)
    elif kind == "L = 0":
        l = np.zeros(2)
    elif kind == "line":
        n = np.zeros(2)
    elif kind == "M || L":
        m = rng.normal() * l
    elif kind == "N || M":
        n = rng.normal() * m
    elif kind == "nearly N || M":
        n = rng.normal() * m + 1e-9 * rng.normal(size=2)
    elif kind == "radial":
        l, m = rng.normal() * n, rng.normal() * n
    elif kind == "double root":
        # det(y) = L x M + y L x N + y^2 M x N = (M x N) (y - y0)^2, with y0 at
        # a block end of the default grid or inside the narrow window
        y0 = rng.choice([-50.0 + 100.0 * 64 * rng.integers(1562) / 99_999, rng.uniform(-3, 3)])
        a = m[0] * n[1] - m[1] * n[0]
        l = np.linalg.solve([[n[1], -n[0]], [m[1], -m[0]]], [-2.0 * a * y0, a * y0 * y0])
    return tuple(l), tuple(m), tuple(n)


def test_block_scan_equals_full_grid_on_degenerate_families(rng, monkeypatch):
    kinds = [
        "any", "point", "L = 0", "line", "M || L", "N || M", "nearly N || M", "radial", "double root",
    ]
    settings = [
        dict(SCAN_POINTS=points, **change)
        for points in (7, 130, 1001, 100_001)
        for change in ({}, {"SCAN_ZERO_TOL": 0.0}, {"SCAN_WINDOW": 3.0})
    ]
    for kind in kinds:
        for k, s in enumerate((1e-160, 1e-80, 1e-6, 1.0, 1e6, 1e80, 1e160)):
            l, m, n = plane_family(rng, kind)
            forms = _PlaneForms(*(tuple(s * c for c in v) for v in (l, m, n)))
            for setting in settings[k % 3 :: 3]:
                set_scan(monkeypatch, **setting)
                with np.errstate(all="ignore"):
                    assert_same_scan(forms, (kind, s, setting))


# the 2-jets of verify_oracle's inputs at seed 1, one per shape
SHAPE_JETS = {
    "parabola": "(x, -2*x^2 + 5*x*y + 5*y^2, -3/2*x^2 + 1/2*x*y - 3*y^2, -x^2 - 1/4*x*y - 2*y^2)",
    "half_line": "(x, y^2, 0, 0)",
    "line": "(x, -2*x^2 + 3*x*y, -4/3*x^2 + 3/4*x*y, -x^2 - 4/3*x*y)",
    "point": "(x, 1/2*x^2, -1/3*x^2, x^2)",
}


def test_scan_computes_det_on_few_samples(monkeypatch):
    read = []
    det_along = curvpar.oracle._det_along

    def counted(lp, mp, np_, ys):
        read.append(len(ys))
        return det_along(lp, mp, np_, ys)

    monkeypatch.setattr(curvpar.oracle, "_det_along", counted)
    for kind, text in SHAPE_JETS.items():
        read.clear()
        sf, ep = forms_of(germ(text))
        assert build_parabola(sf).shape.kind == kind
        scan = asymptotic_scan(sf, ep)
        assert sum(read) < 0.05 * curvpar.oracle.SCAN_POINTS, (kind, read)
        if kind == "point":
            # every block is an exact zero: saturated without a sample read
            assert (scan.kind, read) == ("all", [])


def test_scan_grid_is_cached_and_read_only():
    grid = curvpar.oracle._scan_grid(50.0, 100_000)
    assert curvpar.oracle._scan_grid(50.0, 100_000) is grid
    assert np.array_equal(grid.ys, np.linspace(-50.0, 50.0, 100_000))
    for a in (grid.ys, grid.ends, grid.owned, grid.sizes):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        grid.ys[0] = 0.0
    other = curvpar.oracle._scan_grid(50.0, 1001)
    assert other.ys.size == 1001 and grid.ys.size == 100_000
    assert other.sizes.sum() == 1001 and grid.sizes.sum() == 100_000
