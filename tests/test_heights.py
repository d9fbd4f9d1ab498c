"""Height-function Hessians, degeneracy cone, corank-2 case analysis."""

import math
from fractions import Fraction

import numpy as np
import pytest

from curvpar.adapt import adapt
from curvpar.directions import asymptotic_directions, binormal_directions
from curvpar.forms import SecondForm, second_form
from curvpar.heights import (
    cone_parabola_orthogonality,
    corank2_conditions,
    degeneracy_cone,
    height_hessian,
    sample_cone,
)
from curvpar.oracle import finite_difference_hessian
from curvpar.parabola import build_parabola
from curvpar.umbilic import umbilic_curvature

from composition import rotate_target
from conftest import germ, jet2_to_germ, random_jet2
from golden import GOLDEN_GERMS
from references import det_value

F = Fraction


def pipeline(text, order=6):
    ad = adapt(germ(text, order=order))
    sf = second_form(ad)
    pp = build_parabola(sf)
    aset = asymptotic_directions(pp, sf)
    bset = binormal_directions(pp, sf, aset)
    ur = umbilic_curvature(pp, sf)
    dc = degeneracy_cone(sf)
    return ad, sf, pp, aset, bset, ur, dc


def test_height_hessian_orbit1_displayed_matrix():
    b20, b11, b02, c20 = F(3), F(5), F(7), F(2)
    g = germ("(x, x*y, 3*x^2 + 5*x*y + 7*y^2, 2*x^2)", order=4)
    sf = second_form(adapt(g))
    v2, v3, v4 = F(1, 2), F(-2, 3), F(4)
    h = height_hessian(sf, (v2, v3, v4))
    assert h[0][0] == 2 * (b20 * v3 + c20 * v4)
    assert h[0][1] == v2 + b11 * v3
    assert h[1][0] == h[0][1]
    assert h[1][1] == 2 * b02 * v3


def test_height_hessian_zero_direction():
    sf = second_form(adapt(germ("(x, x*y, y^2, 0)", order=4)))
    assert height_hessian(sf, (0, 0, 0)) == ((0, 0), (0, 0))


def test_height_hessian_matches_fd(rng):
    ad = adapt(germ("(x, x*y + y^3, x^2 - y^2, 2*x^2 + x*y)", order=4))
    sf = second_form(ad)
    for _ in range(10):
        nu = rng.normal(size=3)
        closed = np.array([[float(v) for v in row] for row in height_hessian(sf, nu)])
        fd = finite_difference_hessian(ad, [np.concatenate(([0.0], nu))])[0]
        assert np.max(np.abs(closed - fd)) < 1e-6


def test_cone_orbit1_degenerate_parametrisation(rng):
    # degenerate directions: v2 = -b11 v3 +/- 2 sqrt(b02 v3 (b20 v3 + c20 v4))
    b20, b11, b02, c20 = 3.0, 5.0, 7.0, 2.0
    _, sf, _, _, _, _, dc = pipeline("(x, x*y, 3*x^2 + 5*x*y + 7*y^2, 2*x^2)", order=4)
    for _ in range(50):
        v3 = float(rng.uniform(-2, 2))
        v4 = float(rng.uniform(-2, 2))
        radicand = b02 * v3 * (b20 * v3 + c20 * v4)
        if radicand < 0:
            continue
        for sign in (1.0, -1.0):
            v2 = -b11 * v3 + sign * 2.0 * math.sqrt(radicand)
            assert abs(det_value(dc, (v2, v3, v4))) < 1e-9 * (1 + v2 * v2 + v3 * v3 + v4 * v4) ** 2


def test_cone_zero_form_everything_degenerate():
    _, _, _, _, _, _, dc = pipeline("(x, 0, 0, 0)", order=2)
    assert dc.corank2_dim == 3
    assert all(v == 0 for row in dc.quad for v in row)


def test_cone_point_case():
    # 2-jet (x, 0, b20 x^2, 0): Hessian [[2 b20 v3, 0], [0, 0]]
    _, sf, _, _, _, _, dc = pipeline("(x, y^3, 4*x^2, x^2*y)", order=4)
    for nu in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.3, -0.4, 0.5)):
        assert det_value(dc, nu) == pytest.approx(0.0, abs=1e-12)
    assert dc.corank2_dim == 2
    # corank-2 locus is v3 = 0 (second frame coordinate is the x^2 column here)
    for basis_vec in dc.corank2_basis:
        assert abs(basis_vec[1]) < 1e-12


def test_corank2_parabola_zero_kappa():
    _, _, pp, _, _, ur, dc = pipeline("(x, x*y, y^2, 0)", order=4)
    verdict = corank2_conditions(pp, dc, ur)
    assert verdict.agrees
    assert verdict.expected_dim == 1
    assert np.allclose(np.abs(dc.corank2_basis), [[0.0, 0.0, 1.0]])


def test_corank2_parabola_nonzero_kappa():
    _, _, pp, _, _, ur, dc = pipeline("(x, x*y, y^2, x^2)", order=4)
    verdict = corank2_conditions(pp, dc, ur)
    assert verdict.agrees
    assert verdict.expected_dim == 0


def test_corank2_point_away_from_origin():
    _, _, pp, _, _, ur, dc = pipeline("(x, x^2, 0, 0)", order=4)
    verdict = corank2_conditions(pp, dc, ur)
    assert verdict.agrees
    assert verdict.expected_dim == 2
    for basis_vec in dc.corank2_basis:
        assert abs(basis_vec[0]) < 1e-12  # orthogonal to the segment direction


def test_corank2_all_shapes_random(rng):
    kinds = ["any", "collinear", "line", "point"]
    for i in range(100):
        j2 = random_jet2(rng, kinds[i % 4])
        sf = second_form(jet2_to_germ(j2))
        pp = build_parabola(sf)
        ur = umbilic_curvature(pp, sf)
        dc = degeneracy_cone(sf)
        verdict = corank2_conditions(pp, dc, ur)
        assert verdict.agrees, (j2, pp.shape, verdict.case)


def test_binormals_lie_on_cone_and_plane(rng):
    kinds = ["any", "collinear", "line", "point"]
    for i in range(60):
        j2 = random_jet2(rng, kinds[i % 4])
        sf = second_form(jet2_to_germ(j2))
        pp = build_parabola(sf)
        aset = asymptotic_directions(pp, sf)
        bset = binormal_directions(pp, sf, aset)
        dc = degeneracy_cone(sf)
        if bset.kind == "all":
            continue
        for b in bset.items:
            hess = np.array(
                [[float(v) for v in row] for row in height_hessian(sf, b.vector)]
            )
            assert abs(np.linalg.det(hess)) <= 1e-8
            assert abs(float(np.dot(b.vector, pp.ep.nu3))) <= 1e-10


def test_cone_membership_sign_agreement(rng):
    _, sf, _, _, _, _, dc = pipeline("(x, x*y, y^2 + x^2, 3*x^2)", order=4)
    for _ in range(100):
        nu = rng.normal(size=3)
        hess = np.array([[float(v) for v in row] for row in height_hessian(sf, nu)])
        direct = float(np.linalg.det(hess))
        quad = det_value(dc, nu)
        assert abs(direct - quad) <= 1e-9 * max(abs(direct), abs(quad), 1.0)


def test_cone_parabola_orthogonality_cases():
    _, _, pp, aset, bset, _, _ = pipeline("(x, x*y, y^2 + x^2, 0)", order=4)
    assert cone_parabola_orthogonality(pp, aset, bset)
    _, _, pp, aset, bset, _, _ = pipeline("(x, 0, 0, 0)", order=2)
    assert cone_parabola_orthogonality(pp, aset, bset)
    _, _, pp, aset, bset, _, _ = pipeline("(x, x*y, y^2 + 2*x^2, 5*x^2)", order=4)
    assert cone_parabola_orthogonality(pp, aset, bset)


def test_cone_parabola_orthogonality_at_a_large_parameter():
    # M nearly parallel to N puts one asymptotic parameter near 6.7e5; the
    # normal rotation spreads the rounding of eta(y) ~ y^2 N over every axis
    a, b, c, s = F(3, 5), F(4, 5), F(5, 13), F(12, 13)
    rot = [[1, 0, 0, 0], [0, a, -b * c, b * s], [0, b, a * c, -a * s], [0, 0, s, c]]
    g = rotate_target(germ("(x, x*y + 1/3*y^2 - x^2, 1/10^6*y^2 + x^2, 1/7*x^2)", order=4), rot)
    sf = second_form(adapt(g))
    pp = build_parabola(sf)
    aset = asymptotic_directions(pp, sf)
    bset = binormal_directions(pp, sf, aset)
    assert sf.is_exact and max(abs(float(y)) for y in aset.params) > 5e5
    assert cone_parabola_orthogonality(pp, aset, bset)


def test_sample_cone_zero_germ_all_zero():
    _, _, _, _, _, _, dc = pipeline("(x, 0, 0, 0)", order=2)
    rows = sample_cone(dc)
    assert all(sign == 0 and value == 0.0 for _, _, sign, value in rows)


def test_corank2_basis_is_canonical_under_rounding_noise(rng):
    # a relative 1e-15 perturbation of the float entries moves neither the
    # sign of a null vector nor the basis of a null plane
    checked = 0
    for text in GOLDEN_GERMS:
        sf = second_form(adapt(germ(text)))
        want = degeneracy_cone(sf)
        if want.corank2_dim not in (1, 2):
            continue
        floats = np.array([[float(v) for v in row] for row in sf.matrix])
        for _ in range(10):
            noisy = floats * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, size=(3, 3)))
            got = degeneracy_cone(SecondForm(noisy.tolist()))
            assert got.corank2_dim == want.corank2_dim, text
            assert np.max(np.abs(got.corank2_basis - want.corank2_basis)) <= 1e-9, text
        checked += 1
    assert checked >= 20
