"""Lift to R^5, projection to a regular surface in R^4, geometry transfer."""

import dataclasses
import math

import numpy as np
import pytest

from curvpar.adapt import adapt
from curvpar.associated import (
    curvature_ellipse,
    lift_to_r5,
    project_to_s,
    s_asymptotic_directions,
    verify_transfer,
)
from curvpar.directions import asymptotic_directions
from curvpar.forms import form_rows, rank_second_form, second_form
from curvpar.germs import TruncatedPoly2
from curvpar.parabola import PlaneBasis, build_parabola
from curvpar.report import analyze_germ

from conftest import germ, jet2_to_germ, random_jet2, random_rotation, transform_germ


def test_lift_reference_germ():
    ad = adapt(germ("(x, x*y, y^2, y^5)"))
    lift = lift_to_r5(ad)
    exprs = [p.to_expression() for p in lift.components]
    assert exprs == ["x", "y", "x*y", "y^2", "y^5"]


def test_lift_zero_germ():
    lift = lift_to_r5(adapt(germ("(x, 0, 0, 0)", order=2)))
    assert [p.to_expression() for p in lift.components] == ["x", "y", "0", "0", "0"]


def test_lift_second_form_equals_germ_second_form(rng):
    for i in range(40):
        j2 = random_jet2(rng, ["any", "collinear", "line", "point"][i % 4])
        g = jet2_to_germ(j2)
        ad = adapt(g)
        sf = second_form(ad)
        lift = lift_to_r5(ad)
        assert lift.alpha.matrix == sf.matrix  # exact equality on the rational path


def test_lift_rank_equals_stratum(rng):
    for i in range(40):
        j2 = random_jet2(rng, ["any", "collinear", "line", "point"][i % 4])
        g = jet2_to_germ(j2)
        ad = adapt(g)
        sf = second_form(ad)
        pp = build_parabola(sf)
        assert rank_second_form(lift_to_r5(ad).alpha) == pp.stratum


def test_projection_orbit1_normal_form_keeps_components():
    ad = adapt(germ("(x, x*y + y^3, 2*x^2 + x*y + y^2 + x^3, x^2 + x^2*y)", order=4))
    pp = build_parabola(second_form(ad))
    s = project_to_s(ad, pp)
    from curvpar.germs import parse_poly

    assert s.components[0] == parse_poly("x", order=4)
    assert s.components[1] == parse_poly("y", order=4)
    assert s.components[2] == parse_poly("x*y + y^3", order=4)
    assert s.components[3] == parse_poly("2*x^2 + x*y + y^2 + x^3", order=4)


def test_projection_zero_germ():
    ad = adapt(germ("(x, 0, 0, 0)", order=2))
    pp = build_parabola(second_form(ad))
    s = project_to_s(ad, pp)
    assert [p.to_expression() for p in s.components] == ["x", "y", "0", "0"]


def test_projection_free_plane_choice_same_second_form():
    # stratum-1 germ: any admissible plane gives the same form up to rotation
    ad = adapt(germ("(x, x^2, x^3, y^3)", order=4))
    pp = build_parabola(second_form(ad))
    assert not pp.ep.forced
    s1 = project_to_s(ad, pp)
    theta = 0.7
    rotated = PlaneBasis(
        u1=pp.ep.u1,
        u2=math.cos(theta) * pp.ep.u2 + math.sin(theta) * pp.ep.nu3,
        nu3=-math.sin(theta) * pp.ep.u2 + math.cos(theta) * pp.ep.nu3,
        forced=False,
    )
    s2 = project_to_s(ad, dataclasses.replace(pp, ep=rotated))
    gram1 = np.array(s1.coeffs).T @ np.array(s1.coeffs)
    gram2 = np.array(s2.coeffs).T @ np.array(s2.coeffs)
    assert np.max(np.abs(gram1 - gram2)) < 1e-9


def test_bde_roots_ik():
    ad = adapt(germ("(x, x*y, x^2 + y^2, 0)", order=4))
    pp = build_parabola(second_form(ad))
    s = project_to_s(ad, pp)
    dirs = s_asymptotic_directions(s)
    slopes = sorted(d[1] / d[0] for d in dirs)
    assert slopes == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_projection_coeffs_equal_reframed_second_form(rng):
    # the projection keeps the first two rows of the second form in the plane frame
    kinds = ["any", "collinear", "line", "point"]
    adapted = [adapt(jet2_to_germ(random_jet2(rng, kinds[i % 4]))) for i in range(40)]
    for _ in range(20):
        base = jet2_to_germ(random_jet2(rng))
        adapted.append(adapt(transform_germ(base, random_rotation(rng, 2), random_rotation(rng, 4))))
    for ad in adapted:
        sf = second_form(ad)
        pp = build_parabola(sf)
        expected = np.array(sf.reframe(pp.ep.rows()).matrix[:2])
        coeffs = np.array(project_to_s(ad, pp).coeffs)
        assert np.max(np.abs(coeffs - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_transfer_keeps_s_root_order():
    # c < 0 here, so S's roots come out descending while M's parameters ascend
    transfer = analyze_germ("(x, -x*y, x^2 + y^2, 0)").report["transfer"]
    assert transfer["s_directions"] == [
        [0.707106781187, 0.707106781187],
        [0.707106781187, -0.707106781187],
    ]
    assert transfer["m_directions"] == [
        [0.707106781187, -0.707106781187],
        [0.707106781187, 0.707106781187],
    ]
    assert transfer["directions_match"]


def test_bde_zero_germ_all():
    ad = adapt(germ("(x, 0, 0, 0)", order=2))
    pp = build_parabola(second_form(ad))
    assert s_asymptotic_directions(project_to_s(ad, pp)) == "all"


def test_bde_elliptic_none():
    ad = adapt(germ("(x, x*y, -x^2 + y^2, 0)", order=4))
    pp = build_parabola(second_form(ad))
    assert s_asymptotic_directions(project_to_s(ad, pp)) == []


def test_curvature_ellipse_example():
    s_components = [
        TruncatedPoly2.variable("x", 4),
        TruncatedPoly2.variable("y", 4),
        TruncatedPoly2({(1, 1): 1.0}, 4),
        TruncatedPoly2({(2, 0): 1.0, (0, 2): 1.0}, 4),
    ]
    coeffs = form_rows(s_components[2:])
    assert np.allclose(coeffs, [(0.0, 1.0, 0.0), (2.0, 0.0, 2.0)])

    from curvpar.associated import RegularSurfaceR4

    s = RegularSurfaceR4(components=tuple(s_components), coeffs=coeffs)
    assert np.allclose(curvature_ellipse(s, 0.0), [0.0, 2.0])
    assert np.allclose(curvature_ellipse(s, math.pi / 2), [0.0, 2.0])
    assert np.allclose(curvature_ellipse(s, math.pi / 4), [1.0, 2.0])


def test_curvature_ellipse_periodic(rng):
    ad = adapt(germ("(x, x*y, x^2 + y^2, 0)", order=4))
    pp = build_parabola(second_form(ad))
    s = project_to_s(ad, pp)
    for _ in range(10):
        theta = float(rng.uniform(0, 2 * math.pi))
        assert np.allclose(
            curvature_ellipse(s, theta), curvature_ellipse(s, theta + math.pi), atol=1e-12
        )


def transfer_case(text, order=6):
    ad = adapt(germ(text, order=order))
    sf = second_form(ad)
    pp = build_parabola(sf)
    aset = asymptotic_directions(pp, sf)
    s = project_to_s(ad, pp)
    return verify_transfer(ad, pp, aset, s)


def test_transfer_hyperbolic_ik():
    verdict = transfer_case("(x, x*y, x^2 + y^2, 0)", order=4)
    assert verdict.passed
    assert verdict.m_point_type == "hyperbolic"


def test_transfer_radial_half_line():
    verdict = transfer_case("(x, y^2, 0, 0)", order=4)
    assert verdict.passed
    assert verdict.m_point_type == "inflection"
    assert verdict.s_directions == "all"


def test_transfer_parabolic_ik():
    verdict = transfer_case("(x, x*y, y^2, 0)", order=4)
    assert verdict.passed
    assert verdict.m_point_type == "parabolic"


def test_transfer_random_suite(rng):
    kinds = ["any", "collinear", "line", "point"]
    for i in range(60):
        j2 = random_jet2(rng, kinds[i % 4])
        ad = adapt(jet2_to_germ(j2))
        sf = second_form(ad)
        pp = build_parabola(sf)
        aset = asymptotic_directions(pp, sf)
        s = project_to_s(ad, pp)
        verdict = verify_transfer(ad, pp, aset, s)
        assert verdict.passed, (j2, pp.shape, verdict)
