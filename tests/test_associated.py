"""Lift to R^5, projection to a regular surface in R^4, geometry transfer."""

import importlib
import inspect
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import curvpar.report
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
from curvpar.germs import MapGermR4, TruncatedPoly2, parse_map_germ, parse_poly
from curvpar.parabola import PlaneBasis, build_parabola
from curvpar.report import AnalysisResult, analyze_germ

from conftest import germ, jet2_to_germ, random_jet2, random_rotation, transform_germ
from golden import GOLDEN_GERMS
from references import reframe, rotated_projection


def test_lift_reference_germ():
    # the lift is built on the adapted 2-jet: y^5 is not in it
    ad = adapt(germ("(x, x*y, y^2, y^5)"))
    lift = lift_to_r5(ad)
    assert [p.to_expression() for p in lift.components] == ["x", "y", "x*y", "y^2", "0"]
    assert all(p.order == 2 for p in lift.components)


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


def test_analyze_germ_builds_no_lift(monkeypatch):
    def refuse(adapted):
        raise AssertionError("analyze_germ built the R^5 lift")

    # the function and its re-export from the package
    for module in (importlib.import_module("curvpar.associated"), curvpar):
        monkeypatch.setattr(module, "lift_to_r5", refuse)
    assert not hasattr(curvpar.report, "lift_to_r5")
    for text in GOLDEN_GERMS:
        for verify in (False, True):
            assert analyze_germ(text, verify=verify).lift is None


def test_analysis_result_lift_is_last_and_defaults_to_none():
    last = list(inspect.signature(AnalysisResult).parameters.values())[-1]
    assert (last.name, last.default) == ("lift", None)


def test_lift_of_the_adapted_germ_has_the_analysis_second_form():
    for text in GOLDEN_GERMS:
        exact = parse_map_germ(text, 2)
        for g in (exact, exact.to_float()):
            res = analyze_germ(g)
            assert lift_to_r5(res.adapted).alpha == res.sf


def test_lift_rank_equals_stratum(rng):
    for i in range(40):
        j2 = random_jet2(rng, ["any", "collinear", "line", "point"][i % 4])
        g = jet2_to_germ(j2)
        ad = adapt(g)
        sf = second_form(ad)
        pp = build_parabola(sf)
        assert rank_second_form(lift_to_r5(ad).alpha) == pp.stratum


def test_projection_orbit1_normal_form_keeps_components():
    # the plane is the first coordinate plane: S keeps the 2-jets of the
    # first two normal components, in floats
    ad = adapt(germ("(x, x*y + y^3, 2*x^2 + x*y + y^2 + x^3, x^2 + x^2*y)", order=4))
    pp = build_parabola(second_form(ad))
    assert np.array_equal(pp.ep.rows(), np.eye(3))
    s = project_to_s(ad, pp)
    assert s.components[0] == parse_poly("x", order=2)
    assert s.components[1] == parse_poly("y", order=2)
    assert s.components[2] == TruncatedPoly2({(1, 1): 1.0}, 2)
    assert s.components[3] == TruncatedPoly2({(2, 0): 2.0, (1, 1): 1.0, (0, 2): 1.0}, 2)
    assert s.coeffs == ((0.0, 1.0, 0.0), (4.0, 1.0, 2.0))


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
        u2=math.cos(theta) * np.asarray(pp.ep.u2) + math.sin(theta) * np.asarray(pp.ep.nu3),
        nu3=-math.sin(theta) * np.asarray(pp.ep.u2) + math.cos(theta) * np.asarray(pp.ep.nu3),
        forced=False,
    )
    s2 = project_to_s(ad, pp._replace(ep=rotated))
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


def float_bits(rows):
    """Each float's hex form: equal exactly when the values, signs of zero included, are."""
    return tuple(tuple(float(v).hex() for v in row) for row in rows)


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
        expected = reframe(sf, pp.ep.rows()).matrix[:2]
        assert float_bits(project_to_s(ad, pp).coeffs) == float_bits(expected)


def scaled_normals(g, k):
    return MapGermR4([g.components[0]] + [p * k for p in g.components[1:]])


def projection_cases(rng):
    """(germ, profile) pairs: golden germs, random jets of the four families,
    moved copies of both, and the adapted 2-jets of all of these with the
    normals scaled by 2^+-1000.

    A scaled jet's plane is its twin's: the profile's float frames overflow
    or underflow at that scale, but the plane does not depend on it.
    """
    kinds = ["any", "collinear", "line", "point"]
    exact = [germ(text) for text in GOLDEN_GERMS]
    exact += [jet2_to_germ(random_jet2(rng, kinds[i % 4]), order=4) for i in range(40)]
    moved = [
        transform_germ(g, random_rotation(rng, 2), random_rotation(rng, 4))
        for g in exact[::3]
    ]
    for g in exact + moved:
        ad = adapt(g)
        pp = build_parabola(second_form(ad))
        yield g, pp
        for k in (Fraction(2) ** 1000, Fraction(1, 2**1000)):
            twin = scaled_normals(ad.germ, k if ad.germ.is_exact else float(k))
            sf = second_form(adapt(twin))
            yield twin, pp._replace(sf=sf)


def subnormal_products(g, pp) -> bool:
    """Whether the rotation multiplies a frame weight and a coefficient into a subnormal."""
    return any(
        0.0 < abs(float(w) * float(c)) < sys.float_info.min
        for w in np.asarray(pp.ep.rows())[:2].ravel()
        for p in g.components[1:]
        for c in p.coeffs.values()
    )


def test_projection_equals_the_polynomial_rotation(rng):
    # The reference rotates every monomial of the full prenormal input.  S's
    # rows double each coefficient before the rotation's products, not after
    # its sum; that is exact, so S's rows and 2-jet are the same bit for bit,
    # unless a product is subnormal: then each row entry stays within 3 units
    # of the subnormal grid.
    cases = subnormal = 0
    for g, pp in projection_cases(rng):
        ad = adapt(g)
        s = project_to_s(ad, pp)
        ref = g if g.is_prenormal() else ad.germ
        comps, coeffs = rotated_projection(ref, pp)
        cases += 1
        if subnormal_products(ref, pp):
            subnormal += 1
            diffs = [abs(a - b) for r1, r2 in zip(s.coeffs, coeffs) for a, b in zip(r1, r2)]
            assert max(diffs) <= 3 * 2.0**-1074, g
            continue
        assert float_bits(s.coeffs) == float_bits(coeffs), g
        order = ad.germ.order
        assert s.components[:2] == tuple(TruncatedPoly2(p.coeffs, order) for p in comps[:2])
        assert s.components[2:] == tuple(
            TruncatedPoly2(p.map_coeffs(float).coeffs, order) for p in comps[2:]
        ), g
    assert cases == 297 and subnormal <= 30


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
