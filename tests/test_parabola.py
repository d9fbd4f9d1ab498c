"""Parabola shape, orbit classification, and normal-form reduction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvpar.adapt import adapt
from curvpar.forms import second_form
from curvpar.germs import Jet2, extract_jet2
from curvpar.linalg import cross3, dot3, unit
from curvpar.parabola import (
    ORBIT_HALF_LINE,
    ORBIT_LINE,
    ORBIT_PARABOLA,
    ORBIT_POINT,
    build_parabola,
    classify_two_jet,
    reduce_to_normal_form,
    sample_parabola,
)
from curvpar.report import analyze_germ

from composition import compose_source, rotate_target
from conftest import germ, jet2_to_germ, random_jet2
from golden import GOLDEN_GERMS

F = Fraction


def profile_of(text, order=6):
    return build_parabola(second_form(adapt(germ(text, order=order))))


def test_reference_germ_profile():
    pp = profile_of("(x, x*y, y^2, y^5)")
    assert pp.shape.kind == "parabola"
    assert pp.stratum == 2
    assert pp.orbit == ORBIT_PARABOLA
    # eta(y) = (2y, 2y^2, 0) in normal-frame coordinates
    assert pp.eta(1) == (2, 2, 0)
    assert pp.eta(-2) == (-4, 8, 0)


def test_zero_germ_profile():
    pp = profile_of("(x, 0, 0, 0)", order=2)
    assert pp.shape.kind == "point"
    assert pp.shape.is_origin
    assert pp.stratum == 0
    assert not pp.ep.forced
    assert pp.aff.dim == 0


def test_radial_half_line_profile():
    # 2-jet (x, y^2, 0, 0): half-line from the origin, stratum M1
    pp = profile_of("(x, y^2, y^3, x^2*y)")
    assert pp.shape.kind == "half_line"
    assert pp.shape.radial
    assert pp.shape.vertex_param == 0
    assert pp.shape.vertex_is_origin
    assert pp.stratum == 1
    assert pp.orbit == ORBIT_HALF_LINE


def test_non_radial_half_line_profile():
    pp = profile_of("(x, y^2, x^2, 0)", order=4)
    assert pp.shape.kind == "half_line"
    assert not pp.shape.radial
    assert pp.stratum == 2
    assert pp.ep.forced


def test_line_profiles():
    non_radial = profile_of("(x, x*y, x^2, 0)", order=4)
    assert non_radial.shape.kind == "line"
    assert not non_radial.shape.radial
    assert non_radial.stratum == 2
    radial = profile_of("(x, x*y, 0, 0)", order=4)
    assert radial.shape.kind == "line"
    assert radial.shape.radial
    assert radial.stratum == 1


def test_point_away_from_origin():
    pp = profile_of("(x, x^2, 0, 0)", order=4)
    assert pp.shape.kind == "point"
    assert not pp.shape.is_origin
    assert pp.stratum == 1
    assert np.allclose(pp.aff.point, [2.0, 0.0, 0.0])


def test_half_line_vertex_data():
    # comp2 = y^2 + xy gives M = (1,0,0), N = (2,0,0): mu = 1/2, vertex param -1/2
    pp = profile_of("(x, y^2 + x*y, x^2, 0)", order=4)
    assert pp.shape.kind == "half_line"
    assert pp.shape.vertex_param == F(-1, 2)


def test_ep_contains_affine_hull_directions():
    for text in ("(x, y^2, x^2, 0)", "(x, x*y, x^2, 0)", "(x, y^2, y^3, x^2*y)"):
        pp = profile_of(text)
        if pp.shape.kind != "parabola" and pp.aff.dim >= 1:
            d = pp.aff.basis[0]
            proj = np.outer(pp.ep.u1, pp.ep.u1) + np.outer(pp.ep.u2, pp.ep.u2)
            assert np.allclose(proj @ d, d, atol=1e-12)


def test_classify_two_jet_table_rows():
    j = Jet2(0, 1, 0, 0, 0, 1, 0, 0, 0)
    assert classify_two_jet(j) == ORBIT_PARABOLA
    assert classify_two_jet(Jet2(*([0] * 9))) == ORBIT_POINT
    # only a20 nonzero: all gammas vanish, no xy or y^2 terms anywhere
    j = Jet2(1, 0, 0, 0, 0, 0, 0, 0, 0)
    assert classify_two_jet(j) == ORBIT_POINT
    pp = build_parabola(second_form(jet2_to_germ(j)))
    assert pp.shape.kind == "point" and not pp.shape.is_origin


def test_small_independent_columns_label_like_their_twin():
    # xy and y^2 columns of size 1e-5 in a jet of scale 1: their minors (about
    # 1e-10) are below eps_rank * ref^2, yet the columns are independent
    for text in ("(x + y^2, x^2, 1/10^5*x*y, 1/10^5*y^2)", "(x, x^2, 1/10^5*x*y, 1/10^5*y^2)"):
        orbit = analyze_germ(text).report["orbit"]
        assert orbit == {"from_coefficients": ORBIT_PARABOLA, "from_geometry": ORBIT_PARABOLA, "consistent": True}


jet_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@settings(max_examples=80, deadline=None)
@given(st.tuples(*[jet_fraction] * 9), st.sampled_from(["free", "collinear", "zero_yy"]))
def test_orbit_equals_shape_property(coeffs, mode):
    coeffs = list(coeffs)
    if mode == "collinear":
        # make the xy column a multiple of the y^2 column
        coeffs[1], coeffs[4], coeffs[7] = (
            coeffs[2] * coeffs[0],
            coeffs[5] * coeffs[0],
            coeffs[8] * coeffs[0],
        )
    elif mode == "zero_yy":
        coeffs[2] = coeffs[5] = coeffs[8] = F(0)
    j2 = Jet2(*coeffs)
    assert classify_two_jet(j2) == build_parabola(second_form(jet2_to_germ(j2))).orbit


def test_orbit_equals_shape_on_random_jets(rng):
    # the coefficient criteria and the geometric shape agree (200 draws)
    kinds = ["any", "any", "collinear", "line", "point"]
    for i in range(200):
        j2 = random_jet2(rng, kinds[i % len(kinds)])
        table = classify_two_jet(j2)
        geo = build_parabola(second_form(jet2_to_germ(j2))).orbit
        assert table == geo, f"disagreement on {j2}"


def test_shape_stratum_correspondence_on_random_jets(rng):
    for i in range(150):
        j2 = random_jet2(rng, ["any", "collinear", "line", "point"][i % 4])
        sf = second_form(jet2_to_germ(j2))
        pp = build_parabola(sf)
        if pp.shape.kind == "parabola":
            # stratum 2 iff the hull direction plane contains the base point
            in_plane = dot3(sf.L, cross3(sf.M, sf.N)) == 0
            assert pp.stratum == (2 if in_plane else 3)
        elif pp.shape.kind in ("half_line", "line"):
            assert pp.stratum == (1 if pp.shape.radial else 2)
        else:
            assert pp.stratum == (0 if pp.shape.is_origin else 1)


# -- reduction --------------------------------------------------------------


def reconstruct(j2: Jet2, reduced):
    """Apply the witnesses to the jet through germ-level composition."""
    from curvpar.germs import TruncatedPoly2

    g = jet2_to_germ(j2).to_float()
    order = g.order
    x = TruncatedPoly2.variable("x", order).map_coeffs(float)
    y = TruncatedPoly2.variable("y", order).map_coeffs(float)
    s = reduced.source_matrix
    px = x * float(s[0, 0]) + y * float(s[0, 1])
    py = x * float(s[1, 0]) + y * float(s[1, 1])
    return rotate_target(compose_source(g, px, py), reduced.target_rotation)


def assert_witnesses_reproduce(j2, reduced, tol=1e-9):
    rebuilt = reconstruct(j2, reduced)
    got = extract_jet2(rebuilt, jet_tol=1e-6)
    for name in ("a20", "a11", "a02", "b20", "b11", "b02", "c20", "c11", "c02"):
        assert abs(float(getattr(got, name)) - float(getattr(reduced.jet2, name))) < tol


def test_reduce_already_normal_is_identity():
    j = Jet2(0, 1, 0, 0, 0, 1, 0, 0, 0)  # (x, xy, y^2, 0)
    red = reduce_to_normal_form(j)
    assert red.jet2 == j
    assert np.array_equal(red.source_matrix, np.eye(2))
    assert np.array_equal(red.target_rotation, np.eye(4))


def test_reduce_half_line_normal_is_identity():
    j = Jet2(0, 0, 1, 0, 0, 0, 0, 0, 0)  # (x, y^2, 0, 0)
    red = reduce_to_normal_form(j)
    assert red.orbit == ORBIT_HALF_LINE
    assert red.jet2 == j


def test_reduce_orbit1_example():
    # (x, xy + y^2, xy - y^2, 0)
    j = Jet2(0, 1, 1, 0, 1, -1, 0, 0, 0)
    red = reduce_to_normal_form(j)
    assert red.orbit == ORBIT_PARABOLA
    r = red.jet2
    assert abs(float(r.a20)) < 1e-12
    assert abs(float(r.a11) - 1.0) < 1e-12
    assert abs(float(r.a02)) < 1e-12
    assert float(r.b02) > 0
    assert abs(float(r.c11)) < 1e-12 and abs(float(r.c02)) < 1e-12
    assert_witnesses_reproduce(j, red)


def test_reduce_random_jets_land_in_normal_form(rng):
    kinds = ["any", "collinear", "line", "point"]
    for i in range(80):
        j2 = random_jet2(rng, kinds[i % 4])
        red = reduce_to_normal_form(j2)
        r = red.jet2
        if red.orbit == ORBIT_PARABOLA:
            assert abs(float(r.a20)) < 1e-10
            assert abs(float(r.a11) - 1.0) < 1e-10
            assert abs(float(r.a02)) < 1e-10
            assert float(r.b02) > 0
            assert abs(float(r.c11)) < 1e-10 and abs(float(r.c02)) < 1e-10
        elif red.orbit == ORBIT_HALF_LINE:
            assert abs(float(r.a11)) < 1e-10
            assert abs(float(r.a02) - 1.0) < 1e-10
            assert max(abs(float(r.b11)), abs(float(r.b02))) < 1e-10
            assert max(abs(float(v)) for v in (r.c20, r.c11, r.c02)) < 1e-10
        elif red.orbit == ORBIT_LINE:
            assert abs(float(r.a20)) < 1e-10
            assert abs(float(r.a11) - 1.0) < 1e-10
            assert abs(float(r.a02)) < 1e-10
            assert max(abs(float(r.b11)), abs(float(r.b02))) < 1e-10
            assert max(abs(float(v)) for v in (r.c20, r.c11, r.c02)) < 1e-10
        else:
            assert max(abs(float(v)) for v in (r.a20, r.a11, r.a02)) < 1e-10
            assert max(abs(float(r.b11)), abs(float(r.b02))) < 1e-10
            assert max(abs(float(v)) for v in (r.c20, r.c11, r.c02)) < 1e-10
        assert_witnesses_reproduce(j2, red)
        # rotation witness is orthogonal with determinant +1
        rot = red.target_rotation
        assert np.max(np.abs(rot @ rot.T - np.eye(4))) < 1e-12
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12


@pytest.mark.parametrize("text", GOLDEN_GERMS + ["(x, x*y + y^2, 1/10^9*y^2 + x^2, 0)"])
def test_analysis_reduction_witnesses_reproduce(text):
    # the witnesses an analysis reports, composed at germ level; the last
    # germ's y^2 column is nearly along its xy column
    res = analyze_germ(text)
    assert_witnesses_reproduce(res.jet2, res.reduced)


def test_sample_parabola_rows():
    pp = profile_of("(x, x*y, y^2, y^5)")
    rows = sample_parabola(pp, -1.0, 1.0, 3)
    assert rows == [
        (-1.0, -2.0, 2.0, 0.0),
        (0.0, 0.0, 0.0, 0.0),
        (1.0, 2.0, 2.0, 0.0),
    ]


def test_unit_rescales_only_a_vector_whose_squares_overflow():
    rng = np.random.default_rng(7)
    for v in rng.normal(size=(50, 3)) * 10.0 ** rng.integers(-140, 140, size=(50, 1)):
        assert np.array_equal(unit(v), v / np.linalg.norm(v))
    # |v|^2 = 2.5e401 is beyond the float range, v itself is not; no warning is raised
    assert np.allclose(unit([F(3 * 10**200), 4e200, 0]), [0.6, 0.8, 0.0], rtol=0, atol=1e-15)


def test_unit_rescales_a_vector_whose_squares_underflow():
    # |v|^2 = 2^-1200 is below the smallest subnormal, v itself is not
    tiny = 2.0**-600
    assert np.array_equal(unit([0.0, 3 * tiny, 4 * tiny]), [0.0, 0.6, 0.8])
    assert np.array_equal(unit([F(1, 2**700), 0, 0]), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="zero vector"):
        unit([0.0, F(0), 0])


def test_frames_and_reduction_do_not_call_np_cross(monkeypatch):
    # np.cross costs about 40 us a call on 3-vectors; linalg.cross3 has its bits
    def refuse(*args, **kwargs):
        raise AssertionError("np.cross called")

    monkeypatch.setattr(np, "cross", refuse)
    shapes = set()
    for text in GOLDEN_GERMS:
        res = analyze_germ(text)
        shapes.add(res.profile.shape.kind)
    assert shapes == {"parabola", "half_line", "line", "point"}
