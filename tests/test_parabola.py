"""Parabola shape, orbit classification, and normal-form reduction."""

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvpar.adapt import adapt
from curvpar.forms import SecondForm, second_form
from curvpar.config import DEFAULT_TOL
from curvpar.germs import Jet2, MapGermR4, TruncatedPoly2, extract_jet2
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
from conftest import germ, jet2_to_germ, rand_fraction, random_jet2
from golden import GOLDEN_GERMS
from references import table_orbit

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


def test_replaced_plane_recomputes_plane_rows():
    # plane_rows is cached on the instance; a copy by _replace with the plane
    # turned by theta inside itself starts without the cache, so its rows
    # turn by theta too, and a copy with the form doubled has doubled rows
    # and a doubled trace
    sf = second_form(adapt(germ("(x, x*y, y^2 + x^2, 3*x^2)")))
    pp = build_parabola(sf)
    assert pp.sf is sf
    (r1, r2) = pp.plane_rows
    twin = SecondForm([[2 * c for c in row] for row in sf.matrix])
    doubled = pp._replace(sf=twin)
    assert doubled.plane_rows == tuple(tuple(2 * x for x in row) for row in (r1, r2))
    for y in (0.0, -1.5, 1 / 3):
        assert doubled.float_eta(y) == tuple(2 * x for x in pp.float_eta(y))
    c, s = math.cos(0.7), math.sin(0.7)
    u1, u2 = pp.ep.u1, pp.ep.u2
    ep = pp.ep._replace(
        u1=tuple(c * a + s * b for a, b in zip(u1, u2)),
        u2=tuple(-s * a + c * b for a, b in zip(u1, u2)),
    )
    turned = pp._replace(ep=ep)
    assert type(turned) is type(pp) and pp.plane_rows == (r1, r2)
    want = (
        [c * a + s * b for a, b in zip(r1, r2)],
        [-s * a + c * b for a, b in zip(r1, r2)],
    )
    assert turned.plane_rows != pp.plane_rows
    for got_row, want_row in zip(turned.plane_rows, want):
        assert got_row == pytest.approx(want_row, abs=1e-12)


def test_classify_two_jet_table_rows():
    j = Jet2(0, 1, 0, 0, 0, 1, 0, 0, 0)
    assert classify_two_jet(j) == table_orbit(j) == ORBIT_PARABOLA
    j = Jet2(*([0] * 9))
    assert classify_two_jet(j) == table_orbit(j) == ORBIT_POINT
    # only a20 nonzero: all gammas vanish, no xy or y^2 terms anywhere
    j = Jet2(1, 0, 0, 0, 0, 0, 0, 0, 0)
    assert classify_two_jet(j) == table_orbit(j) == ORBIT_POINT
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
    table = table_orbit(j2)
    assert classify_two_jet(j2) == table
    assert build_parabola(second_form(jet2_to_germ(j2))).orbit == table


def test_orbit_equals_shape_on_random_jets(rng):
    # the coefficient table and the geometric shape agree (200 draws)
    kinds = ["any", "any", "collinear", "line", "point"]
    for i in range(200):
        j2 = random_jet2(rng, kinds[i % len(kinds)])
        table = table_orbit(j2)
        assert classify_two_jet(j2) == table, f"disagreement on {j2}"
        assert build_parabola(second_form(jet2_to_germ(j2))).orbit == table, f"disagreement on {j2}"


def band_germ(c):
    """The float germ (x, x*y, c*y^2, x^2)."""
    terms = ({(1, 0): 1.0}, {(1, 1): 1.0}, {(0, 2): c}, {(2, 0): 1.0})
    return MapGermR4([TruncatedPoly2(t, 2) for t in terms])


def orbits_of(report) -> tuple:
    """The three orbit fields of a report: from the coefficients, from the geometry, reduced."""
    return report["orbit"]["from_coefficients"], report["orbit"]["from_geometry"], report["reduced_two_jet"]["orbit"]


@pytest.mark.parametrize("c", [1e-9, 3e-9, 4e-9])
def test_a_y2_column_near_the_zero_test_reads_one_orbit(c):
    # the y^2 column of the 2-jet is c, of its second form 2c; the zero test
    # of that column lies between 1e-9 and 3e-9
    report = analyze_germ(band_germ(c), verify=True).report
    table, geometry, reduced = orbits_of(report)
    assert table == geometry == reduced
    assert report["orbit"]["consistent"] and report["verification"]["passed"]


def test_a_parabola_orbit_reduction_prints_its_orbit():
    res = analyze_germ(band_germ(3e-9))
    assert res.profile.shape.label() == "nondegenerate parabola"
    assert orbits_of(res.report) == (ORBIT_PARABOLA,) * 3
    # (x, xy, b20 x^2 + b11 xy + b02 y^2, c20 x^2) with b02 = c
    j = res.reduced.jet2
    assert (j.a20, j.a11, j.a02, j.c11, j.c02) == (0, 1, 0, 0, 0) and j.b02 == 3e-9


@st.composite
def jets_with_a_y2_column_near_zero(draw):
    """Float 2-jets whose y^2 column has norm in [eps*ref/4, 4*eps*ref] for the
    ref of the rest of the jet, and so near the zero test of its second form."""
    entry = st.floats(-4.0, 4.0, allow_nan=False).filter(lambda v: v == 0.0 or abs(v) > 1e-3)
    a, m = (draw(st.tuples(entry, entry, entry)) for _ in range(2))
    direction = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: max(map(abs, v)) > 0.1))
    ref = Jet2(*(v for row in zip(a, m, (0.0,) * 3) for v in row)).second_form.ref
    size = DEFAULT_TOL.eps_rank * ref * 4.0 ** draw(st.floats(-1.0, 1.0)) / math.hypot(*direction)
    return Jet2(*(v for row in zip(a, m, (size * d for d in direction)) for v in row))


@settings(max_examples=60, deadline=None)
@given(jets_with_a_y2_column_near_zero())
def test_float_jets_near_the_y2_zero_test_read_one_orbit(j2):
    res = analyze_germ(jet2_to_germ(j2))
    assert len(set(orbits_of(res.report))) == 1
    assert res.profile.orbit == classify_two_jet(j2)


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
    px = x * float(s[0][0]) + y * float(s[0][1])
    py = x * float(s[1][0]) + y * float(s[1][1])
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
        rot = np.asarray(red.target_rotation)
        assert np.max(np.abs(rot @ rot.T - np.eye(4))) < 1e-12
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12


def cayley3(w):
    """The rational rotation of R^3 that Cayley's formula gives for the vector w."""
    n = sum(c * c for c in w)
    skew = ((0, -w[2], w[1]), (w[2], 0, -w[0]), (-w[1], w[0], 0))
    return [[((1 - n) * (i == j) + 2 * w[i] * w[j] - 2 * skew[i][j]) / (1 + n) for j in range(3)] for i in range(3)]


def rotate_rows(rows, rot3):
    """The 2-jet whose components 2..4 are rot3 applied to ``rows``."""
    return Jet2(*(sum(rot3[i][k] * rows[k][c] for k in range(3)) for i in range(3) for c in range(3)))


def normal_form_rows(orbit, rng, sign):
    """A normal form of the orbit with b20 of the given sign and random exact entries."""
    r = lambda: rand_fraction(rng, allow_zero=False)
    b20 = sign * abs(r())
    return {
        ORBIT_PARABOLA: ((0, 1, 0), (b20, r(), abs(r())), (r(), 0, 0)),
        ORBIT_HALF_LINE: ((r(), 0, 1), (b20, 0, 0), (0, 0, 0)),
        ORBIT_LINE: ((0, 1, 0), (b20, 0, 0), (0, 0, 0)),
        ORBIT_POINT: ((0, 0, 0), (b20, 0, 0), (0, 0, 0)),
    }[orbit]


@pytest.mark.parametrize("orbit", [ORBIT_PARABOLA, ORBIT_HALF_LINE, ORBIT_LINE, ORBIT_POINT])
def test_normal_forms_agree_across_target_rotations(orbit, rng):
    # a normal form and its images under rational rotations of components
    # 2..4, diag(1, -1, -1) among them, reduce to the same values, and off the
    # parabola orbit, where b20 is a signed invariant, whichever the sign of
    # b20: the reduction, not a pattern, decides what is reduced
    flip = ((1, 0, 0), (0, -1, 0), (0, 0, -1))
    for _ in range(6):
        seed = int(rng.integers(2**32))
        want = None
        for sign in (1, -1):
            if orbit == ORBIT_PARABOLA:
                want = None
            rows = normal_form_rows(orbit, np.random.default_rng(seed), sign)
            rot = cayley3([rand_fraction(rng) for _ in range(3)])
            flipped = rotate_rows(rows, flip)
            for j2 in (Jet2(*(v for row in rows for v in row)), flipped, rotate_rows(rows, rot), rotate_rows(flipped.rows(), rot)):
                red = reduce_to_normal_form(j2)
                assert red.orbit == orbit
                got = [float(v) for row in red.jet2.rows() for v in row]
                want = want or got
                assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9 * j2.second_form.ref, (rows, j2)
                assert_witnesses_reproduce(j2, red)
        assert want[3] > 0 or orbit == ORBIT_PARABOLA


@pytest.mark.parametrize("twins", [
    ("(x, y^2, x^2, 0)", "(x, y^2, -x^2, 0)", "(x, y^2, 0, -x^2)"),
    ("(x, x*y, x^2, 0)", "(x, x*y, -x^2, 0)"),
    ("(x, 0, x^2, 0)", "(x, 0, -x^2, 0)"),
])
def test_reports_print_one_normal_form_for_target_rotated_twins(twins):
    values = [analyze_germ(t).report["reduced_two_jet"]["jet2"] for t in twins]
    assert all(v == values[0] for v in values), values
    assert values[0]["b20"] == 1


def assert_kept_as_given(j2):
    red = reduce_to_normal_form(j2)
    assert red.jet2 is j2
    assert red.source_matrix == ((1.0, 0.0), (0.0, 1.0))
    assert red.target_rotation == tuple(tuple(float(i == j) for j in range(4)) for i in range(4))
    # the witnesses, read as exact rationals, reproduce the exact jet exactly
    g = jet2_to_germ(j2)
    x, y = (TruncatedPoly2.variable(v, g.order) for v in "xy")
    (s00, s01), (s10, s11) = ([F(v) for v in row] for row in red.source_matrix)
    moved = compose_source(g, x * s00 + y * s01, x * s10 + y * s11)
    rebuilt = rotate_target(moved, [[F(v) for v in row] for row in red.target_rotation])
    assert extract_jet2(rebuilt) == j2
    return red


def test_exact_reduced_jets_keep_their_exact_entries():
    # the benchmark's prenormal jets already in normal form (20 at seed 1), the
    # zero jet, and a jet within rounding of its normal form: the float
    # witnesses come out as the identity, so the exact jet comes back as given
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import run  # perfbench/run.py

    kept = []
    for spec in run.make_workload("exact_prenormal", 1)[0]:
        j2 = extract_jet2(germ(spec["text"], order=2))
        if reduce_to_normal_form(j2).jet2 is j2:
            kept.append(j2)
    assert len(kept) == 20
    for j2 in [*kept, Jet2(0, 0, 0, 0, 0, 0, 0, 0, 0)]:
        assert_kept_as_given(j2)
    near = Jet2(0, 0, 1 + F(1, 10**20), 3, 0, 0, 0, 0, 0)
    red = assert_kept_as_given(near)
    assert red.orbit == ORBIT_HALF_LINE and red.jet2.a02 == 1 + F(1, 10**20)


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
    for v in (rng.normal(size=(50, 3)) * 10.0 ** rng.integers(-140, 140, size=(50, 1))).tolist():
        # the plain quotient by the square root of the sum of squares
        norm = math.sqrt(sum(c * c for c in v))
        assert unit(v) == tuple(c / norm for c in v)
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
