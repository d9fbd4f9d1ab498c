"""Asymptotic/binormal directions, point types, counting per shape."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from curvpar.adapt import adapt
from curvpar.config import DEFAULT_TOL
from curvpar.directions import (
    Y_INF,
    asymptotic_directions,
    binormal_directions,
    osculating_hyperplanes,
    point_type,
    solve_quadratic,
)
from curvpar.forms import second_form
from curvpar.parabola import build_parabola

from conftest import germ
from references import ik_classify, reframe, value_along


def pipeline(text, order=6):
    ad = adapt(germ(text, order=order))
    sf = second_form(ad)
    pp = build_parabola(sf)
    aset = asymptotic_directions(pp, sf)
    bset = binormal_directions(pp, sf, aset)
    return ad, sf, pp, aset, bset


def test_ik_roots_plus_minus_one():
    _, _, _, aset, _ = pipeline("(x, x*y, y^2 + x^2, 0)", order=4)
    assert aset.kind == "finite"
    assert not aset.includes_infinity
    assert sorted(float(y) for y in aset.params) == pytest.approx([-1.0, 1.0])


def test_zero_germ_all_asymptotic():
    _, _, _, aset, _ = pipeline("(x, 0, 0, 0)", order=2)
    assert aset.kind == "all"
    assert point_type(aset) == "inflection"


def test_radial_half_line_all_asymptotic():
    _, _, _, aset, bset = pipeline("(x, y^2, 0, 0)", order=4)
    assert aset.kind == "all"
    # vertex at the origin: every plane direction is binormal
    assert bset.kind == "all"


def test_counting_all_six_shapes():
    cases = [
        ("(x, x*y, y^2 + x^2, 0)", 2, 2),          # parabola, two roots
        ("(x, x*y, y^2, 0)", 1, 1),                # parabola, double root
        ("(x, x*y, y^2 - x^2, 0)", 0, 0),          # parabola, no roots
        ("(x, y^2, x^2, 0)", 2, 2),                # non-radial half-line
        ("(x, y^2, 0, 0)", math.inf, math.inf),    # radial half-line, vertex origin
        ("(x, x^2 + y^2, 0, 0)", math.inf, 1),     # radial half-line, vertex away
        ("(x, x*y, x^2, 0)", 1, 1),                # non-radial line: y_inf only
        ("(x, x*y, 0, 0)", math.inf, 1),           # radial line
        ("(x, x^2, 0, 0)", math.inf, 1),           # point away from origin
        ("(x, 0, 0, 0)", math.inf, math.inf),      # point at the origin
    ]
    for text, n_asym, n_bin in cases:
        _, _, pp, aset, bset = pipeline(text, order=4)
        assert aset.count == n_asym, f"asymptotic count for {text}"
        assert bset.count == n_bin, f"binormal count for {text}"


def test_non_radial_half_line_parameters():
    _, _, pp, aset, bset = pipeline("(x, y^2, x^2, 0)", order=4)
    assert aset.includes_infinity
    assert [float(y) for y in aset.params] == [0.0]  # the vertex parameter
    params = {b.param if isinstance(b.param, str) else float(b.param) for b in bset.items}
    assert params == {0.0, Y_INF}


def test_binormals_annihilate_their_asymptotic_direction(rng):
    _, sf, pp, aset, bset = pipeline("(x, x*y, y^2 + x^2, 0)", order=4)
    assert {float(b.param) for b in bset.items} == {-1.0, 1.0}
    for b in bset.items:
        u = (1.0, float(b.param))
        worst = 0.0
        for _ in range(1000):
            v = rng.normal(size=2)
            worst = max(worst, abs(float(value_along(sf, b.vector, u, tuple(v)))))
        assert worst <= 1e-8
        # binormal lies in the distinguished plane
        assert abs(float(np.dot(b.vector, pp.ep.nu3))) < 1e-10


def test_point_away_binormal_is_plane_perp():
    _, sf, pp, aset, bset = pipeline("(x, x^2, 0, 0)", order=4)
    (b,) = bset.items
    # orthogonal to the segment direction, inside the plane
    assert abs(float(np.dot(b.vector, pp.aff.point))) < 1e-12
    assert abs(float(np.dot(b.vector, pp.ep.nu3))) < 1e-12


def test_osculating_hyperplanes():
    _, _, _, aset, bset = pipeline("(x, x*y, y^2 + x^2, 0)", order=4)
    planes = osculating_hyperplanes(bset)
    assert len(planes) == 2
    for normal in planes:
        assert abs(np.linalg.norm(normal) - 1.0) < 1e-12
        assert normal[0] == 0.0
    _, _, _, _, bset_all = pipeline("(x, 0, 0, 0)", order=2)
    assert osculating_hyperplanes(bset_all) == "all"


def test_point_types_from_ik_family():
    types = {}
    for b20, expected in ((-1, "elliptic"), (0, "parabolic"), (1, "hyperbolic")):
        text = f"(x, x*y, {b20}*x^2 + y^2, 0)" if b20 else "(x, x*y, y^2, 0)"
        _, _, _, aset, _ = pipeline(text, order=4)
        types[b20] = point_type(aset)
        assert types[b20] == expected


def test_ik_classify_signs():
    assert ik_classify(adapt(germ("(x, x*y, x^2 + y^2, 0)", order=4))) == "hyperbolic"
    assert ik_classify(adapt(germ("(x, x*y, y^2, 0)", order=4))) == "parabolic"
    assert ik_classify(adapt(germ("(x, x*y, -3*x^2 + y^2, 0)", order=4))) == "elliptic"


def test_ik_classify_rejects_non_reduced():
    with pytest.raises(ValueError, match="reduced form"):
        ik_classify(adapt(germ("(x, y^2, 0, 0)", order=4)))


def test_ik_classify_matches_full_pipeline(rng):
    from conftest import signed_sum

    for _ in range(20):
        b20 = int(rng.integers(-3, 4))
        b11 = int(rng.integers(-2, 3))
        b02 = int(rng.integers(1, 4))
        c20 = int(rng.integers(-2, 3))
        comp3 = signed_sum((b20, "x^2"), (b11, "x*y"), (b02, "y^2"))
        comp4 = signed_sum((c20, "x^2"))
        text = f"(x, x*y, {comp3}, {comp4})"
        ad, sf, pp, aset, _ = pipeline(text, order=4)
        assert ik_classify(ad) == point_type(aset)


def test_collinearity_determinant_at_roots_and_elsewhere(rng):
    _, sf, pp, aset, _ = pipeline("(x, x*y, y^2 + x^2, 3*x^2)", order=4)
    frame = reframe(sf, pp.ep.rows())
    (l1, m1, n1), (l2, m2, n2), _ = frame.matrix

    def det2(y):
        e1 = (l1 + 2 * m1 * y + n1 * y * y, l2 + 2 * m2 * y + n2 * y * y)
        e2 = (2 * m1 + 2 * n1 * y, 2 * m2 + 2 * n2 * y)
        return e1[0] * e2[1] - e1[1] * e2[0]

    for y in aset.params:
        assert abs(det2(float(y))) <= 1e-9
    count = 0
    while count < 50:
        y = float(rng.uniform(-5, 5))
        if min(abs(y - float(r)) for r in aset.params) < 0.1:
            continue
        assert abs(det2(y)) > 1e-6
        count += 1


def test_definition_level_oracle_non_asymptotic(rng):
    _, sf, pp, aset, _ = pipeline("(x, x*y, y^2 + x^2, 0)", order=4)
    angles = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    checked = 0
    while checked < 10:
        y = float(rng.uniform(-3, 3))
        if min(abs(y - float(r)) for r in aset.params) < 0.2:
            continue
        u = (1.0, y)
        for t in angles:
            nu = math.cos(t) * pp.ep.u1 + math.sin(t) * pp.ep.u2
            worst = max(
                abs(float(value_along(sf, nu, u, (1.0, 0.0)))),
                abs(float(value_along(sf, nu, u, (0.0, 1.0)))),
            )
            assert worst >= 1e-6
        checked += 1


def test_infinity_membership_tracks_leading_coefficient(rng):
    from conftest import jet2_to_germ, random_jet2
    from curvpar.forms import second_form as sf_of

    kinds = ["any", "collinear", "line", "point"]
    for i in range(80):
        j2 = random_jet2(rng, kinds[i % 4])
        sf = sf_of(jet2_to_germ(j2))
        pp = build_parabola(sf)
        aset = asymptotic_directions(pp, sf)
        q2_zero = abs(float(aset.quadratic[2])) <= 1e-9
        assert aset.includes_infinity == q2_zero, (j2, aset)
        # every direction asymptotic exactly on the two lowest strata
        assert (aset.kind == "all") == (pp.stratum <= 1)


def test_all_asymptotic_witness_for_radial_shapes(rng):
    # one plane direction annihilates every tangent direction
    for text in ("(x, y^2, 0, 0)", "(x, x*y, 0, 0)", "(x, x^2, 0, 0)"):
        _, sf, pp, aset, bset = pipeline(text, order=4)
        assert aset.kind == "all"
        nu = bset.items[0].vector if bset.kind == "finite" else pp.ep.u2
        for _ in range(50):
            u = tuple(rng.normal(size=2))
            v = tuple(rng.normal(size=2))
            assert abs(float(value_along(sf, nu, u, v))) <= 1e-8


@pytest.mark.parametrize("coeffs", [(1, 10**8, 1), (1.0, 1e8, 1.0), (1.0, -1e8, 1.0)])
def test_solve_quadratic_keeps_the_small_root(coeffs):
    # (-q1 + sqrt(disc)) / (2*q2) cancels to a relative error of 0.5 here
    q0, q1, q2 = coeffs
    with localcontext() as ctx:
        ctx.prec = 60
        sq = (Decimal(q1) ** 2 - 4 * Decimal(q0) * Decimal(q2)).sqrt()
        exact = [float((-Decimal(q1) + s * sq) / (2 * Decimal(q2))) for s in (-1, 1)]
    roots, _ = solve_quadratic(q0, q1, q2, DEFAULT_TOL)
    # in the order (-q1 - sqrt(disc)) / (2*q2), (-q1 + sqrt(disc)) / (2*q2)
    assert len(roots) == 2
    for got, want in zip(roots, exact):
        assert abs(got - want) <= 1e-15 * abs(want)
