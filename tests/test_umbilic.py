"""Umbilic curvature formulas, oracle agreement, frame independence."""

import math

import numpy as np
import pytest

from curvpar.adapt import adapt
from curvpar.forms import second_form
from curvpar.germs import TruncatedPoly2
from curvpar.oracle import parabola_hull_distance
from curvpar.parabola import PlaneBasis, build_parabola
from curvpar.umbilic import kappa_stratum_check, umbilic_curvature

from composition import compose_source
from conftest import germ, jet2_to_germ, random_jet2
from references import eta_prime, reframe, value_along


def pipeline(text, order=6):
    ad = adapt(germ(text, order=order))
    sf = second_form(ad)
    pp = build_parabola(sf)
    return ad, sf, pp, umbilic_curvature(pp, sf)


def test_umbilic_zero_for_plain_parametrisation():
    _, _, _, ur = pipeline("(x, y^2, y^3, x^2*y)")
    assert ur.kappa_u == pytest.approx(0.0, abs=1e-12)
    assert ur.is_zero


def test_umbilic_two_for_reparametrised_image():
    _, _, _, ur = pipeline("(x, (y^3+x)^2, (y^3+x)^3, (y^3+x)^2*y)")
    assert ur.kappa_u == pytest.approx(2.0, abs=1e-10)
    assert ur.formula_used == "point_distance"


def test_umbilic_orbit1_normal_form_is_2c20():
    for c20 in (0, 1, -3):
        text = f"(x, x*y, 2*x^2 + x*y + y^2, {c20}*x^2)" if c20 >= 0 else (
            f"(x, x*y, 2*x^2 + x*y + y^2, -{abs(c20)}*x^2)"
        )
        _, _, pp, ur = pipeline(text, order=4)
        assert pp.shape.kind == "parabola"
        assert ur.kappa_u == pytest.approx(2.0 * abs(c20), abs=1e-10)
        assert ur.formula_used == "nondegenerate_proj"


def test_kappa_stratum_equivalence_examples():
    _, _, pp, ur = pipeline("(x, x*y, y^2, x^2)", order=4)
    assert pp.stratum == 3 and not ur.is_zero
    assert kappa_stratum_check(pp, ur)

    _, _, pp, ur = pipeline("(x, 0, 0, 0)", order=2)
    assert pp.stratum == 0 and ur.is_zero
    assert kappa_stratum_check(pp, ur)

    _, _, pp, ur = pipeline("(x, x^2, 0, 0)", order=4)
    assert pp.stratum == 1 and ur.kappa_u == pytest.approx(2.0)
    assert kappa_stratum_check(pp, ur)


def test_kappa_stratum_check_requires_the_implied_stratum():
    # a zero umbilic curvature puts L in the plane of the independent M and N,
    # so the parabola (x, x*y, y^2, 0) lies in stratum 2 and in no lower one
    _, _, pp, ur = pipeline("(x, x*y, y^2, 0)", order=4)
    assert (pp.stratum, ur.is_zero) == (2, True)
    assert kappa_stratum_check(pp, ur)
    for stratum in (0, 1, 3):
        assert not kappa_stratum_check(pp._replace(stratum=stratum), ur), stratum


def test_kappa_stratum_equivalence_random(rng):
    kinds = ["any", "collinear", "line", "point"]
    for i in range(120):
        j2 = random_jet2(rng, kinds[i % 4])
        sf = second_form(jet2_to_germ(j2))
        pp = build_parabola(sf)
        ur = umbilic_curvature(pp, sf)
        assert kappa_stratum_check(pp, ur), (j2, pp.shape, ur)


def test_oracle_agreement_every_shape(rng):
    kinds = ["any", "collinear", "line", "point"]
    for i in range(80):
        j2 = random_jet2(rng, kinds[i % 4])
        sf = second_form(jet2_to_germ(j2))
        pp = build_parabola(sf)
        ur = umbilic_curvature(pp, sf)
        hull = parabola_hull_distance(pp)
        assert abs(ur.kappa_u - hull) <= 1e-7 * (1.0 + ur.kappa_u)
        assert abs(ur.kappa_u - hull) <= 1e-8 * (1.0 + ur.kappa_u)


def test_frame_independence_in_plane_rotation(rng):
    _, sf, pp, ur = pipeline("(x, x*y, y^2 + x^2, 3*x^2)", order=4)
    for _ in range(5):
        theta = float(rng.uniform(0, 2 * math.pi))
        c, s = math.cos(theta), math.sin(theta)
        u1, u2 = np.asarray(pp.ep.u1), np.asarray(pp.ep.u2)
        rotated = PlaneBasis(
            u1=c * u1 + s * u2,
            u2=-s * u1 + c * u2,
            nu3=pp.ep.nu3,
            forced=pp.ep.forced,
        )
        pp_rot = pp._replace(ep=rotated)
        ur_rot = umbilic_curvature(pp_rot, sf)
        assert abs(ur_rot.kappa_u - ur.kappa_u) < 1e-10


def test_parameter_reversal_invariance():
    # y -> -y is a coordinate change of the source
    base = germ("(x, y^2 + x*y, x^2, 0)", order=4)
    x = TruncatedPoly2.variable("x", 4)
    y = TruncatedPoly2.variable("y", 4)
    flipped = compose_source(base, x, -y)
    for g in (base, flipped):
        ad = adapt(g)
        sf = second_form(ad)
        pp = build_parabola(sf)
        urs = umbilic_curvature(pp, sf)
        if g is base:
            reference = urs.kappa_u
        else:
            assert abs(urs.kappa_u - reference) < 1e-10


def test_cross_formula_agreement_half_lines():
    # determinant formula vs |II_nu2(u,u)| / I(u,u) in the plane frame
    _, sf, pp, ur = pipeline("(x, y^2, x^2, 0)", order=4)
    assert pp.shape.kind == "half_line" and not pp.shape.radial
    frame = reframe(sf, pp.ep.rows())
    for y in (-2.0, 0.0, 3.0):
        u = (1.0, y)
        val = abs(float(value_along(frame, (0.0, 1.0, 0.0), u, u)))
        assert abs(val - ur.kappa_u) < 1e-9


def cross4(a, b, c) -> np.ndarray:
    """Generalized cross product in R^4: <w, cross4(a,b,c)> = det(w,a,b,c)."""
    m = np.asarray([a, b, c], dtype=float)
    out = np.empty(4)
    for i in range(4):
        cols = [j for j in range(4) if j != i]
        out[i] = (-1.0) ** i * np.linalg.det(m[:, cols])
    return out


def test_generalized_cross_product_matches_determinant_formula():
    _, sf, pp, ur = pipeline("(x, y^2, x^2, 0)", order=4)
    y = float(pp.shape.vertex_param) + 1.0
    e = np.array([1.0, 0.0, 0.0, 0.0])
    eta4 = np.concatenate(([0.0], [float(v) for v in pp.eta(y)]))
    etap4 = np.concatenate(([0.0], [float(v) for v in eta_prime(pp, y)]))
    kappa_cross = np.linalg.norm(cross4(e, eta4, etap4)) / np.linalg.norm(etap4)
    assert abs(kappa_cross - ur.kappa_u) < 1e-10
