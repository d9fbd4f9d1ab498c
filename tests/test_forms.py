"""Fundamental forms at the singular point."""

from fractions import Fraction

import numpy as np
import pytest

import curvpar.forms
from curvpar.adapt import adapt
from curvpar.config import DEFAULT_TOL
from curvpar.heights import degeneracy_cone
from curvpar.linalg import rank3
from curvpar.parabola import build_parabola
from curvpar.forms import SecondForm, first_form, rank_second_form, second_form
from curvpar.germs import MapGermR4, TruncatedPoly2
from curvpar.oracle import finite_difference_hessian

from composition import compose_source
from conftest import germ, rand_fraction, random_rotation, transform_germ
from golden import GOLDEN_GERM_ORDERS
from references import sum_first_form, value_along

F = Fraction


def test_first_form_reference_germ():
    ff = first_form(adapt(germ("(x, x*y, y^2, y^5)")))
    assert (ff.E, ff.F, ff.G) == (1, 0, 0)


def test_first_form_zero_germ():
    ff = first_form(adapt(germ("(x, 0, 0, 0)", order=2)))
    assert (ff.E, ff.F, ff.G) == (1, 0, 0)


def test_first_form_numeric_oracle(rng):
    # <f_x, f_x>, <f_x, f_y>, <f_y, f_y> at 0 by central differences
    g = adapt(germ("(x, x*y + y^3, y^2, x^2)", order=4)).germ
    ff = first_form(g)
    s = 1e-6

    def deriv(var):
        if var == "x":
            plus, minus = g.evaluate(s, 0.0), g.evaluate(-s, 0.0)
        else:
            plus, minus = g.evaluate(0.0, s), g.evaluate(0.0, -s)
        return [(float(p) - float(m)) / (2 * s) for p, m in zip(plus, minus)]

    fx, fy = deriv("x"), deriv("y")
    dot = lambda a, b: sum(p * q for p, q in zip(a, b))
    assert abs(dot(fx, fx) - float(ff.E)) < 1e-9
    assert abs(dot(fx, fy) - float(ff.F)) < 1e-9
    assert abs(dot(fy, fy) - float(ff.G)) < 1e-9


def same_values_and_types(got, want) -> bool:
    """Equal entry by entry in type and value, a float down to its bits and sign."""
    return len(got) == len(want) and all(
        type(a) is type(b) and (a.hex() == b.hex() if type(b) is float else a == b)
        for a, b in zip(got, want)
    )


@pytest.mark.parametrize("text,order", GOLDEN_GERM_ORDERS)
def test_first_form_equals_the_sum_formula_on_the_golden_corpus(text, order):
    g = germ(text, order)
    for source in (g, g.to_float()):
        for given in (source, adapt(source)):
            assert same_values_and_types(tuple(first_form(given)), sum_first_form(given))


NOT_PRENORMAL = [
    "(x + y, x*y, y^2, x^2)",
    "(2*x, x*y, y^2, 0)",
    "(-x, 0, y^2, x*y)",
    "(x*y, x, y^2, x^2)",
    "(1/2*x - 3*y, 2*x - 12*y, x*y, y^3)",
    "(x, y + x^2, x*y, y^2)",
    "(x^2, y^2, x*y, 0)",
]


def test_first_form_equals_the_sum_formula_off_prenormal_form(rng):
    germs = [germ(text, 3) for text in NOT_PRENORMAL]
    for text, order in GOLDEN_GERM_ORDERS[::4]:
        x, f2, f3, f4 = germ(text, order).components
        germs.append(MapGermR4([f2, x, f3, f4]))
        source = [[float(v) for v in row] for row in rng.normal(size=(2, 2))]
        germs.append(transform_germ(germ(text, order), source, random_rotation(rng, 4)))
    for g in germs:
        assert not g.is_prenormal()
        assert same_values_and_types(tuple(first_form(g)), sum_first_form(g))


def random_coefficient(rng):
    """An absent term (the int 0), an int, a Fraction or a float, integral or not."""
    kind = int(rng.integers(5))
    if kind == 0:
        return 0
    if kind == 1:
        return int(rng.integers(-4, 5))
    if kind == 2:
        return rand_fraction(rng)
    if kind == 3:
        return float(rng.normal())
    return float(rng.integers(-3, 4))


def test_first_form_equals_the_sum_formula_on_random_coefficients(rng):
    types = set()
    for _ in range(300):
        comps = [
            TruncatedPoly2({k: random_coefficient(rng) for k in ((1, 0), (0, 1), (2, 0))}, 2)
            for _ in range(4)
        ]
        g = MapGermR4(comps)
        want = sum_first_form(g)
        assert same_values_and_types(tuple(first_form(g)), want)
        types.update(map(type, want))
    assert types == {int, Fraction, float}


def test_second_form_reference_germ():
    sf = second_form(adapt(germ("(x, x*y, y^2, y^5)")))
    assert sf.matrix == ((0, 1, 0), (0, 0, 2), (0, 0, 0))


def test_second_form_zero():
    sf = second_form(adapt(germ("(x, 0, 0, 0)", order=2)))
    assert all(v == 0 for row in sf.matrix for v in row)


def test_second_form_orbit1_pattern():
    # (x, xy + p, b20 x^2 + b11 xy + b02 y^2 + q, c20 x^2 + r)
    g = germ("(x, x*y + y^3, 3*x^2 + 5*x*y + 7*y^2 + x^3, 2*x^2 + x^2*y)", order=4)
    sf = second_form(adapt(g))
    assert sf.matrix == ((0, 1, 0), (6, 5, 14), (4, 0, 0))


def test_II_along_examples():
    sf = second_form(adapt(germ("(x, x*y, y^2, y^5)")))
    assert value_along(sf, (0, 1, 0), (0, 1), (0, 1)) == 2
    assert value_along(sf, (1, 1, 1), (0, 0), (1, 1)) == 0


def test_II_along_matches_fd_hessian(rng):
    # the input is prenormal, so its own coordinates are the adapted ones
    g = germ("(x, x*y + x^3, 2*x^2 - y^2, x^2 + 3*x*y)", order=4)
    sf = second_form(adapt(g))
    for _ in range(10):
        nu = rng.normal(size=3)
        nu /= np.linalg.norm(nu)
        fd = finite_difference_hessian(g, [np.concatenate(([0.0], nu))])[0]
        closed = np.array(
            [
                [float(value_along(sf, nu, (1, 0), (1, 0))), float(value_along(sf, nu, (1, 0), (0, 1)))],
                [float(value_along(sf, nu, (0, 1), (1, 0))), float(value_along(sf, nu, (0, 1), (0, 1)))],
            ]
        )
        assert np.max(np.abs(fd - closed)) < 1e-6


def test_II_symmetric(rng):
    sf = second_form(adapt(germ("(x, x*y + x^3, 2*x^2 - y^2, x^2 + 3*x*y)", order=4)))
    for _ in range(5):
        nu = rng.normal(size=3)
        u = tuple(rng.normal(size=2))
        v = tuple(rng.normal(size=2))
        assert abs(value_along(sf, nu, u, v) - value_along(sf, nu, v, u)) < 1e-12


def test_rank_examples():
    assert rank_second_form(second_form(adapt(germ("(x, x*y, y^2, y^5)")))) == 2
    assert rank_second_form(SecondForm([[0, 0, 0]] * 3)) == 0
    assert rank_second_form(SecondForm([(0, 1, 0), (2, 0, 2), (2, 0, 0)])) == 3


def test_ref_is_a_power_of_two_and_refuses_non_finite_entries():
    assert SecondForm([(0, Fraction(3, 4), 0), (0, 0, 0), (0, 0, -1.0)]).ref == 2.0
    assert SecondForm([[0, 0, 0]] * 3).ref == 1.0
    for bad in (float("inf"), float("nan")):
        with pytest.raises(OverflowError, match="left the float range"):
            SecondForm([(0, 1, 0), (bad, 0, 0), (0, 0, 0)]).ref


def test_coordinate_independence_congruence():
    # g . psi with psi = (x, c x + d y + quadratic) keeps prenormality;
    # second forms are congruent by the differential of psi at 0
    g = germ("(x, x*y + y^3, 3*x^2 + 5*x*y + 7*y^2, 2*x^2)", order=4)
    sf = second_form(adapt(g))
    c, d = F(2, 3), F(-3, 2)
    order = g.order
    x = TruncatedPoly2.variable("x", order)
    y = TruncatedPoly2.variable("y", order)
    psi_y = x * c + y * d + x * y * F(1, 5) + y * y * F(2, 7)
    moved = compose_source(g, x, psi_y)
    sf_moved = second_form(adapt(moved))
    dpsi = np.array([[1.0, 0.0], [float(c), float(d)]])
    for row_new, row_old in zip(sf_moved.matrix, sf.matrix):
        a_new = np.array(
            [
                [float(row_new[0]), float(row_new[1])],
                [float(row_new[1]), float(row_new[2])],
            ]
        )
        a_old = np.array(
            [
                [float(row_old[0]), float(row_old[1])],
                [float(row_old[1]), float(row_old[2])],
            ]
        )
        assert np.max(np.abs(a_new - dpsi.T @ a_old @ dpsi)) < 1e-8


def test_height_hessian_equivalence(rng):
    # II_nu equals the finite-difference Hessian of the height function
    ad = adapt(germ("(x, x*y - y^2, x^2 + x*y, 3*y^2 + x^2)", order=4))
    sf = second_form(ad)
    for _ in range(20):
        nu = rng.normal(size=3)
        nu /= np.linalg.norm(nu)
        fd = finite_difference_hessian(ad, [np.concatenate(([0.0], nu))])[0]
        l = sum(float(v) * float(c) for v, c in zip(nu, sf.L))
        m = sum(float(v) * float(c) for v, c in zip(nu, sf.M))
        n = sum(float(v) * float(c) for v, c in zip(nu, sf.N))
        assert np.max(np.abs(fd - np.array([[l, m], [m, n]]))) < 1e-6


def test_rank_is_computed_once_per_eps(monkeypatch):
    calls = []

    def counted(rows, eps):
        calls.append(eps)
        return rank3(rows, eps)

    monkeypatch.setattr(curvpar.forms, "rank3", counted)
    exact = second_form(adapt(germ("(x, x*y, y^2, 0)")))
    for sf in (exact, SecondForm([(0.0, 0.5, 0.0), (0.0, 0.0, 0.5), (0.0, 0.0, 0.0)])):
        calls.clear()
        stratum = build_parabola(sf).stratum
        assert 3 - degeneracy_cone(sf).corank2_dim == stratum == 2
        assert calls == [DEFAULT_TOL.eps_rank]
        assert rank_second_form(sf, DEFAULT_TOL.updated(eps_rank=0.5)) == stratum
        assert calls == [DEFAULT_TOL.eps_rank, 0.5]
