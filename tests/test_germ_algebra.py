"""Polynomial arithmetic, parsing, and 2-jet extraction."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvpar.germs import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_POWER_BITS,
    GermParseError,
    MapGermR4,
    TruncatedPoly2,
    extract_jet2,
    parse_map_germ,
    parse_poly,
    template_parameters,
)

F = Fraction


def test_parse_reference_germ_coefficients():
    g = parse_map_germ("(x, x*y, y^2, y^5)", order=6)
    assert g.components[0].coeffs == {(1, 0): 1}
    assert g.components[1].coeffs == {(1, 1): 1}
    assert g.components[2].coeffs == {(0, 2): 1}
    assert g.components[3].coeffs == {(0, 5): 1}


def test_parse_zero_components():
    g = parse_map_germ("(x, 0, 0, 0)", order=2)
    assert g.components[0].coeffs == {(1, 0): 1}
    for comp in g.components[1:]:
        assert comp.is_zero


def test_parse_composite_expansion_exact():
    # (y^3+x)^2 = x^2 + 2xy^3 + y^6, worked out by hand
    g = parse_map_germ("(x, (y^3+x)^2, (y^3+x)^3, (y^3+x)^2*y)", order=6)
    assert g.components[1].coeffs == {(2, 0): 1, (1, 3): 2, (0, 6): 1}
    # (y^3+x)^3 = x^3 + 3x^2y^3 + 3xy^6 + y^9, truncated at order 6
    assert g.components[2].coeffs == {(3, 0): 1, (2, 3): 3}
    # (x^2 + 2xy^3 + y^6) * y truncated at order 6
    assert g.components[3].coeffs == {(2, 1): 1, (1, 4): 2}


def test_parse_rational_literals_and_unary_minus():
    p = parse_poly("-3/2*x + y^2 - 1/4*x*y", order=4)
    assert p.coeffs == {(1, 0): F(-3, 2), (0, 2): 1, (1, 1): F(-1, 4)}


def test_parse_error_position():
    with pytest.raises(GermParseError) as exc:
        parse_map_germ("(x, x*, y^2, 0)", order=4)
    assert exc.value.position == 6


@pytest.mark.parametrize("text", ["(x, y^2, 0, 0)", "(x, t*x*y, y^2 - 1/2*x^2, 0)"])
@pytest.mark.parametrize("pad", [" ", "\n", "\t \n", "   "])
def test_parse_ignores_surrounding_whitespace(text, pad):
    params = {"t": F(3, 2)}
    expected = parse_map_germ(text, params=params)
    for padded in (text + pad, pad + text, pad + text + pad):
        assert parse_map_germ(padded, params=params) == expected
        assert template_parameters(padded) == template_parameters(text)


@pytest.mark.parametrize(
    "text, position",
    [
        ("(x, y^2 $ x, 0, 0)", 8),
        ("(x, y^2, 0, 0) #", 15),
        ("  !(x, 0, 0, 0)", 2),
        # digits and names are ASCII
        ("(x, \u0663*y^2, 0, 0)", 4),
        ("(x, x*y, \uff12*y^2, 0)", 9),
        ("(x, t\u0663*x*y, y^2, 0)", 5),
    ],
)
def test_parse_reports_position_of_unexpected_character(text, position):
    with pytest.raises(GermParseError, match="unexpected character") as exc:
        parse_map_germ(text)
    assert exc.value.position == position
    with pytest.raises(GermParseError) as exc:
        template_parameters(text)
    assert exc.value.position == position


def test_parse_rejects_nonzero_constant():
    with pytest.raises(ValueError, match="vanish at the origin"):
        parse_map_germ("(x, 1 + y^2, 0, 0)", order=4)


def test_parse_rejects_low_order():
    with pytest.raises(ValueError, match="at least 2"):
        parse_map_germ("(x, 0, 0, 0)", order=1)


def test_parse_rejects_unbound_name():
    with pytest.raises(GermParseError, match="unbound"):
        parse_map_germ("(x, t*y^2, 0, 0)", order=4)


def test_parse_refuses_deep_nesting():
    ok = "(x, " + "(" * MAX_NESTING + "y^2" + ")" * MAX_NESTING + ", 0, 0)"
    assert parse_map_germ(ok).components[1].coefficient(0, 2) == 1
    deep = "(x, " + "(" * 3000 + "y" + ")" * 3000 + ", 0, 0)"
    with pytest.raises(GermParseError, match="nested deeper"):
        parse_map_germ(deep)


def test_parse_refuses_large_exponent():
    assert parse_map_germ(f"(x, (1+y)^{MAX_EXPONENT} - 1, 0, 0)").order == 6
    with pytest.raises(GermParseError, match="exponent 10000000 exceeds"):
        parse_map_germ("(x, (1/3+x)^10000000, y^2, 0)")


@pytest.mark.parametrize("levels", [3, 4])
def test_parse_refuses_nested_powers_over_the_bit_budget(levels):
    text = "(x, " + "(" * levels + "1/3+x" + ")^64" * levels + ", y^2, 0)"
    t0 = time.perf_counter()
    with pytest.raises(GermParseError, match=f"exceeds {MAX_POWER_BITS} bits"):
        parse_map_germ(text)
    assert time.perf_counter() - t0 < 1.0


def test_parse_power_bit_budget_boundary():
    # exponent 64 times a 64-bit coefficient is exactly the budget
    assert MAX_POWER_BITS == 64 * 64
    assert parse_map_germ(f"(x, y^2 + ({2**63}*x + y)^64, 0, 0)").order == 6
    with pytest.raises(GermParseError, match="65-bit coefficients to exponent 64"):
        parse_map_germ(f"(x, y^2 + ({2**64}*x + y)^64, 0, 0)")
    # moderate nested powers still expand exactly
    assert parse_map_germ("(x, ((1+y)^8)^8 - 1, 0, 0)") == parse_map_germ("(x, (1+y)^64 - 1, 0, 0)")


def test_template_parameters_and_binding():
    text = "(x, x*y, t*x^2 + y^2, 0)"
    assert template_parameters(text) == ["t"]
    g = parse_map_germ(text, order=4, params={"t": F(-1, 2)})
    assert g.components[2].coeffs == {(2, 0): F(-1, 2), (0, 2): 1}


def test_differentiate_examples():
    y2 = parse_poly("y^2", order=4)
    assert y2.diff("y").coeffs == {(0, 1): 2}
    p = parse_poly("x^2 + 2*x*y^3", order=6)
    assert p.diff("x").coeffs == {(1, 0): 2, (0, 3): 2}
    # second y-derivative of (y^3+x)^2 at order 4 vanishes at the origin
    q = parse_poly("(y^3+x)^2", order=4)
    d2 = q.diff("y").diff("y")
    assert d2.evaluate(0, 0) == 0


def test_differentiate_drops_order():
    p = parse_poly("x^3 + y^3", order=3)
    assert p.diff("x").order == 2


def test_multiplication_truncates_to_min_order():
    a = parse_poly("x^2", order=6)
    b = parse_poly("y^2", order=3)
    assert (a * b).order == 3
    assert (a * b).is_zero  # degree 4 > 3


def test_power_expands_exactly():
    p = parse_poly("(1/2*x + y)^3", order=5)
    assert p.coeffs == {
        (3, 0): F(1, 8),
        (2, 1): F(3, 4),
        (1, 2): F(3, 2),
        (0, 3): 1,
    }


@pytest.mark.parametrize("n", [*range(9), 64])
def test_power_equals_repeated_multiplication(n):
    p = parse_poly("1/2 + x - 2/3*y + x*y", order=6)
    expected = TruncatedPoly2.const(F(1), 6)
    for _ in range(n):
        expected = expected * p
    assert p**n == expected


def test_compose_requires_zero_constant():
    p = parse_poly("x*y", order=4)
    with pytest.raises(ValueError, match="zero constant"):
        p.compose(parse_poly("1", order=4), parse_poly("y", order=4))


# -- property tests ---------------------------------------------------------

coeffs_strategy = st.dictionaries(
    keys=st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda k: k[0] + k[1] <= 4),
    values=st.fractions(min_value=-4, max_value=4, max_denominator=5),
    max_size=6,
)


def _poly(coeffs):
    return TruncatedPoly2(coeffs, 4)


@settings(max_examples=60, deadline=None)
@given(coeffs_strategy, coeffs_strategy, coeffs_strategy)
def test_ring_laws_up_to_truncation(ca, cb, cc):
    p, q, r = _poly(ca), _poly(cb), _poly(cc)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p
    assert p * q == q * p


@settings(max_examples=60, deadline=None)
@given(coeffs_strategy)
def test_mixed_partials_commute(ca):
    p = _poly(ca)
    assert p.diff("x").diff("y") == p.diff("y").diff("x")


@settings(max_examples=60, deadline=None)
@given(coeffs_strategy)
def test_print_parse_roundtrip(ca):
    p = _poly(ca)
    reparsed = parse_poly(p.to_expression(), order=4)
    assert reparsed.coeffs == p.coeffs


@settings(max_examples=40, deadline=None)
@given(coeffs_strategy, coeffs_strategy, coeffs_strategy)
def test_germ_print_parse_roundtrip(ca, cb, cc):
    x = TruncatedPoly2.variable("x", 4)
    comps = [x]
    for c in (ca, cb, cc):
        comps.append(TruncatedPoly2({k: v for k, v in c.items() if k != (0, 0)}, 4))
    g = MapGermR4(comps)
    reparsed = parse_map_germ(g.to_expression(), order=4)
    assert reparsed == g


# -- jet extraction ---------------------------------------------------------


def test_extract_jet2_orbit_representative():
    g = parse_map_germ("(x, x*y, y^2, 0)", order=4)
    j = extract_jet2(g)
    assert (j.a11, j.b02) == (1, 1)
    others = [j.a20, j.a02, j.b20, j.b11, j.c20, j.c11, j.c02]
    assert all(v == 0 for v in others)


def test_extract_jet2_zero_germ():
    j = extract_jet2(parse_map_germ("(x, 0, 0, 0)", order=2))
    assert all(v == 0 for row in j.rows() for v in row)


def test_extract_jet2_composite_germ():
    g = parse_map_germ("(x, (y^3+x)^2, (y^3+x)^3, (y^3+x)^2*y)", order=6)
    j = extract_jet2(g)
    assert j.a20 == 1
    rest = [j.a11, j.a02, j.b20, j.b11, j.b02, j.c20, j.c11, j.c02]
    assert all(v == 0 for v in rest)


def test_extract_jet2_rejects_non_prenormal():
    g = parse_map_germ("(2*x, x*y, 0, 0)", order=4)
    with pytest.raises(ValueError, match="prenormal"):
        extract_jet2(g)


@settings(max_examples=40, deadline=None)
@given(coeffs_strategy, coeffs_strategy)
def test_jet2_extraction_is_linear(ca, cb):
    def prenormalize(c):
        return TruncatedPoly2(
            {k: v for k, v in c.items() if k not in ((0, 0), (1, 0), (0, 1))}, 4
        )

    x = TruncatedPoly2.variable("x", 4)
    zero = TruncatedPoly2.zero(4)
    pa, pb = prenormalize(ca), prenormalize(cb)
    ga = MapGermR4([x, pa, zero, zero])
    gb = MapGermR4([x, pb, zero, zero])
    gsum = MapGermR4([x, pa + pb, zero, zero])
    ja, jb, js = extract_jet2(ga), extract_jet2(gb), extract_jet2(gsum)
    for name in ("a20", "a11", "a02"):
        assert getattr(js, name) == getattr(ja, name) + getattr(jb, name)
