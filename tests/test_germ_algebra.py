"""Polynomial arithmetic, parsing, and 2-jet extraction."""

import random
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvpar.germs
from curvpar.germs import (
    MAX_COEFFICIENT,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_POWER_BITS,
    GermParseError,
    MapGermR4,
    TruncatedPoly2,
    _tokenize,
    extract_jet2,
    parse_map_germ,
    parse_poly,
    template_parameters,
)

from composition import compose, compose_source, diff, is_zero, rotate_target
from references import to_expression as reference_to_expression

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
        assert is_zero(comp)


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


# -- the parser against polynomial algebra on every token -------------------


_PLAIN_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([()+\-*/^,])|(\S))")


def plain_tokenize(text):
    """The parser's tokens before it read a monomial term as one token."""
    tokens = []
    for m in _PLAIN_TOKEN_RE.finditer(text):
        number, name, punct, other = m.groups()
        if number is not None:
            tokens.append(("int", number, m.start(1)))
        elif name is not None:
            tokens.append(("ident", name, m.start(2)))
        elif punct is not None:
            tokens.append((punct, punct, m.start(3)))
        else:
            raise GermParseError(f"unexpected character {other!r}", m.start(4))
    tokens.append(("eof", "", len(text)))
    return tokens


class ReferenceParser:
    """The germ parser as it was before it worked on monomial dicts.

    Every number, variable and parameter becomes a ``TruncatedPoly2``, and
    every product and power goes through ``TruncatedPoly2.__mul__`` and
    ``__pow__``.  Every number, name and operator is its own token.  The checks
    and their messages are the parser's.
    """

    def __init__(self, text, order, params=None):
        self.order = order
        self.params = params or {}
        self.tokens = plain_tokenize(text)
        self.idx = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise GermParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_germ(self):
        self.expect("(")
        comps = [self.parse_component()]
        for _ in range(3):
            self.expect(",")
            comps.append(self.parse_component())
        self.expect(")")
        self.expect_eof()
        return comps

    def expect_eof(self):
        tok = self.peek()
        if tok[0] != "eof":
            raise GermParseError(f"trailing input {tok[1]!r}", tok[2])

    def parse_component(self):
        pos = self.peek()[2]
        poly = self.parse_expr()
        if any(abs(c.numerator) > MAX_COEFFICIENT * c.denominator for c in poly.coeffs.values()):
            raise GermParseError("coefficient beyond the float range", pos)
        return poly

    def parse_expr(self):
        acc = {}
        op = self.advance()[0] if self.peek()[0] in ("+", "-") else "+"
        while True:
            for key, c in self.parse_term().coeffs.items():
                total = acc.get(key, 0) + c if op == "+" else acc.get(key, 0) - c
                if total == 0:
                    acc.pop(key, None)
                else:
                    acc[key] = total
            if self.peek()[0] not in ("+", "-"):
                return TruncatedPoly2(acc, self.order)
            op = self.advance()[0]

    def parse_term(self):
        acc = self.parse_factor()
        while self.peek()[0] == "*":
            self.advance()
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self):
        base = self.parse_base()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            exponent = int(tok[1])
            if exponent > MAX_EXPONENT:
                raise GermParseError(f"exponent {exponent} exceeds {MAX_EXPONENT}", tok[2])
            bits = max(
                (
                    max(q.numerator.bit_length(), q.denominator.bit_length())
                    for q in map(Fraction, base.coeffs.values())
                ),
                default=0,
            )
            if exponent * bits > MAX_POWER_BITS:
                raise GermParseError(
                    f"power of {bits}-bit coefficients to exponent {exponent} exceeds "
                    f"{MAX_POWER_BITS} bits",
                    tok[2],
                )
            base = base**exponent
        return base

    def parse_base(self):
        kind, value, pos = self.advance()
        if kind == "int":
            num = int(value)
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("int")
                den = int(den_tok[1])
                if den == 0:
                    raise GermParseError("zero denominator", den_tok[2])
                return TruncatedPoly2.const(Fraction(num, den), self.order)
            return TruncatedPoly2.const(Fraction(num), self.order)
        if kind == "ident":
            if value in ("x", "y"):
                return TruncatedPoly2.variable(value, self.order)
            if value in self.params:
                return TruncatedPoly2.const(self.params[value], self.order)
            raise GermParseError(f"unbound name {value!r}", pos)
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise GermParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return inner
        raise GermParseError(f"unexpected token {value!r}", pos)


def reference_parse_poly(text, order, params=None):
    parser = ReferenceParser(text, order, params)
    poly = parser.parse_component()
    parser.expect_eof()
    return poly


def reference_parse_map_germ(text, order, params=None):
    if order < 2:
        raise ValueError(f"jet order must be at least 2, got {order}")
    comps = ReferenceParser(text, order, params).parse_germ()
    for idx, p in enumerate(comps):
        if p.coefficient(0, 0) != 0:
            raise ValueError(
                f"component {idx + 1} has constant term {p.coefficient(0, 0)}; "
                "the germ must vanish at the origin"
            )
    return MapGermR4(comps)


# t is a rational parameter, u an integer one (its powers are Fractions, its
# products ints) and z a zero one
PARAMS = {"t": F(-3, 2), "u": 3, "z": F(0)}


def random_expr(rng, depth):
    terms = [random_term(rng, depth) for _ in range(rng.randint(1, 4))]
    text = ("-" if rng.random() < 0.3 else "") + terms[0]
    for term in terms[1:]:
        text += f" {rng.choice('+-')} {term}"
    if rng.random() < 0.3:
        term = random_term(rng, depth)
        text += f" + {term} - {term}"
    return text


def random_term(rng, depth):
    return "*".join(random_factor(rng, depth) for _ in range(rng.randint(1, 4)))


def random_factor(rng, depth):
    base = random_base(rng, depth)
    if rng.random() < 0.4:
        base += f"^{rng.choice([0, 1, 2, 3, 5])}"
    return base


def random_base(rng, depth):
    kind = rng.choice(["int", "rational", "x", "y", "param"] + ["paren"] * (depth > 0))
    if kind == "int":
        return str(rng.choice([0, 1, 2, 7, 12]))
    if kind == "rational":
        return f"{rng.randint(0, 9)}/{rng.randint(1, 9)}"
    if kind == "param":
        return rng.choice(sorted(PARAMS))
    if kind == "paren":
        return "(" + random_expr(rng, depth - 1) + ")"
    return kind


def mutate(rng, text):
    """The text with one character deleted or one inserted."""
    at = rng.randrange(len(text) + 1)
    if rng.random() < 0.5:
        return text[:at] + text[at + 1:]
    return text[:at] + rng.choice("()+-*/^,xy0937 \u0663$") + text[at:]


def parse_outcome(parse, text, order):
    """Coefficients with their types and key order, or the error raised."""
    try:
        result = parse(text, order, PARAMS)
    except GermParseError as exc:
        return ("parse error", exc.message, exc.position)
    except ValueError as exc:
        return ("value error", str(exc))
    comps = result.components if isinstance(result, MapGermR4) else [result]
    return [(p.order, [(key, type(c), c) for key, c in p.coeffs.items()]) for p in comps]


def random_germ(rng):
    comps = []
    for _ in range(3):
        expr = random_expr(rng, 2)
        if rng.random() < 0.5:
            comps.append(rng.choice(["y*({})", "({})*x^2 - x"]).format(expr))
        else:
            # an expanded component: a sum of monomials
            coeffs = dict(parse_poly(expr, 6, PARAMS).coeffs)
            coeffs.pop((0, 0), None)
            comps.append(TruncatedPoly2(coeffs, 6).to_expression())
    return "(x, " + ", ".join(comps) + ")"


# 5001 digits, past the 4300 that int reads from a string by default
LONG_DIGITS = "1" + "0" * 5000
LONG_DIGITS_GERM = "(x, y^2 +, 0, " + LONG_DIGITS + "*x)"


def test_parser_matches_polynomial_algebra_reference():
    rng = random.Random(20261018)
    exprs = [random_expr(rng, 3) for _ in range(100)]
    exprs += [mutate(rng, e) for e in exprs[:40]]
    exprs += ["x^0", "0^0", "z^0*x", "(y^3+x)^2", "(x - x)^3", "-(-(x*y))", "(10^60)^6"]
    exprs += ["u", "u*u*x", "u^2", "u^0 - y", "u^3*y^2 - x"]
    # the edges of a monomial term read as one token: a term that raises, one
    # after "^", terms in another factor order, and terms with no "*"
    exprs += ["2^2*x", "3/4^2*x", "1/0*x", "0/0*y", "x^65", "x^2^3"]
    exprs += ["2*x*(1+y)", "3*2*x", "x*2", "y*x", "x*x*y", "-0*x", "x^0", "u*x^2"]
    exprs += ["2x", "x2", "xy", "3 / 4 * x ^ 2"]
    # digit groups past int's string limit, after an earlier syntax error or
    # none, and terms at and past the 309 digits of a term token
    exprs += ["x +) + " + LONG_DIGITS + "*y", LONG_DIGITS + "*x", "x^" + LONG_DIGITS]
    exprs += ["7" * 309 + "/" + "3" * 309 + "*x", "1/1" + "0" * 400 + "*x*y"]
    # the edges of a run of terms read as one token: a run cut by a term that
    # raises, a run after a unary minus, a one-term run as a factor after "*",
    # a term that cancels, and comes back, with dropped terms between its
    # copies, runs whose terms are all above the order, digit groups of 309
    # and 310 digits on dropped terms, exponents with a leading zero, and runs
    # after a term where none starts
    exprs += ["x + 1/0*y + y^2", "y - x^65 + x", "-x*y + y^2", "(1+x)*3*x^2 + y"]
    exprs += ["x*y - x^3 + y^2 - x*y + x^3", "x*y - x^3 + y^2 - x*y + x^3 + 2*x*y"]
    exprs += ["x^7 - 2*x^3*y^4 + y^8", "(1 + x)*(x^4*y^3 - y^9)"]
    exprs += ["x + " + "3" * 310 + "*x^7 + y", "x + " + "3" * 309 + "*x^7 + y", "y^2 - x^05 + x^064"]
    exprs += ["(x + y)^2*y - x*y + y^2 - x^3", "2^3*x - x^2 + y"]
    germs = [random_germ(rng) for _ in range(30)]
    germs += [mutate(rng, g) for g in germs[:15]]
    # a germ whose first token is a complete term: the error quotes its first plain token
    germs += ["2*x, y^2, 0, 0)", "x^2*y)"]
    germs += [LONG_DIGITS_GERM]
    germs += ["(x, x*y - x^3 + y^2 - x*y + x^3, -x*y + y^2, (1+x)*3*x^2 + y)"]
    germs += ["(-x + x^7, y - x^65 + x, x + 1/0*y + y^2, 0)", "(x, x^7 - y^8, 2*x*y + x^9*y^0, y^2)"]
    for order in range(7):
        for text in exprs:
            want = parse_outcome(reference_parse_poly, text, order)
            assert parse_outcome(parse_poly, text, order) == want, (text, order)
        for text in germs:
            want = parse_outcome(reference_parse_map_germ, text, order)
            assert parse_outcome(parse_map_germ, text, order) == want, (text, order)


def test_flat_germ_of_many_terms_matches_the_reference():
    text = "(x, " + " + ".join(["1/3*x*y"] * 20000) + ", y^2 - 2*x*y^2, 0)"
    got = parse_outcome(parse_map_germ, text, 6)
    assert got == parse_outcome(reference_parse_map_germ, text, 6)
    assert got[1][1] == [((1, 1), F, F(20000, 3))]


def expanded_moved_germ():
    """A germ moved by a rational source change and target map, as expanded text."""
    g = parse_map_germ("(x, x*y + 2/3*y^5, y^2 - 1/2*x^3, x^2 + x*y^4)")
    px = parse_poly("3/2*x - 1/3*y + 2/5*x*y - y^2")
    py = parse_poly("1/4*x + 5/7*y - 1/2*x^2")
    moved = rotate_target(
        compose_source(g, px, py),
        [[1, F(1, 3), 0, -2], [0, 1, F(-3, 4), 0], [F(2, 9), 0, 1, 1], [0, 5, 0, 1]],
    )
    return moved.to_expression(), moved


def test_expanded_monomial_input_does_no_polynomial_algebra(monkeypatch):
    text, moved = expanded_moved_germ()
    assert len(text) > 1000 and "^" in text

    def refuse(*_):
        raise AssertionError("polynomial arithmetic on a single monomial")

    for name in ("__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(TruncatedPoly2, name, refuse)
    assert parse_map_germ(text) == moved
    with pytest.raises(AssertionError, match="single monomial"):
        parse_poly("(y^3+x)^2")
    with pytest.raises(AssertionError, match="single monomial"):
        parse_poly("(1+x)*(1-y)")


def test_terms_above_the_order_build_no_fraction(monkeypatch):
    text, moved = expanded_moved_germ()
    low = moved.truncated(2)
    kept = sum(len(p.coeffs) for p in low.components)
    assert sum(len(p.coeffs) for p in moved.components) > 3 * kept
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr("curvpar.germs.Fraction", counting)
    assert parse_map_germ(text, 2) == low
    # one Fraction for each term of degree at most 2, and none for the others
    assert len(built) == kept


def test_truncation_keeps_the_terms_in_their_order():
    # the FD oracle's evaluate sums the truncated jet's terms in this order
    _, moved = expanded_moved_germ()
    for order in (0, 1, 2, 4, 6, 9):
        low = moved.truncated(order)
        for p, q in zip(low.components, moved.components):
            assert p.order == min(order, q.order)
            assert list(p.coeffs.items()) == [(k, c) for k, c in q.coeffs.items() if sum(k) <= order]
            assert p == TruncatedPoly2(q.coeffs, p.order)
    with pytest.raises(ValueError, match="non-negative"):
        moved.truncated(-1)


def test_a_flat_germ_is_one_run_token_per_component():
    text, _ = expanded_moved_germ()
    kinds = [tok[0] for tok in _tokenize(text, 2)]
    assert kinds.count("run") == 4
    assert {kind for kind in kinds if kind != "run"} <= set("(),-") | {"eof"}
    # after "^" no term starts: its first term is read as plain tokens, and a
    # run starts after it
    kinds = [tok[0] for tok in _tokenize("(x + y)^2*y - x*y + y^2 - x^3", 2)]
    assert kinds == ["(", "run", ")", "^", "int", "*", "ident", "-", "run", "eof"]


@pytest.mark.parametrize("variable", ["x", "y"])
def test_a_run_spells_exactly_the_exponents_up_to_the_maximum(variable):
    for k in range(100):
        for spelling in (str(k), f"0{k}"):
            kinds = [tok[0] for tok in _tokenize(f"{variable}^{spelling} + 1", 6)]
            assert (kinds == ["run", "eof"]) == (spelling == str(k) and k <= MAX_EXPONENT), spelling


def test_parser_matches_the_reference_on_the_benchmark_texts(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import run  # perfbench/run.py

    for workload in ("rational_moved", "exact_prenormal"):
        texts = [spec["text"] for spec in run.make_workload(workload, 7)[0]]
        assert len(texts) > 100
        for text in texts:
            for order in (2, 6):
                want = parse_outcome(reference_parse_map_germ, text, order)
                assert parse_outcome(parse_map_germ, text, order) == want, (workload, text, order)


@pytest.mark.parametrize(
    "text, coeffs",
    [
        # 10^5 terms
        (" + ".join(["1/3*x*y", "2*x^3"] * 50_000), {(1, 1): F(50_000, 3)}),
        # 10^3 terms, each followed by 10^3 blanks
        ((" " * 1000 + "- ").join(["5/7*x*y^2", "y^2"] * 500) + " " * 1000, {(0, 2): -500}),
    ],
    ids=["many_terms", "many_blanks"],
)
def test_a_long_run_parses_in_linear_time(text, coeffs):
    t0 = time.perf_counter()
    poly = parse_poly(text, 2)
    assert time.perf_counter() - t0 < 10.0
    assert poly.coeffs == coeffs


def test_multi_term_operands_reach_polynomial_algebra(monkeypatch):
    calls = []
    for name in ("__mul__", "__pow__"):
        method = getattr(TruncatedPoly2, name)

        def record(self, other, _name=name, _method=method):
            calls.append(_name)
            return _method(self, other)

        monkeypatch.setattr(TruncatedPoly2, name, record)
    assert parse_poly("(y^3+x)^2").coeffs == {(2, 0): 1, (1, 3): 2, (0, 6): 1}
    assert calls[0] == "__pow__"
    calls.clear()
    assert parse_poly("(1+x)*(1-y)").coeffs == {(0, 0): 1, (1, 0): 1, (0, 1): -1, (1, 1): -1}
    assert calls[0] == "__mul__"
    calls.clear()
    parse_poly("2/3*x^2*y - y^4")
    assert calls == []


@pytest.mark.parametrize(
    "base, bits, exponent",
    [
        # 64-bit numerator: 64 * 64 is the budget itself, 64 * 63 below it
        (f"{2**63}*x", 64, 64),
        (f"{2**63}*x", 64, 63),
        # 65-bit numerator or denominator: just over at exponent 64, just under at 63
        (f"{2**64}*x", 65, 64),
        (f"{2**64}*x", 65, 63),
        (f"1/{2**64}*y", 65, 64),
        (f"y*1/{2**64}", 65, 63),
    ],
)
def test_power_bit_budget_on_a_single_monomial(base, bits, exponent):
    text = f"(x, y^2 + ({base})^{exponent}, 0, 0)"
    want = parse_outcome(reference_parse_map_germ, text, 6)
    got = parse_outcome(parse_map_germ, text, 6)
    assert got == want
    if bits * exponent > MAX_POWER_BITS:
        assert got == (
            "parse error",
            f"power of {bits}-bit coefficients to exponent {exponent} "
            f"exceeds {MAX_POWER_BITS} bits",
            text.index(f"^{exponent}") + 1,
        )
    else:
        # the power's degree is above the order, so only y^2 is left
        assert got[1][1] == [((0, 2), F, 1)]


def test_template_parameters_and_binding():
    text = "(x, x*y, t*x^2 + y^2, 0)"
    assert template_parameters(text) == ["t"]
    # a number past int's digit limit is a plain token, which the scan never reads
    assert template_parameters(LONG_DIGITS_GERM) == []
    g = parse_map_germ(text, order=4, params={"t": F(-1, 2)})
    assert g.components[2].coeffs == {(2, 0): F(-1, 2), (0, 2): 1}


def test_float_binding_is_refused_by_name():
    with pytest.raises(TypeError, match=r"parameter 't' is bound to 0\.5: bindings must be rational"):
        parse_map_germ("(x, x*y, t*x^2 + y^2, 0)", params={"t": 0.5})


def test_differentiate_examples():
    y2 = parse_poly("y^2", order=4)
    assert diff(y2, "y").coeffs == {(0, 1): 2}
    p = parse_poly("x^2 + 2*x*y^3", order=6)
    assert diff(p, "x").coeffs == {(1, 0): 2, (0, 3): 2}
    # second y-derivative of (y^3+x)^2 at order 4 vanishes at the origin
    q = parse_poly("(y^3+x)^2", order=4)
    d2 = diff(diff(q, "y"), "y")
    assert d2.evaluate(0, 0) == 0


def test_differentiate_drops_order():
    p = parse_poly("x^3 + y^3", order=3)
    assert diff(p, "x").order == 2


def test_multiplication_truncates_to_min_order():
    a = parse_poly("x^2", order=6)
    b = parse_poly("y^2", order=3)
    assert (a * b).order == 3
    assert is_zero(a * b)  # degree 4 > 3


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
        compose(p, parse_poly("1", order=4), parse_poly("y", order=4))


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
    assert diff(diff(p, "x"), "y") == diff(diff(p, "y"), "x")


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


COEFFICIENT_TYPES = (Fraction, int, float, np.float64, np.float32, np.int64)


def random_coefficient(rnd):
    """A coefficient of a random type: +-1 and small integers often, else a fraction or a float."""
    kind = rnd.choice(COEFFICIENT_TYPES)
    raw = rnd.choice([1, -1, rnd.randint(-9, 9), F(rnd.randint(-9, 9), rnd.randint(1, 9)), rnd.uniform(-5, 5)])
    if kind in (int, np.int64):
        return kind(int(raw))
    return F(raw) if kind is Fraction else kind(float(raw))


def test_to_expression_matches_the_reference_printer():
    rnd = random.Random(20261019)
    polys = [
        TruncatedPoly2({}, 0),
        TruncatedPoly2({}, 8),
        TruncatedPoly2({(0, 0): F(5, 3)}, 0),
        TruncatedPoly2({(0, 0): -1.0, (1, 0): 1.0, (0, 1): -1.0, (2, 0): 1, (1, 1): -1}, 2),
        TruncatedPoly2({(0, 0): 1, (0, 2): F(-1), (3, 0): np.float32(-1.0), (1, 2): np.int64(1)}, 3),
        TruncatedPoly2({(1, 0): float("nan"), (0, 1): float("inf"), (2, 0): -float("inf")}, 2),
    ]
    for order in range(9):
        for _ in range(100):
            keys = [(i, d - i) for d in range(order + 1) for i in range(d + 1)]
            chosen = rnd.sample(keys, rnd.randint(0, len(keys)))
            polys.append(TruncatedPoly2({k: random_coefficient(rnd) for k in chosen}, order))
    # sparse polynomials of high order, and a dense one with more monomials
    # than the cache of printed monomials holds
    for order in (64, 200):
        keys = [(i, d - i) for d in range(order + 1) for i in range(d + 1)]
        for _ in range(100):
            chosen = rnd.sample(keys, rnd.randint(1, 5))
            polys.append(TruncatedPoly2({k: random_coefficient(rnd) for k in chosen}, order))
    dense = {(i, d - i): random_coefficient(rnd) for d in range(51) for i in range(d + 1)}
    assert len(dense) > 1024
    polys += [TruncatedPoly2(dense, 50)] * 2
    for p in polys:
        assert p.to_expression() == reference_to_expression(p), p.coeffs


def test_to_expression_matches_the_reference_printer_on_random_germs():
    rnd = random.Random(20261020)
    for _ in range(300):
        order = rnd.randint(1, 8)
        keys = [(i, d - i) for d in range(1, order + 1) for i in range(d + 1)]  # no constant term
        comps = [
            TruncatedPoly2({k: random_coefficient(rnd) for k in rnd.sample(keys, rnd.randint(0, len(keys)))}, order)
            for _ in range(4)
        ]
        want = "(" + ", ".join(reference_to_expression(p) for p in comps) + ")"
        assert MapGermR4(comps).to_expression() == want


# +-1 often, which print as the bare monomial, and each coefficient type
PRINTED_COEFFICIENT = st.one_of(
    st.sampled_from([1, -1, F(1), F(-1), 1.0, -1.0]),
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8).flatmap(
    lambda order: st.tuples(
        st.just(order),
        st.lists(
            st.tuples(st.integers(0, order), st.integers(0, order)).filter(lambda k: sum(k) <= order),
            unique=True,
            max_size=(order + 1) * (order + 2) // 2,
        ),
    )
), st.data())
def test_to_expression_equals_the_reference_printer(order_keys, data):
    # keys in random order, sparse or dense supports and mixed coefficient
    # types: the cached print order of a key set sorts as the reference does
    order, keys = order_keys
    p = TruncatedPoly2({k: data.draw(PRINTED_COEFFICIENT) for k in keys}, order)
    assert p.to_expression() == reference_to_expression(p)
    assert TruncatedPoly2(dict(reversed(p.coeffs.items())), order).to_expression() == reference_to_expression(p)


def test_the_print_order_cache_is_bounded():
    assert curvpar.germs._print_order.cache_info().maxsize is not None


def test_a_sparse_high_order_polynomial_prints_its_terms_in_order():
    p = TruncatedPoly2({(64, 0): 1.5, (3, 7): -2, (0, 0): F(1, 3), (0, 1): np.float64(-1.0)}, 64)
    assert p.to_expression() == "1/3 - y - 2*x^3*y^7 + 1.5*x^64"


def test_to_expression_matches_the_reference_printer_on_the_float_germs(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import run  # perfbench/run.py
    import worker  # perfbench/worker.py

    specs = run.make_workload("float_moved", 7)[0]
    assert len(specs) > 100
    for spec in specs:
        g = worker.build(spec, (MapGermR4, TruncatedPoly2))
        want = "(" + ", ".join(reference_to_expression(p) for p in g.components) + ")"
        assert g.to_expression() == want


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
