"""Exact truncated bivariate polynomial arithmetic and the germ expression parser.

Coefficients are ``fractions.Fraction`` on the parsing path, so every 2-jet
criterion downstream can be decided without tolerances.  The same containers
carry float coefficients after numeric frame changes; all arithmetic here is
agnostic to the coefficient type.

The parser works on monomial dicts ``{(i, j): coeff}``, and products and
powers go through ``TruncatedPoly2``.  The tokenizer reads a run of complete
monomial terms joined by signs as one token, so an expanded germ is parsed
without polynomial algebra, and a term of the run above the truncation order
is checked by the grammar but never converted.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from .config import DEFAULT_TOL
from .linalg import float_multiple, is_exact_scalar, negligible, scale_of

__all__ = [
    "GermParseError",
    "TruncatedPoly2",
    "MapGermR4",
    "Jet2",
    "parse_map_germ",
    "parse_poly",
    "template_parameters",
    "extract_jet2",
]


class GermParseError(ValueError):
    """Germ expression does not match the grammar (carries the input position)."""

    def __init__(self, message, position):
        super().__init__(f"parse error at position {position}: {message}")
        self.message = message
        self.position = position


@lru_cache(maxsize=1024)
def _print_term(key: tuple) -> tuple:
    """``(i + j, i, key, monomial)`` for ``key = (i, j)``, the monomial as the
    grammar writes it (``x*y^2``, ``x``, ``""`` for the constant); the tuples
    sort in print order."""
    i, j = key
    x = "" if not i else "x" if i == 1 else f"x^{i}"
    y = "" if not j else "y" if j == 1 else f"y^{j}"
    return i + j, i, key, f"{x}*{y}" if x and y else x or y


def _coeff_text(c) -> str:
    return str(c) if isinstance(c, (Fraction, int)) else repr(float(c))


class TruncatedPoly2:
    """Bivariate polynomial truncated at a fixed total degree.

    Stored as a map (i, j) -> coefficient with i + j <= order; zero
    coefficients are never stored.  Instances are immutable; arithmetic
    returns new objects re-truncated to the smaller operand order.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        clean = {}
        for (i, j), c in coeffs.items():
            if i + j <= order and c != 0:
                clean[(i, j)] = c
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("TruncatedPoly2 is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedPoly2":
        return cls({}, order)

    @classmethod
    def const(cls, value, order: int) -> "TruncatedPoly2":
        return cls({(0, 0): value}, order)

    @classmethod
    def from_terms(cls, coeffs: dict, order: int) -> "TruncatedPoly2":
        """The polynomial on ``coeffs`` as it is, a dict of nonzero terms of degree
        at most ``order`` that the caller no longer changes: no term is re-checked."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        object.__setattr__(p, "order", order)
        return p

    @classmethod
    def variable(cls, name: str, order: int) -> "TruncatedPoly2":
        if name == "x":
            return cls({(1, 0): _ONE}, order)
        if name == "y":
            return cls({(0, 1): _ONE}, order)
        raise ValueError(f"unknown variable {name!r}")

    # -- queries ------------------------------------------------------

    def coefficient(self, i: int, j: int):
        return self.coeffs.get((i, j), 0)

    @property
    def is_exact(self) -> bool:
        return all(is_exact_scalar(c) for c in self.coeffs.values())

    def __eq__(self, other):
        if not isinstance(other, TruncatedPoly2):
            return NotImplemented
        return self.coeffs == other.coeffs and self.order == other.order

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()), self.order))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "TruncatedPoly2") -> "TruncatedPoly2":
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return TruncatedPoly2(out, order)

    def __sub__(self, other: "TruncatedPoly2") -> "TruncatedPoly2":
        return self + (-other)

    def __neg__(self) -> "TruncatedPoly2":
        return TruncatedPoly2({k: -c for k, c in self.coeffs.items()}, self.order)

    def __mul__(self, other):
        if isinstance(other, TruncatedPoly2):
            order = min(self.order, other.order)
            out = {}
            for (i1, j1), c1 in self.coeffs.items():
                for (i2, j2), c2 in other.coeffs.items():
                    i, j = i1 + i2, j1 + j2
                    if i + j > order:
                        continue
                    key = (i, j)
                    out[key] = out.get(key, 0) + c1 * c2
            return TruncatedPoly2(out, order)
        return TruncatedPoly2({k: c * other for k, c in self.coeffs.items()}, self.order)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncatedPoly2":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = TruncatedPoly2.const(_ONE, self.order)
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def evaluate(self, x, y):
        total = 0
        for (i, j), c in self.coeffs.items():
            total += c * x**i * y**j
        return total

    def map_coeffs(self, fn) -> "TruncatedPoly2":
        return TruncatedPoly2({k: fn(c) for k, c in self.coeffs.items()}, self.order)

    def to_float(self) -> "TruncatedPoly2":
        return self.map_coeffs(float)

    # -- printing -----------------------------------------------------

    def to_expression(self) -> str:
        """Render in the germ grammar's notation, other coefficients as ``repr(float(c))``.

        Terms print by total degree, then by the power of x.  Reparsing
        recovers exact coefficients only: the grammar reads no decimals, so
        ``(x, 1.5*x*y, y^2, 0)`` does not parse.
        """
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for _, _, key, mono in sorted(map(_print_term, coeffs)):
            c = coeffs[key]
            if c > 0:
                parts.append(" + ")
                mag = c
            else:
                parts.append(" - ")
                mag = -c
            if mag != 1 or not mono:
                text = repr(mag) if type(mag) is float else _coeff_text(mag)
                parts.append(f"{text}*{mono}" if mono else text)
            else:
                parts.append(mono)
        parts[0] = "" if parts[0] == " + " else "-"
        return "".join(parts)

    def __repr__(self):
        return f"TruncatedPoly2({self.to_expression()!r}, order={self.order})"


class MapGermR4:
    """Polynomial map germ (R^2, 0) -> (R^4, 0): four truncated components of one order."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if len(components) != 4:
            raise ValueError("a map germ into R^4 needs exactly 4 components")
        orders = {p.order for p in components}
        if len(orders) != 1:
            raise ValueError("all components must share one truncation order")
        for idx, p in enumerate(components):
            if p.coefficient(0, 0) != 0:
                raise ValueError(f"component {idx + 1} has a non-zero constant term")
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MapGermR4 is immutable")

    @property
    def order(self) -> int:
        return self.components[0].order

    @property
    def is_exact(self) -> bool:
        return all(p.is_exact for p in self.components)

    def __eq__(self, other):
        if not isinstance(other, MapGermR4):
            return NotImplemented
        return self.components == other.components

    def jacobian_at_origin(self):
        """4x2 matrix of first-order coefficients (rows: components)."""
        return [
            [p.coefficient(1, 0), p.coefficient(0, 1)] for p in self.components
        ]

    def evaluate(self, x, y):
        return [p.evaluate(x, y) for p in self.components]

    def to_float(self) -> "MapGermR4":
        return MapGermR4([p.to_float() for p in self.components])

    def truncated(self, order: int) -> "MapGermR4":
        """The germ truncated at ``order``, or at its own order when that is lower.

        One degree filter per component keeps the terms in their order, which
        ``evaluate`` sums in."""
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        low = [{k: c for k, c in p.coeffs.items() if k[0] + k[1] <= order} for p in self.components]
        return MapGermR4([TruncatedPoly2.from_terms(d, min(p.order, order)) for d, p in zip(low, self.components)])

    def is_prenormal(self, tol: float = 0.0) -> bool:
        """First component x, components 2..4 with vanishing 1-jet.

        Rational coefficients must vanish exactly; float ones, the first
        component's non-x terms included, may stay within ``tol``.
        """
        first = self.components[0]
        terms = [first.coefficient(1, 0) - 1]
        terms += [c for k, c in first.coeffs.items() if k != (1, 0)]
        terms += [p.coefficient(*k) for p in self.components[1:] for k in ((1, 0), (0, 1))]
        return all(negligible(c, tol) for c in terms)

    def to_expression(self) -> str:
        return "(" + ", ".join([p.to_expression() for p in self.components]) + ")"

    def __repr__(self):
        return f"MapGermR4({self.to_expression()!r}, order={self.order})"


# ---------------------------------------------------------------------------
# Parser.  Grammar (whitespace insignificant):
#   germ     := "(" expr "," expr "," expr "," expr ")"
#   expr     := ("+"|"-")? term (("+"|"-") term)*
#   term     := factor ("*" factor)*
#   factor   := base ("^" uint)?
#   base     := "x" | "y" | ident | rational | "(" expr ")"
#   rational := uint ("/" uint)?
# ``ident`` covers sweep-template parameters bound through ``params``.  The
# tokenizer reads a run of complete monomial terms such as
# ``3/4*x^2*y - x + 2*y^3`` as one token wherever a term can start; the
# grammar it parses is the same.  A term of the run above the truncation
# order is checked by this syntax but its digits are never converted.
# ---------------------------------------------------------------------------

# Digits and names are ASCII: ``\d`` and ``\w`` would also match other
# scripts' digits, which ``int`` reads.  The group ``other`` catches any
# other character, so that every non-blank character of the input is either
# a token or reported at its position.
_PLAIN = r"(?P<int>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[()+\-*/^,])|(?P<other>\S)"
_PLAIN_RE = re.compile(r"\s*(?:" + _PLAIN + ")")

# Bounds that keep hostile input from exhausting the stack or the memory:
# parentheses nest at most MAX_NESTING deep, and an exponent above
# MAX_EXPONENT is refused before the power is expanded.  Nested powers
# multiply the size of the coefficients at each level, so a power is also
# refused when the exponent times the largest numerator or denominator bit
# length of its base exceeds MAX_POWER_BITS.
MAX_NESTING = 100
MAX_EXPONENT = 64
MAX_POWER_BITS = 4096
# Norms, frames and every float-path decision read the coefficients as floats.
MAX_COEFFICIENT = int(sys.float_info.max)
_ONE = Fraction(1)

# A complete monomial term: ``N[/D]``, ``x[^i]`` and ``y[^j]``, at least one
# of them, in that order, joined by ``*`` and followed by a term boundary.
# The pattern holds no term whose reading raises, so such a term is read as
# plain tokens, whose parse raises the error at its position: a denominator
# is not zero, an exponent is at most MAX_EXPONENT (``[1-5]?[0-9]|6[0-4]``
# spells 0 to 64 with no leading zero), and a digit group has at most 309
# digits, those of the largest float, so that ``int``'s own digit limit
# (never below 640 digits) raises, if at all, in the parser's order.  No
# quantifier repeats an ambiguous pattern, so matching stays linear.
_TERM_END = r"(?=\s*(?:[-+,)]|\Z))"
_DIGITS = r"[0-9]{1,309}"
_EXPONENT = r"(?:\^(?:[1-5]?[0-9]|6[0-4]))?"
_X, _Y = "x" + _EXPONENT, "y" + _EXPONENT
_TERM = (
    r"(?:" + _DIGITS + r"(?:/(?=0{0,308}[1-9])" + _DIGITS + r")?(?:\*" + _X + r")?(?:\*" + _Y + r")?"
    r"|" + _X + r"(?:\*" + _Y + r")?|" + _Y + ")" + _TERM_END
)
# A run: a maximal sequence of terms joined by signs.
_TOKEN_RE = re.compile(r"\s*(?:(?P<run>" + _TERM + r"(?:\s*[-+]\s*" + _TERM + r")*)|" + _PLAIN + ")")
# The sign (none on the first term), coefficient, power of x and power of y
# of each term of a run that _TOKEN_RE has checked.
_RUN_TERM_RE = re.compile(r"\s*([-+]?)\s*(?=[0-9xy])([0-9/]*)\*?(x(?:\^[0-9]+)?)?\*?(y(?:\^[0-9]+)?)?")
# The exponent of each power a term can spell, such as "x^2", and 0 for none.
_EXPONENTS = {"": 0, "x": 1, "y": 1, **{f"{v}^{k}": k for v in "xy" for k in range(MAX_EXPONENT + 1)}}
# the tokens after which a term or a factor starts, as at the start of the text
_TERM_START = frozenset("(,+-*")


def _run_terms(text: str, start: int, end: int, sign: str, order: int):
    """``[((i, j), c)]`` of the terms of the run ``text[start:end]`` of degree at most ``order``.

    ``c`` carries the term's sign, and ``sign`` is that of the first term.
    Zero coefficients are left out, and a term above the order is skipped
    before its coefficient is read.
    """
    terms = []
    for s, coeff, x, y in _RUN_TERM_RE.findall(text, start, end):
        i, j = _EXPONENTS[x], _EXPONENTS[y]
        if i + j > order:
            continue
        num, _, den = coeff.partition("/")
        n = int(num) if num else 1
        if n:
            if (s or sign) == "-":
                n = -n
            terms.append(((i, j), Fraction(n, int(den)) if den else Fraction(n)))
    return terms


def _tokenize(text: str, order: int):
    """Tokens ``(kind, text, position)``, and ``("run", text, position, terms)``.

    Wherever a term can start, a run of complete monomial terms
    ``c*x^i*y^j`` joined by ``+`` and ``-`` is one ``run`` token.  Its
    ``terms`` are the ``((i, j), c)`` of ``_run_terms``: a term above
    ``order`` is checked by the syntax but never converted, and each ``c``
    is signed, the first by the sign token before the run, if any, which
    the parser reads as the operator of that term.  After ``*`` a run is
    one term, a factor.  The token's text is that of its first plain token,
    so an error message quotes what it would quote for the plain tokens.
    Where no term can start, such as after ``^``, the first term of a match
    is read as plain tokens, and a run may start after it.
    """
    tokens = []
    pos = 0
    while m := _TOKEN_RE.match(text, pos):
        pos = m.end()
        if m.lastgroup == "run":
            start = m.start("run")
            prev = tokens[-1][0] if tokens else "("
            if prev == "*" or prev not in _TERM_START:
                # a factor, or no term: the first term alone
                pos = _RUN_TERM_RE.match(text, start).end()
            if prev in _TERM_START:
                first = _PLAIN_RE.match(text, start)
                terms = _run_terms(text, start, pos, prev if prev == "-" else "+", order)
                tokens.append(("run", first.group(first.lastgroup), start, terms))
                continue
            plain = _PLAIN_RE.finditer(text, start, pos)
        else:
            plain = (m,)
        for m in plain:
            kind = m.lastgroup
            value = m.group(kind)
            if kind == "other":
                raise GermParseError(f"unexpected character {value!r}", m.start(kind))
            tokens.append((value if kind == "punct" else kind, value, m.start(kind)))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over monomial dicts ``{(i, j): coeff}``.

    Each dict holds only monomials of total degree at most ``order`` with
    non-zero coefficients.  A leaf, such as a complete monomial term read as
    one token, builds its dict directly; products and powers, such as
    ``(y^3+x)^2``, go through ``TruncatedPoly2``'s arithmetic, and
    ``parse_component`` wraps each component in one ``TruncatedPoly2``.
    """

    def __init__(self, text: str, order: int, params=None):
        self.text = text
        self.order = order
        self.params = params or {}
        for name, value in self.params.items():
            if not isinstance(value, (int, Fraction)):
                raise TypeError(f"parameter {name!r} is bound to {value!r}: bindings must be rational")
        self.tokens = _tokenize(text, order)
        self.idx = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise GermParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_germ(self) -> MapGermR4:
        self.expect("(")
        comps = [self.parse_component()]
        for _ in range(3):
            self.expect(",")
            comps.append(self.parse_component())
        self.expect(")")
        tok = self.peek()
        if tok[0] != "eof":
            raise GermParseError(f"trailing input {tok[1]!r}", tok[2])
        return comps

    def parse_component(self) -> TruncatedPoly2:
        """An expression whose coefficients all have float values."""
        pos = self.peek()[2]
        coeffs = self.parse_expr()
        if any(abs(c.numerator) > MAX_COEFFICIENT * c.denominator for c in coeffs.values()):
            raise GermParseError("coefficient beyond the float range", pos)
        return TruncatedPoly2(coeffs, self.order)

    def parse_expr(self) -> dict:
        # A coefficient that cancels is deleted at once: this keeps the key
        # order of adding the terms as polynomials, which float sums follow.
        acc = {}
        op = self.advance()[0] if self.peek()[0] in ("+", "-") else "+"
        while True:
            tok = self.peek()
            if tok[0] == "run":
                # its coefficients are signed, the first by op
                self.idx += 1
                terms = tok[3]
            else:
                # +c is 0 + c without int-Fraction arithmetic: c is never zero
                terms = [(key, +c if op == "+" else -c) for key, c in self.parse_term().items()]
            for key, c in terms:
                if key not in acc:
                    acc[key] = c
                    continue
                total = acc[key] + c
                if total == 0:
                    acc.pop(key, None)
                else:
                    acc[key] = total
            if self.peek()[0] not in ("+", "-"):
                return acc
            op = self.advance()[0]

    def parse_term(self) -> dict:
        acc = self.parse_factor()
        while self.peek()[0] == "*":
            self.advance()
            factor = self.parse_factor()
            acc = (TruncatedPoly2(acc, self.order) * TruncatedPoly2(factor, self.order)).coeffs
        return acc

    def parse_factor(self) -> dict:
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
                    for q in map(Fraction, base.values())
                ),
                default=0,
            )
            if exponent * bits > MAX_POWER_BITS:
                raise GermParseError(
                    f"power of {bits}-bit coefficients to exponent {exponent} exceeds "
                    f"{MAX_POWER_BITS} bits",
                    tok[2],
                )
            return (TruncatedPoly2(base, self.order) ** exponent).coeffs
        return base

    def parse_base(self) -> dict:
        tok = self.advance()
        if tok[0] == "run":
            # a factor after "*": one term
            return dict(tok[3])
        kind, value, pos = tok
        if kind == "int":
            num = int(value)
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("int")
                den = int(den_tok[1])
                if den == 0:
                    raise GermParseError("zero denominator", den_tok[2])
                return {(0, 0): Fraction(num, den)} if num else {}
            return {(0, 0): Fraction(num)} if num else {}
        if kind == "ident":
            if value in ("x", "y"):
                if self.order < 1:
                    return {}
                return {(1, 0): _ONE} if value == "x" else {(0, 1): _ONE}
            if value in self.params:
                c = self.params[value]
                return {(0, 0): c} if c != 0 else {}
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


def parse_poly(text: str, order: int = 6, params=None) -> TruncatedPoly2:
    """Parse a single expression into a truncated polynomial."""
    parser = _Parser(text, order, params)
    poly = parser.parse_component()
    tok = parser.peek()
    if tok[0] != "eof":
        raise GermParseError(f"trailing input {tok[1]!r}", tok[2])
    return poly


def parse_map_germ(text: str, order: int = 6, params=None) -> MapGermR4:
    """Parse a 4-component germ expression, exactly expanded and truncated.

    ``params`` binds extra identifiers (sweep-template parameters) to exact
    rational values.  Raises ``GermParseError`` for syntax problems and
    ``ValueError`` when the germ is not based at the origin or ``order < 2``.
    """
    if order < 2:
        raise ValueError(f"jet order must be at least 2, got {order}")
    comps = _Parser(text, order, params).parse_germ()
    for idx, p in enumerate(comps):
        if p.coefficient(0, 0) != 0:
            raise ValueError(
                f"component {idx + 1} has constant term {p.coefficient(0, 0)}; "
                "the germ must vanish at the origin"
            )
    return MapGermR4(comps)


def template_parameters(text: str):
    """Names used in a germ template beyond the variables x and y."""
    names = set()
    # at order -1 no term of a run is converted
    for tok in _tokenize(text, -1):
        if tok[0] == "ident" and tok[1] not in ("x", "y"):
            names.add(tok[1])
    return sorted(names)


# ---------------------------------------------------------------------------
# 2-jet extraction
# ---------------------------------------------------------------------------


class _Jet2Fields(NamedTuple):
    a20: object
    a11: object
    a02: object
    b20: object
    b11: object
    b02: object
    c20: object
    c11: object
    c02: object


class Jet2(_Jet2Fields):
    """Raw degree-2 Taylor coefficients of components 2..4 of a prenormal germ.

    The (x^2, xy, y^2) coefficients of component i+1 are row i; no 1/2
    factors are applied.  A subclass without ``__slots__``, so that each
    instance has a dict for the ``ref`` cache, which ``_replace`` leaves
    empty.
    """

    def rows(self):
        return (
            (self.a20, self.a11, self.a02),
            (self.b20, self.b11, self.b02),
            (self.c20, self.c11, self.c02),
        )

    @cached_property
    def ref(self) -> float:  # scale_of of the second-form rows (2a, m, 2c): its SecondForm's ref
        a, m, c = zip(*self.rows())
        return scale_of(float_multiple(a, 2), float_multiple(m, 1), float_multiple(c, 2))


def extract_jet2(germ, jet_tol: float = DEFAULT_TOL.eps_jet) -> Jet2:
    """Degree-2 coefficients of components 2..4 of a prenormal germ.

    Accepts a ``MapGermR4`` or anything with a ``germ`` attribute holding one
    (an adapted germ).  Raises ``ValueError`` if the germ is not prenormal.
    """
    g = getattr(germ, "germ", germ)
    if not g.is_prenormal(jet_tol):
        raise ValueError("germ is not in prenormal form (x, f2, f3, f4)")
    vals = []
    for p in g.components[1:]:
        vals.extend([p.coefficient(2, 0), p.coefficient(1, 1), p.coefficient(0, 2)])
    return Jet2(*vals)
