"""Seeded benchmark inputs, built with the benchmark's own polynomial arithmetic.

Nothing here imports curvpar: the germs, their moved copies and the exact
2-jets the checks use are computed independently of the program under test,
so a change to curvpar cannot change what the benchmark feeds it.

A polynomial is a dict ``(i, j) -> coefficient`` holding the nonzero
coefficients of ``x^i y^j`` with ``i + j <= ORDER``; a germ is a list of four
of them.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

from checks import discriminant, on_boundary, shape_kind

ORDER = 6

# The 34-germ golden corpus of the test suite, frozen here so that the
# workload cannot change when the test corpus does.  Every germ is analysed at
# the default order 6, as a CLI user who gives no --order would.
GOLDEN = [
    "(x, x*y, y^2, y^5)",
    "(x, x*y, y^2, y^3)",
    "(x, y^2, y^3, x^2*y)",
    "(x, (y^3+x)^2, (y^3+x)^3, (y^3+x)^2*y)",
    "(x, x*y, -2*x^2 + y^2, 0)",
    "(x, x*y, -x^2 + y^2, x^2)",
    "(x, x*y, y^2, 0)",
    "(x, x*y, y^2, 2*x^2)",
    "(x, x*y, x^2 + y^2, 0)",
    "(x, x*y, 2*x^2 + y^2, -x^2)",
    "(x, x*y, x^2 + x*y + y^2, x^2)",
    "(x, x*y, 1/2*x^2 + 2*y^2, 1/3*x^2)",
    "(x, x*y + y^3, 3*x^2 + 5*x*y + 7*y^2 + x^3, 2*x^2 + x^2*y)",
    "(x, 2*x*y, x^2 + 3*y^2, x^2)",
    "(x, x*y - y^2, x^2 + x*y, 3*y^2 + x^2)",
    "(x, 1/2*x*y, 1/3*y^2, 1/5*x^2)",
    "(x, y^2, x^2, 0)",
    "(x, y^2 + x*y, x^2, 0)",
    "(x, 2*y^2, 3*x^2, x^2)",
    "(x, y^2 + x^2, 2*x^2, x^2 + y^2)",
    "(x, y^2, 0, 0)",
    "(x, 2*x^2 + y^2, 0, 0)",
    "(x, y^2 + 4*x*y + 4*x^2, 0, 0)",
    "(x, x*y, x^2, 0)",
    "(x, x*y + x^2, 3*x^2, 0)",
    "(x, 2*x*y, x^2 + 2*x*y, x^2)",
    "(x, x*y, 0, 0)",
    "(x, x*y + 2*x^2, 0, 0)",
    "(x, x^2, 0, 0)",
    "(x, x^2, 2*x^2, -x^2)",
    "(x, 1/2*x^2, -1/3*x^2, x^2)",
    "(x, 0, 0, 0)",
    "(x, y^3, x^3, x*y^2)",
    "(x, y^3, 4*x^2, x^2*y)",
]

# Random prenormal germs per seed; the families cycle so that each of the
# generic (hyperbolic and elliptic), collinear, line and point 2-jets is
# drawn twenty times.  Draws on a float decision boundary
# (checks.on_boundary) are redrawn, so that every seed gives the moved
# workloads the same number of germs.  With 100 draws the median latency of
# a round falls inside the dense cluster of random germs rather than in the
# gap between it and the cheaper golden corpus.
N_RANDOM = 100
FAMILIES = ("hyperbolic", "elliptic", "collinear", "line", "point")
HIGHER = [(i, d - i) for d in range(3, ORDER + 1) for i in range(d + 1)]
HIGHER_TERMS = 3

# The scale family of a non-prenormal rational germ.  Its prenormal twin
# (x, s*x*y, s*y^2 + s*x^2, s*x^2) is a hyperbolic parabola at every scale.
SCALE_EXPONENTS = range(13)


# -- polynomial arithmetic ---------------------------------------------------


def padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c != 0}


def pscale(a: dict, c) -> dict:
    return {k: v * c for k, v in a.items() if v * c != 0}


def pmul(a: dict, b: dict, order: int = ORDER) -> dict:
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            if i1 + i2 + j1 + j2 <= order:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def ppow(a: dict, n: int, order: int = ORDER) -> dict:
    out = {(0, 0): 1}
    for _ in range(n):
        out = pmul(out, a, order)
    return out


def compose(p: dict, px: dict, py: dict, order: int = ORDER) -> dict:
    """p(px, py) truncated at ``order``; px and py vanish at the origin."""
    max_i = max((i for i, _ in p), default=0)
    max_j = max((j for _, j in p), default=0)
    xs = [{(0, 0): 1}]
    for _ in range(max_i):
        xs.append(pmul(xs[-1], px, order))
    ys = [{(0, 0): 1}]
    for _ in range(max_j):
        ys.append(pmul(ys[-1], py, order))
    out = {}
    for (i, j), c in p.items():
        out = padd(out, pscale(pmul(xs[i], ys[j], order), c))
    return out


def move(germ, px: dict, py: dict, rotation) -> list:
    """rotation . germ(px, py): a source change followed by a target map."""
    changed = [compose(p, px, py) for p in germ]
    out = []
    for row in rotation:
        acc = {}
        for entry, comp in zip(row, changed):
            acc = padd(acc, pscale(comp, entry))
        out.append(acc)
    return out


# -- germ text ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([xy])|([()+\-*/^,]))")


def parse_germ(text: str, order: int = ORDER) -> list:
    """Expand a germ written in the CLI grammar into four exact polynomials."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read {text[pos:]!r}")
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    tokens.append("")
    at = 0

    def take(expected=None):
        nonlocal at
        tok = tokens[at]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        at += 1
        return tok

    def expr():
        sign = 1
        if tokens[at] in ("+", "-"):
            sign = -1 if take() == "-" else 1
        acc = pscale(term(), sign)
        while tokens[at] in ("+", "-"):
            sign = 1 if take() == "+" else -1
            acc = padd(acc, pscale(term(), sign))
        return acc

    def term():
        acc = factor()
        while tokens[at] == "*":
            take()
            acc = pmul(acc, factor(), order)
        return acc

    def factor():
        base = atom()
        if tokens[at] == "^":
            take()
            base = ppow(base, int(take()), order)
        return base

    def atom():
        tok = take()
        if tok == "(":
            inner = expr()
            take(")")
            return inner
        if tok == "x":
            return {(1, 0): Fraction(1)}
        if tok == "y":
            return {(0, 1): Fraction(1)}
        value = Fraction(int(tok))
        if tokens[at] == "/":
            take()
            value /= int(take())
        return {(0, 0): value} if value else {}

    take("(")
    comps = [expr()]
    for _ in range(3):
        take(",")
        comps.append(expr())
    take(")")
    take("")
    return comps


def render_poly(p: dict) -> str:
    """A CLI-grammar expression for an exact polynomial."""
    parts = []
    for i, j in sorted(p, key=lambda k: (k[0] + k[1], -k[0])):
        c = Fraction(p[(i, j)])
        factors = [v if e == 1 else f"{v}^{e}" for v, e in (("x", i), ("y", j)) if e]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        body = "*".join(factors)
        parts.append(("- " if c < 0 else "+ ") + body if parts else ("-" if c < 0 else "") + body)
    return " ".join(parts) if parts else "0"


def render_germ(germ) -> str:
    return "(" + ", ".join(render_poly(p) for p in germ) + ")"


# -- seeded generation ------------------------------------------------------


def _fraction(rng, span=5, den=4, nonzero=False) -> Fraction:
    while True:
        f = Fraction(int(rng.integers(-span, span + 1)), int(rng.integers(1, den + 1)))
        if f or not nonzero:
            return f


def random_prenormal(rng, family: str, support) -> list:
    """A prenormal germ (x, f2, f3, f4) with a 2-jet of the given family.

    The x^2, xy and y^2 coefficient columns follow the test suite's families:
    generic, "collinear" (xy column a multiple of the y^2 column), "line" (no
    y^2 column) and "point" (no xy or y^2 column); a generic draw is kept
    only if its point type is the one asked for, "hyperbolic" or "elliptic",
    so that every seed has the same mix of point types.  Component
    k+2 also gets the monomials of degree 3 to 6 in ``support[k]``, with
    small nonzero rational coefficients.
    """
    a = [_fraction(rng) for _ in range(3)]
    if family == "point":
        b = c = [Fraction(0)] * 3
    elif family == "line":
        b = [_fraction(rng) for _ in range(3)]
        c = [Fraction(0)] * 3
    elif family == "collinear":
        c = [Fraction(0)] * 3
        while not any(c):
            c = [_fraction(rng) for _ in range(3)]
        mu = _fraction(rng, span=3)
        b = [mu * v for v in c]
    else:
        while True:  # a zero x^2 column allows only a zero discriminant: redraw it too
            a, b, c = ([_fraction(rng) for _ in range(3)] for _ in range(3))
            cols = (tuple(2 * v for v in a), tuple(b), tuple(2 * v for v in c))  # L, M, N
            if shape_kind(*cols) == "parabola":
                disc = discriminant(*cols)
                if (disc > 0) == (family == "hyperbolic") and disc != 0:
                    break
    germ = [{(1, 0): Fraction(1)}]
    for k in range(3):
        comp = {key: v for key, v in (((2, 0), a[k]), ((1, 1), b[k]), ((0, 2), c[k])) if v}
        for key in support[k]:
            comp[key] = _fraction(rng, span=3, den=3, nonzero=True)
        germ.append(comp)
    return germ


def supports() -> list:
    """Higher-order monomials of each random germ's normal components.

    Drawn once, from a fixed generator: the seed chooses the coefficients but
    not which monomials carry them, so the parsing and expansion work of a
    round, and with it the latency distribution, does not move with the seed.
    """
    rng = np.random.default_rng(0)
    return [
        [[HIGHER[i] for i in rng.choice(len(HIGHER), size=HIGHER_TERMS, replace=False)] for _ in range(3)]
        for _ in range(N_RANDOM)
    ]


def base_germs(seed: int) -> list:
    """(text, exact germ) for the golden corpus and the seed's random germs."""
    rng = np.random.default_rng([seed, 0])
    out = [(text, parse_germ(text)) for text in GOLDEN]
    for k, support in enumerate(supports()):
        family = FAMILIES[k % len(FAMILIES)]
        germ = random_prenormal(rng, family, support)
        while on_boundary(germ):
            germ = random_prenormal(rng, family, support)
        out.append((render_germ(germ), germ))
    return out


def cayley_rotation(mags, signs):
    """Exact rational rotation (I - S)(I + S)^-1 of R^4 from a skew matrix S.

    The entries of S above the diagonal have magnitudes 1/2 or 1 drawn from
    ``mags`` and signs drawn from ``signs``; I + S is invertible for every
    skew S.
    """
    s = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            v = Fraction(int(mags.integers(1, 3)), 2) * int(signs.choice((-1, 1)))
            s[i][j], s[j][i] = v, -v
    eye = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    plus = [[eye[i][j] + s[i][j] for j in range(4)] for i in range(4)]
    minus = [[eye[i][j] - s[i][j] for j in range(4)] for i in range(4)]
    inv = _inverse(plus)
    return [[sum(minus[i][k] * inv[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


def _inverse(m):
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def rational_source_change(mags, signs):
    """x -> a x + b y + e y^2, y -> c x + d y, invertible by construction.

    |a|, |d| are 3/2 or 2 and |b|, |c|, |e| are 1/2 or 1, so |ad - bc| >= 5/4.
    Magnitudes come from ``mags`` and signs from ``signs``.
    """
    big = [Fraction(int(mags.integers(3, 5)), 2) * int(signs.choice((-1, 1))) for _ in range(2)]
    small = [Fraction(int(mags.integers(1, 3)), 2) * int(signs.choice((-1, 1))) for _ in range(3)]
    (a, d), (b, c, e) = big, small
    return {(1, 0): a, (0, 1): b, (0, 2): e}, {(1, 0): c, (0, 1): d}


def float_motion(rng):
    """Linear source change and proper rotation of R^4, as in the invariance suite."""
    while True:
        src = rng.uniform(-2.0, 2.0, size=(2, 2))
        if abs(np.linalg.det(src)) > 0.3:
            break
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    px = {(1, 0): float(src[0, 0]), (0, 1): float(src[0, 1])}
    py = {(1, 0): float(src[1, 0]), (0, 1): float(src[1, 1])}
    return px, py, q.tolist()


def scale_family():
    """(moved text, twin germ) for s = 10^0 ... 10^-12."""
    out = []
    for k in SCALE_EXPONENTS:
        s = f"1/{10 ** k}" if k else "1"
        moved = f"(x + y^2, {s}*x*y, {s}*y^2 + {s}*x^2, {s}*x^2)"
        out.append((moved, parse_germ(f"(x, {s}*x*y, {s}*y^2 + {s}*x^2, {s}*x^2)")))
    return out
