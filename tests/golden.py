"""Golden corpus: germs covering every shape, stratum, and point type.

Each entry of GOLDEN_GERM_ORDERS is (text, order): the order at which the
suites that hand the analysis a whole MapGermR4 parse the text.  The
analysis reads the 2-jet only, so GOLDEN_GERMS, the texts alone, backs the
oracle-equivalence acceptance run, the digests and the other suites.
"""

GOLDEN_GERM_ORDERS = [
    # worked examples with known closed-form answers
    ("(x, x*y, y^2, y^5)", 6),
    ("(x, x*y, y^2, y^3)", 4),
    ("(x, y^2, y^3, x^2*y)", 6),
    ("(x, (y^3+x)^2, (y^3+x)^3, (y^3+x)^2*y)", 6),
    # nondegenerate family across the trichotomy, with and without offset
    ("(x, x*y, -2*x^2 + y^2, 0)", 4),
    ("(x, x*y, -x^2 + y^2, x^2)", 4),
    ("(x, x*y, y^2, 0)", 4),
    ("(x, x*y, y^2, 2*x^2)", 4),
    ("(x, x*y, x^2 + y^2, 0)", 4),
    ("(x, x*y, 2*x^2 + y^2, -x^2)", 4),
    ("(x, x*y, x^2 + x*y + y^2, x^2)", 4),
    ("(x, x*y, 1/2*x^2 + 2*y^2, 1/3*x^2)", 4),
    ("(x, x*y + y^3, 3*x^2 + 5*x*y + 7*y^2 + x^3, 2*x^2 + x^2*y)", 4),
    ("(x, 2*x*y, x^2 + 3*y^2, x^2)", 4),
    ("(x, x*y - y^2, x^2 + x*y, 3*y^2 + x^2)", 4),
    ("(x, 1/2*x*y, 1/3*y^2, 1/5*x^2)", 4),
    # half-lines: non-radial and radial, vertex at and away from the origin
    ("(x, y^2, x^2, 0)", 4),
    ("(x, y^2 + x*y, x^2, 0)", 4),
    ("(x, 2*y^2, 3*x^2, x^2)", 4),
    ("(x, y^2 + x^2, 2*x^2, x^2 + y^2)", 4),
    ("(x, y^2, 0, 0)", 4),
    ("(x, 2*x^2 + y^2, 0, 0)", 4),
    ("(x, y^2 + 4*x*y + 4*x^2, 0, 0)", 4),
    # lines: non-radial and radial
    ("(x, x*y, x^2, 0)", 4),
    ("(x, x*y + x^2, 3*x^2, 0)", 4),
    ("(x, 2*x*y, x^2 + 2*x*y, x^2)", 4),
    ("(x, x*y, 0, 0)", 4),
    ("(x, x*y + 2*x^2, 0, 0)", 4),
    # points: away from and at the origin
    ("(x, x^2, 0, 0)", 4),
    ("(x, x^2, 2*x^2, -x^2)", 4),
    ("(x, 1/2*x^2, -1/3*x^2, x^2)", 4),
    ("(x, 0, 0, 0)", 2),
    ("(x, y^3, x^3, x*y^2)", 4),
    ("(x, y^3, 4*x^2, x^2*y)", 4),
]

GOLDEN_GERMS = [text for text, _ in GOLDEN_GERM_ORDERS]
