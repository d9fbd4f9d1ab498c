"""The exact kernels of curvpar.linalg against the plain formulas they replace.

``dot3``, ``cross3``, ``cone_quadratic`` and ``rank3`` clear the denominators
of an exact vector once and work in integers; on float input they keep the
float expressions operand for operand.  The references here are those
expressions, run on Fractions for exact input.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvpar.adapt
import curvpar.forms
import curvpar.heights
import curvpar.parabola
from curvpar.germs import MapGermR4, TruncatedPoly2
from curvpar.linalg import cone_quadratic, cross3, dot3, rank3
from curvpar.report import analyze_germ, render_json


def plain_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def plain_cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def plain_cone(L, M, N):
    def half(value):
        return Fraction(value, 2) if isinstance(value, int) else value / 2

    return tuple(
        tuple(half(L[i] * N[j] + N[i] * L[j]) - M[i] * M[j] for j in range(3))
        for i in range(3)
    )


def plain_rank(rows, eps):
    """Elimination on Fractions, SVD on floats."""
    if all(isinstance(v, (Fraction, int)) for row in rows for v in row):
        m = [list(map(Fraction, row)) for row in rows]
        rank = 0
        for col in range(len(m[0]) if m else 0):
            pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            for r in range(rank + 1, len(m)):
                if m[r][col] != 0:
                    factor = m[r][col] / m[rank][col]
                    m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
            rank += 1
        return rank
    s = np.linalg.svd(np.asarray(rows, dtype=float), compute_uv=False)
    return 0 if s[0] == 0.0 else int(np.sum(s > eps * s[0]))


def fractions_of(v):
    return tuple(map(Fraction, v))


def all_fractions(values):
    return all(type(x) is Fraction for x in values)


def bits(x):
    return type(x), float(x).hex()


huge = st.builds(
    Fraction, st.integers(-(10**309), 10**309), st.integers(10**308, 10**309 - 1)
)
exact = st.one_of(
    st.integers(-(10**6), 10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    huge,
)
exact_vec = st.one_of(
    st.tuples(exact, exact, exact),
    st.just((0, 0, 0)),
    st.just((Fraction(0), 0, Fraction(0))),
)
finite = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)
# float-path vectors hold int zeros where a coefficient is absent
float_entry = st.one_of(finite, finite.map(np.float64), st.just(0))
float_vec = st.tuples(float_entry, float_entry, float_entry).filter(
    lambda v: not all(type(c) is int for c in v)
)


@settings(max_examples=300, deadline=None)
@given(exact_vec, exact_vec, exact_vec)
def test_exact_kernels_equal_the_fraction_formulas(a, b, c):
    fa, fb, fc = map(fractions_of, (a, b, c))
    got = dot3(a, b)
    assert type(got) is Fraction and got == plain_dot(fa, fb)
    got = cross3(a, b)
    assert all_fractions(got) and got == plain_cross(fa, fb)
    got = cone_quadratic(a, b, c)
    assert all_fractions(x for row in got for x in row)
    assert got == plain_cone(fa, fb, fc)


@settings(max_examples=300, deadline=None)
@given(
    exact_vec,
    exact_vec,
    exact,
    exact,
    st.sampled_from(["free", "dependent", "wide", "tall"]),
)
def test_exact_rank_equals_fraction_elimination(a, b, s, t, shape):
    if shape == "dependent":
        rows = [a, b, tuple(s * x + t * y for x, y in zip(a, b))]
    elif shape == "wide":
        rows = [a + b]
    elif shape == "tall":
        rows = [a[:2], b[:2], (s, t), (a[2], b[2])]
    else:
        rows = [a, b, (s, t, s - t)]
    assert rank3(rows, 1e-9) == plain_rank(rows, 1e-9)


@settings(max_examples=300, deadline=None)
@given(float_vec, float_vec, float_vec)
def test_float_kernels_keep_the_float_expressions(a, b, c):
    assert bits(dot3(a, b)) == bits(plain_dot(a, b))
    assert list(map(bits, cross3(a, b))) == list(map(bits, plain_cross(a, b)))
    got, want = cone_quadratic(a, b, c), plain_cone(a, b, c)
    assert [bits(x) for row in got for x in row] == [bits(x) for row in want for x in row]
    assert rank3([a, b, c], 1e-9) == plain_rank([a, b, c], 1e-9)


def test_exact_results_divide_exactly():
    # int vectors give Fractions, so a quotient of two results stays exact
    assert dot3((1, 2, 0), (1, 0, 0)) / dot3((0, 3, 0), (0, 1, 0)) == Fraction(1, 3)
    assert cross3((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    assert all_fractions(cross3((1, 0, 0), (0, 1, 0)))


def long_denominator_germ():
    """A generic germ whose nine 2-jet coefficients have distinct 300-digit denominators."""
    x = TruncatedPoly2.variable("x", 2)
    nums = [3, -1, 2, 1, 5, -2, -4, 1, 3]
    dens = [10**299 + 7 * k + 1 for k in range(9)]
    coeffs = [Fraction(n * d + 1, d) for n, d in zip(nums, dens)]
    assert {len(str(c.denominator)) for c in coeffs} == {300}
    assert len({c.denominator for c in coeffs}) == 9
    comps = [
        TruncatedPoly2({(2, 0): coeffs[3 * i], (1, 1): coeffs[3 * i + 1], (0, 2): coeffs[3 * i + 2]}, 2)
        for i in range(3)
    ]
    return MapGermR4([x, *comps])


@pytest.mark.parametrize("verify", [False, True])
def test_long_denominators_report_like_the_fraction_formulas(monkeypatch, verify):
    source = long_denominator_germ()
    assert source.is_exact
    report = render_json(analyze_germ(source, verify=verify).report)
    plain = {"dot3": plain_dot, "cross3": plain_cross, "rank3": plain_rank, "cone_quadratic": plain_cone}
    for module in (curvpar.adapt, curvpar.forms, curvpar.parabola, curvpar.heights):
        for name, fn in plain.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fn)
    assert render_json(analyze_germ(source, verify=verify).report) == report
