"""The exact kernels of curvpar.linalg against the plain formulas they replace.

``dot3``, ``cross3`` and ``rank3`` clear the denominators of exact input
once and work in integers, and ``ColumnProducts`` does so for a whole
second form; on float input they keep the float expressions operand for
operand, as ``cone_quadratic`` does on every input.  The references here are
those expressions, run on Fractions for exact input, and for ``rank3``'s
float branch the plain statement of its rule.
"""

import functools
import importlib
import math
import operator
import pkgutil
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvpar.linalg
from curvpar.forms import SecondForm
from curvpar.germs import MapGermR4, TruncatedPoly2
from curvpar.linalg import cone_quadratic, cross3, dot3, float_dot, rank3, vec_norm
from curvpar.report import analyze_germ, render_json

from conftest import random_jet2
from golden import GOLDEN_GERMS


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
    """Elimination on Fractions; on floats, the rule of the zero tests and ``collinear3``.

    Float rows are divided by their largest entry, and rows of norm at most
    ``eps`` are dropped.  With ``a`` the largest row, the rank is 1 when
    ``|a x b| <= eps |a| |b|`` for every row ``b``; otherwise, with ``b`` the
    row of largest ``|a x b|`` among the others, it is 3 when some row's
    distance ``|c . (a x b)| / |a x b|`` from their plane exceeds ``eps``.
    """
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
    big = max(abs(float(v)) for row in rows for v in row)
    if big == 0.0:
        return 0
    vecs = [[float(v) / big for v in row] + [0.0] * (3 - len(row)) for row in rows]
    norm = lambda v: math.sqrt(sum(c * c for c in v))
    live = [v for v in vecs if norm(v) > eps]
    if not live:
        return 0
    a = max(live, key=norm)
    independent = [plain_cross(a, b) for b in live if norm(plain_cross(a, b)) > eps * norm(a) * norm(b)]
    if not independent:
        return 1
    w = max(independent, key=norm)
    return 3 if any(abs(plain_dot(w, c)) > eps * norm(w) for c in live) else 2


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


def left_sum(terms):
    """``sum()`` up to Python 3.11: left to right from the int 0, uncompensated."""
    return functools.reduce(operator.add, terms, 0)


# the generator-sum formulas the kernels replaced, on the left fold and, up to
# Python 3.11, on sum() itself; from 3.12 on sum() of floats compensates its
# rounding, which the kernels do not, so there it is left out
SUMS = [left_sum] + ([sum] if sys.version_info < (3, 12) else [])


def sum_norm(v, total):
    return math.sqrt(float(total(float(c) * float(c) for c in v)))


def sum_dot(a, b, total):
    return total(x * y for x, y in zip(a, b))


subnormal = st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308)
kernel_entry = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    subnormal,
    st.sampled_from([0.0, -0.0, 0]),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(*[st.tuples(kernel_entry, kernel_entry)] * n)))
def test_float_kernels_sum_like_the_generator_formulas(pairs):
    a = tuple(x for x, _ in pairs)
    b = tuple(y for _, y in pairs)
    for total in SUMS:
        assert bits(vec_norm(a)) == bits(sum_norm(a, total))
        got, want = float_dot(a, b), sum_dot(a, b, total)
        if type(want) is float:
            assert bits(got) == bits(want)
        else:  # exact entries only: an int or a Fraction
            assert type(got) is type(want) and got == want


def test_float_kernels_start_from_the_int_zero():
    assert bits(float_dot((-0.0,), (1.0,))) == bits(0.0)
    assert bits(float_dot((-0.0, -0.0), (1.0, 1.0))) == bits(0.0)
    assert float_dot((), ()) == 0 and vec_norm(()) == 0.0
    assert float_dot((Fraction(1, 3), 2), (3, Fraction(1, 4))) == Fraction(3, 2)
    assert type(float_dot((Fraction(1, 3),), (3,))) is Fraction
    assert bits(vec_norm((3, Fraction(4), -0.0))) == bits(5.0)


def test_float_kernels_do_not_compensate_their_rounding():
    # a compensated sum (math.fsum, or sum() from Python 3.12 on) gives 1.0
    # and 1 + 2^-52 here; reports keep the rounding of a left to right sum
    assert bits(float_dot((1e16, 1.0, -1e16), (1.0, 1.0, 1.0))) == bits(0.0)
    assert bits(vec_norm((1.0,) + (2.0**-27,) * 8)) == bits(1.0)


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


# the linalg kernels that pipeline modules import, each swapped below for its
# plain formula.  No pipeline module imports cone_quadratic: heights reads
# SecondForm.cone_quadratic, which
# test_one_matrix_invariants_equal_the_per_vector_kernels covers.
PLAIN_KERNELS = {"dot3": plain_dot, "cross3": plain_cross, "rank3": plain_rank}
SWAPS = {
    ("curvpar.adapt", "rank3"),
    ("curvpar.forms", "rank3"),
    ("curvpar.parabola", "cross3"),
    ("curvpar.parabola", "dot3"),
    ("curvpar.heights", "cross3"),
    ("curvpar.heights", "dot3"),
}


def kernel_users():
    """``(module, name)`` for each curvpar module that imports a kernel of linalg."""
    modules = [importlib.import_module(f"curvpar.{m.name}") for m in pkgutil.iter_modules(curvpar.__path__)]
    return {
        (module.__name__, name)
        for module in modules
        if module is not curvpar.linalg
        for name in (*PLAIN_KERNELS, "cone_quadratic")
        if getattr(module, name, None) is getattr(curvpar.linalg, name)
    }


@pytest.mark.parametrize("verify", [False, True])
def test_long_denominators_report_like_the_fraction_formulas(monkeypatch, verify):
    source = long_denominator_germ()
    # the same germ with its first two target coordinates swapped: adapt ranks
    # its exact Jacobian, then moves it onto the float path
    x, f2, f3, f4 = source.components
    moved = MapGermR4([f2, x, f3, f4])
    assert source.is_exact and moved.is_exact
    assert source.is_prenormal() and not moved.is_prenormal()
    reports = [render_json(analyze_germ(g, verify=verify).report) for g in (source, moved)]

    assert kernel_users() == SWAPS
    calls = Counter()
    for module_name, name in sorted(SWAPS):
        plain = PLAIN_KERNELS[name]

        def counted(*args, key=(module_name, name), plain=plain):
            calls[key] += 1
            return plain(*args)

        monkeypatch.setattr(importlib.import_module(module_name), name, counted)
    assert [render_json(analyze_germ(g, verify=verify).report) for g in (source, moved)] == reports
    assert calls[("curvpar.adapt", "rank3")] == 1
    assert calls[("curvpar.forms", "rank3")] > 0


def scaled_matrices(jet):
    """The second-form matrix of a 2-jet, scaled by 2^-400 and 2^400, by the
    quotient of two large coprime numbers, and entry by entry over large
    pairwise distinct denominators."""
    rows = [(2 * a, b, 2 * c) for a, b, c in jet.rows()]
    coprime = Fraction(10**40 + 1, 10**40 + 3)
    yield [[v * Fraction(1, 2**400) for v in row] for row in rows]
    yield [[v * 2**400 for v in row] for row in rows]
    yield [[v * coprime for v in row] for row in rows]
    yield [[v / (10**30 + 2 * (3 * i + j) + 1) for j, v in enumerate(row)] for i, row in enumerate(rows)]


@pytest.mark.parametrize("kind", ["any", "collinear", "line", "point"])
def test_one_matrix_invariants_equal_the_per_vector_kernels(rng, kind):
    for _ in range(15):
        for rows in scaled_matrices(random_jet2(rng, kind)):
            sf = SecondForm(rows)
            L, M, N = sf.L, sf.M, sf.N
            w, lxn, lxm = cross3(M, N), cross3(L, N), cross3(L, M)
            want = {
                "w": w,
                "l_x_n": lxn,
                "l_x_m": lxm,
                "triple": (dot3(L, w),),
                "asymptotic_quadratic": (dot3(w, lxm), dot3(w, lxn), dot3(w, w)),
                "cone_quadratic": tuple(x for row in cone_quadratic(L, M, N) for x in row),
            }
            got = {
                "w": sf.w,
                "l_x_n": sf.l_x_n,
                "l_x_m": sf.l_x_m,
                "triple": (sf.triple,),
                "asymptotic_quadratic": sf.asymptotic_quadratic,
                "cone_quadratic": tuple(x for row in sf.cone_quadratic for x in row),
            }
            for name, values in got.items():
                assert all_fractions(values), name
                assert values == want[name], name
            assert sf.rank(1e-9) == rank3(sf.matrix, 1e-9)


def test_an_exact_analysis_clears_its_second_form_once(monkeypatch):
    # One integer matrix serves every exact invariant of the second form
    # (linalg.ColumnProducts) and its rank.  What else an analysis clears:
    # classify_two_jet's two jet columns, a half-line vertex's two dot
    # products and, on a corank-2 line, the cross products of the rows
    # divided by ref.  Clearing a column again shows here.
    cleared = []
    integers = curvpar.linalg._integers

    def counted(entries):
        result = integers(entries)
        cleared[-1] += result is not None
        return result

    monkeypatch.setattr(curvpar.linalg, "_integers", counted)
    for text in GOLDEN_GERMS:
        cleared.append(0)
        analyze_germ(text)
    assert max(cleared) <= 14
    assert sum(cleared) <= 240
