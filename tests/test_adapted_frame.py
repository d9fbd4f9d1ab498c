"""Corank check and prenormalization with witnessing changes."""

import importlib
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvpar.adapt import CorankError, adapt, check_corank
from curvpar.config import Tolerances
from curvpar.forms import second_form
from curvpar.germs import MapGermR4, TruncatedPoly2, extract_jet2, parse_map_germ
from curvpar.linalg import householder_rotation_to_e1
from curvpar.parabola import build_parabola, classify_two_jet
from curvpar.report import analyze_germ

from composition import compose, compose_source, rotate_target
from conftest import germ, rand_fraction, random_rotation, transform_germ
from golden import GOLDEN_GERMS
from references import helper_adapt

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def test_corank_examples():
    assert check_corank(germ("(x, x*y, y^2, y^5)")) == 1
    assert check_corank(germ("(x, y, 0, 0)", order=2)) == 2
    assert check_corank(germ("(x^2, x*y, y^2, 0)", order=4)) == 0


def test_adapt_rejects_wrong_corank():
    with pytest.raises(CorankError):
        adapt(germ("(x, y, 0, 0)", order=2))
    with pytest.raises(CorankError):
        adapt(germ("(x^2, x*y, y^2, 0)", order=4))


def test_adapt_identity_on_prenormal():
    g = germ("(x, x*y, y^2, y^5)")
    ad = adapt(g)
    assert ad.exact
    # the prenormal test read y^5; the adapted germ is the 2-jet
    assert ad.germ == germ("(x, x*y, y^2, 0)", order=2)
    assert ad.source_change == (germ("(x, y, 0, 0)", order=2).components[:2])
    assert np.allclose(ad.tangent_frame, [1, 0, 0, 0])
    assert np.allclose(ad.normal_frame, np.eye(4)[1:])
    assert np.allclose(ad.target_rotation, np.eye(4))


def test_adapt_ranks_only_germs_that_are_not_prenormal(monkeypatch):
    # a prenormal germ has Jacobian rank 1 by construction, and a germ of
    # order 2 is its own 2-jet
    ranked = []
    # curvpar.adapt is the function; the package exports it over the module
    monkeypatch.setattr(importlib.import_module("curvpar.adapt"), "check_corank", lambda f, tol: ranked.append(f) or 1)
    g = germ("(x, x*y, y^2, 0)", order=2)
    assert adapt(g).germ is g
    assert adapt(germ("(x, x*y, y^2, y^5)")).germ == g
    assert ranked == []
    adapt(germ("(2*x, x*y, y^2, 0)", order=2))
    assert len(ranked) == 1


def test_adapted_germ_is_a_2_jet_on_both_paths(rng):
    for text in GOLDEN_GERMS:
        g = germ(text)
        moved = transform_germ(g, random_rotation(rng, 2), random_rotation(rng, 4))
        for f, exact in ((g, True), (moved, False)):
            ad = adapt(f)
            assert ad.exact is exact
            assert ad.germ.order == 2 and all(p.order == 2 for p in ad.source_change)
            assert all(i + j <= 2 for p in ad.germ.components for i, j in p.coeffs), text


def test_adapt_identity_on_zero_germ():
    ad = adapt(germ("(x, 0, 0, 0)", order=2))
    assert ad.exact
    assert np.allclose(ad.target_rotation, np.eye(4))


def test_adapt_scaled_first_component():
    ad = adapt(germ("(2*x, x*y, y^2, 0)", order=4))
    assert not ad.exact
    assert ad.germ.is_prenormal()
    # same orbit as the unscaled germ
    assert classify_two_jet(extract_jet2(ad)) == "(x,xy,y^2,0)"


def test_adapt_rotated_germ_keeps_orbit(rng):
    base = germ("(x, x*y, y^2, 0)", order=4)
    theta = math.pi / 6
    src = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    tgt = random_rotation(rng, 4)
    moved = transform_germ(base, src, tgt)
    ad = adapt(moved)
    assert ad.germ.is_prenormal()
    assert classify_two_jet(extract_jet2(ad)) == "(x,xy,y^2,0)"


def test_frames_orthonormal(rng):
    base = germ("(x, x*y + x^2, y^2 - x*y, x^2)", order=4)
    moved = transform_germ(base, random_rotation(rng, 2), random_rotation(rng, 4))
    ad = adapt(moved)
    frame = np.vstack([ad.tangent_frame, ad.normal_frame])
    assert np.max(np.abs(frame @ frame.T - np.eye(4))) < 1e-10


def test_reconstruction_witness(rng):
    for _ in range(5):
        base = germ("(x, x*y, y^2 + x^2, 2*x^2)", order=4)
        moved = transform_germ(base, random_rotation(rng, 2), random_rotation(rng, 4))
        ad = adapt(moved)
        sx, sy = ad.source_change
        rebuilt = rotate_target(compose_source(moved, sx, sy), ad.target_rotation)
        for built, target in zip(rebuilt.components, ad.germ.components):
            keys = set(built.coeffs) | set(target.coeffs)
            for k in keys:
                if k[0] + k[1] <= 2:
                    assert abs(built.coefficient(*k) - target.coefficient(*k)) < 1e-9


def test_adapt_idempotent(rng):
    base = germ("(x, y^2, x*y, 0)", order=4)
    moved = transform_germ(base, random_rotation(rng, 2), random_rotation(rng, 4))
    once = adapt(moved)
    twice = adapt(once.germ)
    j1, j2 = extract_jet2(once), extract_jet2(twice)
    for name in ("a20", "a11", "a02", "b20", "b11", "b02", "c20", "c11", "c02"):
        assert abs(float(getattr(j1, name)) - float(getattr(j2, name))) < 1e-12


def test_adapted_invariants_transported(rng):
    # orbit and point type survive an arbitrary linear source change + rotation
    base = germ("(x, x*y, y^2 + x^2, 3*x^2)", order=4)
    base_profile = build_parabola(second_form(adapt(base)))
    src = np.array([[1.3, 0.4], [-0.2, 0.9]])
    moved = transform_germ(base, src, random_rotation(rng, 4))
    moved_profile = build_parabola(second_form(adapt(moved)))
    assert base_profile.orbit == moved_profile.orbit
    assert base_profile.stratum == moved_profile.stratum
    assert base_profile.shape.kind == moved_profile.shape.kind


def test_adapt_returns_the_2_jet_of_non_prenormal_input(rng):
    base = germ("(x + y^2, x*y + y^4, y^2 - x^5, x^2 + x^3*y)")
    ad = adapt(transform_germ(base, random_rotation(rng, 2), random_rotation(rng, 4)))
    assert ad.germ.order == 2
    assert all(p.order == 2 for p in ad.source_change)


def test_moved_germ_report_independent_of_jet_order(rng):
    text = "(x, x*y + y^3, y^2 + x^2 - x^4, 2*x^2 + x*y^5)"
    src, tgt = random_rotation(rng, 2), random_rotation(rng, 4)
    reports = []
    for order in (3, 6, 10):
        report = analyze_germ(transform_germ(germ(text, order=order), src, tgt)).report
        del report["input"]
        reports.append(report)
    assert reports[0]["parabola"]["stratum"] == "M3"
    assert reports[0] == reports[1] == reports[2]


def reference_frame(jac):
    """Rows ``(v0, v1)`` of the source frame by ``AdaptedGerm``'s sign rule, and ``J v0``.

    ``v0`` is the unit largest row of the rank-1 Jacobian, signed so that the
    first largest-magnitude entry of ``J v0`` is positive; the kernel ``v1``
    is ``v0`` turned by +90 degrees, so the frame has det +1.
    """
    r = max(jac, key=lambda row: max(abs(row[0]), abs(row[1])))
    n = math.sqrt(r[0] * r[0] + r[1] * r[1])
    v0 = (r[0] / n, r[1] / n)
    t = [row[0] * v0[0] + row[1] * v0[1] for row in jac]
    if max(t, key=abs) < 0:
        v0, t = (-v0[0], -v0[1]), [-c for c in t]
    return (v0, (-v0[1], v0[0])), t


def reference_adapt(f):
    """Adaptation by polynomial composition and fixed-point series inversion.

    The reference for ``adapt``'s closed form: the same source frame and
    Householder rotation, then the germ composed with the linear source
    change, rotated, and composed with the series inverse of its first
    component, each iteration gaining at least one correct order.  Returns
    the adapted 2-jet, the source change and the rotation.
    """
    order = min(f.order, 2)
    f = MapGermR4([TruncatedPoly2(p.coeffs, order) for p in f.components])
    vt, t = reference_frame([[float(v) for v in row] for row in f.jacobian_at_origin()])
    rot = householder_rotation_to_e1(t)
    x_var = TruncatedPoly2.variable("x", order).map_coeffs(float)
    y_var = TruncatedPoly2.variable("y", order).map_coeffs(float)
    src_x = x_var * vt[0][0] + y_var * vt[1][0]
    src_y = x_var * vt[0][1] + y_var * vt[1][1]
    g = rotate_target(compose_source(f.to_float(), src_x, src_y), rot)
    first = g.components[0]
    c = float(first.coefficient(1, 0))
    s = x_var * (1.0 / c)
    for _ in range(order + 1):
        s = s + (x_var - compose(first, s, y_var)) * (1.0 / c)
    source = (compose(src_x, s, y_var), compose(src_y, s, y_var))
    return compose_source(g, s, y_var).components, source, rot


def assert_polys_close(got, want):
    """Coefficients up to degree 2 agree to 1e-12 of the largest one (at least 1)."""
    scale = max([abs(v) for p in want for v in p.coeffs.values()] + [1.0])
    for p, q in zip(got, want):
        for i, j in set(p.coeffs) | set(q.coeffs):
            if i + j <= 2:
                assert abs(p.coefficient(i, j) - q.coefficient(i, j)) <= 1e-12 * scale


def reference_cases(rng):
    for text in ("(x, x*y, y^2 + x^2, 2*x^2)", "(x + y^2, x*y + y^4, y^2 - x^5, x^2 + x^3*y)"):
        for _ in range(5):
            yield transform_germ(germ(text), random_rotation(rng, 2), random_rotation(rng, 4))
    x, y = TruncatedPoly2.variable("x", 6), TruncatedPoly2.variable("y", 6)
    for text in ("(x + y^2, x*y, y^2 + x^2, x^2)", "(x - 2*x*y + x^2, y^2 + x^3, x*y, x^2 - y^2)"):
        for _ in range(5):
            # |a|, |d| >= 3/2 and |b|, |c| <= 1 keep the linear part invertible
            a, d = (Fraction(int(rng.choice((-3, -4, 3, 4))), 2) for _ in range(2))
            b, c, e = (rand_fraction(rng, span=2, den=2) for _ in range(3))
            yield compose_source(germ(text), x * a + y * b + y * y * e, x * c + y * d)


def test_closed_form_matches_composition_and_series_inversion(rng, monkeypatch):
    for moved in reference_cases(rng):
        want_germ, want_source, want_rot = reference_adapt(moved)
        with monkeypatch.context() as m:
            for cls, name in ((TruncatedPoly2, "to_float"), (MapGermR4, "to_float")):
                m.setattr(cls, name, lambda *args, name=name: pytest.fail(f"adapt called {name}"))
            ad = adapt(moved)
        assert np.array_equal(ad.target_rotation, want_rot)
        assert_polys_close(ad.germ.components, want_germ)
        assert_polys_close(ad.source_change, want_source)


@pytest.mark.parametrize(
    "text",
    [
        "(x + y, x*y, y^2, x^2)",
        "(-x - y, x*y, y^2, x^2)",
        "(-2*y + x^2, x*y, y^2 + x^2, x^2)",
        "(y, 3*y + x*y, x^2 - y^2, 0)",
        "(x, -5*x + y^2, x*y, x^2)",
        "(-3*x + 4*y, 6*x - 8*y + x*y, y^2, 0)",
    ],
)
def test_adapt_signs_its_frames_by_one_rule(text, rng):
    # rational germs that are not prenormal, most with a negative largest
    # Jacobian entry, as given and under a rational source change
    x, y = TruncatedPoly2.variable("x", 2), TruncatedPoly2.variable("y", 2)
    a, d = (Fraction(int(rng.choice((-3, -4, 3, 4))), 2) for _ in range(2))
    b, c = (rand_fraction(rng, span=2, den=2) for _ in range(2))
    for f in (germ(text, order=2), compose_source(germ(text, order=2), x * a + y * b, x * c + y * d)):
        ad = adapt(f)
        assert not ad.exact and f.is_exact
        t = ad.tangent_frame
        assert max(t, key=abs) > 0, text
        # the linear part of the source change is V^T times an upper
        # triangular matrix with positive diagonal: det V = +1 makes it positive
        (p, q), (r, s) = [(float(h.coefficient(1, 0)), float(h.coefficient(0, 1))) for h in ad.source_change]
        assert p * s - q * r > 0, text
        sx, sy = ad.source_change
        rebuilt = rotate_target(compose_source(f, sx, sy), ad.target_rotation)
        for built, target in zip(rebuilt.components, ad.germ.components):
            for k in set(built.coeffs) | set(target.coeffs):
                if k[0] + k[1] <= 2:
                    assert abs(built.coefficient(*k) - target.coefficient(*k)) < 1e-12, (text, k)


def test_adapt_raises_on_a_normal_1_jet_below_the_rank_tolerance():
    # singular values 1 and 5e-10: rank 1 under eps_rank, yet a 1-jet entry of
    # 5e-10 in component 2 exceeds eps_jet
    with pytest.raises(ValueError, match="adaptation left 1-jet entry 5.000e-10"):
        adapt(germ("(x, 1/2000000000*y, x*y, y^2)", order=2).to_float())


def test_adapt_ranks_with_its_own_tolerance():
    # the same germ under eps_rank 1e-12: both singular values count
    g = germ("(x, 1/2000000000*y, x*y, y^2)", order=2).to_float()
    tol = Tolerances(eps_rank=1e-12)
    assert check_corank(g) == 1
    assert check_corank(g, tol) == 2
    with pytest.raises(CorankError) as exc:
        adapt(g, tol)
    assert exc.value.rank == 2


def outcome(fn, f) -> str:
    """What ``fn(f)`` gives, as text that tells values, types, zero signs and
    key order apart: every field of the adaptation, or what it raised."""
    try:
        ad = fn(f)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    poly = lambda p: (p.order, list(p.coeffs.items()))
    fields = ([poly(p) for p in ad.germ.components], [poly(p) for p in ad.source_change], *ad[1:])
    return repr((type(ad), fields))


def benchmark_moved_germs():
    """The benchmark's seed-1 golden and random germs, moved by float motions (order-6
    float germs) and by rational Cayley rotations and source changes (as text)."""
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    import run  # perfbench/run.py
    import worker

    for spec in run.make_workload("float_moved", 1)[0]:
        yield worker.build(spec, (MapGermR4, TruncatedPoly2))
    for spec in run.make_workload("rational_moved", 1)[0]:
        yield parse_map_germ(spec["text"], 2)


def test_adapt_equals_its_helper_built_reference(rng):
    cases = list(benchmark_moved_germs())
    cases += [transform_germ(germ(text), random_rotation(rng, 2), random_rotation(rng, 4)) for text in GOLDEN_GERMS]
    cases += list(reference_cases(rng))
    assert len(cases) > 300
    for f in cases:
        got = outcome(adapt, f)
        assert got.startswith("(<class"), got
        assert got == outcome(helper_adapt, f)


# 2-jet values with zeros of both signs and units among them, so that rotated
# sums meet 0 + -0.0; three higher terms exercise the truncation's key order
JET_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-1e3, 1e3, allow_nan=False))
KEYS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (0, 3), (3, 0))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(JET_VALUE, min_size=len(KEYS), max_size=len(KEYS)), min_size=4, max_size=4),
    st.permutations(KEYS),
    st.booleans(),
    st.sampled_from([1, 2, 3]),
)
def test_adapt_equals_its_reference_on_float_germs(rows, keys, rank_one, order):
    if rank_one:
        # the other 1-jet rows multiples of the first, so that most germs have corank 1
        p, q = rows[0][:2]
        rows = [rows[0]] + [[r[0] * p, r[0] * q, *r[2:]] for r in rows[1:]]
    f = MapGermR4([TruncatedPoly2(dict(zip(keys, [row[KEYS.index(k)] for k in keys])), order) for row in rows])
    assert outcome(adapt, f) == outcome(helper_adapt, f)


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "f",
    [
        germ("(x, y, 0, 0)", order=2).to_float(),
        germ("(x^2, x*y, y^2, 0)", order=4).to_float(),
        germ("(2*x, x + y, x*y, y^2)", order=2),
        germ("(x, 1/2000000000*y, x*y, y^2)", order=2),
        germ("(x, 1/2000000000*y, x*y, y^2)", order=2).to_float(),
        *(
            MapGermR4([TruncatedPoly2(c, 2) for c in comps])
            for comps in (
                [{(1, 0): 2.0, (2, 0): INF}, {(1, 1): 1.0}, {(0, 2): 1.0}, {}],
                [{(1, 0): 2.0}, {(1, 1): NAN}, {(0, 2): 1.0}, {}],
                [{(1, 0): 2.0}, {(1, 0): INF, (1, 1): 1.0}, {(0, 2): 1.0}, {}],
                [{(1, 0): 2.0}, {(1, 0): NAN, (1, 1): 1.0}, {(0, 2): 1.0}, {}],
                [{(1, 0): NAN}, {(1, 0): 1.0, (1, 1): 1.0}, {(0, 2): 1.0}, {}],
            )
        ),
    ],
)
def test_adapt_raises_as_its_reference(f):
    # corank 2 and 0, a 1-jet residue above eps_jet, and non-finite entries
    # in the quadratic part and in the Jacobian, first or not
    got = outcome(adapt, f)
    assert not got.startswith("(<class"), got
    assert got == outcome(helper_adapt, f)


def test_frames_are_the_rotation_rows(rng):
    # on the identity path and the closed form, exact or float input; the
    # report prints the frames as copies of the rotation's rows
    x, y = TruncatedPoly2.variable("x", 2), TruncatedPoly2.variable("y", 2)
    for text in GOLDEN_GERMS:
        g = germ(text, order=2)
        moved = transform_germ(g, random_rotation(rng, 2), random_rotation(rng, 4))
        for f, exact in ((g, True), (moved, False), (compose_source(g, x * 2 + y, x + y * 3), False)):
            ad = adapt(f)
            assert ad.exact is exact
            assert ad.tangent_frame == ad.target_rotation[0] and ad.normal_frame == ad.target_rotation[1:]
            frames = analyze_germ(f).report["adaptation"]
            rot = frames["target_rotation"]
            assert frames["tangent_frame"] == rot[0] and frames["normal_frame"] == rot[1:]
            assert frames["tangent_frame"] is not rot[0] and all(a is not b for a, b in zip(frames["normal_frame"], rot[1:]))
