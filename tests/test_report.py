"""Pipeline report: serialization, internal consistency, robustness."""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import curvpar.oracle
from curvpar.cli import main
from curvpar.config import DEFAULT_TOL, Tolerances
from curvpar.forms import second_form
from curvpar.germs import Jet2, MapGermR4, TruncatedPoly2, parse_map_germ
from curvpar.report import (
    AnalysisResult,
    analyze_germ,
    build_report,
    fmt_float,
    format_value,
    render_json,
    render_text,
    run_verification,
)

from conftest import germ, jet2_to_germ, random_jet2, random_rotation, transform_germ
from golden import GOLDEN_GERM_ORDERS, GOLDEN_GERMS
from references import raw_report


def with_changes(res, **changes):
    """A copy of an ``AnalysisResult`` with the named attributes changed."""
    return AnalysisResult(**{**vars(res), **changes})


# exact germs at scale 1e-10, each with its scale-1 twin
SMALL_SCALE_TWINS = {
    "(x, 1/10^10*x*y, 1/10^10*x^2 + 1/10^10*y^2, 0)": "(x, x*y, x^2 + y^2, 0)",
    "(x, 1/10^10*y^2, 1/10^10*x^2, 0)": "(x, y^2, x^2, 0)",
    "(x, 1/10^14*y^2, 1/10^14*x^2, 0)": "(x, y^2, x^2, 0)",
    "(x, 1/10^14*x*y, 1/10^14*x^2, 0)": "(x, x*y, x^2, 0)",
}
# non-prenormal text germs at small scales, adapted in floats
MOVED_SMALL_SCALE_TWINS = {
    f"(x + y^2, {s}*x*y, {s}*y^2 + {s}*x^2, {s}*x^2)": "(x, x*y, y^2 + x^2, x^2)"
    for s in ("1/10^9", "1/10^10")
}
# moved germs with a small column, each with its exact twin: nondegenerate
# traces whose |M x N| lies far below ref^2, so that kappa_u = |L.w| / |w|
# (degree 1) is not negligible while |L.w| is below eps * ref^3
SMALL_COLUMN_TWINS = {
    "(x + y^2, y^2, 1/10^5*x*y, 1/10^5*x^2)": "(x, y^2, 1/10^5*x*y, 1/10^5*x^2)",
    "(x + y^2, y^2, 1/10^7*x*y, 1/10^3*x^2)": "(x, y^2, 1/10^7*x*y, 1/10^3*x^2)",
}
# normal scales of the random jets: powers of two and of ten
SCALES = [Fraction(2) ** k for k in (-50, -40, -20, 20, 40)] + [Fraction(10) ** k for k in (-14, -12, -6, 6, 12)]


def labels(res):
    """Every label of an analysis but the transfer flags, which are decided in floats."""
    return (
        res.orbit_table,
        res.profile.orbit,
        res.profile.shape.label(),
        res.profile.stratum,
        res.ptype,
        res.aset.count,
        res.bset.count,
        res.umbilic.is_zero,
        res.reduced.orbit,
        res.cone.corank2_dim,
    )


def test_fmt_float_12_significant_digits():
    assert fmt_float(1.0 / 3.0) == 0.333333333333
    assert fmt_float(-0.0) == 0.0
    assert fmt_float(123456789.123456789) == 123456789.123


def test_fmt_float_matches_the_text_round_trip():
    # zeros and units skip the round trip; every float rounds as it would
    # through 12-digit text, bit for bit, and -0.0 prints as 0.0
    def round_trip(x):
        v = float(f"{x:.12g}")
        return 0.0 if v == 0.0 else v

    tiny, huge = 5e-324, 1.7976931348623157e308
    values = [0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), math.nextafter(-1.0, -2.0),
              math.nextafter(-1.0, 0.0), tiny, -tiny, 2.2250738585072014e-308, 1e-310, 1e308, -1e308, huge, -huge]
    rng = np.random.default_rng(27)
    values += [float(x) for x in rng.normal(size=200)]
    values += [float(m * 10.0**e) for m, e in zip(rng.uniform(-10, 10, 200), rng.integers(-320, 300, 200))]
    values += [float(x) for x in rng.integers(-2**20, 2**20, 50)]
    for x in values:
        assert repr(fmt_float(x)) == repr(round_trip(x)), x
        assert repr(fmt_float(np.float64(x))) == repr(round_trip(x)), x


@pytest.mark.parametrize("text,order", GOLDEN_GERM_ORDERS + [(t, 4) for t in SMALL_SCALE_TWINS])
def test_exact_labels_never_read_a_tolerance(text, order):
    # the input is the whole germ at its order; the analysis truncates it
    settings = [
        DEFAULT_TOL,
        Tolerances(eps_rank=0, eps_disc=0, eps_jet=0),
        Tolerances(eps_rank=1e3, eps_disc=1e3, eps_jet=1e3),
    ]
    source = germ(text, order=order)
    results = [analyze_germ(source, tol=tol) for tol in settings]
    assert all(res.adapted.exact for res in results)
    assert [labels(res) for res in results[1:]] == [labels(results[0])] * 2
    # the same germ with Python int coefficients is exact too: no division of
    # its invariants may fall back to floats
    if all(c.denominator == 1 for p in source.components for c in p.coeffs.values()):
        twin = MapGermR4([p.map_coeffs(int) for p in source.components])
        assert [analyze_germ(twin, tol=tol).report for tol in settings] == [res.report for res in results]


def test_tiny_exact_germ_labels_like_its_twin():
    # |M x N|^2 = 2^-1198 underflows to zero in floats; unit() rescales first
    tiny = analyze_germ("(x, (1/2^60)^5*x*y, (1/2^60)^5*y^2 + (1/2^60)^5*x^2, 0)")
    assert labels(tiny) == labels(analyze_germ("(x, x*y, y^2 + x^2, 0)"))


@pytest.mark.parametrize("c", ["10^20", "10^64", "(10^50)^2", "(10^50)^5", "(10^50)^6"])
@pytest.mark.parametrize(
    "template,ptype,stratum,kappa_u",
    [
        ("(x, {c}*x*y, y^2, x^2)", "parabolic", "M3", 2.0),
        ("(x, x*y, y^2 + {c}*x^2, 0)", "hyperbolic", "M2", 0.0),
        ("(x, x*y, {c}*y^2 + x^2, 0)", "hyperbolic", "M2", 0.0),
    ],
)
def test_exact_germs_with_one_huge_column_keep_their_labels(template, ptype, stratum, kappa_u, c):
    # the small columns sit up to 300 orders of magnitude below the huge one;
    # dividing the jet by its scale would push them toward underflow
    report = analyze_germ(template.format(c=c)).report
    assert (report["point_type"], report["parabola"]["stratum"]) == (ptype, stratum)
    assert report["umbilic"]["kappa_u"] == kappa_u
    assert report["umbilic"]["is_zero"] is (kappa_u == 0.0)
    # the transfer verdict, decided in floats, is false on these germs
    assert report["orbit"]["consistent"] and report["kappa_stratum_consistent"]
    assert report["heights"]["corank2"]["agrees"] and report["heights"]["cone_parabola_orthogonal"]


def twin_labels(res):
    """Every label of an analysis, the transfer flags included."""
    return labels(res) + (res.transfer.directions_match, res.transfer.types_match)


@pytest.mark.parametrize(
    "small,twin", [*SMALL_SCALE_TWINS.items(), *MOVED_SMALL_SCALE_TWINS.items(), *SMALL_COLUMN_TWINS.items()]
)
def test_small_scale_exact_germs_label_like_their_twins(small, twin):
    assert twin_labels(analyze_germ(small)) == twin_labels(analyze_germ(twin))


@pytest.mark.parametrize("family", ["any", "collinear", "line", "point"])
def test_scaled_random_jets_label_like_their_twins(rng, family):
    # Each float zero test is relative to a power of two of the whole jet, so
    # scaling the normal space changes no label, exact or moved.  Zero jets and
    # parabolic points are left out: floats decide them from rounding noise.
    checked = 0
    for _ in range(5):
        j2 = random_jet2(rng, family)
        coeffs = [c for row in j2.rows() for c in row]
        twin = analyze_germ(jet2_to_germ(j2, order=3))
        if not any(coeffs) or (twin.profile.shape.kind == "parabola" and twin.ptype == "parabolic"):
            continue
        want = twin_labels(twin)
        assert want[-2:] == (True, True), j2
        for s in SCALES:
            scaled = jet2_to_germ(Jet2(*(s * c for c in coeffs)), order=3)
            src = rng.uniform(-2.0, 2.0, size=(2, 2))
            while abs(np.linalg.det(src)) <= 0.3:
                src = rng.uniform(-2.0, 2.0, size=(2, 2))
            moved = transform_germ(scaled, src, random_rotation(rng, 4))
            assert twin_labels(analyze_germ(scaled)) == want, (j2, s)
            assert twin_labels(analyze_germ(moved)) == want, (j2, s, src)
            checked += 1
    assert checked >= 8


@pytest.mark.parametrize("family", ["any", "collinear", "line", "point"])
def test_far_scaled_moved_jets_label_like_their_twins(rng, family):
    # At 2^+-130 the square of the asymptotic quadratic (degree 8 in the jet)
    # leaves the float range: the roots and the double-root test must not
    # read it.  A parabola's printed discriminant has that degree 8, so at
    # 2^130 it overflows (and its report does not render), exact or moved;
    # the labels must not.  Only moved germs, whose analysis runs in floats.
    checked = 0
    for _ in range(5):
        j2 = random_jet2(rng, family)
        coeffs = [c for row in j2.rows() for c in row]
        twin = analyze_germ(jet2_to_germ(j2, order=3))
        if not any(coeffs) or (twin.profile.shape.kind == "parabola" and twin.ptype == "parabolic"):
            continue
        for s in (Fraction(2) ** -140, Fraction(2) ** -130, Fraction(2) ** 130):
            scaled = jet2_to_germ(Jet2(*(s * c for c in coeffs)), order=3)
            moved = transform_germ(scaled, np.array([[1.0, 0.5], [0.0, 1.0]]), random_rotation(rng, 4))
            with np.errstate(over="ignore"):
                assert twin_labels(analyze_germ(moved)) == twin_labels(twin), (j2, s)
            checked += 1
    assert checked >= 6


def test_extreme_scales_render_or_exit_cleanly():
    # The normal components of the golden germs scaled by 2^k, exact and as
    # float germs: 2788 analyses.  Each renders or raises ValueError or
    # OverflowError, which the CLI turns into exit 1.  Python floats raise
    # where numpy returned inf or NaN (a ZeroDivisionError, say), and no such
    # traceback may escape.  Within 2^-200 .. 2^250 each germ keeps its
    # unscaled labels, and no scale that rendered stops rendering (1834 do).
    rendered = 0
    for text in GOLDEN_GERMS:
        g = parse_map_germ(text, 2)
        want = {"exact": twin_labels(analyze_germ(g)), "float": twin_labels(analyze_germ(g.to_float()))}
        for k in range(-1000, 1001, 50):
            s = Fraction(2) ** k
            exact = MapGermR4([g.components[0]] + [p.map_coeffs(lambda c: c * s) for p in g.components[1:]])
            for path, source in (("exact", exact), ("float", exact.to_float())):
                try:
                    res = analyze_germ(source)
                    render_json(res.report)
                except (ValueError, OverflowError):
                    assert not -200 <= k <= 250, (text, k, path)
                    continue
                rendered += 1
                if -200 <= k <= 250:
                    assert twin_labels(res) == want[path], (text, k, path)
    assert rendered >= 1834


@pytest.mark.parametrize("k", [5, 9, 12])
def test_transfer_verdict_reads_the_projections_own_scale(k):
    # The umbilic part (x^2 in the fourth component) dwarfs the plane part, so
    # the projection S keeps only 10^-k-sized coefficients: its zero test must
    # be relative to them, not to the germ's whole 2-jet.
    s = f"1/10^{k}"
    res = analyze_germ(f"(x, {s}*x*y + {s}*x^2, {s}*y^2 + {s}*x^2, x^2)")
    assert (res.ptype, res.transfer.s_point_type) == ("hyperbolic", "hyperbolic")
    assert res.transfer.directions_match


def test_report_json_round_trips():
    res = analyze_germ("(x, x*y, y^2 + 1/3*x^2, 2*x^2)")
    text = render_json(res.report)
    assert json.loads(text) == res.report


def scalar_germ(cast=float):
    """A prenormal germ with coefficients of type ``cast``, which reach the report unchanged."""
    comps = [{(1, 0): 1.0}, {(1, 1): 1.5, (2, 0): 0.5}, {(0, 2): -2.0}, {(2, 0): 3.0}]
    return MapGermR4([TruncatedPoly2({k: cast(v) for k, v in c.items()}, 2) for c in comps])


def one_walk_inputs(rng):
    """Each golden germ as text, then moved by a float motion as a float MapGermR4."""
    for text in GOLDEN_GERMS:
        yield text
        yield transform_germ(germ(text), random_rotation(rng, 2), random_rotation(rng, 4))


@pytest.mark.parametrize("verify", [False, True])
def test_reports_hold_only_json_native_values(rng, verify):
    # every field is already converted: a format_value walk changes
    # nothing, and the JSON text reads back as the same report
    for source in one_walk_inputs(rng):
        report = analyze_germ(source, verify=verify).report
        assert format_value(report) == report, source
        assert json.loads(render_json(report)) == report, source


@pytest.mark.parametrize("verify", [False, True])
def test_one_pass_report_equals_the_raw_tree_converted(rng, verify):
    # build_report converts each value where it places it; the result is the
    # former raw tree converted whole by format_value, types and key order
    # included, on exact text, float motions and numpy's scalars
    for source in [*one_walk_inputs(rng), scalar_germ(np.float64)]:
        res = analyze_germ(source, verify=verify)
        text = source if isinstance(source, str) else None
        want = format_value(raw_report(res, text))
        assert repr(res.report) == repr(want), source
        want.pop("verification", None)
        assert repr(build_report(res, text)) == repr(want), source


def test_numpy_scalar_coefficients_report_like_floats():
    # a prenormal germ keeps its coefficients, so numpy's scalars reach the report
    got, want = analyze_germ(scalar_germ(np.float64)).report, analyze_germ(scalar_germ()).report
    assert got["input"]["germ"] == "(x, 1.5*x*y + 0.5*x^2, -2.0*y^2, 3.0*x^2)"
    assert got == want


def test_report_matches_library_values():
    res = analyze_germ("(x, x*y, y^2, x^2)")
    assert res.report["umbilic"]["kappa_u"] == fmt_float(res.umbilic.kappa_u)
    assert res.report["parabola"]["stratum"] == f"M{res.profile.stratum}"
    assert res.report["point_type"] == res.ptype


def test_hull_oracle_runs_only_under_verify(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the hull oracle ran without verify")

    with monkeypatch.context() as m:
        m.setattr(curvpar.oracle, "affine_hull_distance", refuse)
        for text in GOLDEN_GERMS:
            report = analyze_germ(text).report
            assert set(report["umbilic"]) == {"kappa_u", "formula", "is_zero"}, text
    report = analyze_germ("(x, x*y, y^2, x^2)", verify=True).report
    names = [c["name"] for c in report["verification"]["checks"]]
    assert "umbilic_vs_affine_hull" in names


def test_report_consistency_flags_random(rng):
    kinds = ["any", "collinear", "line", "point"]
    for i in range(30):
        j2 = random_jet2(rng, kinds[i % 4])
        res = analyze_germ(jet2_to_germ(j2, order=3))
        assert res.report["orbit"]["consistent"], j2
        assert res.report["kappa_stratum_consistent"], j2
        assert res.report["heights"]["corank2"]["agrees"], j2
        assert res.report["heights"]["cone_parabola_orthogonal"], j2
        assert res.report["transfer"]["directions_match"], j2
        assert res.report["transfer"]["types_match"], j2


def test_analysis_on_higher_order_input():
    # text is parsed at order 2; a MapGermR4 of a higher order is kept whole
    text = "(x, x*y + y^6, y^2 - x^5, y^5)"
    assert analyze_germ(text).germ.order == 2
    res = analyze_germ(germ(text, order=8))
    assert res.profile.shape.kind == "parabola"
    assert res.germ.order == 8


def test_no_jet_order_in_the_api_or_the_report():
    with pytest.raises(TypeError):
        analyze_germ("(x, x*y, y^2, 0)", order=6)
    with pytest.raises(TypeError):
        analyze_germ("(x, x*y, y^2, 0)", 6)
    assert list(analyze_germ("(x, x*y, y^2, 0)").report["input"]) == ["germ", "exact"]


def test_first_component_terms_above_degree_2_keep_the_exact_path():
    # the prenormal test reads the 2-jet, so (x + y^3, ...) is prenormal
    cubic, twin = (analyze_germ(t, verify=True) for t in ("(x + y^3, x*y, y^2, 0)", "(x, x*y, y^2, 0)"))
    assert cubic.adapted.exact and cubic.report["adaptation"]["exact"] is True
    cubic.report["input"].pop("germ")
    twin.report["input"].pop("germ")
    assert cubic.report == twin.report


def test_fd_hessian_oracle_checks_the_adaptation(rng):
    # the oracle differentiates the input germ, so a wrong adapted 2-jet fails it
    base = germ("(x, x*y + y^4, y^2 + x^2 - x^3*y, 2*x^2 + x^2*y^2)")
    moved = transform_germ(base, [[1.3, 0.4], [-0.2, 0.9]], random_rotation(rng, 4))
    res = analyze_germ(moved)

    def hessian_check(r):
        (check,) = [c for c in run_verification(r, DEFAULT_TOL).checks if c.name == "height_hessian_vs_fd"]
        return check

    assert hessian_check(res).passed
    bump = TruncatedPoly2({(2, 0): 1e-3, (1, 1): 1e-3, (0, 2): 1e-3}, res.adapted.germ.order)
    comps = res.adapted.germ.components
    adapted = res.adapted._replace(germ=MapGermR4([comps[0]] + [p + bump for p in comps[1:]]))
    assert not hessian_check(with_changes(res, adapted=adapted, sf=second_form(adapted))).passed


def _wrong_kappa(res):
    return with_changes(res, umbilic=res.umbilic._replace(kappa_u=res.umbilic.kappa_u + 0.1))


def _wrong_param(res):
    params = list(res.aset.params)
    params[0] += 0.1
    return with_changes(res, aset=res.aset._replace(params=tuple(params)))


def _wrong_infinity(res):
    return with_changes(res, aset=res.aset._replace(includes_infinity=not res.aset.includes_infinity))


def _wrong_duplicate(res):
    # the null direction dropped for a copy of the finite root moved by 1e-4:
    # the count holds, but both roots pair only with the same scan direction
    y = res.aset.params[0]
    return with_changes(res, aset=res.aset._replace(params=(y, y + 1e-4), includes_infinity=False))


def _wrong_far_root(res):
    # the largest root moved by 1e-2 in s = 1/y, about 1e-2 rad: ten times the
    # root tolerance
    params = list(res.aset.params)
    params[-1] = 1.0 / (1.0 / float(params[-1]) + 1e-2)
    return with_changes(res, aset=res.aset._replace(params=tuple(params)))


def _wrong_kind(res):
    kind = "finite" if res.aset.kind == "all" else "all"
    return with_changes(res, aset=res.aset._replace(kind=kind))


def _wrong_second_form(res):
    bump = TruncatedPoly2({(2, 0): 1e-3, (1, 1): 1e-3, (0, 2): 1e-3}, res.adapted.germ.order)
    comps = res.adapted.germ.components
    bumped = res.adapted._replace(germ=MapGermR4([comps[0]] + [p + bump for p in comps[1:]]))
    return with_changes(res, sf=second_form(bumped))


# one golden germ per shape kind: parabola, half-line, line and point
SHAPE_GERMS = ("(x, x*y, x^2 + y^2, 0)", "(x, y^2, x^2, 0)", "(x, x*y, x^2, 0)", "(x, x^2, 0, 0)")
# hyperbolic germs whose roots lie far out in y: y = +-100, 0.01 rad from (0, 1)
FAR_ROOT_GERMS = ("(x, x*y, y^2 + 10000*x^2, 0)", "(x, x*y, 1/10000*y^2 + x^2, 0)")
# a wrong closed-form value and the check it fails.  Only the parabola's and
# the half-line's asymptotic sets have a finite parameter; the point's is
# "all", so its scan saturates and a finite kind fails the roots check.
WRONG_VALUES = (
    [(t, _wrong_kappa, "umbilic_vs_affine_hull") for t in SHAPE_GERMS]
    + [(t, _wrong_param, "asymptotic_scan_roots") for t in SHAPE_GERMS[:2]]
    + [(t, _wrong_infinity, "asymptotic_scan_roots") for t in SHAPE_GERMS[:3]]
    + [(SHAPE_GERMS[1], _wrong_duplicate, "asymptotic_scan_roots")]
    + [(t, _wrong_far_root, "asymptotic_scan_roots") for t in FAR_ROOT_GERMS]
    + [(t, _wrong_kind, "asymptotic_scan_kind") for t in SHAPE_GERMS[:3]]
    + [(SHAPE_GERMS[3], _wrong_kind, "asymptotic_scan_roots")]
    + [(t, _wrong_second_form, "height_hessian_vs_fd") for t in SHAPE_GERMS]
)


def scaled(text, factor):
    """A germ with its three normal components multiplied by ``factor``, as text."""
    first, *normal = text[1:-1].split(", ")
    return f"({first}, {', '.join(f'{factor}*({c})' for c in normal)})"


@pytest.mark.parametrize("factor", ["1/2^40", "1", "2^40"])
@pytest.mark.parametrize("text", SHAPE_GERMS)
def test_hull_check_fails_on_a_wrong_umbilic_curvature_at_any_scale(text, factor):
    # the check compares at unit scale: an error of 1e-5 of the jet's scale
    # fails it at 2^-40 as at 2^40, where the right value passes
    res = analyze_germ(scaled(text, factor))
    assert run_verification(res, DEFAULT_TOL).passed
    umb = res.umbilic._replace(kappa_u=res.umbilic.kappa_u + 1e-5 * res.profile.sf.ref)
    failed = [c.name for c in run_verification(with_changes(res, umbilic=umb), DEFAULT_TOL).checks if not c.passed]
    assert failed == ["umbilic_vs_affine_hull"]


def test_hull_check_passes_a_zero_umbilic_curvature_at_a_large_scale(capsys):
    # kappa_u is exactly 0; the oracle's 3.8e-7 is rounding noise at the scale 2^31
    text = "(x, 10^9*(1/2*x^2 + x*y), 10^9*(x^2 + y^2), 10^9*(1/2*x^2 + x*y))"
    res = analyze_germ(text, verify=True)
    (check,) = [c for c in res.verification.checks if c.name == "umbilic_vs_affine_hull"]
    assert res.umbilic.kappa_u == 0.0 and 0.0 < check.oracle < 1e-7 * res.profile.sf.ref
    assert res.verification.passed
    assert main(["verify", "--germ", text]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("text,wrong,check", WRONG_VALUES, ids=lambda v: getattr(v, "__name__", v))
def test_each_verify_check_fails_on_a_wrong_closed_form_value(text, wrong, check):
    res = analyze_germ(text)
    assert run_verification(res, DEFAULT_TOL).passed
    failed = [c.name for c in run_verification(wrong(res), DEFAULT_TOL).checks if not c.passed]
    if wrong is _wrong_second_form:
        # the scan reads the second form too, and may fail with the Hessian
        assert check in failed
    else:
        assert failed == [check]


def test_root_check_lists_every_asymptotic_direction():
    # no root is left out of the comparison, however far out in y it lies
    for text in [*GOLDEN_GERMS, *FAR_ROOT_GERMS, "(x, x*y, y^2 + 1000*x^2, 0)"]:
        res = analyze_germ(text)
        vr = run_verification(res, DEFAULT_TOL)
        assert vr.passed, text
        if res.aset.kind == "finite":
            (check,) = [c for c in vr.checks if c.name == "asymptotic_scan_roots"]
            assert len(check.closed_form) == res.aset.count, text


def test_nearly_degenerate_parabola_passes_every_check(capsys):
    # its root near y = 2e9 lies 5e-10 rad from the null direction, where the
    # scan finds it; the hull oracle's rank cut keeps the trace's 1e-9-thin
    # width, so the hull is the plane through the origin, as the closed form says
    text = "(x, x*y + y^2, 1/10^9*y^2 + x^2, 0)"
    res = analyze_germ(text)
    vr = run_verification(res, DEFAULT_TOL)
    assert [c.name for c in vr.checks if not c.passed] == []
    (check,) = [c for c in vr.checks if c.name == "asymptotic_scan_roots"]
    assert len(check.closed_form) == res.aset.count == 2
    assert main(["verify", "--germ", text]) == 0


# hyperbolic germs whose roots the scan must find however far from (1, 0)
# they lie: y = +-sqrt(c), +-10^(k/2), and the family y = +-10^j, j = 0..4
FAR_ROOT_VERIFIED = list(dict.fromkeys([
    *(f"(x, x*y, y^2 + {c}*x^2, 0)" for c in ("10^5", "10^6", "10^8")),
    *(f"(x, x*y, 1/10^{k}*y^2 + x^2, 0)" for k in (6, 8)),
    "(x, 1000*x*y, y^2 + 10^6*x^2, 0)",
    *(f"(x, x*y, y^2 + 10^{2 * j}*x^2, 0)" for j in range(5)),
]))
# parabolic germs whose double root y = a lies between the scan's samples
OFF_GRID_DOUBLE_ROOTS = [f"(x, x*y - {a}*x^2, y^2 - 2*{a}*x*y + ({a})^2*x^2, 0)" for a in ("1/2000", "3/2000", "7/3")]
# elliptic germs whose |det| has a minimum narrower than a step at the null
# direction, which is no root
NARROW_ELLIPTIC = [f"(x, x*y, y^2 - 10^{k}*x^2, 0)" for k in (7, 8)]


@pytest.mark.parametrize("text", FAR_ROOT_VERIFIED + OFF_GRID_DOUBLE_ROOTS + NARROW_ELLIPTIC)
def test_scan_verifies_far_roots_and_double_roots_between_samples(text, capsys):
    g = parse_map_germ(text, 2)
    for source in (g, g.to_float()):
        res = analyze_germ(source, verify=True)
        assert res.verification.passed, [c for c in res.verification.checks if not c.passed]
    if text in OFF_GRID_DOUBLE_ROOTS:
        assert res.ptype == "parabolic"
    if text in NARROW_ELLIPTIC:
        assert res.ptype == "elliptic"
    assert main(["verify", "--germ", text]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("workload", ["rational_moved", "float_moved"])
def test_moved_workload_germs_pass_verification(workload):
    # the benchmark analyses these inputs unverified; every one must verify
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import run
    import worker

    specs = run.make_workload(workload, 7)[0]
    failed = [
        i
        for i, spec in enumerate(specs)
        if not analyze_germ(worker.build(spec, (MapGermR4, TruncatedPoly2)), verify=True).verification.passed
    ]
    assert len(specs) > 100 and failed == []


@pytest.mark.parametrize("render", [render_json, render_text])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_render_refuses_non_finite_values(render, bad):
    report = {"labels": {"orbit": "(x,xy,y^2,0)"}, "values": [[1.0, 2.0], [0.5, bad]]}
    with pytest.raises(ValueError, match=r"^report\.values\[1\]\[1\] is -?(nan|inf): "):
        render(report)
    report["values"][1][1] = 1e308
    assert "1e+308" in render(report)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_render_json_refuses_a_non_finite_value_in_a_dict(bad):
    report = {"labels": {"orbit": "(x,xy,y^2,0)"}, "values": {"a": 1.0, "b": bad}}
    with pytest.raises(ValueError) as err:
        render_json(report)
    assert str(err.value) == f"report.values.b is {bad}: the analysis left the float range"


def test_a_germ_input_prints_as_the_whole_germ(rng):
    # every term of a MapGermR4 prints, those above degree 2 included
    exact = germ("(x, x*y + y^5, y^2 - 1/3*x^3, x^2*y)")
    moved = transform_germ(exact, random_rotation(rng, 2), random_rotation(rng, 4))
    for g in (exact, moved):
        assert analyze_germ(g).report["input"]["germ"] == g.to_expression()
    assert analyze_germ(exact).report["input"]["germ"] == "(x, x*y + y^5, y^2 - 1/3*x^3, x^2*y)"


@pytest.mark.parametrize(
    "v", [-0.0, 5e-324, 1.7976931348623157e308, 9.9999999999995, 0.1 + 0.2, 123456789012345.6, float("nan")]
)
def test_format_value_rounds_every_float_by_fmt_float(v):
    # fmt_float states the rule for a float at any depth of the walk
    got = format_value({"k": v, "l": [v], "t": (1, (v, [v]))})
    want = repr(fmt_float(v))
    positions = [format_value(v), got["k"], got["l"][0], got["t"][1][0], got["t"][1][1][0]]
    assert [repr(x) for x in positions] == [want] * 5


@pytest.mark.parametrize("text,order", GOLDEN_GERM_ORDERS)
def test_golden_report_is_the_same_at_orders_2_4_and_6(text, order):
    # a MapGermR4 is kept whole as the input, and its report at orders 2, 4
    # and 6 (the entry's own order among them) is that of its 2-jet and of
    # its text apart from the input's own text
    assert order in (2, 4, 6)
    g = germ(text, order=6)
    for verify in (False, True):
        texts = []
        for source in (g, germ(text, order=4), germ(text, order=2), g.truncated(2), text):
            report = analyze_germ(source, verify=verify).report
            report["input"].pop("germ")
            texts.append(render_json(report))
        assert texts[0] == texts[1] == texts[2], verify

