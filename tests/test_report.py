"""Pipeline report: serialization, internal consistency, robustness."""

import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import curvpar.oracle
from curvpar.config import DEFAULT_TOL, Tolerances
from curvpar.forms import second_form
from curvpar.germs import Jet2, MapGermR4, TruncatedPoly2
from curvpar.report import analyze_germ, fmt_float, render_json, render_text, run_verification

from conftest import germ, jet2_to_germ, random_jet2, random_rotation, transform_germ
from golden import GOLDEN_GERMS

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


@pytest.mark.parametrize("text,order", GOLDEN_GERMS + [(t, 4) for t in SMALL_SCALE_TWINS])
def test_exact_labels_never_read_a_tolerance(text, order):
    settings = [
        DEFAULT_TOL,
        Tolerances(eps_rank=0, eps_disc=0, eps_jet=0),
        Tolerances(eps_rank=1e3, eps_disc=1e3, eps_jet=1e3),
    ]
    results = [analyze_germ(text, order=order, tol=tol) for tol in settings]
    assert all(res.adapted.exact for res in results)
    assert [labels(res) for res in results[1:]] == [labels(results[0])] * 2


def twin_labels(res):
    """Every label of an analysis, the transfer flags included."""
    return labels(res) + (res.transfer.directions_match, res.transfer.types_match)


@pytest.mark.parametrize("small,twin", [*SMALL_SCALE_TWINS.items(), *MOVED_SMALL_SCALE_TWINS.items()])
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
        for text, order in GOLDEN_GERMS:
            report = analyze_germ(text, order=order).report
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
    res = analyze_germ("(x, x*y + y^6, y^2 - x^5, y^5)", order=8)
    assert res.profile.shape.kind == "parabola"
    assert res.germ.order == 8


def test_fd_hessian_oracle_checks_the_adaptation(rng):
    # the oracle differentiates the input germ, so a wrong adapted 2-jet fails it
    base = germ("(x, x*y + y^4, y^2 + x^2 - x^3*y, 2*x^2 + x^2*y^2)")
    moved = transform_germ(base, [[1.3, 0.4], [-0.2, 0.9]], random_rotation(rng, 4))
    res = analyze_germ(moved)

    def hessian_check(r):
        (check,) = [c for c in run_verification(r, DEFAULT_TOL).checks if c.name == "height_hessian_vs_fd"]
        return check

    assert hessian_check(res).passed
    bump = TruncatedPoly2({(2, 0): 1e-3, (1, 1): 1e-3, (0, 2): 1e-3}, res.adapted.order)
    comps = res.adapted.germ.components
    adapted = replace(res.adapted, germ=MapGermR4([comps[0]] + [p + bump for p in comps[1:]]))
    assert not hessian_check(replace(res, adapted=adapted, sf=second_form(adapted))).passed


@pytest.mark.parametrize("render", [render_json, render_text])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_render_refuses_non_finite_values(render, bad):
    report = {"labels": {"orbit": "(x,xy,y^2,0)"}, "values": [[1.0, 2.0], [0.5, bad]]}
    with pytest.raises(ValueError, match=r"^report\.values\[1\]\[1\] is -?(nan|inf): "):
        render(report)
    report["values"][1][1] = 1e308
    assert "1e+308" in render(report)
