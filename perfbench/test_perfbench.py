"""Tests of the benchmark's own references, inputs and traced pipeline.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from curvpar import analyze_germ, parse_map_germ  # noqa: E402
from curvpar.report import render_json  # noqa: E402


def columns(text):
    return checks.second_form_columns(inputs.parse_germ(text))


def test_umbilic_pair_of_known_answer():
    assert checks.hull_distance(*columns("(x, y^2, y^3, x^2*y)")) == 0.0
    assert checks.hull_distance(*columns("(x, (y^3+x)^2, (y^3+x)^3, (y^3+x)^2*y)")) == 2.0


def test_stratum_of_worked_example():
    L, M, N = columns("(x, x*y, y^2, y^5)")
    assert (L, M, N) == ((0, 0, 0), (1, 0, 0), (0, 2, 0))
    assert checks.exact_rank((L, M, N)) == 2
    assert checks.shape_kind(L, M, N) == "parabola"


@pytest.mark.parametrize(
    "text, rank, kind",
    [
        ("(x, y^2, x^2, 0)", 2, "half_line"),
        ("(x, x*y, 0, 0)", 1, "line"),
        ("(x, x^2, 2*x^2, -x^2)", 1, "point"),
        ("(x, y^3, x^3, x*y^2)", 0, "point"),
        ("(x, x*y, y^2, x^2)", 3, "parabola"),
    ],
)
def test_rank_and_shape_by_hand(text, rank, kind):
    cols = columns(text)
    assert checks.exact_rank(cols) == rank
    assert checks.shape_kind(*cols) == kind


def test_check_exact_accepts_curvpar_and_rejects_a_wrong_answer():
    text = "(x, x*y, y^2, y^5)"
    germ = inputs.parse_germ(text)
    summary = checks.summarize(analyze_germ(text).report)
    assert checks.check_exact(summary, germ) == []
    assert checks.check_exact(dict(summary, stratum="M3"), germ)
    assert checks.check_exact(dict(summary, kappa_u=1e-6), germ)
    assert checks.check_exact(dict(summary, **{"heights.corank2.agrees": False}), germ)
    assert checks.check_moved(dict(summary, point_type="elliptic"), summary)


@pytest.mark.parametrize(
    "text, point_type, boundary",
    [
        ("(x, 0, 0, 0)", "inflection", True),
        ("(x, x*y, y^2, 0)", "parabolic", True),
        ("(x, x*y, y^2, x^2)", "parabolic", True),
        ("(x, x*y, -2*x^2 + y^2, 0)", "elliptic", False),
        ("(x, x*y, 2*x^2 + y^2, -x^2)", "hyperbolic", False),
        ("(x, y^2, 0, 0)", "inflection", False),
    ],
)
def test_boundary_germs(text, point_type, boundary):
    assert analyze_germ(text).report["point_type"] == point_type
    assert checks.on_boundary(inputs.parse_germ(text)) == boundary


def test_own_parser_and_renderer_agree_with_curvpar():
    for text, germ in inputs.base_germs(5):
        assert [dict(p.coeffs) for p in parse_map_germ(text).components] == germ
        assert inputs.parse_germ(inputs.render_germ(germ)) == germ


def test_generation_ends_when_a_generic_draw_has_a_zero_x2_column():
    # seed 208 draws a zero x^2 column for a generic germ, whose discriminant
    # is then zero for every xy and y^2 column
    families = [inputs.FAMILIES[k % len(inputs.FAMILIES)] for k in range(inputs.N_RANDOM)]
    for (_, germ), family in zip(inputs.base_germs(208)[len(inputs.GOLDEN):], families):
        cols = checks.second_form_columns(germ)
        if family in ("hyperbolic", "elliptic"):
            assert (checks.discriminant(*cols) > 0) == (family == "hyperbolic")


def test_cayley_rotation_is_exactly_orthogonal():
    q = inputs.cayley_rotation(inputs.np.random.default_rng(4), inputs.np.random.default_rng(5))
    for i in range(4):
        for j in range(4):
            assert sum(q[i][k] * q[j][k] for k in range(4)) == Fraction(int(i == j))


def test_workloads_repeat_for_a_seed_and_cover_every_shape():
    for name in run.WORKLOADS:
        assert run.make_workload(name, 7)[0] == run.make_workload(name, 7)[0]
    specs, expect, verify, _ = run.make_workload("verify_oracle", 7)
    kinds = {checks.shape_kind(*checks.second_form_columns(e[1])) for e in expect}
    assert verify and kinds == {"parabola", "half_line", "line", "point"}
    sizes = {len(run.make_workload("rational_moved", s)[0]) for s in (1, 2, 3)}
    assert len(sizes) == 1


def traced_text(source, verify=False):
    tr = traced.Tracer()
    with traced.wrapped_oracle_calls(tr, []):
        _, text = traced.traced_analysis(tr, source, verify)
    return text, tr


def test_traced_report_equals_analyze_germ():
    specs, _, _, _ = run.make_workload("rational_moved", 2)
    for text in ["(x, x*y, y^2, y^5)", "(x, y^2 + x*y, x^2, 0)", specs[0]["text"], specs[-1]["text"]]:
        assert traced_text(text)[0] == render_json(analyze_germ(text).report)
    fspec = run.make_workload("float_moved", 2)[0][0]
    from curvpar.germs import MapGermR4, TruncatedPoly2

    germ = MapGermR4(
        [TruncatedPoly2({(i, j): c for i, j, c in comp}, 6) for comp in fspec["comps"]]
    )
    assert traced_text(germ)[0] == render_json(analyze_germ(germ).report)


def test_traced_verified_report_and_kernel_spans():
    text = "(x, y^2, x^2, 0)"
    out, tr = traced_text(text, verify=True)
    assert out == render_json(analyze_germ(text, verify=True).report)
    rec = traced.per_analysis(tr.spans)[0]
    assert rec["self"]["kernels"] > 0 and rec["self"]["oracle"] > 0
    assert rec["span"]["oracle.asymptotic_scan"] >= rec["self"]["kernels"]
    # self times partition the analysis span
    assert sum(rec["self"].values()) == rec["span"]["analysis"]
