"""CLI subcommands, exit codes, CSV formats, report determinism."""

import ast
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import curvpar
from curvpar.cli import MAX_SAMPLES, main
from curvpar.config import DEFAULT_TOL, RETIRED_KEYS, Tolerances
from curvpar.report import fmt_float


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_basic_report(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--germ", "(x, x*y, y^2, y^5)")
    assert code == 0
    report = json.loads(out)
    assert report["parabola"]["kind"] == "parabola"
    assert report["parabola"]["stratum"] == "M2"
    assert report["umbilic"]["kappa_u"] == 0.0
    assert report["orbit"]["consistent"] is True


def test_analyze_umbilic_reference_value(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--germ", "(x,(y^3+x)^2,(y^3+x)^3,(y^3+x)^2*y)"
    )
    assert code == 0
    report = json.loads(out)
    assert report["umbilic"]["kappa_u"] == 2.0


@pytest.mark.parametrize("pad", [" ", "\n", " \t\n"])
def test_analyze_accepts_trailing_whitespace(capsys, pad):
    code, out, _ = run_cli(capsys, "analyze", "--germ", "(x, x*y, y^2, 0)")
    assert code == 0
    padded_code, padded_out, _ = run_cli(capsys, "analyze", "--germ", "(x, x*y, y^2, 0)" + pad)
    assert padded_code == 0
    padded = json.loads(padded_out)
    padded["input"]["germ"] = "(x, x*y, y^2, 0)"
    assert padded == json.loads(out)


def test_analyze_exit_3_on_wrong_corank(capsys):
    code, _, err = run_cli(capsys, "analyze", "--germ", "(x, y, 0, 0)")
    assert code == 3
    assert "rank 2" in err


def test_analyze_exit_1_on_parse_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "--germ", "(x, x*, 0, 0)")
    assert code == 1
    assert "parse error" in err


@pytest.mark.parametrize("eps_jet", ["0", "1e-20"])
def test_analyze_exit_1_when_adaptation_leaves_a_normal_1_jet(capsys, eps_jet):
    # the Jacobian has exact rank 1; the closed form leaves rounding noise of
    # about 3e-16 in a normal 1-jet, above a zero or tiny eps_jet
    text = "(2*x + 3*y + x^2, 5*x + 15/2*y, y^2, x^2)"
    code, out, err = run_cli(capsys, "analyze", "--germ", text, "--eps-jet", eps_jet)
    assert code == 1 and out == ""
    assert err.startswith("error: adaptation left 1-jet entry ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_analyze_exit_1_without_germ(capsys):
    code, _, err = run_cli(capsys, "analyze")
    assert code == 1


def test_analyze_report_deterministic(capsys):
    args = ("analyze", "--germ", "(x, x*y, y^2 + 1/3*x^2, 2*x^2)")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_verify_passes_on_good_germ(capsys):
    # the oracle differentiates the 2-jet, which the quartic term of the
    # second germ is not part of; no check compares an expression with itself
    for text in ("(x, x*y, y^2 + x^2, 0)", "(x, x*y + 1000*x^4, y^2, 0)"):
        code, out, _ = run_cli(capsys, "verify", "--germ", text)
        assert code == 0
        report = json.loads(out)
        assert report["verification"]["passed"] is True
        assert [c["name"] for c in report["verification"]["checks"]] == [
            "umbilic_vs_affine_hull",
            "asymptotic_scan_roots",
            "height_hessian_vs_fd",
        ]


def test_analyze_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--germ", "(x, x*y, y^2, y^5)", "--format", "text"
    )
    assert code == 0
    assert "point_type: parabolic" in out


def test_file_input(tmp_path, capsys):
    path = tmp_path / "germ.txt"
    path.write_text("# worked example\n(x, x*y, y^2, y^5)\n")
    code, out, _ = run_cli(capsys, "analyze", "--file", str(path))
    assert code == 0
    assert json.loads(out)["parabola"]["kind"] == "parabola"


def test_config_overrides_tolerances(tmp_path, capsys):
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"eps_rank": 1e-3}))
    code, out, _ = run_cli(
        capsys, "analyze", "--germ", "(x, x*y, y^2, y^5)", "--config", str(cfg)
    )
    assert code == 0


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"no_such_tolerance": 1.0}))
    code, _, err = run_cli(
        capsys, "analyze", "--germ", "(x, x*y, y^2, y^5)", "--config", str(cfg)
    )
    assert code == 1
    assert "unknown tolerance" in err


def test_config_rejects_non_finite_and_negative_values(tmp_path, capsys):
    cfg = tmp_path / "tol.json"
    for bad in ("NaN", "Infinity", "-1e-3", '"1e-9"'):
        cfg.write_text('{"eps_rank": %s}' % bad)
        code, out, err = run_cli(
            capsys, "analyze", "--germ", "(x, x*y, y^2, y^5)", "--config", str(cfg)
        )
        assert code == 1 and out == "", bad
        assert "eps_rank must be a finite non-negative number" in err


@pytest.mark.parametrize("data", ["[1, 2]", "null", "3", '"eps_rank"'])
def test_config_must_hold_one_object(tmp_path, capsys, data):
    cfg = tmp_path / "tol.json"
    cfg.write_text(data)
    code, out, err = run_cli(capsys, "analyze", "--germ", "(x, x*y, y^2, 0)", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and "Traceback" not in err
    assert "must hold one JSON object of tolerances" in err


def test_config_rejects_booleans(tmp_path, capsys):
    cfg = tmp_path / "tol.json"
    for key in ("eps_rank", "eps_jet"):
        cfg.write_text(json.dumps({key: True}))
        code, out, err = run_cli(capsys, "verify", "--germ", "(x, x*y, y^2, 0)", "--config", str(cfg))
        assert code == 1 and out == "", key
        assert err.count("error:") == 1 and f"{key} must be a finite non-negative number" in err


@pytest.mark.parametrize("path", ["keywords", "positional", "updated", "_replace", "_make", "from_file"])
def test_every_way_to_build_tolerances_validates(tmp_path, path):
    cfg = tmp_path / "tol.json"

    def build(key, value):
        values = [value if name == key else 1e-9 for name in Tolerances._fields]
        if path == "keywords":
            return Tolerances(**{key: value})
        if path == "positional":
            return Tolerances(*values)
        if path == "updated":
            return DEFAULT_TOL.updated(**{key: value})
        if path == "_replace":
            return DEFAULT_TOL._replace(**{key: value})
        if path == "_make":
            return Tolerances._make(values)
        cfg.write_text(json.dumps({key: value}))  # NaN and Infinity as JSON's extensions
        return Tolerances.from_file(cfg)

    for key in Tolerances._fields:
        assert getattr(build(key, 0.5), key) == 0.5
        for bad in (-1e-3, math.nan, math.inf, -math.inf, True, False, "1e-9", None):
            with pytest.raises(ValueError, match=f"{key} must be a finite non-negative number"):
                build(key, bad)


def test_config_ignores_deprecated_scan_nu_grid(tmp_path):
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"scan_nu_grid": 720, "eps_rank": 1e-8}))
    with pytest.warns(DeprecationWarning, match="scan_nu_grid"):
        tol = Tolerances.from_file(cfg)
    assert tol == DEFAULT_TOL.updated(eps_rank=1e-8)
    # every retired key is ignored with its own warning
    cfg.write_text(json.dumps({"eps_orth": 1e-12, "scan_nu_grid": 720, "eps_jet": 1e-11}))
    with pytest.warns(DeprecationWarning) as caught:
        tol = Tolerances.from_file(cfg)
    assert tol == DEFAULT_TOL.updated(eps_jet=1e-11)
    messages = [str(w.message) for w in caught]
    assert len(messages) == 2
    assert "eps_orth" in messages[0] and "scan_nu_grid" in messages[1]


ORACLE_KEYS = [
    "scan_window",
    "scan_points",
    "scan_zero_tol",
    "scan_saturation",
    "fd_step",
    "oracle_hull_tol",
    "oracle_root_tol",
    "oracle_hessian_tol",
]


@pytest.mark.parametrize("key", ORACLE_KEYS)
def test_config_ignores_each_retired_oracle_key(tmp_path, key):
    # the oracles' settings are constants in curvpar.oracle, not tolerances
    assert list(Tolerances._fields) == ["eps_rank", "eps_jet", "eps_disc"]
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({key: 1}))
    with pytest.warns(DeprecationWarning) as caught:
        tol = Tolerances.from_file(cfg)
    assert tol == DEFAULT_TOL
    assert len(caught) == 1 and key in str(caught[0].message)


def test_retired_scan_saturation_names_the_rule_that_replaced_it(tmp_path):
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"scan_saturation": 0.99}))
    with pytest.warns(DeprecationWarning, match="only when it marks every sample"):
        Tolerances.from_file(cfg)


def test_verify_with_retired_keys_prints_the_same_report(tmp_path, capsys):
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps(dict.fromkeys(ORACLE_KEYS, 1e300)))
    argv = ["verify", "--germ", "(x, y^2 + (10^20)^2*x*y, x^2, 0)"]
    want = run_cli(capsys, *argv)
    with pytest.warns(DeprecationWarning) as caught:
        got = run_cli(capsys, *argv, "--config", str(cfg))
    # the germ's own verdict: its scan saturates against a finite root
    assert got == want and want[0] == 2
    messages = [str(w.message) for w in caught]
    assert len(messages) == len(ORACLE_KEYS)
    assert all(any(f": {key} is deprecated" in m for m in messages) for key in ORACLE_KEYS)


def test_every_tolerance_field_is_read():
    # a field read nowhere in the package is a knob that changes nothing, and
    # a retired key read as an attribute would be a knob come back unlisted
    src = Path(curvpar.__file__).parent
    text = "\n".join(p.read_text() for p in sorted(src.glob("*.py")) if p.name != "config.py")
    unread = [name for name in Tolerances._fields if not re.search(rf"\.{name}\b", text)]
    assert unread == []
    every = "\n".join(p.read_text() for p in sorted(src.glob("*.py")))
    read = [key for key in RETIRED_KEYS if re.search(rf"\.{key}\b", every)]
    assert read == []


@pytest.mark.parametrize(
    "text", ["(x, y^2 + (10^20)^2*x*y, x^2, 0)", "(x, y^2 + 10^20*x*y, x^2, 0)", "(x, y^2 + 10^5*x*y, x^2, 0)"]
)
def test_half_line_with_a_far_vertex_is_analysed(capsys, text):
    # the vertex lies almost along N (at parameter -5e39 for the first germ),
    # so the half-line's plane is spanned by N and L, not by N and the vertex
    code, out, _ = run_cli(capsys, "analyze", "--germ", text)
    assert code == 0
    report = json.loads(out)
    assert report["parabola"]["shape"] == "non-radial half-line"
    assert report["point_type"] == "hyperbolic"
    assert report["umbilic"]["kappa_u"] == 2.0
    assert report["orbit"]["consistent"] and report["kappa_stratum_consistent"]
    assert report["heights"]["corank2"]["agrees"]


def exactness_branches(path):
    """``module.function`` of each branch whose condition asks whether a value is exact."""
    names = {"exact", "is_exact", "is_exact_scalar", "is_exact_vec", "_integers"}
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, (ast.If, ast.IfExp, ast.While)):
            conditions = [node.test]
        else:
            conditions = node.ifs if isinstance(node, ast.comprehension) else []
        for cond in conditions:
            if any(getattr(n, "attr", getattr(n, "id", None)) in names for n in ast.walk(cond)):
                sites.append(f"{path.stem}.{func}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return sites


def test_exactness_is_decided_in_linalg():
    # Zero, collinearity and rank tests decide exact-or-float per value in
    # linalg; the invariants they read are computed in the entries' own
    # arithmetic (forms.SecondForm), so no caller branches on exactness.
    # adapt's identity path turns on is_prenormal(), not on an exactness test.
    src = Path(curvpar.__file__).parent
    sites = [s for p in sorted(src.glob("*.py")) if p.name != "linalg.py" for s in exactness_branches(p)]
    assert sites == []


def column_product_sites(path):
    """``module.function`` of each ``cross3``/``np.cross`` call on second-form columns."""
    columns = {"L", "M", "N", "Lvec", "Mvec", "Nvec", "lf", "mf", "nf"}
    is_column = lambda n: getattr(n, "attr", getattr(n, "id", None)) in columns
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("cross3", "cross")
            and any(map(is_column, node.args))
        ):
            sites.append(f"{path.stem}.{func}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return sites


def test_column_products_are_the_second_forms_invariants():
    # Every label, frame and umbilic curvature reads the cross and triple
    # products of the columns L, M, N off forms.SecondForm, which computes
    # each once.  oracle.py is exempt: it re-derives results by sampling.
    # The orbit of a 2-jet is its second form's shape test.  The tests'
    # references re-derive part of the invariants on purpose, by their own
    # formulas and from the 2-jet: references.table_orbit's gamma minors are
    # w = M x N (up to a factor 2); ik_classify reads the point type off a
    # reduced 2-jet's b20, the sign that the asymptotic quadratic's
    # discriminant decides.
    src = Path(curvpar.__file__).parent
    sites = [s for p in sorted(src.glob("*.py")) if p.name != "oracle.py" for s in column_product_sites(p)]
    assert sites == ["forms.w", "forms.l_x_n", "forms.l_x_m"]


def column_float_sites(path):
    """``module.function`` of each place where a second-form column becomes floats.

    A column is a name or attribute ``L``, ``M``, ``N``, ``Lvec``, ``Mvec`` or
    ``Nvec``, such as ``sf.L``.  It becomes floats when it is an argument of
    ``float``, ``float_vec``, ``float_multiple`` or ``unit``, also by ``map``,
    or when it is part of the iterable of a comprehension whose element calls one.
    """
    columns = {"L", "M", "N", "Lvec", "Mvec", "Nvec"}
    converters = {"float", "float_vec", "float_multiple", "unit"}
    name = lambda n: getattr(n, "attr", getattr(n, "id", None))
    is_column = lambda n: name(n) in columns
    converts = lambda n: isinstance(n, ast.Call) and name(n.func) in converters
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        args = []
        if converts(node):
            args = node.args
        elif isinstance(node, ast.Call) and name(node.func) == "map" and name(node.args[0]) in converters:
            args = node.args[1:]
        elif isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)) and any(map(converts, ast.walk(node.elt))):
            args = [g.iter for g in node.generators]
        if any(is_column(n) for a in args for n in ast.walk(a)):
            sites.append(f"{path.stem}.{func}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return sites


def test_the_second_form_becomes_floats_in_one_place():
    # Every float view of the columns L, M, N, in the trace, the plane rows,
    # the frames, the binormals, the umbilic curvature and the oracles'
    # samples and Hessians, reads forms.SecondForm.float_columns, and so
    # does its ref.
    src = Path(curvpar.__file__).parent
    sites = [s for p in sorted(src.glob("*.py")) for s in column_float_sites(p)]
    assert sites == ["forms.float_columns"]


def format_value_sites(path):
    """``module.function: argument`` of each ``format_value`` call outside its own body."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "format_value" and func != "format_value":
            sites.append(f"{path.stem}.{func}: {ast.unparse(node.args[0])}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return sites


def twelve_digit_sites(path):
    """``module.function`` of each string, docstrings aside, that holds a ``12g`` format."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            for child in [*node.args.defaults, *node.decorator_list, *body]:
                visit(child, func)
            return
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "12g" in node.value:
            sites.append(f"{path.stem}.{func}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return sites


def test_the_report_is_built_in_one_pass():
    # build_report places each value already converted: format_value sees
    # only the values whose shape varies (a set of directions that may read
    # "all", a check's closed form and oracle), never the raw tree of the
    # report; and fmt_float is the one 12-digit rounding of a report float,
    # beside the CSV cells that cli._fmt prints as text
    src = Path(curvpar.__file__).parent
    sites = [s for p in sorted(src.glob("*.py")) for s in format_value_sites(p)]
    assert sites == [
        "report.build_report: osculating_hyperplanes(res.bset)",
        "report.build_report: res.transfer.m_directions",
        "report.build_report: res.transfer.s_directions",
        "report.analyze_germ: c.closed_form",
        "report.analyze_germ: c.oracle",
    ]
    rounding = [s for p in sorted(src.glob("*.py")) for s in twelve_digit_sites(p)]
    assert rounding == ["cli._fmt", "report.fmt_float"]


def is_tolerance(node):
    """A tolerance read (``tol.eps_*``, possibly wrapped in a call) or a literal below 1e-6."""
    if isinstance(node, ast.Call):
        return any(is_tolerance(a) for a in node.args)
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float) and 0 < node.value < 1e-6
    return isinstance(node, ast.Attribute) and node.attr.startswith("eps_")


def factors(node):
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return factors(node.left) + factors(node.right)
    return [node]


def reads_magnitude(node):
    """Whether an expression reads a size: a ref, a scale, a norm, an abs or a max."""
    names = {"ref", "scale", "scale_of", "norm", "vec_norm", "abs", "max"}
    return any(getattr(n, "attr", getattr(n, "id", None)) in names for n in ast.walk(node))


def zero_test_sites(path):
    """``(kind, module.function)`` of each float zero test not on the one ref.

    Kinds: ``floor``, a ``max(..., 1)`` (or any float constant) or a ``1 + ...``
    factor that reads a magnitude; ``own scale``, a product of a tolerance
    without a ref factor or with another factor reading a magnitude, or a
    ``vec_is_zero`` not given a ref; ``literal``, a comparison with a bare
    constant below 1e-6; ``scale_of``, each call of the helper.  A ref is a
    ``.ref`` attribute, a ``scale_of(...)`` call, or a name bound to either.
    """
    tree = ast.parse(path.read_text())
    is_call = lambda n, name: isinstance(n, ast.Call) and getattr(n.func, "id", None) == name
    is_ref_source = lambda n: is_call(n, "scale_of") or (isinstance(n, ast.Attribute) and n.attr == "ref")
    tuples = lambda n: all(isinstance(x, ast.Tuple) for x in (n.targets[0], n.value))
    unpack = lambda n: zip(n.targets[0].elts, n.value.elts) if tuples(n) else [(t, n.value) for t in n.targets]
    refs = {t.id for n in ast.walk(tree) if isinstance(n, ast.Assign) for t, v in unpack(n) if is_ref_source(v)}
    is_ref = lambda n: is_ref_source(n) or (isinstance(n, ast.Name) and n.id in refs)
    one = lambda n: isinstance(n, ast.Constant) and n.value == 1
    small = lambda n: isinstance(n, ast.Constant) and isinstance(n.value, float) and 0 < n.value < 1e-6
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        site = f"{path.stem}.{func}"
        if is_call(node, "max") and any(one(a) or (isinstance(a, ast.Constant) and isinstance(a.value, float)) for a in node.args):
            sites.append(("floor", site))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            fs = factors(node)
            plus_one = [f for f in fs if isinstance(f, ast.BinOp) and isinstance(f.op, ast.Add) and (one(f.left) or one(f.right))]
            if any(map(reads_magnitude, plus_one)):
                sites.append(("floor", site))
            own = [f for f in fs if not is_tolerance(f) and not is_ref(f) and reads_magnitude(f)]
            if any(map(is_tolerance, fs)) and (own or not any(map(is_ref, fs))):
                sites.append(("own scale", site))
        if is_call(node, "vec_is_zero") and not is_ref(node.args[2]):
            sites.append(("own scale", site))
        if isinstance(node, ast.Compare) and any(map(small, [node.left, *node.comparators])):
            sites.append(("literal", site))
        if is_call(node, "scale_of"):
            sites.append(("scale_of", site))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sites


def test_float_zero_tests_read_one_ref():
    # Every float zero test is |x| <= eps * ref**d: ref is linalg.scale_of of
    # the whole 2-jet, read once into SecondForm.ref, and d the degree of x in
    # the jet.  No floor of 1, no scale of a site's own, and no bare absolute
    # threshold.  linalg's relative tests take their operands'
    # norms; the oracle agreement checks are exempt.
    src = Path(curvpar.__file__).parent
    found = {"floor": [], "own scale": [], "literal": [], "scale_of": []}
    for p in sorted(src.glob("*.py")):
        for kind, site in zero_test_sites(p) if p.name != "oracle.py" else []:
            if site != "report.run_verification" and (kind, p.name) != ("own scale", "linalg.py"):
                found[kind].append(site)
    assert found == {
        "floor": [],
        # a cancellation test: the discriminant against its own terms
        "own scale": ["directions.solve_quadratic"],
        # sign and axis choices on unit vectors, whose norm is 1: the one
        # first-entry sign rule of frame vectors, and the basis completion
        "literal": ["linalg.first_entry_positive", "linalg.orthonormal_extension"],
        # adapt tests the moved germ before its adapted 2-jet exists, and the
        # projection S has rows of its own
        "scale_of": ["adapt.adapt", "associated.s_asymptotic_directions", "forms.__init__"],
    }


def unread_imports(source: str) -> list:
    """Names that a module's imports bind and its code never reads.

    A name counts as read where it is loaded, in an annotation too, or listed
    in ``__all__``; ``from __future__`` imports bind no name.
    """
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # __init__ imports to re-export
    src = Path(curvpar.__file__).parent
    found = {p.name: unread_imports(p.read_text()) for p in sorted(src.glob("*.py")) if p.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
    assert unread_imports("from .linalg import scale_of, unit\nunit(v)\n") == ["scale_of"]


@pytest.mark.parametrize("flag", ["--eps-rank", "--eps-jet", "--eps-disc"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-3"])
def test_tolerance_flags_reject_non_finite_and_negative(capsys, flag, value):
    code, out, err = run_cli(capsys, "analyze", "--germ", "(x, x*y, y^2, y^5)", f"{flag}={value}")
    assert code == 1
    assert out == ""
    assert "finite non-negative" in err


@pytest.mark.parametrize("command", ["sweep", "plotdata"])
def test_negative_sample_count_exits_1(tmp_path, capsys, command):
    code, out, err = run_cli(
        capsys,
        command,
        "--germ",
        "(x, x*y, t*x^2 + y^2, 0)",
        "--range",
        "0",
        "1",
        "--samples",
        "-3",
        "--out",
        str(tmp_path / "out"),
    )
    assert code == 1
    assert out == "" and not (tmp_path / "out").exists()
    assert "non-negative integer" in err


@pytest.mark.parametrize("command", ["sweep", "plotdata"])
def test_sample_count_above_the_cap_exits_1_before_sampling(tmp_path, capsys, monkeypatch, command):
    def refuse(*_args, **_kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr("curvpar.cli._sweep_values", refuse)
    monkeypatch.setattr("curvpar.cli.sample_parabola", refuse)
    argv = [command, "--germ", "(x, x*y, t*x^2 + y^2, 0)", "--range", "0", "1"]
    code, out, err = run_cli(capsys, *argv, "--samples", str(MAX_SAMPLES + 1), "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == "" and not (tmp_path / "out").exists()
    assert f"non-negative integer of at most {MAX_SAMPLES}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["sweep", "plotdata"])
def test_zero_denominator_range_exits_1(tmp_path, capsys, command):
    code, out, err = run_cli(
        capsys,
        command,
        "--germ",
        "(x, t*x*y, y^2, 0)" if command == "sweep" else "(x, x*y, y^2, 0)",
        "--range",
        "1/0",
        "1",
        "--out",
        str(tmp_path / "out"),
    )
    assert code == 1
    assert out == "" and not (tmp_path / "out").exists()
    assert err == "error: bad range: Fraction(1, 0)\n"


def test_plotdata_range_beyond_floats_exits_1(tmp_path, capsys):
    out_dir = tmp_path / "out"
    args = ("--germ", "(x, x*y, y^2, 0)", "--range", "1e400", "1", "--out", str(out_dir))
    code, out, err = run_cli(capsys, "plotdata", *args)
    assert code == 1
    assert out == "" and not out_dir.exists()
    assert err.startswith("error: bad range: ")


FLAT_PRODUCT = "(x, " + "2*" * 20000 + "x^65, y^2, 0)"


@pytest.mark.parametrize(
    "text",
    [
        "(x, " + "(" * 3000 + "y" + ")" * 3000 + ", 0, 0)",
        "(x, (1/3+x)^10000000, y^2, 0)",
        "(x, (((1/3+x)^64)^64)^64, y^2, 0)",
        "(x, ((((1/3+x)^64)^64)^64)^64, y^2, 0)",
        "(x, \u0663*y^2, 0, 0)",
        "(x, x*y, \uff12*y^2, 0)",
        "(x, x*y, (10^60)^6*y^2, 0)",
        # a flat product ending in a complete term whose exponent is refused
        pytest.param(FLAT_PRODUCT, id="flat-product-2*...*x^65"),
    ],
)
def test_hostile_germ_text_exits_1(capsys, text):
    code, out, err = run_cli(capsys, "analyze", "--germ", text)
    assert code == 1
    assert out == ""
    assert err.startswith("error: parse error")
    if text == FLAT_PRODUCT:
        assert err == f"error: parse error at position {text.index('^65') + 1}: exponent 65 exceeds 64\n"


# Each germ is a template: {p} is the sweep parameter t (swept over [1, 1])
# for sweep and the literal 1 for the other subcommands.
BOUNDARY_GERMS = {
    "parse-error": "(x, {p}*x*, y^2, 0)",
    "not-at-origin": "(x, {p} + y^2, x*y, 0)",
    "overflow": "(x, x*y, (10^60)^6*{p}*y^2, 0)",
    "corank-2": "(x^2, x*y, y^2, {p}*x^3)",
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_GERMS))
@pytest.mark.parametrize("command", ["analyze", "verify", "sweep", "plotdata"])
def test_every_subcommand_exits_like_analyze(tmp_path, capsys, command, case):
    template = BOUNDARY_GERMS[case]
    want, _, _ = run_cli(capsys, "analyze", "--germ", template.format(p="1"))
    assert want in (1, 3)
    out_path = tmp_path / "out"
    argv = [command, "--out", str(out_path)]
    if command == "sweep":
        argv += ["--germ", template.format(p="t"), "--range", "1", "1", "--samples", "1"]
    else:
        argv += ["--germ", template.format(p="1")]
    code, out, err = run_cli(capsys, *argv)
    assert code == want
    assert out == "" and not out_path.exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "verify", "sweep", "plotdata"])
def test_no_subcommand_takes_a_jet_order(capsys, command):
    # the analysis reads the 2-jet alone, so there is no order to choose
    argv = [command, "--germ", "(x, x*y, t*y^2, 0)", "--range", "0", "1", "--order", "4"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: unrecognized arguments: ") and "--order 4" in err


# The norm of N (about 2e180) overflows while N is finite: linalg.unit
# rescales it, with no warning, and the discriminant then leaves the float range.
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_non_finite_report_exits_1(capsys, fmt):
    text = "(x, (10^60)^3*y^2, x^2, 0)"
    code, out, err = run_cli(capsys, "analyze", "--format", fmt, "--germ", text)
    assert code == 1
    assert out == ""
    assert err == "error: report.asymptotic.discriminant is inf: the analysis left the float range\n"


def test_a_coefficient_whose_scale_is_not_a_float_exits_1_naming_it(capsys):
    # 10^308 lies in [2^1023, max float]: its scale 2^1024 is not a float
    text = "(x + y^2, (10^44)^7*x*y, (10^44)^7*y^2, 0)"
    code, out, err = run_cli(capsys, "analyze", "--germ", text)
    assert (code, out, err) == (1, "", "error: a coefficient left the float range\n")


def test_vectors_whose_squares_overflow_get_the_twins_frames(capsys):
    # |B|^2 and the binormal system's norms overflow while B (about 1e306) is
    # finite; rescaled unit vectors give the twin's labels, binormal and
    # osculating hyperplane, with no warning
    code, out, _ = run_cli(capsys, "analyze", "--germ", "(x, (10^51)^6*x*y, y^2, x^2)")
    assert code == 0
    _, twin, _ = run_cli(capsys, "analyze", "--germ", "(x, x*y, y^2, x^2)")
    got, want = json.loads(out), json.loads(twin)
    for key in ("orbit", "binormal", "osculating_hyperplanes", "point_type", "umbilic"):
        assert got[key] == want[key], key
    for key in ("shape", "stratum", "plane"):
        assert got["parabola"][key] == want["parabola"][key], key
    assert got["asymptotic"]["parameters"] == want["asymptotic"]["parameters"]


def test_sweep_exits_1_on_a_non_finite_row(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, out, err = run_cli(
        capsys,
        "sweep",
        "--germ",
        "(x, (10^60)^3*t*y^2, x^2, 0)",
        "--range",
        "1",
        "1",
        "--samples",
        "1",
        "--out",
        str(out_file),
    )
    assert code == 1
    assert out == "" and not out_file.exists()
    assert err == (
        "error: the row t = 1: report.asymptotic.discriminant is inf: the analysis left the float range\n"
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_plotdata_overflow_exits_1_and_writes_nothing(tmp_path, capsys):
    # the cone's quadric overflows after the parabola samples were computed
    out_dir = tmp_path / "plots"
    code, out, err = run_cli(
        capsys, "plotdata", "--germ", "(x, (10^51)^6*x*y, y^2, x^2)", "--out", str(out_dir), "--ellipse"
    )
    assert code == 1
    assert out == "" and err.startswith("error: ")
    assert not out_dir.exists()
    # the printed discriminant is the monic quadratic's, (y1 - y2)^2, which
    # stays in the float range with the roots
    code, out, err = run_cli(capsys, "analyze", "--germ", "(x, x*y, (10^60)^2*y^2 + x^2, 0)")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["point_type"] == "hyperbolic"
    assert report["asymptotic"]["parameters"] == [-1e-60, 1e-60]
    assert report["asymptotic"]["discriminant"] == 4e-120


def test_readme_sweep_example_csv(capsys):
    # the README's example, byte for byte: elliptic below t = 0, parabolic at
    # 0 and hyperbolic above, with a transition flag at 0 and at 0.1
    code, out, err = run_cli(capsys, "sweep", "--germ", "(x, x*y, t*x^2 + y^2, 0)", "--range", "-2", "2", "--samples", "41")
    assert (code, err) == (0, "")
    labels = {-1: ("elliptic", 0, "no"), 0: ("parabolic", 1, "yes"), 1: ("hyperbolic", 2, "no")}
    rows = ["t,orbit,shape,point_type,kappa_u,n_asymptotic,n_binormal,transition"]
    for k in range(-20, 21):
        ptype, count, flag = labels[(k > 0) - (k < 0)]
        flag = "yes" if k == 1 else flag
        rows.append(f'{k / 10:g},"(x,xy,y^2,0)",nondegenerate parabola,{ptype},0,{count},{count},{flag}')
    assert out == "\n".join(rows) + "\n"


def test_sweep_ik_family(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--germ",
        "(x, x*y, t*x^2 + y^2, 0)",
        "--range",
        "-1",
        "1",
        "--samples",
        "3",
        "--out",
        str(out_file),
    )
    assert code == 0
    import csv as csv_mod

    with open(out_file, newline="") as fh:
        rows = list(csv_mod.reader(fh))
    assert rows[0][0] == "t"
    assert [r[3] for r in rows[1:]] == ["elliptic", "parabolic", "hyperbolic"]


def test_sweep_empty_range(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--germ",
        "(x, x*y, t*x^2 + y^2, 0)",
        "--range",
        "0",
        "1",
        "--samples",
        "0",
    )
    assert code == 0
    assert out.splitlines() == [
        "t,orbit,shape,point_type,kappa_u,n_asymptotic,n_binormal,transition"
    ]


def test_sweep_single_transition_when_zero_not_sampled(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--germ",
        "(x, x*y, t*x^2 + y^2, 0)",
        "--range",
        "-1",
        "51/50",
        "--samples",
        "101",
    )
    assert code == 0
    lines = out.splitlines()[1:]
    flagged = [ln for ln in lines if ln.endswith(",yes")]
    assert len(flagged) == 1


def test_sweep_rejects_multi_parameter_template(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--germ", "(x, s*x*y, t*y^2, 0)", "--range", "0", "1"
    )
    assert code == 1
    assert "exactly one parameter" in err


def test_plotdata_files(tmp_path, capsys):
    out_dir = tmp_path / "plots"
    code, _, _ = run_cli(
        capsys,
        "plotdata",
        "--germ",
        "(x, x*y, y^2, y^5)",
        "--out",
        str(out_dir),
        "--samples",
        "3",
        "--range",
        "-1",
        "1",
        "--ellipse",
    )
    assert code == 0
    parabola_lines = (out_dir / "parabola.csv").read_text().splitlines()
    assert parabola_lines[0] == "y,c1,c2,c3,c4"
    assert len(parabola_lines) == 4
    assert parabola_lines[3] == "1,0,2,2,0"
    cone_lines = (out_dir / "cone.csv").read_text().splitlines()
    assert cone_lines[0] == "theta,phi,det_sign,det_value"
    ellipse_lines = (out_dir / "ellipse.csv").read_text().splitlines()
    assert ellipse_lines[0] == "theta,eta1,eta2"
    assert len(ellipse_lines) == 361


def test_plotdata_cone_zero_germ(tmp_path, capsys):
    out_dir = tmp_path / "plots"
    code, _, _ = run_cli(
        capsys, "plotdata", "--germ", "(x, 0, 0, 0)", "--out", str(out_dir)
    )
    assert code == 0
    for line in (out_dir / "cone.csv").read_text().splitlines()[1:]:
        _, _, sign, value = line.split(",")
        assert sign == "0" and value == "0"


def test_verify_failure_exits_2(capsys, monkeypatch):
    # a score is at most the smaller plane value, so a zero tolerance of 1
    # marks every sample: the scan saturates, contradicting the finite answer
    monkeypatch.setattr(curvpar.oracle, "SCAN_ZERO_TOL", 1.0)
    code, _, err = run_cli(capsys, "verify", "--germ", "(x, x*y, y^2 + x^2, 2*x^2)")
    assert code == 2
    assert "verification failed" in err


def test_verify_reports_a_saturated_scan_as_all(capsys):
    # the scan marks every sample against two closed-form directions, as
    # unit directions: the vertex y = -5e39 and the null direction (0, 1)
    code, out, err = run_cli(capsys, "verify", "--germ", "(x, y^2 + (10^20)^2*x*y, x^2, 0)")
    assert code == 2
    assert err == "verification failed: asymptotic_scan_roots\n"
    checks = {c["name"]: c for c in json.loads(out)["verification"]["checks"]}
    check = checks["asymptotic_scan_roots"]
    assert (check["closed_form"], check["oracle"], check["passed"]) == ([[2e-40, -1.0], [0.0, 1.0]], "all", False)
    # the FD Hessian bound scales with the input's 2-jet, here with 2^133
    check = checks["height_hessian_vs_fd"]
    assert check["passed"] and check["tolerance"] == fmt_float(1e-6 * 2.0**133)


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "curvpar.cli", "analyze", "--germ", "(x, y, 0, 0)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3


def test_verify_of_a_near_overflow_coefficient_exits_cleanly_naming_the_check():
    # out of process, so that a numpy overflow warning would show as it does
    # to a user.  The hull samples are taken in units of ref and stay in the
    # float range; the scan cannot resolve the roots of this germ and says so
    proc = subprocess.run(
        [sys.executable, "-m", "curvpar.cli", "verify", "--germ", "(x, (10^51)^6*x*y, y^2, x^2)"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == "verification failed: asymptotic_scan_roots\n"
    checks = {c["name"]: c["passed"] for c in json.loads(proc.stdout)["verification"]["checks"]}
    assert checks == {"umbilic_vs_affine_hull": True, "asymptotic_scan_roots": False, "height_hessian_vs_fd": True}


def test_overflowing_asymptotic_quadratic_exits_1_naming_it(capsys):
    # the golden (x, x*y - y^2, x^2 + x*y, 3*y^2 + x^2) with its normal
    # components times (2^60)^5: squaring the quadratic's middle coefficient
    # overflows, and an infinite threshold would decide a double root
    c = "(2^60)^5"
    text = f"(x, {c}*x*y - {c}*y^2, {c}*x^2 + {c}*x*y, 3*{c}*y^2 + {c}*x^2)"
    code, out, err = run_cli(capsys, "analyze", "--germ", text)
    assert (code, out) == (1, "")
    assert err == "error: the asymptotic quadratic leaves the float range\n"


def test_reduction_of_a_nearly_degenerate_parabola_stays_finite(capsys):
    # the y^2 column C is nearly along the xy column B; B's part off C is
    # taken as C x (B x C), without subtracting nearly equal vectors
    text = "(x, x*y + y^2, 1/10^9*y^2 + x^2, 0)"
    code, out, err = run_cli(capsys, "analyze", "--germ", text)
    assert (code, err) == (0, "")
    reduced = json.loads(out)["reduced_two_jet"]
    assert all(math.isfinite(v) for v in reduced["jet2"].values())


# Run in a fresh interpreter: after each step, print the step's name, its
# exit code (0 for a library call) and whether numpy and dataclasses have
# been imported.
NUMPY_PROBE = """
import json, runpy, sys, tempfile

def step(name, code):
    print(json.dumps([name, code, "numpy" in sys.modules, "dataclasses" in sys.modules]))

def cli(*argv):
    sys.argv = ["curvpar", *argv]
    try:
        runpy.run_module("curvpar.cli", run_name="__main__")
    except SystemExit as exc:
        return exc.code
    return None

from curvpar import analyze_germ
from curvpar.germs import MapGermR4, TruncatedPoly2
from curvpar.report import render_json

step("import", 0)
render_json(analyze_germ("(x, x*y, y^2 + x^2, x^2)").report)
step("exact prenormal text", 0)
render_json(analyze_germ("(x + y, x*y, y^2, x^2)").report)
step("rational non-prenormal text", 0)
comps = [{(1, 0): 0.6, (0, 1): 0.8, (2, 0): 0.25}, {(1, 1): 1.5}, {(0, 2): -2.0, (2, 0): 0.5}, {(1, 1): 0.125}]
render_json(analyze_germ(MapGermR4([TruncatedPoly2(c, 2) for c in comps])).report)
step("float MapGermR4", 0)
step("cli analyze", cli("analyze", "--germ", "(x, x*y, y^2 + x^2, x^2)"))
step("cli analyze --verify", cli("analyze", "--verify", "--germ", "(x, x*y, y^2 + x^2, x^2)"))
with tempfile.TemporaryDirectory() as out:
    step("cli plotdata", cli("plotdata", "--germ", "(x, x*y, y^2 + x^2, x^2)", "--out", out))
"""


def test_only_verify_and_plotdata_import_numpy():
    # numpy is most of the start-up; the analysis and its report run on tuples.
    # dataclasses, with the inspect and ast it imports, is loaded by no step
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]
    assert steps == [
        ["import", 0, False, False],
        ["exact prenormal text", 0, False, False],
        ["rational non-prenormal text", 0, False, False],
        ["float MapGermR4", 0, False, False],
        ["cli analyze", 0, False, False],
        ["cli analyze --verify", 0, True, False],
        ["cli plotdata", 0, True, False],
    ]


def module_trees():
    """``(module name, AST)`` of each module of the package."""
    src = Path(curvpar.__file__).parent
    return [(p.stem, ast.parse(p.read_text())) for p in sorted(src.glob("*.py"))]


def test_no_module_imports_dataclasses():
    # the records are NamedTuples: a dataclass costs its module's import, and
    # generating its methods, at every start-up
    importers = [
        name
        for name, tree in module_trees()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert importers == []


def builtin_sum_sites(name, tree):
    """``module.function`` of each call of the builtin ``sum``, the innermost
    named function enclosing it."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum":
            sites.append(f"{name}.{func}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
    return sites


def test_the_hessian_check_runs_without_numpy():
    # the finite-difference heights and the pull-back are plain float
    # products and linalg.float_dot's left folds, so the printed gap does not
    # depend on the BLAS kernel that numpy picks for the CPU
    (tree,) = [tree for name, tree in module_trees() if name == "oracle"]
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for name in ("finite_difference_hessian", "hessian_gap"):
        names = {n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)}
        imports = [n for n in ast.walk(functions[name]) if isinstance(n, (ast.Import, ast.ImportFrom))]
        assert not names & {"np", "numpy"} and imports == [], name


def test_each_stencil_height_is_a_float_dot(monkeypatch):
    import curvpar.oracle
    from curvpar import linalg
    from curvpar.germs import MapGermR4, parse_map_germ

    values, heights = [], []
    evaluate, float_dot = MapGermR4.evaluate, linalg.float_dot
    monkeypatch.setattr(MapGermR4, "evaluate", lambda self, x, y: values.append(evaluate(self, x, y)) or values[-1])
    monkeypatch.setattr(curvpar.oracle, "float_dot", lambda a, b: heights.append((a, b)) or float_dot(a, b))
    jet = parse_map_germ("(x, 1/3*x*y - y^2, 2/7*x^2 + 2*y^2, 3*x^2 + 5/11*x*y)", 2)
    normals = [(0.1, -0.7, 0.2, 0.6), (0.0, 0.3, -0.9, 1 / 3)]
    hessians = curvpar.oracle.finite_difference_hessian(jet, normals)
    assert len(values) == 9
    # one height per stencil value and normal, each linalg.float_dot of the two
    assert heights == [(list(n), v) for n in normals for v in values]
    s = curvpar.oracle.FD_STEP
    for n, hess in zip(normals, hessians):
        h = [float_dot(n, v) for v in values]  # at (i, j) for i, j in -1, 0, 1
        hxx = (h[7] - 2.0 * h[4] + h[1]) / (s * s)
        hyy = (h[5] - 2.0 * h[4] + h[3]) / (s * s)
        hxy = (h[8] - h[6] - h[2] + h[0]) / (4.0 * s * s)
        assert [[x.hex() for x in row] for row in hess] == [[x.hex() for x in row] for row in [[hxx, hxy], [hxy, hyy]]]


def test_no_builtin_sum_on_the_float_path():
    # from Python 3.12 on, sum() of floats compensates its rounding, so a
    # float sum would print different bytes on different interpreters;
    # linalg's plain left folds round the same everywhere, the verification
    # block's ambient normals included.
    sites = [site for name, tree in module_trees() for site in builtin_sum_sites(name, tree)]
    assert sites == []
