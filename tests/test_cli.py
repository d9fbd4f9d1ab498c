"""CLI subcommands, exit codes, CSV formats, report determinism."""

import ast
import json
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import curvpar
from curvpar.cli import main
from curvpar.config import DEFAULT_TOL, Tolerances


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


def test_analyze_exit_1_without_germ(capsys):
    code, _, err = run_cli(capsys, "analyze")
    assert code == 1


def test_analyze_report_deterministic(capsys):
    args = ("analyze", "--germ", "(x, x*y, y^2 + 1/3*x^2, 2*x^2)")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_verify_passes_on_good_germ(capsys):
    # the quartic term of the second germ defeats a plain central difference
    for text in ("(x, x*y, y^2 + x^2, 0)", "(x, x*y + 1000*x^4, y^2, 0)"):
        code, out, _ = run_cli(capsys, "verify", "--germ", text)
        assert code == 0
        report = json.loads(out)
        assert report["verification"]["passed"] is True
        names = {c["name"] for c in report["verification"]["checks"]}
        assert "umbilic_vs_affine_hull" in names
        assert "asymptotic_scan_roots" in names
        assert "height_hessian_vs_fd" in names


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


@pytest.mark.parametrize("points", [1, 0, 2.5])
def test_config_rejects_scan_points_below_two_or_fractional(tmp_path, capsys, points):
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"scan_points": points}))
    code, out, err = run_cli(
        capsys, "verify", "--germ", "(x, x*y, y^2, 0)", "--config", str(cfg)
    )
    assert code == 1 and out == ""
    assert "scan_points must be an integer of at least 2" in err


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


def test_every_tolerance_field_is_read():
    # a field read nowhere in the package is a knob that changes nothing
    src = Path(curvpar.__file__).parent
    text = "\n".join(p.read_text() for p in sorted(src.glob("*.py")) if p.name != "config.py")
    unread = [f.name for f in fields(Tolerances) if not re.search(rf"\.{f.name}\b", text)]
    assert unread == []


def exactness_branches(path):
    """``module.function`` of each branch whose condition asks whether a value is exact."""
    names = {"exact", "is_exact", "is_exact_scalar", "is_exact_vec"}
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
    # linalg.  Two forks keep a reason of their own: the exact root
    # polynomial of the asymptotic quadratic, and the shape-based zero rule
    # of the umbilic curvature.  adapt's identity path turns on
    # is_prenormal(), not on an exactness test.
    src = Path(curvpar.__file__).parent
    sites = [s for p in sorted(src.glob("*.py")) if p.name != "linalg.py" for s in exactness_branches(p)]
    assert sites == ["directions.asymptotic_directions", "umbilic.umbilic_curvature"]


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
    ],
)
def test_hostile_germ_text_exits_1(capsys, text):
    code, out, err = run_cli(capsys, "analyze", "--germ", text)
    assert code == 1
    assert out == ""
    assert err.startswith("error: parse error")


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
        capsys, "plotdata", "--germ", "(x, 0, 0, 0)", "--order", "2", "--out", str(out_dir)
    )
    assert code == 0
    for line in (out_dir / "cone.csv").read_text().splitlines()[1:]:
        _, _, sign, value = line.split(",")
        assert sign == "0" and value == "0"


def test_verify_failure_exits_2(tmp_path, capsys):
    # a huge scan threshold saturates the scan, contradicting the finite answer
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"scan_zero_tol": 1e300}))
    code, _, err = run_cli(
        capsys,
        "verify",
        "--germ",
        "(x, x*y, y^2 + x^2, 2*x^2)",
        "--config",
        str(cfg),
    )
    assert code == 2
    assert "verification failed" in err


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "curvpar.cli", "analyze", "--germ", "(x, y, 0, 0)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3


def test_verify_exits_1_when_hull_samples_overflow():
    # out of process: the overflow warnings would fail an in-process run
    proc = subprocess.run(
        [sys.executable, "-m", "curvpar.cli", "verify", "--germ", "(x, (10^51)^6*x*y, y^2, x^2)"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert "error: affine hull samples leave the float range" in proc.stderr
