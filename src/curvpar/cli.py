"""Command-line interface: analyze, sweep, plotdata, verify.

Exit codes: 0 success, 1 input error, 2 verification failure, 3 corank
precondition violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .adapt import CorankError
from .associated import curvature_ellipse
from .config import DEFAULT_TOL, Tolerances
from .germs import GermParseError, parse_map_germ, template_parameters
from .heights import sample_cone
from .parabola import sample_parabola
from .report import analyze_germ, check_finite, render_json, render_text

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_CORANK = 3


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _CliError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _sample_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="curvpar", description="Second-order geometry of corank-1 germs in R^4")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, verify_flag=True):
        p.add_argument("--germ", "-g", help="germ expression, e.g. \"(x, x*y, y^2, y^5)\"")
        p.add_argument("--file", "-f", help="file containing the germ expression")
        p.add_argument("--config", help="JSON file overriding tolerances")
        p.add_argument("--eps-rank", type=float, default=None, help="rank/zero tolerance")
        p.add_argument("--eps-jet", type=float, default=None, help="vanishing 1-jet tolerance")
        p.add_argument("--eps-disc", type=float, default=None, help="double-root tolerance")
        p.add_argument("--out", help="output path (default stdout)")
        if verify_flag:
            p.add_argument("--verify", action="store_true", help="run the oracle cross-checks")

    p_an = sub.add_parser("analyze", help="run the full pipeline on one germ")
    add_common(p_an)
    p_an.add_argument("--format", choices=("json", "text"), default="json")

    p_ver = sub.add_parser("verify", help="analyze with the oracle cross-checks enabled")
    add_common(p_ver, verify_flag=False)
    p_ver.add_argument("--format", choices=("json", "text"), default="json")

    p_sw = sub.add_parser("sweep", help="sweep one template parameter, emit a CSV summary")
    add_common(p_sw, verify_flag=False)
    p_sw.add_argument("--range", nargs=2, metavar=("LO", "HI"), required=True)
    p_sw.add_argument("--samples", type=_sample_count, default=11)

    p_pd = sub.add_parser("plotdata", help="write parabola/cone (and ellipse) sample CSVs")
    add_common(p_pd, verify_flag=False)
    p_pd.add_argument("--range", nargs=2, metavar=("LO", "HI"), default=("-5", "5"))
    p_pd.add_argument("--samples", type=_sample_count, default=401)
    p_pd.add_argument("--ellipse", action="store_true", help="also write ellipse samples")

    return parser


def _load_tolerances(args) -> Tolerances:
    tol = Tolerances.from_file(args.config) if args.config else DEFAULT_TOL
    overrides = {}
    if args.eps_rank is not None:
        overrides["eps_rank"] = args.eps_rank
    if args.eps_jet is not None:
        overrides["eps_jet"] = args.eps_jet
    if args.eps_disc is not None:
        overrides["eps_disc"] = args.eps_disc
    return tol.updated(**overrides) if overrides else tol


def _germ_text(args) -> str:
    if args.germ and args.file:
        raise _CliError("pass exactly one of --germ or --file")
    if args.germ:
        return args.germ
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            lines = [ln.split("#", 1)[0] for ln in fh]
        return " ".join(ln.strip() for ln in lines if ln.strip())
    raise _CliError("a germ is required (--germ or --file)")


def _write(path, content: str):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
    else:
        sys.stdout.write(content)


def _cmd_analyze(args, verify: bool) -> int:
    tol = _load_tolerances(args)
    text = _germ_text(args)
    res = analyze_germ(text, tol=tol, verify=verify)
    content = render_json(res.report) if args.format == "json" else render_text(res.report)
    _write(args.out, content)
    if verify and not res.verification.passed:
        failed = [c.name for c in res.verification.checks if not c.passed]
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _range(args, number=Fraction) -> tuple:
    """The ``--range`` bounds as Fractions, converted by ``number``; a bound that is
    malformed or that ``number`` cannot hold is an input error."""
    try:
        return tuple(number(Fraction(b)) for b in args.range)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise _CliError(f"bad range: {exc}") from exc


def _sweep_values(lo: Fraction, hi: Fraction, n: int):
    if n <= 0:
        return []
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n)]


def _cmd_sweep(args) -> int:
    tol = _load_tolerances(args)
    text = _germ_text(args)
    names = template_parameters(text)
    if len(names) != 1:
        raise _CliError(
            f"sweep template must use exactly one parameter besides x and y, found {names}"
        )
    name = names[0]
    lo, hi = _range(args)

    header = [
        name,
        "orbit",
        "shape",
        "point_type",
        "kappa_u",
        "n_asymptotic",
        "n_binormal",
        "transition",
    ]
    rows = []
    prev_labels = None
    for value in _sweep_values(lo, hi, args.samples):
        germ = parse_map_germ(text, 2, params={name: value})
        res = analyze_germ(germ, tol=tol, input_text=text)
        report = res.report
        check_finite(report, f"the row {name} = {value}: report")
        labels = (
            report["orbit"]["from_geometry"],
            report["parabola"]["shape"],
            report["point_type"],
            str(report["asymptotic"]["count"]),
            str(report["binormal"]["count"]),
        )
        transition = prev_labels is not None and labels != prev_labels
        orbit, shape, ptype, n_asym, n_bin = labels
        kappa_u = _fmt(res.umbilic.kappa_u)
        rows.append([_fmt(float(value)), orbit, shape, ptype, kappa_u, n_asym, n_bin, "yes" if transition else "no"])
        prev_labels = labels
    content = _csv_content(header, rows)
    _write(args.out, content)
    return EXIT_OK


def _csv_content(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_plotdata(args) -> int:
    tol = _load_tolerances(args)
    text = _germ_text(args)
    if not args.out:
        raise _CliError("plotdata requires --out DIRECTORY")
    lo, hi = _range(args, float)
    res = analyze_germ(text, tol=tol)

    # every file is computed before any is written, so a failure leaves none
    frame = res.adapted.normal_frame
    rows = []
    for y, e1, e2, e3 in sample_parabola(res.profile, lo, hi, args.samples):
        ambient = frame.T @ np.array([e1, e2, e3])
        rows.append([_fmt(y)] + [_fmt(c) for c in ambient])
    files = {"parabola.csv": _csv_content(["y", "c1", "c2", "c3", "c4"], rows)}

    cone_rows = [
        [_fmt(theta), _fmt(phi), str(sign), _fmt(value)]
        for theta, phi, sign, value in sample_cone(res.cone, tol=tol)
    ]
    files["cone.csv"] = _csv_content(["theta", "phi", "det_sign", "det_value"], cone_rows)

    if args.ellipse:
        ell_rows = []
        for k in range(360):
            theta = 2.0 * math.pi * k / 360.0
            e = curvature_ellipse(res.projection, theta)
            ell_rows.append([_fmt(theta), _fmt(e[0]), _fmt(e[1])])
        files["ellipse.csv"] = _csv_content(["theta", "eta1", "eta2"], ell_rows)

    os.makedirs(args.out, exist_ok=True)
    for name, content in files.items():
        _write(os.path.join(args.out, name), content)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.command == "analyze":
            return _cmd_analyze(args, verify=getattr(args, "verify", False))
        if args.command == "verify":
            return _cmd_analyze(args, verify=True)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "plotdata":
            return _cmd_plotdata(args)
        raise AssertionError(f"unhandled command {args.command}")
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CorankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORANK
    except (GermParseError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
