"""Full analysis pipeline and deterministic report serialization.

``analyze_germ`` runs every stage on one germ and returns both the structured
report (plain dict, stable key order, floats at 12 significant digits) and
the intermediate objects for programmatic use.
"""

from __future__ import annotations

import json
import math
import numbers
from fractions import Fraction

from .adapt import AdaptedGerm, adapt
from .associated import (
    RegularSurfaceR4,
    RegularSurfaceR5,
    project_to_s,
    verify_transfer,
)
from .config import DEFAULT_TOL, Tolerances
from .directions import (
    AsymptoticSet,
    BinormalSet,
    asymptotic_directions,
    binormal_directions,
    directions_match,
    osculating_hyperplanes,
    point_type,
)
from .forms import FirstForm, SecondForm, first_form
from .germs import MapGermR4, extract_jet2, parse_map_germ
from .heights import (
    DegeneracyCone,
    cone_parabola_orthogonality,
    corank2_conditions,
    degeneracy_cone,
    height_hessian,
)
from . import oracle
from .linalg import float_dot, scale_of
from .oracle import (
    VerificationReport,
    asymptotic_scan,
    finite_difference_hessian,
    parabola_hull_distance,
)
from .parabola import (
    ParabolaProfile,
    ReducedTwoJet,
    build_parabola,
    reduce_to_normal_form,
)
from .umbilic import UmbilicResult, kappa_stratum_check, umbilic_curvature

__all__ = ["AnalysisResult", "analyze_germ", "check_finite", "fmt_float", "format_value", "render_text"]


def fmt_float(x: float) -> float:
    """Round to 12 significant digits for stable serialization; -0.0 prints 0.0.

    This is the one rounding rule of the report.  Zeros and units, most of
    the floats in a report, round to themselves and skip the text round trip;
    no other float rounds to zero.
    """
    x = float(x)
    if x == 0.0:
        return 0.0
    if x == 1.0 or x == -1.0:
        return x
    return float(f"{x:.12g}")


def _leaf(v):
    """A scalar as the report prints it: a float by ``fmt_float``, a rational
    as an int or exact text such as ``"1/3"``, and str, bool, int and None as
    they are."""
    t = type(v)
    if t is float:
        return fmt_float(v)
    if t is Fraction:
        return int(v) if v.denominator == 1 else str(v)
    if t is str or t is bool or t is int or v is None:
        return v
    # numbers of other types, numpy's scalars in a user's germ among them
    if isinstance(v, numbers.Integral):
        return int(v)
    if isinstance(v, numbers.Real):
        return fmt_float(v)
    raise TypeError(f"cannot serialize {type(v)!r}")


def format_value(v):
    """Recursively prepare a value for JSON output: dicts and lists of ``_leaf`` values.

    Tuples become lists.  The report uses it only where a value's shape
    varies, such as a set of directions that may read ``"all"``.
    """
    t = type(v)
    if t is dict:
        return {k: format_value(val) for k, val in v.items()}
    if t is list or t is tuple:
        return [format_value(c) for c in v]
    return _leaf(v)


def _vec(v) -> list:
    return [_leaf(c) for c in v]


def _mat(rows) -> list:
    return [[_leaf(c) for c in row] for row in rows]


def _jet2(j) -> dict:
    return {
        "a20": _leaf(j.a20), "a11": _leaf(j.a11), "a02": _leaf(j.a02),
        "b20": _leaf(j.b20), "b11": _leaf(j.b11), "b02": _leaf(j.b02),
        "c20": _leaf(j.c20), "c11": _leaf(j.c11), "c02": _leaf(j.c02),
    }


class AnalysisResult:
    """Every stage's result of one analysis, with its report.

    Mutable: ``analyze_germ`` builds it with an empty ``report`` and then
    sets ``report`` and, under ``--verify``, ``verification``.  ``lift``, the
    ``R^5`` lift, is read by no result: ``analyze_germ`` leaves it None, and
    ``associated.lift_to_r5(res.adapted)`` builds it.
    """

    def __init__(
        self,
        germ: MapGermR4,
        adapted: AdaptedGerm,
        first: FirstForm,
        sf: SecondForm,
        jet2,
        orbit_table: str,
        profile: ParabolaProfile,
        aset: AsymptoticSet,
        bset: BinormalSet,
        ptype: str,
        umbilic: UmbilicResult,
        cone: DegeneracyCone,
        corank2,
        reduced: ReducedTwoJet,
        projection: RegularSurfaceR4,
        transfer,
        report: dict,
        verification: VerificationReport | None = None,
        lift: RegularSurfaceR5 | None = None,
    ):
        self.germ = germ
        self.adapted = adapted
        self.first = first
        self.sf = sf
        self.jet2 = jet2
        self.orbit_table = orbit_table
        self.profile = profile
        self.aset = aset
        self.bset = bset
        self.ptype = ptype
        self.umbilic = umbilic
        self.cone = cone
        self.corank2 = corank2
        self.reduced = reduced
        self.projection = projection
        self.transfer = transfer
        self.report = report
        self.verification = verification
        self.lift = lift


def _count_or_inf(value):
    return "inf" if value == math.inf else int(value)


def build_report(res: "AnalysisResult", input_text: str | None) -> dict:
    """The report, built in one pass: each value is converted where it is placed.

    Scalars go through ``_leaf``, and so every float through ``fmt_float``;
    vectors and matrices become lists of them.  ``format_value`` converts
    only the values whose shape varies.  The parameters and the asymptotic
    quadratic print as floats even when exact, and an infinite count prints
    as ``"inf"``.
    """
    ad, pp, umb = res.adapted, res.profile, res.umbilic
    vertex = pp.shape.vertex_param
    # the frames are the rotation's rows (see AdaptedGerm): converted once, printed as copies
    rot = _mat(ad.target_rotation)
    return {
        "input": {
            "germ": input_text if input_text is not None else res.germ.to_expression(),
            "exact": res.germ.is_exact,
        },
        "adaptation": {
            "exact": ad.exact,
            "tangent_frame": rot[0][:],
            "normal_frame": [row[:] for row in rot[1:]],
            "target_rotation": rot,
        },
        "first_form": {"E": _leaf(res.first.E), "F": _leaf(res.first.F), "G": _leaf(res.first.G)},
        "second_form": _mat(res.sf.matrix),
        "jet2": _jet2(res.jet2),
        "orbit": {
            "from_coefficients": res.orbit_table,
            "from_geometry": pp.orbit,
            "consistent": res.orbit_table == pp.orbit,
        },
        "parabola": {
            "shape": pp.shape.label(),
            "kind": pp.shape.kind,
            "radial": pp.shape.radial,
            "vertex_param": None if vertex is None else fmt_float(vertex),
            "vertex_is_origin": pp.shape.vertex_is_origin,
            "point_is_origin": pp.shape.is_origin,
            "stratum": f"M{pp.stratum}",
            "affine_hull": {"point": _vec(pp.aff.point), "basis": _mat(pp.aff.basis), "dim": pp.aff.dim},
            "plane": {"u1": _vec(pp.ep.u1), "u2": _vec(pp.ep.u2), "normal": _vec(pp.ep.nu3), "forced": pp.ep.forced},
        },
        "asymptotic": {
            "kind": res.aset.kind,
            "parameters": [fmt_float(y) for y in res.aset.params],
            "includes_infinity": res.aset.includes_infinity,
            "quadratic": [fmt_float(q) for q in res.aset.quadratic],
            "discriminant": fmt_float(res.aset.discriminant),
            "count": _count_or_inf(res.aset.count),
        },
        "binormal": {
            "kind": res.bset.kind,
            "items": [
                {
                    # no parameter when the shape rule decided; y_inf is a string
                    "param": "shape" if b.param is None
                    else b.param if type(b.param) is str else fmt_float(b.param),
                    "vector": _vec(b.vector),
                }
                for b in res.bset.items
            ],
            "count": _count_or_inf(res.bset.count),
        },
        "osculating_hyperplanes": format_value(osculating_hyperplanes(res.bset)),
        "point_type": res.ptype,
        "umbilic": {"kappa_u": _leaf(umb.kappa_u), "formula": umb.formula_used, "is_zero": umb.is_zero},
        "kappa_stratum_consistent": kappa_stratum_check(pp, umb),
        "heights": {
            "cone_quadratic": _mat(res.cone.quad),
            "corank2": {
                "dim": res.cone.corank2_dim,
                "basis": _mat(res.cone.corank2_basis),
                "expected_dim": res.corank2.expected_dim,
                "case": res.corank2.case,
                "agrees": res.corank2.agrees,
            },
            "cone_parabola_orthogonal": cone_parabola_orthogonality(pp, res.aset, res.bset),
        },
        "reduced_two_jet": {
            "orbit": res.reduced.orbit,
            "jet2": _jet2(res.reduced.jet2),
            "source_matrix": _mat(res.reduced.source_matrix),
            "target_rotation": _mat(res.reduced.target_rotation),
        },
        "transfer": {
            "m_directions": format_value(res.transfer.m_directions),
            "s_directions": format_value(res.transfer.s_directions),
            "directions_match": res.transfer.directions_match,
            "m_point_type": res.transfer.m_point_type,
            "s_point_type": res.transfer.s_point_type,
            "types_match": res.transfer.types_match,
        },
    }


def run_verification(res: "AnalysisResult", tol: Tolerances) -> VerificationReport:
    """Cross-check closed-form results against the brute-force oracles.

    Each check's tolerance is a ``curvpar.oracle`` constant, read at each call.
    """
    vr = VerificationReport([])

    ku = res.umbilic.kappa_u
    hull = parabola_hull_distance(res.profile, tol)
    vr.add(
        "umbilic_vs_affine_hull",
        ku,
        hull,
        oracle.ORACLE_HULL_TOL,
        abs(ku - hull) <= oracle.ORACLE_HULL_TOL * (res.profile.sf.ref + ku),
    )

    scan = asymptotic_scan(res.sf, res.profile.ep)
    if res.aset.kind == "all":
        ok = scan.kind == "all"
        vr.add("asymptotic_scan_kind", "all", scan.kind, 0.0, ok)
    else:
        # unit directions on both sides, paired one to one; a scan that marked
        # every sample says so, not that it found no root
        roots = res.aset.directions()
        found = list(scan.directions) if scan.kind == "finite" else "all"
        ok = directions_match(roots, found, oracle.ORACLE_ROOT_TOL)
        vr.add("asymptotic_scan_roots", roots, found, oracle.ORACLE_ROOT_TOL, ok)

    # The FD Hessian is taken on the input's 2-jet, not the adapted one, so
    # that it also checks the adaptation; its entries, and so the bound,
    # scale with the input's 2-jet.
    rot = res.adapted.target_rotation
    jet = res.germ.truncated(2)
    bound = oracle.ORACLE_HESSIAN_TOL * scale_of(*(p.coeffs.values() for p in jet.components))
    nus = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5773502691896258,) * 3)
    # the ambient normals R^T (0, nu); one stencil serves the three
    ambient = [[float_dot([row[j] for row in rot], (0.0, *nu)) for j in range(4)] for nu in nus]
    fds = finite_difference_hessian(jet, ambient)
    # on the form's float view: a Fraction entry times a float is that
    # entry's float times it, so this moves no bit
    closed = [height_hessian(res.sf.float_columns, nu) for nu in nus]
    worst = oracle.hessian_gap(closed, fds, res.adapted.source_change)
    vr.add("height_hessian_vs_fd", 0.0, worst, bound, worst <= bound)
    return vr


def analyze_germ(
    source,
    *,
    tol: Tolerances = DEFAULT_TOL,
    verify: bool = False,
) -> AnalysisResult:
    """Run the full pipeline on a germ given as text, parsed at order 2 since
    every result reads the 2-jet alone, or as a ``MapGermR4``, which is kept
    whole as ``AnalysisResult.germ``."""
    input_text = source if isinstance(source, str) else None
    germ = parse_map_germ(source, 2) if input_text is not None else source
    adapted = adapt(germ, tol)
    first = first_form(adapted)
    jet2 = extract_jet2(adapted, tol.eps_jet)
    sf = jet2.second_form  # the profile and the reduction share it and its invariants
    profile = build_parabola(sf, tol)
    aset = asymptotic_directions(profile, sf, tol)
    bset = binormal_directions(profile, sf, aset, tol)
    ptype = point_type(aset)
    umb = umbilic_curvature(profile, sf, tol)
    cone = degeneracy_cone(sf, tol)
    c2 = corank2_conditions(profile, cone, umb, tol)
    reduced = reduce_to_normal_form(jet2, tol)
    projection = project_to_s(adapted, profile)
    transfer = verify_transfer(adapted, profile, aset, projection, tol=tol)

    res = AnalysisResult(
        germ=germ,
        adapted=adapted,
        first=first,
        sf=sf,
        jet2=jet2,
        orbit_table=reduced.orbit,  # classify_two_jet(jet2), read off sf as the profile's shape
        profile=profile,
        aset=aset,
        bset=bset,
        ptype=ptype,
        umbilic=umb,
        cone=cone,
        corank2=c2,
        reduced=reduced,
        projection=projection,
        transfer=transfer,
        report={},
    )
    res.report = build_report(res, input_text)
    if verify:
        vr = run_verification(res, tol)
        res.verification = vr
        # the fields of each CheckResult, in order
        res.report["verification"] = {"passed": vr.passed, "checks": [
            {"name": c.name, "closed_form": format_value(c.closed_form), "oracle": format_value(c.oracle),
             "tolerance": _leaf(c.tolerance), "passed": c.passed}
            for c in vr.checks
        ]}
    return res


def check_finite(node, path: str = "report") -> None:
    """Refuse a report holding NaN or an infinity, naming the first such entry.

    Such values come from float arithmetic that left its range (exact
    coefficients near 1e300, say); no rendering of them is a valid report.
    """
    if isinstance(node, float):
        if not math.isfinite(node):
            raise ValueError(f"{path} is {node}: the analysis left the float range")
    elif isinstance(node, dict):
        for key, value in node.items():
            check_finite(value, f"{path}.{key}")
    elif isinstance(node, list):
        for idx, value in enumerate(node):
            check_finite(value, f"{path}[{idx}]")


def render_json(report: dict) -> str:
    try:
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError:
        check_finite(report)  # names the non-finite entry
        raise


def render_text(report: dict, indent: int = 0) -> str:
    """Human-readable rendering with the same deterministic ordering."""
    check_finite(report)
    lines = []

    def walk(node, depth):
        pad = "  " * depth
        if isinstance(node, dict):
            for k, v in node.items():
                if isinstance(v, (dict, list)) and v and not _is_flat_list(v):
                    lines.append(f"{pad}{k}:")
                    walk(v, depth + 1)
                else:
                    lines.append(f"{pad}{k}: {_flat(v)}")
        elif isinstance(node, list):
            for item in node:
                if isinstance(item, (dict, list)) and item and not _is_flat_list(item):
                    lines.append(f"{pad}-")
                    walk(item, depth + 1)
                else:
                    lines.append(f"{pad}- {_flat(item)}")

    def _is_flat_list(v):
        return isinstance(v, list) and all(
            not isinstance(c, (dict, list)) for c in v
        )

    def _flat(v):
        if isinstance(v, list):
            return "[" + ", ".join(str(c) for c in v) + "]"
        return str(v)

    walk(report, indent)
    return "\n".join(lines) + "\n"
