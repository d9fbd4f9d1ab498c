"""Full analysis pipeline and deterministic report serialization.

``analyze_germ`` runs every stage on one germ and returns both the structured
report (plain dict, stable key order, floats at 12 significant digits) and
the intermediate objects for programmatic use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .adapt import AdaptedGerm, adapt
from .associated import (
    RegularSurfaceR4,
    RegularSurfaceR5,
    lift_to_r5,
    project_to_s,
    verify_transfer,
)
from .config import DEFAULT_TOL, Tolerances
from .directions import (
    AsymptoticSet,
    BinormalSet,
    asymptotic_directions,
    binormal_directions,
    osculating_hyperplanes,
    point_type,
)
from .forms import FirstForm, SecondForm, first_form, second_form
from .germs import MapGermR4, extract_jet2, parse_map_germ
from .heights import (
    DegeneracyCone,
    cone_parabola_orthogonality,
    corank2_conditions,
    degeneracy_cone,
    height_hessian,
)
from .linalg import negligible
from .oracle import (
    VerificationReport,
    asymptotic_scan,
    finite_difference_hessian,
    parabola_hull_distance,
)
from .parabola import (
    ParabolaProfile,
    ReducedTwoJet,
    apply_source_to_jet,
    apply_target_to_jet,
    build_parabola,
    classify_two_jet,
    reduce_to_normal_form,
)
from .umbilic import UmbilicResult, kappa_stratum_check, umbilic_curvature

__all__ = ["AnalysisResult", "analyze_germ", "check_finite", "fmt_float", "format_value", "render_text"]


def fmt_float(x: float) -> float:
    """Round to 12 significant digits for stable serialization."""
    v = float(f"{float(x):.12g}")
    return 0.0 if v == 0.0 else v


def format_value(v):
    """Recursively prepare a value for JSON output; rationals keep exact text form."""
    if isinstance(v, bool) or v is None or isinstance(v, str):
        return v
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    if isinstance(v, np.ndarray):
        return [format_value(c) for c in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [format_value(c) for c in v]
    if isinstance(v, dict):
        return {k: format_value(val) for k, val in v.items()}
    raise TypeError(f"cannot serialize {type(v)!r}")


@dataclass
class AnalysisResult:
    germ: MapGermR4
    adapted: AdaptedGerm
    first: FirstForm
    sf: SecondForm
    jet2: object
    orbit_table: str
    profile: ParabolaProfile
    aset: AsymptoticSet
    bset: BinormalSet
    ptype: str
    umbilic: UmbilicResult
    cone: DegeneracyCone
    corank2: object
    reduced: ReducedTwoJet
    lift: RegularSurfaceR5
    projection: RegularSurfaceR4
    transfer: object
    report: dict
    verification: VerificationReport | None = None


def _count_or_inf(value):
    return "inf" if value == math.inf else int(value)


def _binormal_param(p):
    if p is None:
        return "shape"
    if isinstance(p, str):
        return p
    return format_value(float(p))


def build_report(res: "AnalysisResult", input_text: str | None) -> dict:
    ad = res.adapted
    pp = res.profile
    report = {
        "input": {
            "germ": input_text if input_text is not None else res.germ.to_expression(),
            "order": res.germ.order,
            "exact": res.germ.is_exact,
        },
        "adaptation": {
            "exact": ad.exact,
            "tangent_frame": format_value(ad.tangent_frame),
            "normal_frame": format_value(ad.normal_frame),
            "target_rotation": format_value(ad.target_rotation),
        },
        "first_form": {
            "E": format_value(res.first.E),
            "F": format_value(res.first.F),
            "G": format_value(res.first.G),
        },
        "second_form": format_value([list(r) for r in res.sf.matrix]),
        "jet2": {
            name: format_value(getattr(res.jet2, name))
            for name in ("a20", "a11", "a02", "b20", "b11", "b02", "c20", "c11", "c02")
        },
        "orbit": {
            "from_coefficients": res.orbit_table,
            "from_geometry": pp.orbit,
            "consistent": res.orbit_table == pp.orbit,
        },
        "parabola": {
            "shape": pp.shape.label(),
            "kind": pp.shape.kind,
            "radial": pp.shape.radial,
            "vertex_param": format_value(
                float(pp.shape.vertex_param) if pp.shape.vertex_param is not None else None
            ),
            "vertex_is_origin": pp.shape.vertex_is_origin,
            "point_is_origin": pp.shape.is_origin,
            "stratum": f"M{pp.stratum}",
            "affine_hull": {
                "point": format_value(pp.aff.point),
                "basis": format_value(pp.aff.basis),
                "dim": pp.aff.dim,
            },
            "plane": {
                "u1": format_value(pp.ep.u1),
                "u2": format_value(pp.ep.u2),
                "normal": format_value(pp.ep.nu3),
                "forced": pp.ep.forced,
            },
        },
        "asymptotic": {
            "kind": res.aset.kind,
            "parameters": [format_value(float(y)) for y in res.aset.params],
            "includes_infinity": res.aset.includes_infinity,
            "quadratic": format_value([float(q) for q in res.aset.quadratic]),
            "discriminant": format_value(float(res.aset.discriminant)),
            "count": _count_or_inf(res.aset.count),
        },
        "binormal": {
            "kind": res.bset.kind,
            "items": [
                {"param": _binormal_param(b.param), "vector": format_value(b.vector)}
                for b in res.bset.items
            ],
            "count": _count_or_inf(res.bset.count),
        },
        "osculating_hyperplanes": (
            "all"
            if res.bset.kind == "all"
            else [format_value(h.normal) for h in osculating_hyperplanes(res.bset)]
        ),
        "point_type": res.ptype,
        "umbilic": {
            "kappa_u": format_value(res.umbilic.kappa_u),
            "formula": res.umbilic.formula_used,
            "is_zero": res.umbilic.is_zero,
        },
        "kappa_stratum_consistent": kappa_stratum_check(pp, res.umbilic),
        "heights": {
            "cone_quadratic": format_value([list(r) for r in res.cone.quad]),
            "corank2": {
                "dim": res.cone.corank2_dim,
                "basis": format_value(res.cone.corank2_basis),
                "expected_dim": res.corank2.expected_dim,
                "case": res.corank2.case,
                "agrees": res.corank2.agrees,
            },
            "cone_parabola_orthogonal": cone_parabola_orthogonality(
                pp, res.aset, res.bset
            ),
        },
        "reduced_two_jet": {
            "orbit": res.reduced.orbit,
            "jet2": {
                name: format_value(getattr(res.reduced.jet2, name))
                for name in ("a20", "a11", "a02", "b20", "b11", "b02", "c20", "c11", "c02")
            },
            "source_matrix": format_value(res.reduced.source_matrix),
            "target_rotation": format_value(res.reduced.target_rotation),
        },
        "transfer": {
            "m_directions": format_value(res.transfer.m_directions)
            if res.transfer.m_directions != "all"
            else "all",
            "s_directions": format_value(res.transfer.s_directions)
            if res.transfer.s_directions != "all"
            else "all",
            "directions_match": res.transfer.directions_match,
            "m_point_type": res.transfer.m_point_type,
            "s_point_type": res.transfer.s_point_type,
            "types_match": res.transfer.types_match,
        },
    }
    return report


def run_verification(res: "AnalysisResult", tol: Tolerances) -> VerificationReport:
    """Cross-check closed-form results against the brute-force oracles."""
    vr = VerificationReport()

    ku = res.umbilic.kappa_u
    hull = parabola_hull_distance(res.profile, tol)
    vr.add(
        "umbilic_vs_affine_hull",
        ku,
        hull,
        tol.oracle_hull_tol,
        abs(ku - hull) <= tol.oracle_hull_tol * (1.0 + ku),
    )

    scan = asymptotic_scan(res.sf, res.profile.ep, tol)
    if res.aset.kind == "all":
        ok = scan.kind == "all"
        vr.add("asymptotic_scan_kind", "all", scan.kind, 0.0, ok)
    else:
        in_window = [
            float(y) for y in res.aset.params if abs(float(y)) < tol.scan_window * 0.99
        ]
        ok = scan.kind == "finite" and len(scan.clusters) == len(in_window)
        if ok:
            for y in in_window:
                ok = ok and min(
                    (abs(y - c) for c in scan.clusters), default=float("inf")
                ) <= tol.oracle_root_tol
        vr.add(
            "asymptotic_scan_roots",
            in_window,
            list(scan.clusters),
            tol.oracle_root_tol,
            ok,
        )
        vr.add(
            "asymptotic_scan_infinity",
            res.aset.includes_infinity,
            scan.includes_infinity,
            tol.scan_zero_tol,
            scan.includes_infinity == res.aset.includes_infinity,
        )

    # The FD Hessian is taken on the input germ, at its full order, so that it
    # also checks the adaptation.  The height along n vanishes to first order
    # (n is normal to the tangent line), so its Hessian at the origin pulls
    # back through the linear part ``lin`` of the source change as a tensor.
    rot = res.adapted.target_rotation
    lin = np.array(
        [[float(p.coefficient(1, 0)), float(p.coefficient(0, 1))] for p in res.adapted.source_change]
    )
    worst = 0.0
    for nu in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5773502691896258,) * 3):
        closed = np.array(
            [[float(v) for v in row] for row in height_hessian(res.sf, nu)]
        )
        n = rot.T @ np.concatenate(([0.0], nu))
        fd = lin.T @ finite_difference_hessian(res.germ, n, tol) @ lin
        worst = max(worst, float(np.max(np.abs(closed - fd))))
    vr.add("height_hessian_vs_fd", 0.0, worst, tol.oracle_hessian_tol, worst <= tol.oracle_hessian_tol)

    lift_matches = all(
        negligible(a - b, 1e-10)
        for ra, rb in zip(res.lift.alpha.matrix, res.sf.matrix)
        for a, b in zip(ra, rb)
    )
    vr.add("lift_second_form_equality", "second form", "lift alpha", 0.0, lift_matches)

    rows = [[float(v) for v in row] for row in res.jet2.rows()]
    rot3 = res.reduced.target_rotation[1:, 1:]
    lam = float(res.reduced.source_matrix[1, 0])
    mu = float(res.reduced.source_matrix[1, 1])
    rebuilt = apply_source_to_jet(apply_target_to_jet(rows, rot3), lam, mu)
    worst = max(
        abs(float(a) - float(b))
        for ra, rb in zip(rebuilt, res.reduced.jet2.rows())
        for a, b in zip(ra, rb)
    )
    vr.add("reduced_jet_witnesses", 0.0, worst, 1e-9, worst <= 1e-9)

    return vr


def analyze_germ(
    source,
    order: int = 6,
    tol: Tolerances = DEFAULT_TOL,
    verify: bool = False,
    input_text: str | None = None,
) -> AnalysisResult:
    """Run the full pipeline on a germ given as text or as a parsed map germ."""
    if isinstance(source, str):
        germ = parse_map_germ(source, order)
        input_text = source if input_text is None else input_text
    else:
        germ = source
    adapted = adapt(germ, tol)
    first = first_form(adapted)
    sf = second_form(adapted)
    jet2 = extract_jet2(adapted, tol.eps_jet)
    orbit_table = classify_two_jet(jet2, tol)
    profile = build_parabola(sf, tol)
    aset = asymptotic_directions(profile, sf, tol)
    bset = binormal_directions(profile, sf, aset, tol)
    ptype = point_type(aset)
    umb = umbilic_curvature(profile, sf, tol)
    cone = degeneracy_cone(sf, tol)
    c2 = corank2_conditions(profile, cone, umb, tol)
    reduced = reduce_to_normal_form(jet2, tol)
    lift = lift_to_r5(adapted)
    projection = project_to_s(adapted, profile)
    transfer = verify_transfer(adapted, profile, aset, projection, tol=tol)

    res = AnalysisResult(
        germ=germ,
        adapted=adapted,
        first=first,
        sf=sf,
        jet2=jet2,
        orbit_table=orbit_table,
        profile=profile,
        aset=aset,
        bset=bset,
        ptype=ptype,
        umbilic=umb,
        cone=cone,
        corank2=c2,
        reduced=reduced,
        lift=lift,
        projection=projection,
        transfer=transfer,
        report={},
    )
    res.report = build_report(res, input_text)
    if verify:
        vr = run_verification(res, tol)
        res.verification = vr
        res.report["verification"] = {
            "passed": vr.passed,
            "checks": [
                {
                    "name": c.name,
                    "closed_form": format_value(c.closed_form),
                    "oracle": format_value(c.oracle),
                    "tolerance": format_value(c.tolerance),
                    "passed": c.passed,
                }
                for c in vr.checks
            ],
        }
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
