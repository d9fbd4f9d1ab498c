"""Stage-by-stage traced pipeline: per-layer self time and work counts.

``traced_analysis`` calls the public stage functions of each curvpar module
in ``analyze_germ``'s order, each inside a span named ``<layer>.<function>``,
and assembles the same report.  Inside ``run_verification`` the calls into
``asymptotic_scan``, ``finite_difference_hessian`` and the scan kernel are
wrapped for the duration of the traced run, so the kernel's time is split
from the oracle's.  A span's self time is its duration minus its children's;
a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

import curvpar._kernels
import curvpar.oracle
import curvpar.report
from curvpar import (
    AnalysisResult,
    adapt,
    affine_hull_distance,
    asymptotic_directions,
    binormal_directions,
    build_parabola,
    classify_two_jet,
    corank2_conditions,
    degeneracy_cone,
    extract_jet2,
    first_form,
    lift_to_r5,
    parse_map_germ,
    point_type,
    project_to_s,
    reduce_to_normal_form,
    second_form,
    umbilic_curvature,
    verify_transfer,
)
from curvpar.config import DEFAULT_TOL
from curvpar.report import build_report, format_value, render_json, run_verification

from checks import summarize

LAYERS = (
    "germs", "adapt", "forms", "parabola", "directions", "umbilic",
    "heights", "associated", "report", "oracle", "kernels",
)
# the fixed kernel problem: 100k tangent samples x 720 plane directions
KERNEL_POINTS = 100_000
KERNEL_ANGLES = 720


class Tracer:
    """In-memory spans: (analysis id, name, start ns, end ns, parent index)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.analysis = 0

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([self.analysis, name, time.perf_counter_ns(), 0, parent])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][3] = time.perf_counter_ns()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def traced_analysis(tr: Tracer, source, verify: bool, tol=DEFAULT_TOL):
    """analyze_germ, one span per stage; returns (AnalysisResult, JSON text)."""
    sp = tr.span
    with sp("analysis"):
        input_text = None
        if isinstance(source, str):
            with sp("germs.parse_map_germ"):
                germ = parse_map_germ(source, 6)
            input_text = source
        else:
            germ = source
        with sp("adapt.adapt"):
            adapted = adapt(germ, tol)
        with sp("forms.first_form"):
            first = first_form(adapted)
        with sp("forms.second_form"):
            sf = second_form(adapted)
        with sp("forms.extract_jet2"):
            jet2 = extract_jet2(adapted, tol.eps_jet)
        with sp("parabola.classify_two_jet"):
            orbit_table = classify_two_jet(jet2, tol)
        with sp("parabola.build_parabola"):
            profile = build_parabola(sf, tol)
        with sp("directions.asymptotic_directions"):
            aset = asymptotic_directions(profile, sf, tol)
        with sp("directions.binormal_directions"):
            bset = binormal_directions(profile, sf, aset, tol)
        with sp("directions.point_type"):
            ptype = point_type(aset)
        with sp("umbilic.umbilic_curvature"):
            umb = umbilic_curvature(profile, sf, tol)
        with sp("heights.degeneracy_cone"):
            cone = degeneracy_cone(sf, tol)
        with sp("heights.corank2_conditions"):
            c2 = corank2_conditions(profile, cone, umb, tol)
        with sp("parabola.reduce_to_normal_form"):
            reduced = reduce_to_normal_form(jet2, tol)
        with sp("associated.lift_to_r5"):
            lift = lift_to_r5(adapted)
        with sp("associated.project_to_s"):
            projection = project_to_s(adapted, profile)
        with sp("associated.verify_transfer"):
            transfer = verify_transfer(adapted, profile, aset, projection, tol=tol)
        res = AnalysisResult(
            germ=germ, adapted=adapted, first=first, sf=sf, jet2=jet2,
            orbit_table=orbit_table, profile=profile, aset=aset, bset=bset,
            ptype=ptype, umbilic=umb, cone=cone, corank2=c2, reduced=reduced,
            lift=lift, projection=projection, transfer=transfer, report={},
        )
        with sp("report.build_report"):
            res.report = build_report(res, input_text)
        if verify:
            with sp("oracle.run_verification"):
                vr = run_verification(res, tol)
            with sp("report.verification"):
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
        with sp("report.render_json"):
            text = render_json(res.report)
    return res, text


def replay_hull(tr: Tracer, profile, tol=DEFAULT_TOL):
    """affine_hull_distance on the 101 samples umbilic_curvature builds."""
    samples = [
        np.asarray([float(c) for c in profile.eta(y)], dtype=float)
        for y in np.linspace(-5.0, 5.0, 101)
    ]
    with tr.span("replay.affine_hull_distance"):
        affine_hull_distance(samples, tol)


@contextmanager
def wrapped_oracle_calls(tr: Tracer, evals: list):
    """Route run_verification's oracle and kernel calls through spans."""
    saved = (
        curvpar.report.asymptotic_scan,
        curvpar.report.finite_difference_hessian,
        curvpar.oracle.scan_scores,
    )
    kernel = saved[2]

    def counted_kernel(p1, *args, **kwargs):
        evals.append(len(p1) * args[3])
        return kernel(p1, *args, **kwargs)

    curvpar.report.asymptotic_scan = tr.wrap("oracle.asymptotic_scan", saved[0])
    curvpar.report.finite_difference_hessian = tr.wrap("oracle.finite_difference_hessian", saved[1])
    curvpar.oracle.scan_scores = tr.wrap("kernels.scan_scores", counted_kernel)
    try:
        yield
    finally:
        (
            curvpar.report.asymptotic_scan,
            curvpar.report.finite_difference_hessian,
            curvpar.oracle.scan_scores,
        ) = saved


def kernel_rate(repeats: int = 3) -> float:
    """scan_scores evaluations per second on the fixed 100k x 720 problem."""
    ys = np.linspace(-50.0, 50.0, KERNEL_POINTS)
    args = (0.3 + 1.1 * ys, -0.2 + 0.4 * ys, 1.1 + 0.9 * ys, 0.4 - 1.3 * ys, KERNEL_ANGLES)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        curvpar._kernels.scan_scores(*args)
        times.append(time.perf_counter() - t0)
    return KERNEL_POINTS * KERNEL_ANGLES / statistics.median(times)


def per_analysis(spans):
    """Per analysis: layer self time and named-span durations, in ns."""
    out = {}
    child_ns = [0] * len(spans)
    for analysis, _name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for idx, (analysis, name, start, end, _parent) in enumerate(spans):
        rec = out.setdefault(analysis, {"self": {}, "span": {}})
        layer = name.split(".")[0]
        rec["self"][layer] = rec["self"].get(layer, 0) + (end - start - child_ns[idx])
        rec["span"][name] = rec["span"].get(name, 0) + (end - start)
    return out


def run(inputs, verify: bool, seconds: float, trace_file: str) -> dict:
    """Rounds alternating analyze_germ and the traced pipeline on each input."""
    from curvpar import analyze_germ

    tr = Tracer()
    evals = []
    counts = {"terms": 0, "terms_out": 0, "low_terms_out": 0, "bytes": 0, "parsed": 0}
    untraced, mismatches, errors = [], [], {}
    summaries = [None] * len(inputs)
    clock = time.perf_counter
    start = clock()
    rounds = 0
    while rounds == 0 or clock() - start < seconds:
        for idx, source in enumerate(inputs):
            try:
                t0 = clock()
                reference = analyze_germ(source, verify=verify)
                untraced.append(clock() - t0)
                with wrapped_oracle_calls(tr, evals):
                    res, text = traced_analysis(tr, source, verify)
                replay_hull(tr, res.profile)
            except Exception as exc:  # counted as a failed operation
                errors[idx] = f"{type(exc).__name__}: {exc}"
                continue
            finally:
                tr.analysis += 1
            if rounds == 0:
                summaries[idx] = summarize(reference.report)
                if text != render_json(reference.report):
                    mismatches.append(idx)
                comps = [p.coeffs for p in res.adapted.germ.components]
                counts["terms_out"] += sum(len(c) for c in comps)
                counts["low_terms_out"] += sum(1 for c in comps for i, j in c if i + j <= 2)
                counts["bytes"] += len(text.encode())
                counts["parsed"] += 1
                if isinstance(source, str):
                    counts["terms"] += sum(len(p.coeffs) for p in res.germ.components)
        rounds += 1
    traced_s = clock() - start
    rate = kernel_rate()

    recs = per_analysis(tr.spans)
    n = max(counts["parsed"], 1)
    med = lambda values: statistics.median(values) / 1e6 if values else 0.0
    per_layer = {}
    for layer in LAYERS:
        per_layer[f"{layer}.self_ms"] = med([r["self"].get(layer, 0) for r in recs.values()])
    for metric, name in (
        ("oracle.scan_ms", "oracle.asymptotic_scan"),
        ("oracle.fd_hessian_ms", "oracle.finite_difference_hessian"),
        ("oracle.hull_ms", "replay.affine_hull_distance"),
    ):
        per_layer[metric] = med([r["span"].get(name, 0) for r in recs.values()])
    per_layer["kernels.evals_per_s"] = rate
    per_layer["kernels.evals"] = sum(evals) / len(recs) if recs else 0.0
    per_layer["germs.terms"] = counts["terms"] / n
    per_layer["adapt.terms_out"] = counts["terms_out"] / n
    per_layer["adapt.useful_ratio"] = counts["low_terms_out"] / max(counts["terms_out"], 1)
    per_layer["report.bytes"] = counts["bytes"] / n

    # tracing overhead: traced pipeline without the JSON rendering that
    # analyze_germ does not do, against the interleaved untraced calls
    traced_ns = [
        r["span"]["analysis"] - r["span"].get("report.render_json", 0) for r in recs.values()
    ]
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["analysis", "name", "start_ns", "end_ns", "parent"], "spans": tr.spans}, fh)
    return {
        "rounds": rounds,
        "wall_s": traced_s,
        "per_layer": per_layer,
        "untraced_p50_ms": statistics.median(untraced) * 1e3 if untraced else 0.0,
        "traced_p50_ms": med(traced_ns),
        "analyses": len(recs),
        "summaries": summaries,
        "report_mismatches": mismatches,
        "errors": errors,
    }
