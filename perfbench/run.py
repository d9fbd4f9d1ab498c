"""curvpar benchmark: four workloads, end-to-end metrics or a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact_prenormal --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, seed 1, 20 s each

Each run generates its inputs from ``--seed``, measures them in a fresh
process (``worker.py``) for ``--seconds``, checks every analysis against the
benchmark's own references (``checks.py``) and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Full results and span files go to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"

sys.path.insert(0, str(SRC))  # the parent analyses the exact twins itself
import calib  # noqa: E402  (HERE is on sys.path when run as a script)
import checks  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = ("exact_prenormal", "rational_moved", "float_moved", "verify_oracle")
# fresh processes whose set-up time is measured, the main run included;
# fewer for verify_oracle, whose first analysis alone takes about 2 s
SETUP_SAMPLES = {"verify_oracle": 3}
DEFAULT_SETUP_SAMPLES = 5
TIMEOUT_SLACK_S = 90


def machine_record(seed: int) -> dict:
    sha = None  # a checkout without .git has no SHA to report
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "git_sha": sha,
        "seed": seed,
    }


def make_workload(name: str, seed: int):
    """(worker input specs, expectation per input, verify flag, calibration kind).

    An expectation is ("exact", germ) for prenormal input, checked against
    the exact references, or ("twin", germ, known_fault) for a moved input,
    checked against the analysis of its unmoved exact twin.
    """
    base = inputs.base_germs(seed)
    # the moved workloads leave out the golden germs on a float decision
    # boundary: the float path labels them differently from seed to seed
    off_boundary = [b for b in base if not checks.on_boundary(b[1])]
    if name == "exact_prenormal":
        return [{"text": t} for t, _ in base], [("exact", g) for _, g in base], False, "closed_form"
    if name == "verify_oracle":
        rng = inputs.np.random.default_rng([seed, 3])
        chosen = []
        for kind in ("parabola", "half_line", "line", "point"):
            pool = [b for b in base if checks.shape_kind(*checks.second_form_columns(b[1])) == kind]
            chosen.append(pool[int(rng.integers(len(pool)))])
        return [{"text": t} for t, _ in chosen], [("exact", g) for _, g in chosen], True, "scan"
    if name == "rational_moved":
        # the seed draws the signs of the motions; their magnitudes, which
        # set how long the moved expansions are, are fixed for each germ
        mags, signs = inputs.np.random.default_rng(1), inputs.np.random.default_rng([seed, 1])
        specs, expect = [], []
        for _, germ in off_boundary:
            px, py = inputs.rational_source_change(mags, signs)
            moved = inputs.move(germ, px, py, inputs.cayley_rotation(mags, signs))
            specs.append({"text": inputs.render_germ(moved)})
            expect.append(("twin", germ, False))
        for text, twin in inputs.scale_family():
            specs.append({"text": text})
            expect.append(("twin", twin, True))
        return specs, expect, False, "closed_form"
    if name == "float_moved":
        rng = inputs.np.random.default_rng([seed, 2])
        specs, expect = [], []
        for _, germ in off_boundary:
            px, py, rot = inputs.float_motion(rng)
            fgerm = [{k: float(v) for k, v in p.items()} for p in germ]
            moved = inputs.move(fgerm, px, py, rot)
            comps = [[[i, j, c] for (i, j), c in sorted(p.items())] for p in moved]
            specs.append({"comps": comps, "order": inputs.ORDER})
            expect.append(("twin", germ, False))
        return specs, expect, False, "float"
    raise ValueError(f"unknown workload {name!r}")


def spawn(job: dict, timeout: float) -> dict:
    """Run worker.py on one job in a fresh interpreter; its last line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def problems_by_input(expect, summaries, errors) -> dict:
    """Input index -> list of problems, for every input that has one."""
    from curvpar import analyze_germ

    twins = {}
    found = {}
    for idx, (exp, summary) in enumerate(zip(expect, summaries)):
        if str(idx) in errors:
            found[idx] = [errors[str(idx)]]
            continue
        if exp[0] == "exact":
            probs = checks.check_exact(summary, exp[1])
        else:
            text = inputs.render_germ(exp[1])
            if text not in twins:
                twin = checks.summarize(analyze_germ(text).report)
                twins[text] = (twin, checks.check_exact(twin, exp[1]))
            twin, twin_probs = twins[text]
            probs = [f"twin: {p}" for p in twin_probs] + checks.check_moved(summary, twin)
        if probs:
            found[idx] = probs
    return found


def tail_percentile(values):
    """Highest of a few percentiles with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p, statistics.quantiles(values, n=1000)[int(p * 10) - 1]
    return None, None


def round_rate(latencies, per_round: int) -> float:
    """Median over rounds of the analyses per second within the round.

    Every round analyses the same inputs once, so rounds are like for like,
    and one disturbed analysis moves one round, not the figure.
    """
    rounds = [latencies[k:k + per_round] for k in range(0, len(latencies), per_round)]
    return statistics.median(per_round / sum(r) for r in rounds)


def tally(expect, result, labels):
    """(correct, attempted, failed, notes) for one run's analyses."""
    problems = problems_by_input(expect, result["summaries"], result["errors"])
    extra = set(result.get("unrepeatable", [])) | set(result.get("report_mismatches", []))
    for idx in result.get("unrepeatable", []):
        problems.setdefault(idx, []).append("a repeated analysis gave another result")
    for idx in result.get("report_mismatches", []):
        problems.setdefault(idx, []).append("the traced report differs from analyze_germ's")
    known = {i for i in problems if expect[i][0] == "twin" and expect[i][2] and i not in extra}
    notes = [
        f"{'known fault' if i in known else 'FAULT'} input {i} {labels[i]}: {'; '.join(problems[i])}"
        for i in sorted(problems)
    ]
    rounds = result["rounds"]
    return len(known) == len(problems), rounds * len(expect), rounds * len(problems), notes


def measure(name: str, seed: int, seconds: float) -> dict:
    specs, expect, verify, kind = make_workload(name, seed)
    labels = [s.get("text", f"<float germ {i}>") for i, s in enumerate(specs)]
    job = {"mode": "run", "inputs": specs, "verify": verify, "seconds": seconds, "calib": kind}
    result = spawn(job, seconds + TIMEOUT_SLACK_S)
    setup_runs = [result]
    for _ in range(SETUP_SAMPLES.get(name, DEFAULT_SETUP_SAMPLES) - 1):
        setup_runs.append(spawn(dict(job, mode="setup"), TIMEOUT_SLACK_S))
    setups = [r["setup_s"] * calib.factor(r["setup_blocks_s"], kind) for r in setup_runs]
    correct, attempted, failed, notes = tally(expect, result, labels)

    lat = result["latencies_s"]
    scaled = calib.rescale(lat, result["blocks_s"], kind)
    p_tail, v_tail = tail_percentile(scaled)
    metrics = {
        "analyses_per_s": {"value": round_rate(scaled, len(specs)), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    info = {
        "samples": len(scaled),
        "rounds": result["rounds"],
        "inputs_per_round": len(specs),
        "tail_percentile": p_tail,
        "tail_latency_ms": v_tail * 1e3 if v_tail is not None else None,
        "wall_latency_p50_ms": statistics.median(lat) * 1e3,
        "wall_analyses_per_s": len(lat) / sum(lat),
        "calibration_block_p50_ms": statistics.median(result["blocks_s"]) * 1e3,
        "setup_samples_s": setups,
        "wall_setup_samples_s": [r["setup_s"] for r in setup_runs],
        "notes": notes,
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def trace(name: str, seed: int, seconds: float) -> dict:
    specs, expect, verify, kind = make_workload(name, seed)
    labels = [s.get("text", f"<float germ {i}>") for i, s in enumerate(specs)]
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"spans-{name}-seed{seed}.json"
    job = {"mode": "trace", "inputs": specs, "verify": verify, "seconds": seconds,
           "calib": kind, "trace_file": str(trace_file)}
    result = spawn(job, seconds + 2 * TIMEOUT_SLACK_S)
    correct, attempted, failed, notes = tally(expect, result, labels)
    units = {"self_ms": "ms", "scan_ms": "ms", "fd_hessian_ms": "ms", "hull_ms": "ms",
             "evals_per_s": "1/s", "useful_ratio": "ratio", "bytes": "bytes"}
    metrics = {
        k: {"value": v, "unit": units.get(k.split(".", 1)[1], "count")}
        for k, v in result["per_layer"].items()
    }
    untraced, traced = result["untraced_p50_ms"], result["traced_p50_ms"]
    info = {
        "analyses": result["analyses"],
        "untraced_p50_ms": untraced,
        "traced_p50_ms_without_render": traced,
        "tracing_overhead": traced / untraced - 1.0 if untraced else None,
        "kernels.evals": "computed from array sizes at the kernel call",
        "span_file": str(trace_file.relative_to(ROOT)),
        "notes": notes,
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    result = trace(name, seed, seconds) if traced else measure(name, seed, seconds)
    record = dict(result, workload=name, machine=machine_record(seed), seconds=seconds)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"machine: {json.dumps(record['machine'])}")
    print(f"{name}: attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    for key, m in result["metrics"].items():
        print(f"  {key:24s} {m['value']:.6g} {m['unit']}")
    for key, v in result["info"].items():
        if key != "notes":
            print(f"  ({key}: {v})")
    for note in result["info"]["notes"]:
        print(f"  {note}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (SRC / "curvpar" / "__init__.py").is_file():
        print(f"curvpar sources not found under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
    if len(names) == 1:
        r = results[names[0]]
        final = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": {n: r["metrics"] for n, r in results.items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
