"""The measured process: import curvpar, run one workload, print one JSON line.

``run.py`` starts this script in a fresh interpreter with ``src`` on the
path and passes the job as JSON on stdin.  Modes:

- ``setup``: import curvpar, analyse the first input, report the time and
  that of a few calibration blocks run right after it;
- ``run``: the same, then a closed loop over whole rounds of the inputs,
  each analysis preceded by a calibration block (see ``calib.py``), until
  the run length is reached;
- ``trace``: the same set-up, then rounds that alternate ``analyze_germ``
  with the stage-by-stage traced pipeline of ``traced.py``.

The checks run in ``run.py``; this process only keeps what they read, so
that its peak RSS is curvpar's and the loop's.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from checks import summarize

# calibration blocks timed right after set-up, to rescale the set-up time
SETUP_BLOCKS = 5


def build(spec, germ_types):
    """The analysis input: germ text as given, or a float MapGermR4."""
    if "text" in spec:
        return spec["text"]
    MapGermR4, TruncatedPoly2 = germ_types
    return MapGermR4(
        [TruncatedPoly2({(i, j): c for i, j, c in comp}, spec["order"]) for comp in spec["comps"]]
    )


def calibration_blocks(kind: str, count: int) -> list:
    """Seconds taken by ``count`` calibration blocks run back to back."""
    import calib

    block = calib.BLOCKS[kind]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        block()
        times.append(time.perf_counter() - t0)
    return times


def run_loop(analyze, inputs, verify, seconds, calib_kind):
    """Closed loop over whole rounds; returns latencies, blocks and summaries."""
    import calib

    block = calib.BLOCKS[calib_kind]
    block()
    latencies, blocks, errors = [], [], {}
    summaries = [None] * len(inputs)
    mismatched = set()
    clock = time.perf_counter
    start = clock()
    rounds = 0
    while rounds == 0 or clock() - start < seconds:
        for idx, source in enumerate(inputs):
            t0 = clock()
            block()
            t1 = clock()
            try:
                report = analyze(source, verify=verify).report
            except Exception as exc:  # counted as a failed operation
                report = None
                errors[idx] = f"{type(exc).__name__}: {exc}"
            t2 = clock()
            blocks.append(t1 - t0)
            latencies.append(t2 - t1)
            if report is not None:
                summary = summarize(report)
                if summaries[idx] is None:
                    summaries[idx] = summary
                elif summary != summaries[idx]:
                    mismatched.add(idx)
        rounds += 1
    return {
        "rounds": rounds,
        "wall_s": clock() - start,
        "latencies_s": latencies,
        "blocks_s": blocks,
        "summaries": summaries,
        "errors": errors,
        "unrepeatable": sorted(mismatched),
    }


def main() -> int:
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    from curvpar import analyze_germ
    from curvpar.germs import MapGermR4, TruncatedPoly2

    import_s = time.perf_counter() - t0
    inputs = [build(spec, (MapGermR4, TruncatedPoly2)) for spec in job["inputs"]]
    t1 = time.perf_counter()
    try:
        analyze_germ(inputs[0], verify=job["verify"])
    except Exception:  # the loop records the failure against its input
        pass
    out = {"setup_s": import_s + time.perf_counter() - t1}
    out["setup_blocks_s"] = calibration_blocks(job["calib"], SETUP_BLOCKS)

    if job["mode"] == "run":
        out.update(run_loop(analyze_germ, inputs, job["verify"], job["seconds"], job["calib"]))
    elif job["mode"] == "trace":
        import traced

        out.update(traced.run(inputs, job["verify"], job["seconds"], job["trace_file"]))
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
