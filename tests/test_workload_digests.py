"""The benchmark workloads' reports, byte for byte: the float and moved paths.

``workload_digests.json`` holds the sha256 of ``render_json(report)`` for
every input of the four benchmark workloads at seed 7, each input built by
``perfbench/run.make_workload`` as ``tests/report_digests.py`` builds it and
analysed with the workload's own ``verify`` flag (on for ``verify_oracle``),
together with the Python and numpy versions it was made with.  The golden digests cover exact text input
only; these add the rational and float motions.  The analysis imports no
numpy, but the moved inputs come from numpy's random generator and QR.
A change that alters a digest announces the change in CHANGES.md and
regenerates the file:

    PYTHONPATH=src:tests python3 tests/test_workload_digests.py

which prints each entry whose digest changed, for that announcement.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from curvpar import analyze_germ
from curvpar.germs import MapGermR4, TruncatedPoly2
from curvpar.report import render_json

DIGESTS = Path(__file__).with_name("workload_digests.json")
PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
SEED = 7


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def compute():
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    import run  # perfbench/run.py
    import worker  # perfbench/worker.py

    entries = []
    for name in run.WORKLOADS:
        specs, _, verify, _ = run.make_workload(name, SEED)
        for index, spec in enumerate(specs):
            report = analyze_germ(worker.build(spec, (MapGermR4, TruncatedPoly2)), verify=verify).report
            sha = hashlib.sha256(render_json(report).encode()).hexdigest()
            entries.append({"workload": name, "index": index, "sha256": sha})
    return entries


def test_workload_reports_match_digests():
    recorded = json.loads(DIGESTS.read_text())
    here = versions()
    made = {k: recorded[k] for k in here}
    want = {(e["workload"], e["index"]): e["sha256"] for e in recorded["entries"]}
    got = {(e["workload"], e["index"]): e["sha256"] for e in compute()}
    assert len(want) == 405
    assert got.keys() == want.keys(), f"the workloads at seed {SEED} changed; digests made with {made}"
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, (
        f"{len(changed)} workload reports changed, first {changed[:5]}; "
        f"digests made with {made}, recomputed with {here}"
    )


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text())["entries"] if DIGESTS.exists() else []
    old = {(e["workload"], e["index"]): e["sha256"] for e in old}
    entries = compute()
    DIGESTS.write_text(json.dumps({**versions(), "seed": SEED, "entries": entries}, indent=1) + "\n")
    for e in entries:
        if old.get((e["workload"], e["index"])) != e["sha256"]:
            print(f"changed: {e['workload']} {e['index']}")
