"""Check that reports print the same bytes under the running interpreter.

Run from the root of a checkout, under each Python to compare:

    python3 tests/interpreter_digests.py
    python3 tests/interpreter_digests.py --write

The check needs the standard library alone, so it runs under interpreters
that have no numpy or pytest.  ``interpreter_digests.json`` holds the float
coefficients of the float-moved germs of ``perfbench/run.make_workload``
(``"float_moved"`` at seeds 1, 2 and 3), each with the sha256 of
``render_json`` of its report, analysed from a ``MapGermR4`` with verify
off.  The analysis reads the 2-jet alone, so the file keeps the germs'
2-jets; the higher terms would only print in ``input.germ``.  The golden
corpus is checked too, against the verify-off digests of
``golden_digests.json``.  From Python 3.12 on, ``sum()`` of floats
compensates its rounding; a float sum left in the analysis shows here as a
differing report.  The check prints each differing report and exits 1 if
there is one.

``--write`` regenerates the JSON under the running interpreter; it builds
the workloads, so it needs numpy.  Pytest does not collect this file;
``test_interpreter_digests.py`` runs the check under the suite's Python.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from curvpar import analyze_germ  # noqa: E402
from curvpar.germs import MapGermR4, TruncatedPoly2  # noqa: E402
from curvpar.report import render_json  # noqa: E402

from golden import GOLDEN_GERMS  # noqa: E402

DIGESTS = HERE / "interpreter_digests.json"
SEEDS = (1, 2, 3)


def digest(source) -> str:
    return hashlib.sha256(render_json(analyze_germ(source).report).encode()).hexdigest()


def float_germ(entry) -> MapGermR4:
    order = entry["order"]
    return MapGermR4([TruncatedPoly2({(i, j): c for i, j, c in comp}, order) for comp in entry["comps"]])


def mismatches() -> list:
    """``(what, recorded digest, digest here)`` of each report whose bytes differ."""
    out = []
    for e in json.loads(DIGESTS.read_text())["float_moved"]:
        got = digest(float_germ(e))
        if got != e["sha256"]:
            out.append((f"float_moved seed {e['seed']} input {e['index']}", e["sha256"], got))
    golden = json.loads((HERE / "golden_digests.json").read_text())["entries"]
    recorded = {e["germ"]: e["sha256"] for e in golden if not e["verify"]}
    for text in GOLDEN_GERMS:
        got = digest(text)
        if got != recorded[text]:
            out.append((f"golden {text}", recorded[text], got))
    return out


def write() -> None:
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    import run  # perfbench/run.py, which needs numpy

    entries = []
    for seed in SEEDS:
        specs = run.make_workload("float_moved", seed)[0]
        for index, spec in enumerate(specs):
            comps = [[[i, j, c] for i, j, c in comp if i + j <= 2] for comp in spec["comps"]]
            entry = {"seed": seed, "index": index, "order": 2, "comps": comps}
            entries.append({**entry, "sha256": digest(float_germ(entry))})
    # one germ a line, so that a regenerated file diffs line by line
    lines = ",\n".join(json.dumps(e) for e in entries)
    DIGESTS.write_text(f'{{"python": "{platform.python_version()}", "float_moved": [\n{lines}\n]}}\n')
    print(f"wrote {len(entries)} float-moved reports to {DIGESTS.name}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--write"]:
        write()
        return 0
    if argv:
        print("usage: interpreter_digests.py [--write]", file=sys.stderr)
        return 2
    bad = mismatches()
    for what, want, got in bad:
        print(f"differs: {what}: recorded {want[:12]}, here {got[:12]}")
    total = len(json.loads(DIGESTS.read_text())["float_moved"]) + len(GOLDEN_GERMS)
    print(f"Python {platform.python_version()}: {len(bad)} of {total} reports differ")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
