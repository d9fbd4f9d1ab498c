"""Digest the report of every benchmark workload input, for byte-identity gates.

Run from the root of a checkout:

    python3 tests/report_digests.py > digests.txt
    python3 tests/report_digests.py --drop-check some_check_name > digests.txt
    python3 tests/report_digests.py --labels > labels.txt

Each line is ``workload seed index verify sha256``: the sha256 of
``render_json`` of the report of input ``index`` of the workload built by
``perfbench/run.make_workload`` at that seed (7, 42, 1001 and 4242),
analysed with ``verify`` 0 and 1: 3240 lines.  ``--drop-check NAME``
removes the named entry from each verified report's ``verification.checks``
before it is digested, so that a change which only deletes that check can
be compared with its parent; ``verification.passed`` is kept as the
analysis printed it.  ``--labels`` digests only the label fields (see
``LABELS``), so that a change which moves frames or last digits but no
label can show that.  Run the script in the parent's checkout and in the
change's, then ``diff`` the two files.  Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  (perfbench/run.py)
import worker  # noqa: E402

from curvpar import analyze_germ  # noqa: E402
from curvpar.germs import MapGermR4, TruncatedPoly2  # noqa: E402
from curvpar.report import render_json  # noqa: E402

SEEDS = (7, 42, 1001, 4242)
# the label fields of a report: orbit, shape kind, stratum, point type, both
# counts, whether the umbilic curvature vanishes, and the consistency flags
LABELS = (
    ("orbit", "from_geometry"),
    ("parabola", "kind"),
    ("parabola", "stratum"),
    ("point_type",),
    ("asymptotic", "count"),
    ("binormal", "count"),
    ("umbilic", "is_zero"),
    ("orbit", "consistent"),
    ("kappa_stratum_consistent",),
    ("heights", "corank2", "agrees"),
    ("heights", "cone_parabola_orthogonal"),
    ("transfer", "directions_match"),
    ("transfer", "types_match"),
)


def labels(report) -> str:
    """The label fields of a report, and ``verification.passed`` when verified, as JSON.

    ``kappa_u`` is kept to 9 significant digits, the precision the benchmark's
    checks compare, and only where the report calls it nonzero: a zero
    umbilic curvature prints as float noise that moves with the frames.
    """
    out = {}
    for path in LABELS:
        node = report
        for key in path:
            node = node[key]
        out[".".join(path)] = node
    umbilic = report["umbilic"]
    out["umbilic.kappa_u"] = 0 if umbilic["is_zero"] else f"{umbilic['kappa_u']:.9g}"
    if "verification" in report:
        out["verification.passed"] = report["verification"]["passed"]
    return json.dumps(out)


def digests(drop=(), only_labels=False):
    """Yield one ``workload seed index verify sha256`` line per report."""
    for name in run.WORKLOADS:
        for seed in SEEDS:
            specs = run.make_workload(name, seed)[0]
            for index, spec in enumerate(specs):
                for verify in (False, True):
                    report = analyze_germ(worker.build(spec, (MapGermR4, TruncatedPoly2)), verify=verify).report
                    if verify and drop:
                        checks = report["verification"]["checks"]
                        checks[:] = [c for c in checks if c["name"] not in drop]
                    text = labels(report) if only_labels else render_json(report)
                    sha = hashlib.sha256(text.encode()).hexdigest()
                    yield f"{name} {seed} {index} {int(verify)} {sha}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--drop-check", action="append", default=[], metavar="NAME")
    ap.add_argument("--labels", action="store_true", help="digest only the label fields")
    args = ap.parse_args(argv)
    for line in digests(set(args.drop_check), args.labels):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
