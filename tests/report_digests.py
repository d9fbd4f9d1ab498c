"""Digest the report of every benchmark workload input, for byte-identity gates.

Run from the root of a checkout:

    python3 tests/report_digests.py > digests.txt
    python3 tests/report_digests.py --drop-check some_check_name > digests.txt

Each line is ``workload seed index verify sha256``: the sha256 of
``render_json`` of the report of input ``index`` of the workload built by
``perfbench/run.make_workload`` at that seed (7, 42, 1001 and 4242),
analysed with ``verify`` 0 and 1: 3240 lines.  ``--drop-check NAME``
removes the named entry from each verified report's ``verification.checks``
before it is digested, so that a change which only deletes that check can
be compared with its parent; ``verification.passed`` is kept as the
analysis printed it.  Run the script in the parent's checkout and in the
change's, then ``diff`` the two files.  Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
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


def digests(drop=()):
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
                    sha = hashlib.sha256(render_json(report).encode()).hexdigest()
                    yield f"{name} {seed} {index} {int(verify)} {sha}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--drop-check", action="append", default=[], metavar="NAME")
    args = ap.parse_args(argv)
    for line in digests(set(args.drop_check)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
