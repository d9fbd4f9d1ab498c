"""The golden behaviour contract: every golden report, byte for byte.

``golden_digests.json`` holds the sha256 of ``render_json(report)`` for each
germ of the golden corpus with ``verify`` off and on, together with the Python
and numpy versions it was made with.  A change that alters a digest announces
the change in CHANGES.md and regenerates the file:

    PYTHONPATH=src:tests python3 tests/test_golden_digests.py
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from curvpar import analyze_germ
from curvpar.report import render_json

from golden import GOLDEN_GERMS

DIGESTS = Path(__file__).with_name("golden_digests.json")


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def digest(text, order, verify):
    report = analyze_germ(text, order=order, verify=verify).report
    return hashlib.sha256(render_json(report).encode()).hexdigest()


def compute():
    return [
        {"germ": text, "order": order, "verify": verify, "sha256": digest(text, order, verify)}
        for verify in (False, True)
        for text, order in GOLDEN_GERMS
    ]


def test_golden_reports_match_digests():
    recorded = json.loads(DIGESTS.read_text())
    here = versions()
    made = {k: recorded[k] for k in here}
    entries = {(e["germ"], e["order"], e["verify"]): e["sha256"] for e in recorded["entries"]}
    assert len(entries) == 2 * len(GOLDEN_GERMS)
    for text, order in GOLDEN_GERMS:
        for verify in (False, True):
            got = digest(text, order, verify)
            assert got == entries[(text, order, verify)], (
                f"golden report of {text!r} (order {order}) with verify={verify} changed; "
                f"digests made with {made}, recomputed with {here}"
            )


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({**versions(), "entries": compute()}, indent=1) + "\n")
