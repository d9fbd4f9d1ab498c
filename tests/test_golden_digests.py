"""The golden behaviour contract: every golden report, byte for byte.

``golden_digests.json`` holds the sha256 of ``render_json(report)`` for each
germ of the golden corpus with ``verify`` off and on, together with the Python
and numpy versions it was made with.  A change that alters a digest announces
the change in CHANGES.md and regenerates the file:

    PYTHONPATH=src:tests python3 tests/test_golden_digests.py

which prints each entry whose digest changed, for that announcement.
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


def digest(text, verify):
    report = analyze_germ(text, verify=verify).report
    return hashlib.sha256(render_json(report).encode()).hexdigest()


def compute():
    return [
        {"germ": text, "verify": verify, "sha256": digest(text, verify)}
        for verify in (False, True)
        for text in GOLDEN_GERMS
    ]


def test_golden_reports_match_digests():
    recorded = json.loads(DIGESTS.read_text())
    here = versions()
    made = {k: recorded[k] for k in here}
    entries = {(e["germ"], e["verify"]): e["sha256"] for e in recorded["entries"]}
    assert len(entries) == 2 * len(GOLDEN_GERMS)
    for text in GOLDEN_GERMS:
        for verify in (False, True):
            got = digest(text, verify)
            assert got == entries[(text, verify)], (
                f"golden report of {text!r} with verify={verify} changed; "
                f"digests made with {made}, recomputed with {here}"
            )


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text())["entries"] if DIGESTS.exists() else []
    old = {(e["germ"], e["verify"]): e["sha256"] for e in old}
    entries = compute()
    DIGESTS.write_text(json.dumps({**versions(), "entries": entries}, indent=1) + "\n")
    for e in entries:
        if old.get((e["germ"], e["verify"])) != e["sha256"]:
            print(f"changed: {e['germ']} (verify {e['verify']})")
