"""The stdlib-only digest check of ``interpreter_digests.py``, under the suite's Python."""

import interpreter_digests


def test_float_moved_and_golden_reports_match_their_digests():
    assert interpreter_digests.mismatches() == []
