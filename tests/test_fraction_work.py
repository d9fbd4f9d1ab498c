"""The Fraction work of an analysis, counted on the exact and the float path.

On exact input the analysis builds a Fraction only where a value decides a
label or prints as an exact field; a float that it needs comes from cleared
ints by one int division (see ``curvpar.linalg``).  On float input it
builds none.  These tests count the Fraction operations of analysing the
golden germs, parsed beforehand, and the float-moved benchmark germs, so
that work whose result is only a float or a constant shows as a changed
total.  A change that moves a total on purpose records the old and new
counts in CHANGES.md and updates them here.
"""

import fractions
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from curvpar import analyze_germ
from curvpar.germs import MapGermR4, TruncatedPoly2, parse_map_germ

from golden import GOLDEN_GERMS

ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__")
PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def fraction_work(monkeypatch, germs) -> dict:
    """The Fraction arithmetic, constructions and float conversions of analysing ``germs``."""
    calls = Counter()

    def counted(name, method, own_calls_only):
        # Fraction's own arithmetic builds its results through __new__ on some
        # interpreters and not on others: only the calls made from outside
        # the fractions module count, so the totals do not depend on it
        def wrapper(*args, **kwargs):
            if not own_calls_only or sys._getframe(1).f_code.co_filename != fractions.__file__:
                calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    for name in (*ARITHMETIC, "__new__", "__float__"):
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name), name in ("__new__", "__float__")))
    for g in germs:
        analyze_germ(g)
    monkeypatch.undo()
    return {
        "arithmetic": sum(calls[name] for name in ARITHMETIC),
        "built": calls["__new__"],
        "to_float": calls["__float__"],
    }


def test_fraction_work_of_the_golden_corpus(monkeypatch):
    germs = [parse_map_germ(text, 2) for text in GOLDEN_GERMS]
    assert fraction_work(monkeypatch, germs) == {"arithmetic": 351, "built": 397, "to_float": 257}


def test_the_float_path_makes_no_fraction(monkeypatch):
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    import run  # perfbench/run.py
    import worker

    germs = [worker.build(spec, (MapGermR4, TruncatedPoly2)) for spec in run.make_workload("float_moved", 1)[0]]
    assert len(germs) > 100 and not any(g.is_exact for g in germs)
    assert fraction_work(monkeypatch, germs) == {"arithmetic": 0, "built": 0, "to_float": 0}
