"""Tolerance policy for every classification decision in the pipeline.

The three thresholds are the documented policy; a config file and CLI flags
may override any of them.  The ``--verify`` oracles' own settings are fixed
constants in ``curvpar.oracle``.  Exact-rational inputs bypass the
tolerances, except in the transfer verdict
(``associated.s_asymptotic_directions``), which is still decided in floats.
"""

from __future__ import annotations

import json
import math
import warnings
from typing import NamedTuple

# keys that config files may still carry, with the reason each is ignored
RETIRED_KEYS = {
    "scan_nu_grid": "the scan is exact",
    "eps_orth": "no computed frame is checked for orthogonality",
    "scan_window": "the scan covers every tangent direction, in one cycle, with no window",
    "scan_saturation": "the scan finds every direction asymptotic only when it marks every sample",
    **dict.fromkeys(
        (
            "scan_points",
            "scan_zero_tol",
            "fd_step",
            "oracle_hull_tol",
            "oracle_root_tol",
            "oracle_hessian_tol",
        ),
        "the oracle settings are fixed constants in curvpar.oracle",
    ),
}


class _ToleranceFields(NamedTuple):
    # float zero tests |x| <= eps_rank * ref**d (ref = scale_of(whole 2-jet), d = degree of x); ranks: see linalg.rank3
    eps_rank: float = 1e-9
    # "vanishing" 1-jet entries after numeric adaptation
    eps_jet: float = 1e-10
    # relative discriminant threshold for the double-root decision
    eps_disc: float = 1e-10


class Tolerances(_ToleranceFields):
    """The three thresholds, each a finite non-negative number.

    Every way to build one validates: the constructor, and ``_make``, which
    ``_replace`` and ``updated`` call and which a named tuple would otherwise
    fill without calling ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and 0 <= value < math.inf):
                raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> "Tolerances":
        return cls(*iterable)

    def updated(self, **kwargs) -> "Tolerances":
        return self._replace(**kwargs)

    @classmethod
    def from_file(cls, path) -> "Tolerances":
        """Load overrides from a JSON file holding one object; unknown keys are rejected.

        Retired keys (``RETIRED_KEYS``) are accepted with a
        ``DeprecationWarning`` and ignored.
        """
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path} must hold one JSON object of tolerances")
        for key in sorted(RETIRED_KEYS.keys() & data.keys()):
            del data[key]
            warnings.warn(
                f"{path}: {key} is deprecated and ignored; {RETIRED_KEYS[key]}",
                DeprecationWarning,
                stacklevel=2,
            )
        bad = set(data) - set(cls._fields)
        if bad:
            raise ValueError(f"unknown tolerance keys in {path}: {sorted(bad)}")
        return cls(**data)


DEFAULT_TOL = Tolerances()
