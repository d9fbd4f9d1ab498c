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
from dataclasses import dataclass, fields, replace

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


@dataclass(frozen=True)
class Tolerances:
    # float zero tests |x| <= eps_rank * ref**d (ref = scale_of(whole 2-jet), d = degree of x); ranks: see linalg.rank3
    eps_rank: float = 1e-9
    # "vanishing" 1-jet entries after numeric adaptation
    eps_jet: float = 1e-10
    # relative discriminant threshold for the double-root decision
    eps_disc: float = 1e-10

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and 0 <= value < math.inf):
                raise ValueError(f"{f.name} must be a finite non-negative number, got {value!r}")

    def updated(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)

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
        known = {f.name for f in fields(cls)}
        bad = set(data) - known
        if bad:
            raise ValueError(f"unknown tolerance keys in {path}: {sorted(bad)}")
        return cls(**data)


DEFAULT_TOL = Tolerances()
