"""Tolerance policy for every numeric decision in the pipeline.

The defaults are the documented policy; a config file and CLI flags may
override any of them.  Exact-rational inputs bypass the tolerances, except
in the transfer verdict (``associated.s_asymptotic_directions``), which is
still decided in floats.
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
}


@dataclass(frozen=True)
class Tolerances:
    # float zero tests |x| <= eps_rank * ref**d (ref = scale_of(whole 2-jet), d = degree of x); ranks: vs top singular value
    eps_rank: float = 1e-9
    # "vanishing" 1-jet entries after numeric adaptation
    eps_jet: float = 1e-10
    # relative discriminant threshold for the double-root decision
    eps_disc: float = 1e-10
    # oracle scan: grid extent, point counts and marking thresholds
    scan_window: float = 50.0
    scan_points: int = 100_000
    scan_zero_tol: float = 1e-6
    scan_saturation: float = 0.99
    # finite-difference step for the Hessian oracle
    fd_step: float = 1e-4
    # oracle agreement tolerances (looser than closed-form ones by design)
    oracle_hull_tol: float = 1e-7
    oracle_root_tol: float = 1e-3
    oracle_hessian_tol: float = 1e-6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and 0 <= value < math.inf):
                raise ValueError(f"{f.name} must be a finite non-negative number, got {value!r}")
        # the scan needs a grid spacing, so at least two grid points
        if not isinstance(self.scan_points, int) or self.scan_points < 2:
            raise ValueError(f"scan_points must be an integer of at least 2, got {self.scan_points!r}")

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
