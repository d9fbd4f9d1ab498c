"""Tolerance policy for every numeric decision in the pipeline.

The defaults are the documented policy; a config file and CLI flags may
override any of them.  Exact-rational inputs bypass the tolerances entirely.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    # rank / zero decisions on numeric data (relative to the largest scale)
    eps_rank: float = 1e-9
    # "vanishing" 1-jet entries after numeric adaptation
    eps_jet: float = 1e-10
    # orthogonality of computed frames
    eps_orth: float = 1e-12
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
            if not (isinstance(value, (int, float)) and 0 <= value < math.inf):
                raise ValueError(f"{f.name} must be a finite non-negative number, got {value!r}")
        # the scan needs a grid spacing, so at least two grid points
        if not isinstance(self.scan_points, int) or self.scan_points < 2:
            raise ValueError(f"scan_points must be an integer of at least 2, got {self.scan_points!r}")

    def updated(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)

    @classmethod
    def from_file(cls, path) -> "Tolerances":
        """Load overrides from a JSON file; unknown keys are rejected.

        ``scan_nu_grid``, the angle count of the former grid scan, is
        accepted with a ``DeprecationWarning`` and ignored: the scan now
        takes the exact minimum.
        """
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if "scan_nu_grid" in data:
            del data["scan_nu_grid"]
            warnings.warn(
                f"{path}: scan_nu_grid is deprecated and ignored; the scan is exact",
                DeprecationWarning,
                stacklevel=2,
            )
        known = {f.name for f in fields(cls)}
        bad = set(data) - known
        if bad:
            raise ValueError(f"unknown tolerance keys in {path}: {sorted(bad)}")
        return cls(**data)


DEFAULT_TOL = Tolerances()
