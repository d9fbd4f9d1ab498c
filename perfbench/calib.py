"""Calibration blocks: fixed work, owned by the benchmark, timed between analyses.

The host's speed drifts by up to a factor of two within seconds (see the
README), so a wall-clock latency does not repeat between runs.  Each
analysis is therefore preceded by a calibration block whose work never
changes, and its latency is rescaled to the host speed at which that block
takes its nominal time.  A change to curvpar changes the analyses but not
the blocks, so it still shows in full.

Three blocks match the kinds of work the workloads do.  ``closed_form``
expands a fixed germ with the benchmark's own exact polynomial arithmetic,
runs the exact reference checks on it and a small numpy SVD, the same mix
of dict, ``Fraction`` and small-array work as curvpar's exact path and its
parser.  ``float`` moves a float copy of that germ by a source change and a
rotation, the dict-of-float work of curvpar's float ``adapt``.  ``scan``
runs chunked outer-product minima over (1024 x 720) arrays, like the
oracle's grid scan, kept smaller than the scan's own chunks so that it
never sets the peak RSS.
"""

from __future__ import annotations

import statistics

import numpy as np

import checks
import inputs

# nominal seconds per block: fixed, close to the medians seen on the machine
# of the reference figures in README.md
NOMINAL_S = {"closed_form": 2.0e-3, "float": 2.0e-3, "scan": 0.12}
# blocks whose median rescales one analysis: about 0.1 s of blocks around a
# closed-form analysis, or the two neighbours on each side of a verified one
WINDOW = {"closed_form": 21, "float": 21, "scan": 5}

_GERM = "(x, (y^3+x)^2, (y^3+x)^3, (y^3+x)^2*y)"
_SAMPLES = np.linspace(-1.0, 1.0, 101)
_ROTATION = np.linalg.qr(np.arange(16.0).reshape(4, 4) ** 0.5 + np.eye(4))[0].tolist()
_SCAN_Y = np.linspace(-50.0, 50.0, 8192)
_ANGLES = np.arange(720) * (2.0 * np.pi / 720)
_COS = np.cos(_ANGLES)
_SIN = np.sin(_ANGLES)


def closed_form_block() -> None:
    for _ in range(3):
        germ = inputs.parse_germ(_GERM)
        cols = checks.second_form_columns(germ)
        checks.exact_rank(cols)
        checks.hull_distance(*cols)
        checks.on_boundary(germ)
        pts = np.vstack([_SAMPLES, 2.0 * _SAMPLES, _SAMPLES * _SAMPLES]).T
        np.linalg.svd(pts - pts.mean(axis=0), full_matrices=False)


_FLOAT_GERM = [{k: float(v) for k, v in p.items()} for p in inputs.parse_germ(_GERM)]
_FLOAT_X = {(1, 0): 0.8, (0, 1): -0.6, (0, 2): 0.25}
_FLOAT_Y = {(1, 0): 0.6, (0, 1): 0.8}


def float_block() -> None:
    for _ in range(3):
        inputs.move(_FLOAT_GERM, _FLOAT_X, _FLOAT_Y, _ROTATION)
        pts = np.vstack([_SAMPLES, 2.0 * _SAMPLES, _SAMPLES * _SAMPLES]).T
        np.linalg.svd(pts - pts.mean(axis=0), full_matrices=False)


def scan_block() -> None:
    for start in range(0, _SCAN_Y.size, 1024):
        a = _SCAN_Y[start:start + 1024]
        v1 = np.abs(np.outer(a, _COS) + np.outer(0.5 - a, _SIN))
        v2 = np.abs(np.outer(1.0 + a, _COS) + np.outer(0.3 * a, _SIN))
        np.maximum(v1, v2).min(axis=1)


BLOCKS = {"closed_form": closed_form_block, "float": float_block, "scan": scan_block}


def rescale(latencies, blocks, kind: str):
    """Latencies (s) rescaled to the nominal host speed.

    Analysis i is rescaled by the median of the blocks in a window around
    it, so one disturbed block does not move it.
    """
    n = len(latencies)
    window = min(WINDOW[kind], n)
    half = window // 2
    out = []
    for i, lat in enumerate(latencies):
        lo = max(0, min(i - half, n - window))
        out.append(lat * factor(blocks[lo:lo + window], kind))
    return out


def factor(blocks, kind: str) -> float:
    """Nominal block time over the median of the measured ones."""
    return NOMINAL_S[kind] / statistics.median(blocks)
