"""The exact scan kernel of the asymptotic-direction oracle.

Per tangent sample the oracle scores the pair of plane vectors ``p``, ``q``
by ``min over unit nu of max(|p . nu|, |q . nu|)``.  Each branch ``|p . nu|``
is a rectified cosine on the circle, so the minimum of their maximum sits
where one branch vanishes or where the two branches cross: at ``nu``
orthogonal to ``p``, ``q``, ``p - q`` or ``p + q``.  Scoring those four
candidates gives the exact minimum.  The candidates come from ``p`` and
``q`` alone, never from the closed-form quadratic the oracle checks.
"""

from __future__ import annotations

import numpy as np

# candidate directions per tangent sample
N_CANDIDATES = 4


def scan_scores(p1, p2, q1, q2, n) -> np.ndarray:
    """min over unit nu of max(|p . nu|, |q . nu|) per tangent sample, exactly.

    ``(p1, p2)`` and ``(q1, q2)`` are the plane coordinates of the two
    bilinear-form values at each tangent sample.  ``n`` is the number of
    directions scored per sample, kept in the signature for the benchmark's
    tracer, which counts ``len(p1) * n`` evaluations; it does not change the
    result.

    For a candidate ``w`` the unit normal is ``nu = (w2, -w1) / |w|``, so
    ``p . nu`` is the cross product ``p1 w2 - p2 w1`` over ``|w|``.  Taking
    the cross product first keeps ``p = +-q`` at exactly 0 for ``w = p``,
    where unit normals would leave rounding error.  A zero candidate
    (``p = 0``, ``q = 0`` or ``p = +-q``) is replaced by
    ``nu = (1, 0)``: any unit direction bounds the minimum from above, and
    in each of those cases another candidate, or every direction when
    ``p = q = 0``, reaches the true minimum.
    """
    p1, p2, q1, q2 = (np.asarray(a, dtype=np.float64) for a in (p1, p2, q1, q2))
    best = np.full(p1.shape, np.inf)
    for w1, w2 in ((p1, p2), (q1, q2), (p1 - q1, p2 - q2), (p1 + q1, p2 + q2)):
        norm = np.hypot(w1, w2)
        zero = norm == 0.0
        w2 = np.where(zero, 1.0, w2)
        norm[zero] = 1.0
        worst = np.maximum(np.abs(p1 * w2 - p2 * w1), np.abs(q1 * w2 - q2 * w1))
        worst /= norm
        np.minimum(best, worst, out=best)
    return best
