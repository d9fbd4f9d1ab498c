"""The exact scan kernel of the asymptotic-direction oracle.

Per tangent sample the oracle scores the pair of plane vectors ``p``, ``q``
by ``min over unit nu of max(|p . nu|, |q . nu|)``.  Each branch ``|p . nu|``
is a rectified cosine on the circle, so the minimum of their maximum sits
where one branch vanishes or where the two branches cross: at ``nu``
orthogonal to ``p``, ``q``, ``p - q`` or ``p + q``.  For ``nu`` orthogonal
to a candidate ``w``, each nonzero product is ``|det| / |w|`` with
``det = p1 q2 - p2 q1``, so the minimum is
``|det| / max(|p + q|, |p - q|)``: the larger of those two norms,
``sqrt(|p|^2 + |q|^2 + 2|p . q|)``, is at least ``|p|`` and ``|q|``.  The
score comes from ``p`` and ``q`` alone, never from the closed-form quadratic
the oracle checks.  The kernels import numpy when called, so that importing
this module does not load it.
"""

from __future__ import annotations

# candidate directions per tangent sample
N_CANDIDATES = 4


def scan_scores(p1, p2, q1, q2, n):
    """min over unit nu of max(|p . nu|, |q . nu|) per tangent sample, exactly.

    ``(p1, p2)`` and ``(q1, q2)`` are the plane coordinates of the two
    bilinear-form values at each tangent sample.  ``n`` is bookkeeping for
    the benchmark's tracer, which counts ``len(p1) * n`` evaluations; it
    does not change the result.

    The denominator is zero only for ``p = q = 0``, where the determinant
    is zero too and the score is 0.
    """
    import numpy as np

    p1, p2, q1, q2 = (np.asarray(a, dtype=np.float64) for a in (p1, p2, q1, q2))
    det = np.abs(p1 * q2 - p2 * q1)
    # max(|p + q|, |p - q|)
    reach = np.sqrt(p1 * p1 + p2 * p2 + (q1 * q1 + q2 * q2) + 2.0 * np.abs(p1 * q1 + p2 * q2))
    reach[reach == 0.0] = 1.0
    return det / reach
