"""Corank verification and normalization to the prenormal form (x, f2, f3, f4).

An arbitrary corank-1 germ is brought to a parametrisation whose first
component is the first source coordinate and whose remaining components have
vanishing 1-jets, recording the source change and target rotation that did it.
The result is the prenormal 2-jet, which fixes the second-order geometry; a
prenormal germ keeps its own, so exact input stays exact downstream.  Any
other germ is adapted in closed form.  The Jacobian ``J`` has rank 1, so
its largest row spans its row space: ``v0`` is that row made unit and the
kernel ``v1`` is ``v0`` turned by +90 degrees, the rows of the source frame
``V``.  With ``R`` the Householder rotation taking ``J v0`` to the first
axis, each component's quadratic part ``H_j`` becomes
``V (sum_j R_ij H_j) V^T``; then, with ``(c, e)`` the first row of ``R J V^T``,
the source change ``x -> (x - e y)/c + s2``, where ``s2`` is minus component
1's quadratic part over ``c``, is the whole series inversion at order 2.

The closed form is one pass over the 2-jet: each of the twenty 2-jet
coefficients is read once and made a float once (an exact one by one int
division, ``linalg.float_multiple``), each row of ``R`` is summed against
the columns in ``float_dot``'s order, and the adapted polynomials are built
from their nonzero terms alone.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import DEFAULT_TOL, Tolerances
from .germs import MapGermR4, TruncatedPoly2
from .linalg import float_multiple, householder_rotation_to_e1, identity, rank3, scale_of, unit

__all__ = ["CorankError", "AdaptedGerm", "check_corank", "adapt"]


class CorankError(ValueError):
    """The germ does not have corank 1 at the origin."""

    def __init__(self, rank: int):
        super().__init__(
            f"expected corank 1 at the origin (Jacobian rank 1), got rank {rank}"
        )
        self.rank = rank


class AdaptedGerm(NamedTuple):
    """A germ in prenormal form together with the changes that produced it.

    ``tangent_frame`` spans the tangent line and ``normal_frame`` (three rows)
    the normal hyperplane, both in the coordinates of the input germ.
    ``germ`` and ``source_change`` are 2-jets (truncated at the input's order
    when that is lower): ``target_rotation @ input  composed with
    source_change`` reproduces ``germ`` up to degree 2, which determines the
    whole second-order geometry.  For already-prenormal input the changes are
    the identity, ``germ`` is the input's 2-jet and ``exact`` tells whether
    the input's coefficients are all rational.  Frames and the rotation are
    tuples of float rows, and on every path the frames are the rotation's
    rows: ``tangent_frame == target_rotation[0]`` and ``normal_frame ==
    target_rotation[1:]``, which the report prints as copies of its rows.

    The Jacobian fixes the frames only up to sign; ``adapt`` fixes the signs
    by one rule.  The source frame ``(v0, v1)`` has det +1, and ``v0`` is
    chosen of its two signs so that the largest-magnitude entry of
    ``tangent_frame``, the unit vector along ``J v0``, is positive (the
    first such entry on a tie).
    """

    germ: MapGermR4
    tangent_frame: tuple
    normal_frame: tuple
    source_change: tuple
    target_rotation: tuple
    exact: bool


def check_corank(f: MapGermR4, tol: Tolerances = DEFAULT_TOL) -> int:
    """Rank of the 4x2 Jacobian of the 1-jet at the origin (0, 1, or 2)."""
    jac = f.jacobian_at_origin()
    return rank3(jac, tol.eps_rank)


_EYE4 = identity(4)


def _identity_adaptation(f: MapGermR4) -> AdaptedGerm:
    return AdaptedGerm(
        germ=f,
        tangent_frame=_EYE4[0],
        normal_frame=_EYE4[1:],
        source_change=(
            TruncatedPoly2.variable("x", f.order),
            TruncatedPoly2.variable("y", f.order),
        ),
        target_rotation=_EYE4,
        exact=f.is_exact,
    )


def _congruence(form, m) -> tuple:
    """The form ``M^T F M`` for ``F`` an ``(a, b, c)`` form and ``M`` a 2x2 matrix of rows."""
    a, b, c = form
    (p0, q0), (p1, q1) = m  # the columns of M are (p0, p1) and (q0, q1)
    ap, bp = a * p0 + b * p1, b * p0 + c * p1  # F times the first column
    return (ap * p0 + bp * p1, ap * q0 + bp * q1, (a * q0 + b * q1) * q0 + (b * q0 + c * q1) * q1)


# the monomials of a 2-jet without constant term, in the order the adapted polynomials keep them
_JET = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def adapt(f: MapGermR4, tol: Tolerances = DEFAULT_TOL) -> AdaptedGerm:
    """Normalize a corank-1 germ to its prenormal 2-jet with witnessing changes.

    The prenormal and corank tests read the input's 2-jet.  A prenormal
    germ has Jacobian rank 1 by construction, so only other germs are
    ranked.  Raises ``CorankError`` when the Jacobian rank at the origin is
    not 1, and ``ValueError`` when an adapted normal component keeps a
    1-jet entry above ``eps_jet`` times the jet's scale.
    """
    if f.order > 2:
        f = f.truncated(2)
    if f.is_prenormal():
        return _identity_adaptation(f)
    rank = check_corank(f, tol)
    if rank != 1:
        raise CorankError(rank)

    # the 2-jet as one column of the components' coefficients per monomial,
    # each coefficient read and made a float once
    fx, fy, xx, xy, yy = [float_multiple([p.coeffs.get(k, 0) for p in f.components], 1) for k in _JET]
    a, b = unit(max(zip(fx, fy), key=lambda row: max(map(abs, row))))  # v0: the largest Jacobian row
    t = [x * a + y * b for x, y in zip(fx, fy)]  # J v0
    if max(t, key=abs) < 0:
        a, b, t = -a, -b, [-c for c in t]
    vt = ((a, -b), (b, a))  # V^T: its columns are v0 and the kernel v1 = (-b, a)
    rot = householder_rotation_to_e1(t)
    # each row r of R against J v0, J v1 and the columns of the quadratic
    # parts' (a, b, c) forms, summed as float_dot sums: R J V^T and the forms
    # sum_j R_ij H_j, which V then moves
    cols = (t, [a * y - b * x for x, y in zip(fx, fy)], xx, [v / 2 for v in xy], yy)
    lin, forms = [], []
    for r0, r1, r2, r3 in rot:
        l0, l1, *h = [0 + r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3 for c0, c1, c2, c3 in cols]
        lin.append((l0, l1))
        forms.append(_congruence(h, vt))
    # no adapted 2-jet exists yet: the residue test reads the moved germ's own jets
    ref = scale_of(*lin, *forms, [2 * h[1] for h in forms])

    c, e = lin[0]
    sub = ((1.0 / c, -e / c), (0.0, 1.0))
    forms = [_congruence(h, sub) for h in forms]
    # as R J v0 = c e1, components 2..4 have no x-term for s2 to reach
    s2 = [-x / c for x in forms[0]]

    for l0, l1 in lin[1:]:
        for val in (l0 * sub[0][0], l0 * sub[0][1] + l1):
            if abs(val) > tol.eps_jet * ref:
                raise ValueError(
                    f"adaptation left 1-jet entry {val:.3e} in a normal component"
                )
    # the polynomials from their nonzero terms, in _JET's order: an order-1
    # germ has no quadratic part, and the finite source change keeps it zero
    order = f.order
    poly = lambda keys, vals: TruncatedPoly2.from_terms({k: v for k, v in zip(keys, vals) if v}, order)
    normals = [poly(_JET[2:], (h0, 2 * h1, h2)) for h0, h1, h2 in forms[1:]]
    return AdaptedGerm(
        germ=MapGermR4([TruncatedPoly2.from_terms({(1, 0): 1.0}, order), *normals]),
        tangent_frame=rot[0],
        normal_frame=rot[1:4],
        source_change=tuple(
            poly(_JET, (p * sub[0][0], p * sub[0][1] + q, k * s2[0], 2 * (k * s2[1]), k * s2[2]))
            for (p, q), k in zip(vt, (a, b))
        ),
        target_rotation=rot,
        exact=False,
    )
