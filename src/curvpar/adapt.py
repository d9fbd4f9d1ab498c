"""Corank verification and normalization to the prenormal form (x, f2, f3, f4).

An arbitrary corank-1 germ is brought to a parametrisation whose first
component is the first source coordinate and whose remaining components have
vanishing 1-jets, recording the source change and target rotation that did it.
Exact rational germs that are already prenormal pass through untouched, which
keeps the whole downstream pipeline exact.  Any other germ is adapted as its
2-jet, in closed form: with ``J = U S V^T`` the SVD of the Jacobian and ``R``
the Householder rotation taking ``J v0`` to the first axis, each component's
quadratic part ``H_j`` becomes ``V^T (sum_j R_ij H_j) V``; then, with ``(c, e)``
the first row of ``R J V``, the source change ``x -> (x - e y)/c + s2``, where
``s2`` is minus component 1's quadratic part over ``c``, is the whole series
inversion at order 2.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .germs import MapGermR4, TruncatedPoly2
from .linalg import householder_rotation_to_e1, rank3, scale_of

__all__ = ["CorankError", "AdaptedGerm", "check_corank", "adapt"]


class CorankError(ValueError):
    """The germ does not have corank 1 at the origin."""

    def __init__(self, rank: int):
        super().__init__(
            f"expected corank 1 at the origin (Jacobian rank 1), got rank {rank}"
        )
        self.rank = rank


@dataclass(frozen=True)
class AdaptedGerm:
    """A germ in prenormal form together with the changes that produced it.

    ``tangent_frame`` spans the tangent line and ``normal_frame`` (three rows)
    the normal hyperplane, both in the coordinates of the input germ.
    For already-prenormal input everything is the identity, ``germ`` is the
    input at its full order and ``exact`` is True.  Otherwise ``germ`` and
    ``source_change`` are 2-jets: ``target_rotation @ input  composed with
    source_change`` reproduces ``germ`` up to degree 2, which determines the
    whole second-order geometry.
    """

    germ: MapGermR4
    tangent_frame: np.ndarray
    normal_frame: np.ndarray
    source_change: tuple
    target_rotation: np.ndarray
    exact: bool

    @property
    def order(self) -> int:
        return self.germ.order


def check_corank(f: MapGermR4, tol: Tolerances = DEFAULT_TOL) -> int:
    """Rank of the 4x2 Jacobian of the 1-jet at the origin (0, 1, or 2)."""
    jac = f.jacobian_at_origin()
    return rank3(jac, tol.eps_rank)


def _identity_adaptation(f: MapGermR4) -> AdaptedGerm:
    order = f.order
    return AdaptedGerm(
        germ=f,
        tangent_frame=np.array([1.0, 0.0, 0.0, 0.0]),
        normal_frame=np.eye(4)[1:],
        source_change=(
            TruncatedPoly2.variable("x", order),
            TruncatedPoly2.variable("y", order),
        ),
        target_rotation=np.eye(4),
        exact=f.is_exact,
    )


def _quadratic_form(p) -> list:
    """Symmetric 2x2 matrix of the degree-2 part of ``p``, in floats."""
    half = float(p.coefficient(1, 1)) / 2
    return [[float(p.coefficient(2, 0)), half], [half, float(p.coefficient(0, 2))]]


def _poly(linear, form, order: int) -> TruncatedPoly2:
    """The polynomial with 1-jet row ``linear`` and quadratic form ``form``."""
    vals = (*linear, form[0, 0], 2 * form[0, 1], form[1, 1])
    return TruncatedPoly2(dict(zip(((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)), vals)), order)


def adapt(f: MapGermR4, tol: Tolerances = DEFAULT_TOL) -> AdaptedGerm:
    """Normalize a corank-1 germ to prenormal form with witnessing changes.

    Non-prenormal input is adapted as its 2-jet, in the closed form above:
    every closed form reads only the degree-2 coefficients, and a source
    change or rotation does not mix higher degrees into them.  Raises
    ``CorankError`` when the Jacobian rank at the origin is not 1.
    """
    rank = check_corank(f, tol)
    if rank != 1:
        raise CorankError(rank)

    if f.is_prenormal():
        return _identity_adaptation(f)

    order = min(f.order, 2)
    jac = np.array([[float(v) for v in row] for row in f.jacobian_at_origin()])
    # rows of vt: the unit source direction off the kernel of df at 0, then the kernel
    vt = np.linalg.svd(jac)[2]
    rot = householder_rotation_to_e1(jac @ vt[0])
    lin = rot @ jac @ vt.T
    forms = vt @ np.einsum("ij,jkl->ikl", rot, [_quadratic_form(p) for p in f.components]) @ vt.T
    # no adapted 2-jet exists yet: the residue test reads the moved germ's own jets
    ref = scale_of(lin.ravel(), forms.ravel(), 2 * forms[:, 0, 1])

    c, e = lin[0]
    sub = np.array([[1.0 / c, -e / c], [0.0, 1.0]])
    forms = sub.T @ forms @ sub
    s2 = -forms[0] / c  # as R J v0 = c e1, components 2..4 have no x-term for s2 to reach

    for val in (lin @ sub)[1:].ravel():
        if abs(val) > tol.eps_jet * ref:
            raise RuntimeError(
                f"adaptation left 1-jet entry {val:.3e} in a normal component"
            )
    x_var = TruncatedPoly2.variable("x", order).map_coeffs(float)
    adapted = MapGermR4([x_var] + [_poly((0.0, 0.0), h, order) for h in forms[1:]])
    src = vt.T @ sub
    return AdaptedGerm(
        germ=adapted,
        tangent_frame=rot[0].copy(),
        normal_frame=rot[1:4].copy(),
        source_change=tuple(_poly(src[k], vt[0, k] * s2, order) for k in range(2)),
        target_rotation=rot,
        exact=False,
    )
