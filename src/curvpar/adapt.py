"""Corank verification and normalization to the prenormal form (x, f2, f3, f4).

An arbitrary corank-1 germ is brought to a parametrisation whose first
component is the first source coordinate and whose remaining components have
vanishing 1-jets, recording the source change and target rotation that did it.
Exact rational germs that are already prenormal pass through untouched, which
keeps the whole downstream pipeline exact.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .germs import MapGermR4, TruncatedPoly2
from .linalg import householder_rotation_to_e1, rank3

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


def check_corank(f: MapGermR4) -> int:
    """Rank of the 4x2 Jacobian of the 1-jet at the origin (0, 1, or 2)."""
    jac = f.jacobian_at_origin()
    return rank3(jac, DEFAULT_TOL.eps_rank)


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


def _invert_first_component(comp, order: int, scale: float):
    """Series s(X, Y) with comp(s(X,Y), Y) = X up to the truncation order.

    ``comp`` must have an invertible x-derivative at the origin.  Fixed-point
    iteration gains at least one correct order per step.
    """
    c = float(comp.coefficient(1, 0))
    x_var = TruncatedPoly2.variable("x", order).map_coeffs(float)
    y_var = TruncatedPoly2.variable("y", order).map_coeffs(float)
    s = x_var * (1.0 / c)
    for _ in range(order + 1):
        residual = x_var - comp.compose(s, y_var)
        s = s + residual * (1.0 / c)
        if all(abs(v) <= 1e-16 * max(scale, 1.0) for v in residual.coeffs.values()):
            break
    return s


def adapt(f: MapGermR4, tol: Tolerances = DEFAULT_TOL) -> AdaptedGerm:
    """Normalize a corank-1 germ to prenormal form with witnessing changes.

    Non-prenormal input is adapted as its 2-jet: every closed form reads only
    the degree-2 coefficients, and a source change or rotation does not mix
    higher degrees into them.  Raises ``CorankError`` when the Jacobian rank
    at the origin is not 1.
    """
    rank = check_corank(f)
    if rank != 1:
        raise CorankError(rank)

    if f.is_prenormal():
        return _identity_adaptation(f)

    order = min(f.order, 2)
    f = MapGermR4([p.truncate(order) for p in f.components])
    jac = np.array([[float(v) for v in row] for row in f.jacobian_at_origin()])
    # rank-1 factorization: J = sigma * w r^T with u = first right singular vector
    u_svd, s_svd, vt_svd = np.linalg.svd(jac)
    u_src = vt_svd[0]   # unit source direction complementary to the kernel
    k_src = vt_svd[1]   # unit kernel direction of df at 0
    w = jac @ u_src     # spans the tangent line, |w| = s_svd[0]

    rot = householder_rotation_to_e1(w)

    g = f.to_float()
    x_var = TruncatedPoly2.variable("x", order).map_coeffs(float)
    y_var = TruncatedPoly2.variable("y", order).map_coeffs(float)
    src_lin_x = x_var * u_src[0] + y_var * k_src[0]
    src_lin_y = x_var * u_src[1] + y_var * k_src[1]
    g = g.compose_source(src_lin_x, src_lin_y).rotate_target(rot)

    scale = max((abs(v) for p in g.components for v in p.coeffs.values()), default=1.0)
    s_series = _invert_first_component(g.components[0], order, scale)
    g = g.compose_source(s_series, y_var)

    # snap the structural zeros: component 1 must be x, 1-jets of 2..4 vanish
    comps = list(g.components)
    residual = comps[0] - x_var
    max_res = max((abs(v) for v in residual.coeffs.values()), default=0.0)
    if max_res > tol.eps_jet * max(scale, 1.0):
        raise RuntimeError(
            f"series inversion left residual {max_res:.3e} in component 1"
        )
    comps[0] = x_var
    cleaned = [comps[0]]
    for p in comps[1:]:
        for key in ((1, 0), (0, 1)):
            val = p.coefficient(*key)
            if val != 0 and abs(val) > tol.eps_jet * max(scale, 1.0):
                raise RuntimeError(
                    f"adaptation left 1-jet entry {val:.3e} in a normal component"
                )
        kept = {
            k: v
            for k, v in p.coeffs.items()
            if k not in ((1, 0), (0, 1), (0, 0))
        }
        cleaned.append(TruncatedPoly2(kept, order))
    adapted = MapGermR4(cleaned)

    total_src_x = src_lin_x.compose(s_series, y_var)
    total_src_y = src_lin_y.compose(s_series, y_var)

    return AdaptedGerm(
        germ=adapted,
        tangent_frame=rot[0].copy(),
        normal_frame=rot[1:4].copy(),
        source_change=(total_src_x, total_src_y),
        target_rotation=rot,
        exact=False,
    )
