"""Saddle-flow vector fields.

Every flow follows one sign convention: gradient descent in the first block,
gradient ascent in the second. ``standard_flow`` builds the flow of any
``SaddleProblem``, transformed ones included, and projects it onto the
problem's domain; ``projected_flow`` applies the element-wise vector field
projection inside the field, so the integrator sees a single autonomous map
z -> F(z). One flow keeps its own field: ``proximal_primal_dual`` (an inner
minimization per evaluation, projected through ``projected_flow``), the
saddle flow of the proximal surrogate of f(x) + y^T g(x) written out for a
general constraint map g. The CLI runs the affine-constraint case as
``standard_flow`` of ``proximal_surrogate(qp_lagrangian(bundle), rho).problem``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ._inner import WarmCache, newton_solve
from .core import AFFINE_MAX_DIM, ConstraintMap, ConvexObjective, SaddleProblem, full_domain
from .projection import FeasibleSet, project_vector_field

__all__ = [
    "AffineField",
    "AffineMap",
    "Flow",
    "standard_flow",
    "projected_flow",
    "proximal_primal_dual",
]

# Relative tolerance of the probe of a declared Hessian: far above the
# rounding of either side, far below any error in one entry of it.
_PROBE_TOL = 1e-10


@dataclass(frozen=True)
class Flow:
    """An autonomous vector field with optional feasible set and equilibrium.

    When ``feasible`` is present the projection is already applied inside
    ``field``; the integrator additionally clamps states onto the set.
    ``reset`` clears any warm-start cache before a fresh run.
    """

    dim: int
    field: Callable[[np.ndarray], np.ndarray]
    feasible: Optional[FeasibleSet] = None
    equilibrium_hint: Optional[np.ndarray] = None
    label: str = ""
    reset: Optional[Callable[[], None]] = None

    def residual(self, z) -> float:
        """Norm of the (projected) field: zero exactly at equilibria."""
        return float(np.linalg.norm(self.field(np.asarray(z, dtype=float))))


def standard_flow(problem: SaddleProblem) -> Flow:
    """Saddle flow of a problem: descend grad_x, ascend grad_y.

    Projected onto ``full_domain(problem)`` whenever the problem has a
    ``y_set``. Every transformed problem (augmented, proximal, preconditioned,
    reduced, Lasso dual-proximal) runs through this constructor; a transform
    with a warm-start cache passes its ``reset`` on with ``dataclasses.replace``.
    A problem that declares its ``hessian`` and has at most
    ``AFFINE_MAX_DIM`` coordinates gets the ``AffineField`` ``K @ z + k0`` (one
    matrix-vector product per evaluation), checked here against the oracles
    at one probe point; any other problem evaluates its gradient oracles on
    every call.
    """
    n = problem.n

    def oracle_field(z):
        x, y = z[:n], z[n:]
        return np.concatenate((-problem.grad_x(x, y), problem.grad_y(x, y)))

    field = oracle_field
    if problem.hessian is not None and problem.dim <= AFFINE_MAX_DIM:
        field = _affine_field(problem, oracle_field)
    flow = Flow(
        dim=problem.dim,
        field=field,
        equilibrium_hint=problem.saddle_vector(),
        label=f"standard({problem.label or 'problem'})",
    )
    domain = full_domain(problem)
    return flow if domain is None else projected_flow(flow, domain)


def _affine_field(problem: SaddleProblem, oracle_field: Callable) -> "AffineField":
    """The field ``K @ z + k0`` of a declared constant Hessian, checked at one probe.

    K = diag(-I_n, I_m) @ hessian and k0 is the oracle field at the origin.
    A declaration that does not reproduce the oracle field at a fixed generic
    point raises ``ValueError``: no coordinate of the point is near zero, so
    an error in any one entry of the declaration shows.
    """
    K = problem.hessian.copy()
    K[: problem.n] *= -1.0
    k0 = oracle_field(np.zeros(problem.dim))
    # cos(j) + sign(cos(j))/2 for j = 1, 2, ...: sizes 0.5 to 1.5, distinct, signs mixed
    wave = np.cos(np.arange(1.0, problem.dim + 1.0))
    probe = wave + np.copysign(0.5, wave)
    gap = np.abs(K @ probe + k0 - oracle_field(probe)).max()
    scale = 1.0 + (np.abs(K) @ np.abs(probe) + np.abs(k0)).max()
    if not gap <= _PROBE_TOL * scale:
        raise ValueError(
            f"declared hessian of {problem.label or 'problem'} does not match its gradient "
            f"oracles: affine field off by {gap:.3e} at the probe point"
        )
    return AffineField(K, k0)


@dataclass(frozen=True)
class AffineMap:
    """``W @ z + w`` with a sign test: ``dim`` output rows, then signed rows.

    The map holds on one active set; ``faces`` stacks its lower-face and
    upper-face masks, and their bytes are the map's ``key``. Calling the map
    at z gives its output rows when every signed row is >= its ``floor``,
    else None; NaN fails the test. The RK4 steps of an ``AffineField`` and
    the Lasso dual-prox field on an inner active set are such maps; ``parts``
    holds what a builder keeps to check its map.
    """

    faces: np.ndarray
    dim: int
    W: np.ndarray
    w: np.ndarray
    floor: np.ndarray
    parts: tuple = ()

    @property
    def key(self) -> bytes:
        return self.faces.tobytes()

    def __call__(self, z) -> Optional[np.ndarray]:
        out = self.W @ z
        out += self.w
        # one array comparison and count_nonzero: the cheapest test of a short array
        if np.count_nonzero(self.floor <= out[self.dim :]) == self.floor.shape[0]:
            return out[: self.dim]
        return None


@dataclass(frozen=True, eq=False)
class AffineField:
    """The field ``K @ z + k0``, projected onto ``box`` when one is set.

    ``standard_flow`` builds it of a declared Hessian and ``projected_flow``
    sets its box. ``integrate`` takes each full RK4 step of it as one
    ``step_map``.
    """

    K: np.ndarray
    k0: np.ndarray
    box: Optional[FeasibleSet] = None

    def __call__(self, z):
        if self.box is None:
            return self.K @ z + self.k0
        return project_vector_field(self.box, z, self.K @ z + self.k0)

    def faces(self, z) -> np.ndarray:
        """Lower- and upper-face masks of the active set A at z, stacked.

        A is where the projection zeroes the field: a face coordinate whose
        field K z + k0 points out of its face or vanishes, and every pinned
        coordinate (on both faces).
        """
        if self.box is None:
            return np.zeros((2, z.shape[0]), dtype=bool)
        g = self.K @ z + self.k0
        lower, upper = z <= self.box._lower_face, z >= self.box._upper_face
        active = (lower & (g <= 0.0)) | (upper & (g >= 0.0)) | (lower & upper)
        return np.stack((lower & active, upper & active))

    def step_map(self, z, h: float, faces: np.ndarray) -> AffineMap:
        """One RK4 step of size h on the active set ``faces``, checked at z.

        With the field zeroed on A, the step is z -> R z + r with
        R = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24 for M = K off A (Hairer,
        Norsett & Wanner, *Solving ODEs I*, IV.2); its rows on A are e_i with
        r_i = 0. The signed rows hold exactly where the projected and clamped
        4-stage step is this map: every free coordinate with a finite bound
        strictly inside it at the stage points p2, p3, p4; every coordinate of
        A on its face at z, with K p + k0 pointing out of it or zero at all
        four stages. The next state needs no row, since both paths clamp it.
        ``ValueError`` if the map's rows at z are off the 4-stage arithmetic
        there by more than ``_PROBE_TOL`` relative.
        """
        dim = z.shape[0]
        rows, floor = self._step_rows(np.eye(dim + 1), h, faces)
        amap = AffineMap(faces, dim, rows[:, :dim].copy(), rows[:, dim].copy(), floor)
        expected = self._step_rows(np.append(z, 1.0), h, faces)[0]
        gap = np.abs(amap.W @ z + amap.w - expected).max()
        scale = 1.0 + (np.abs(amap.W) @ np.abs(z) + np.abs(amap.w)).max()
        if not gap <= _PROBE_TOL * scale:
            raise ValueError(f"RK4 step map off the 4-stage step by {gap:.3e} at its build state")
        return amap

    def _step_rows(self, p, h: float, faces: np.ndarray) -> tuple:
        """(rows, floor) of the step map applied to p, in homogeneous coordinates.

        p is the identity of dim + 1, which gives [W | w], or a state with a
        trailing 1, which gives W @ z + w: both run the same 4-stage arithmetic.
        """
        dim = faces.shape[1]
        raw = np.zeros((dim + 1, dim + 1))  # (z, 1) -> (K z + k0, 0)
        raw[:dim, :dim], raw[:dim, dim] = self.K, self.k0
        active = faces.any(axis=0)
        moving = np.where(np.append(active, True)[:, None], 0.0, raw)
        points, slopes = [p], []
        for c in (0.5 * h, 0.5 * h, h, None):
            slopes.append(moving @ points[-1])
            if c is not None:
                points.append(p + c * slopes[-1])
        k1, k2, k3, k4 = slopes
        rows, floors = [(p + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))[:dim]], []

        def signed(q, mask, sign, floor):
            rows.append(sign * q[:dim][mask])
            floors.append(floor[mask])

        box = self.box if self.box is not None else FeasibleSet.free(dim)
        lo, up, zero = box.lower, box.upper, np.zeros(dim)
        for q in points[1:]:
            signed(q, ~active & (lo > -np.inf), 1.0, np.nextafter(lo, np.inf))
            signed(q, ~active & (up < np.inf), -1.0, np.nextafter(-up, np.inf))
        on_lower, on_upper = faces[0] & ~faces[1], faces[1] & ~faces[0]
        signed(p, on_lower, -1.0, -lo)
        signed(p, on_upper, 1.0, up)
        for q in points:
            g = raw @ q
            signed(g, on_lower, -1.0, zero)
            signed(g, on_upper, 1.0, zero)
        return np.concatenate(rows), np.concatenate(floors)


def projected_flow(flow: Flow, feasible: FeasibleSet) -> Flow:
    """Project a flow's field onto a box: outward boundary components vanish."""
    if feasible.dim != flow.dim:
        raise ValueError(f"feasible set dimension {feasible.dim} != flow dimension {flow.dim}")
    inner_field = flow.field
    if isinstance(inner_field, AffineField) and inner_field.box is None:
        field = replace(inner_field, box=feasible)
    else:
        def field(z):
            return project_vector_field(feasible, z, inner_field(z))

    return replace(flow, field=field, feasible=feasible, label=f"projected({flow.label})")


def proximal_primal_dual(f: ConvexObjective, g: ConstraintMap, rho: float) -> Flow:
    """Proximal primal-dual dynamics for min f(x) s.t. g(x) <= 0.

    State (u, y) with y >= 0. Each evaluation resolves the regularized
    primal minimizer x_tilde(u, y) from f'(x) + Dg(x)^T y + rho*(x - u) = 0;
    the u block descends the surrogate gradient rho*(u - x_tilde). With a
    quadratic f (``hess_constant``) the inverse of Hess f + rho*I is factored
    once here; it is exact for affine g, and for any other g the residual
    gate hands the solve to damped Newton after that first step.
    """
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    n, m = f.dim, g.m
    cache = WarmCache()
    eye = np.eye(n)
    jacobian_inverse = None
    if f.hess_constant:
        jacobian_inverse = np.linalg.inv(f.hess(np.zeros(n)) + rho * eye)

    def minimizer(u, y):
        def residual(x):
            return f.grad(x) + g.jacobian(x).T @ y + rho * (x - u)

        jacobian = None
        if f.hess is not None and g.hess is not None:
            jacobian = lambda x: f.hess(x) + g.hess(x, y) + rho * eye
        x0 = u if cache.point is None else cache.point
        x = newton_solve(residual, x0, jacobian, jacobian_inverse=jacobian_inverse)
        cache.point = x
        return x

    def field(z):
        u, y = z[:n], z[n:]
        x = minimizer(u, y)
        return np.concatenate((rho * (x - u), g.value(x)))

    flow = Flow(dim=n + m, field=field, label=f"proximal_pd(rho={rho})", reset=cache.clear)
    return projected_flow(flow, FeasibleSet.stack(FeasibleSet.free(n), FeasibleSet.nonnegative(m)))
