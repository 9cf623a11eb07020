"""Saddle-flow vector fields.

Every flow follows one sign convention: gradient descent in the first block,
gradient ascent in the second. ``standard_flow`` builds the flow of any
``SaddleProblem``, transformed ones included, and projects it onto the
problem's domain; ``projected_flow`` applies the element-wise vector field
projection inside the field, so the integrator sees a single autonomous map
z -> F(z). Two flows are not the saddle flow of one problem and keep their
own fields: ``proximal_primal_dual`` (an inner minimization per evaluation)
and ``preconditioned_pd`` (the preconditioned flow in original coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ._inner import WarmCache, newton_solve
from .core import ConstraintMap, ConvexObjective, SaddleProblem, full_domain
from .projection import FeasibleSet, project_vector_field
from .transforms import InnerSolveConfig, PreconditionedProblem

__all__ = [
    "Flow",
    "standard_flow",
    "projected_flow",
    "proximal_primal_dual",
    "preconditioned_pd",
]


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
    """
    n = problem.n

    def field(z):
        x, y = z[:n], z[n:]
        return np.concatenate((-problem.grad_x(x, y), problem.grad_y(x, y)))

    flow = Flow(
        dim=problem.dim,
        field=field,
        equilibrium_hint=problem.saddle_vector(),
        label=f"standard({problem.label or 'problem'})",
    )
    domain = full_domain(problem)
    return flow if domain is None else projected_flow(flow, domain)


def projected_flow(flow: Flow, feasible: FeasibleSet) -> Flow:
    """Project a flow's field onto a box: outward boundary components vanish."""
    if feasible.dim != flow.dim:
        raise ValueError(f"feasible set dimension {feasible.dim} != flow dimension {flow.dim}")
    inner_field = flow.field

    def field(z):
        return project_vector_field(feasible, z, inner_field(z))

    return replace(flow, field=field, feasible=feasible, label=f"projected({flow.label})")


def proximal_primal_dual(
    f: ConvexObjective,
    g: ConstraintMap,
    rho: float,
    inner: InnerSolveConfig = InnerSolveConfig(),
) -> Flow:
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
    y_set = FeasibleSet.nonnegative(m)
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
        x = newton_solve(
            residual, x0, jacobian, tol=inner.tol, max_iters=inner.max_iters,
            jacobian_inverse=jacobian_inverse,
        )
        cache.point = x
        return x

    def field(z):
        u, y = z[:n], z[n:]
        x = minimizer(u, y)
        ydot = project_vector_field(y_set, y, g.value(x))
        return np.concatenate((rho * (x - u), ydot))

    feasible = FeasibleSet.stack(FeasibleSet.free(n), y_set)
    return Flow(
        dim=n + m,
        field=field,
        feasible=feasible,
        label=f"proximal_pd(rho={rho})",
        reset=cache.clear,
    )


def preconditioned_pd(transform: PreconditionedProblem) -> Flow:
    """Preconditioned primal-dual dynamics in original coordinates (x, y).

    The saddle flow of ``transform.problem`` over (u, y), which is
    ``standard_flow(transform.problem)``, pushed through x = u - alpha*A^T*y:
    both produce identical trajectories under that coupling.
    """
    f, A, b = transform.f, transform.A, transform.b
    eta, alpha = transform.eta, transform.alpha
    problem = transform.problem
    n, y_set = problem.n, problem.y_set

    def field(z):
        x, y = z[:n], z[n:]
        gf = f.grad(x)
        raw = -alpha * (A @ (gf + eta * (A.T @ y))) + eta * (A @ x - b)
        ydot = project_vector_field(y_set, y, raw)
        return np.concatenate((-alpha * (A.T @ ydot) - gf - eta * (A.T @ y), ydot))

    return Flow(
        dim=problem.dim,
        field=field,
        feasible=full_domain(problem),
        label=f"preconditioned_pd(xy, eta={eta}, alpha={alpha})",
    )
