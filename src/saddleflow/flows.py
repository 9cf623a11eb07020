"""Concrete saddle-flow vector fields.

Every flow follows one sign convention: gradient descent in the first block,
gradient ascent in the second. Projected variants apply the element-wise
vector field projection inside the field, so the integrator sees a single
autonomous map z -> F(z).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ._inner import WarmCache, newton_solve
from .core import ConstraintMap, ConvexObjective, SaddleProblem, full_domain
from .projection import FeasibleSet, project_vector_field
from .transforms import (
    InnerSolveConfig,
    LassoDualProx,
    PreconditionedProblem,
    ProximalSurrogate,
    ReducedProblem,
    augment,
)

__all__ = [
    "Flow",
    "standard_flow",
    "augmented_flow",
    "proximal_flow",
    "projected_flow",
    "augmented_primal_dual_lp",
    "proximal_primal_dual",
    "preconditioned_pd",
    "reduced_pd",
    "lasso_flow",
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

    def with_hint(self, z_star) -> "Flow":
        return replace(self, equilibrium_hint=np.asarray(z_star, dtype=float))


def standard_flow(problem: SaddleProblem) -> Flow:
    """Plain saddle flow: descend grad_x, ascend grad_y."""
    n = problem.n

    def field(z):
        x, y = z[:n], z[n:]
        return np.concatenate((-problem.grad_x(x, y), problem.grad_y(x, y)))

    return Flow(
        dim=problem.dim,
        field=field,
        equilibrium_hint=problem.saddle_vector(),
        label=f"standard({problem.label or 'problem'})",
    )


def _on_domain(flow: Flow, problem: SaddleProblem) -> Flow:
    """``flow`` projected onto ``full_domain(problem)`` when the problem has a ``y_set``."""
    domain = full_domain(problem)
    return flow if domain is None else projected_flow(flow, domain)


def augmented_flow(problem: SaddleProblem, rho: float) -> Flow:
    """Saddle flow of the augmented problem, over the state (x, x_hat, y, y_hat).

    Projected onto the augmented domain (the y block in ``problem.y_set``,
    the other blocks free) whenever the problem has a ``y_set``.
    """
    aug = augment(problem, rho).problem
    flow = replace(standard_flow(aug), label=f"augmented({problem.label or 'problem'}, rho={rho})")
    return _on_domain(flow, aug)


def proximal_flow(surrogate: ProximalSurrogate) -> Flow:
    """Saddle flow of the proximal surrogate, over the state (u, y).

    Projected onto the surrogate's domain whenever it has a ``y_set``.
    """
    problem = surrogate.problem
    flow = replace(standard_flow(problem), label=problem.label, reset=surrogate.reset)
    return _on_domain(flow, problem)


def projected_flow(flow: Flow, feasible: FeasibleSet) -> Flow:
    """Project a flow's field onto a box: outward boundary components vanish."""
    if feasible.dim != flow.dim:
        raise ValueError(f"feasible set dimension {feasible.dim} != flow dimension {flow.dim}")
    inner_field = flow.field

    def field(z):
        return project_vector_field(feasible, z, inner_field(z))

    return replace(flow, field=field, feasible=feasible, label=f"projected({flow.label})")


def augmented_primal_dual_lp(
    c, A, b, rho: float, y_set: Optional[FeasibleSet] = None
) -> Flow:
    """Augmented primal-dual dynamics for min c^T x s.t. Ax - b <= 0.

    State layout (x, x_hat, y, y_hat); only the y block carries bounds
    (the nonnegative orthant by default), its mirror y_hat stays free.
    """
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    c = np.atleast_1d(np.asarray(c, dtype=float))
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError(
            f"inconsistent LP data: c {c.shape}, A {A.shape}, b {b.shape}"
        )
    if y_set is None:
        y_set = FeasibleSet.nonnegative(m)
    if y_set.dim != m:
        raise ValueError(f"y_set dimension {y_set.dim} != number of constraints {m}")

    def field(z):
        x, xh = z[:n], z[n : 2 * n]
        y, yh = z[2 * n : 2 * n + m], z[2 * n + m :]
        gap_x = rho * (x - xh)
        gap_y = rho * (y - yh)
        ydot = project_vector_field(y_set, y, A @ x - b - gap_y)
        return np.concatenate((-c - A.T @ y - gap_x, gap_x, ydot, gap_y))

    feasible = FeasibleSet.stack(FeasibleSet.free(2 * n), y_set, FeasibleSet.free(m))
    return Flow(
        dim=2 * n + 2 * m,
        field=field,
        feasible=feasible,
        label=f"augmented_pd_lp(rho={rho})",
    )


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
        x0 = cache.point if inner.warm_start and cache.point is not None else u
        x = newton_solve(
            residual, x0, jacobian, tol=inner.tol, max_iters=inner.max_iters,
            jacobian_inverse=jacobian_inverse,
        )
        if inner.warm_start:
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


def preconditioned_pd(transform: PreconditionedProblem, space: str = "uy") -> Flow:
    """Preconditioned primal-dual dynamics, in (u, y) or original (x, y) space.

    The xy-space field is the uy-space one pushed through x = u - alpha*A^T*y,
    so both produce identical trajectories under that coupling.
    """
    if space not in ("uy", "xy"):
        raise ValueError(f"space must be 'uy' or 'xy', got {space!r}")
    f, A, b = transform.f, transform.A, transform.b
    eta, alpha = transform.eta, transform.alpha
    if f.l is not None and not 2.0 * eta > f.l * alpha:
        raise ValueError(
            f"preconditioning requires 2*eta > l*alpha: 2*eta={2.0 * eta}, l*alpha={f.l * alpha}"
        )
    problem = transform.problem
    n, m = problem.n, problem.m
    y_set = problem.y_set if problem.y_set is not None else FeasibleSet.nonnegative(m)
    feasible = FeasibleSet.stack(FeasibleSet.free(n), y_set)

    if space == "uy":
        def field(z):
            u, y = z[:n], z[n:]
            ydot = project_vector_field(y_set, y, problem.grad_y(u, y))
            return np.concatenate((-problem.grad_x(u, y), ydot))
    else:
        def field(z):
            x, y = z[:n], z[n:]
            gf = f.grad(x)
            raw = -alpha * (A @ (gf + eta * (A.T @ y))) + eta * (A @ x - b)
            ydot = project_vector_field(y_set, y, raw)
            return np.concatenate((-alpha * (A.T @ ydot) - gf - eta * (A.T @ y), ydot))

    return Flow(
        dim=n + m,
        field=field,
        feasible=feasible,
        label=f"preconditioned_pd({space}, eta={eta}, alpha={alpha})",
    )


def reduced_pd(reduced: ReducedProblem) -> Flow:
    """Reduced primal-dual dynamics over (x_c, y) with y >= 0."""
    problem = reduced.problem
    n = problem.n
    y_set = problem.y_set

    def field(z):
        x_c, y = z[:n], z[n:]
        ydot = project_vector_field(y_set, y, problem.grad_y(x_c, y))
        return np.concatenate((-problem.grad_x(x_c, y), ydot))

    feasible = FeasibleSet.stack(FeasibleSet.free(n), y_set)
    return Flow(
        dim=problem.dim,
        field=field,
        feasible=feasible,
        label="reduced_pd",
        reset=reduced.reset,
    )


def lasso_flow(transform: LassoDualProx) -> Flow:
    """Saddle flow of the dual-proximal problem over (u, v), both blocks free.

    Equilibria map back to original coordinates through ``transform.recover``
    (x = u - alpha*A^T*v, y = v).
    """
    if transform.precond is not None and transform.precond.f.l is not None:
        l, alpha = transform.precond.f.l, transform.precond.alpha
        if l > 0 and not alpha < 2.0 / l:
            raise ValueError(f"lasso dynamics require alpha < 2/l: alpha={alpha}, 2/l={2.0 / l}")
    flow = standard_flow(transform.problem)
    return replace(flow, label=transform.problem.label, reset=transform.reset)
