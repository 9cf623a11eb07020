"""Damped Newton solvers for the inner subproblems of problem transformations.

All inner objectives in this library are strongly convex (or strongly
concave), so a damped Newton iteration with a residual-decrease line search
is globally effective. Jacobians come from the problem's Hessian oracle when
available and finite differences otherwise.

When the curvature is constant the caller factors it once and passes the
matrix by keyword: ``newton_solve`` then opens with one exact prefactored
step, and ``projected_concave_max`` runs its projected Newton iteration on
the exact quadratic model, calling the gradient oracle only to start and to
confirm convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .projection import FeasibleSet, project_vector_field

__all__ = ["InnerSolveError", "WarmCache", "newton_solve", "projected_concave_max"]


class InnerSolveError(RuntimeError):
    """Inner solve did not reach the residual tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass
class WarmCache:
    """Mutable warm-start slot owned by a single trajectory run.

    Also memoizes the last solve: flow fields evaluate several transformed
    gradients at one state, each of which needs the same inner solution.
    """

    point: Optional[np.ndarray] = None
    key: Optional[tuple] = None

    def clear(self) -> None:
        self.point = None
        self.key = None

    def match(self, *key) -> Optional[np.ndarray]:
        """The stored point if every key equals the stored one (``np.array_equal``)."""
        if self.key is None or self.point is None or len(self.key) != len(key):
            return None
        for a, b in zip(self.key, key):
            b = np.asarray(b)
            if a.shape != b.shape or not np.logical_and.reduce(np.equal(a, b), axis=None):
                return None
        return self.point

    def store(self, point: np.ndarray, *key) -> None:
        self.point = point
        self.key = tuple(np.array(k, dtype=float, copy=True) for k in key)


def fd_jacobian(fun: Callable, x: np.ndarray, scale: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of a vector map, column by column."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fun(x), dtype=float)
    jac = np.empty((f0.shape[0], x.shape[0]))
    for j in range(x.shape[0]):
        h = scale * (1.0 + abs(x[j]))
        e = np.zeros_like(x)
        e[j] = h
        jac[:, j] = (np.asarray(fun(x + e)) - np.asarray(fun(x - e))) / (2.0 * h)
    return jac


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    tol: float = 1e-10,
    max_iters: int = 100,
    *,
    jacobian_inverse: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Solve ``residual(x) = 0`` by damped Newton with backtracking.

    Accepts a step when the residual norm drops by the Armijo-type factor
    (1 - t/4); raises :class:`InnerSolveError` carrying the final residual
    when ``max_iters`` is exhausted or no damping factor makes progress.

    ``jacobian_inverse`` is the inverse of a constant Jacobian. The solve
    then first takes the exact step ``x - jacobian_inverse @ residual(x)``
    and continues as damped Newton only if the residual there is above
    ``tol``.
    """
    x = np.array(x0, dtype=float)
    r = np.asarray(residual(x), dtype=float)
    nr = float(np.linalg.norm(r))
    if jacobian_inverse is not None and nr > tol:
        x = x - jacobian_inverse @ r
        r = np.asarray(residual(x), dtype=float)
        nr = float(np.linalg.norm(r))
    for _ in range(max_iters):
        if nr <= tol:
            return x
        jac = jacobian(x) if jacobian is not None else fd_jacobian(residual, x)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        t = 1.0
        accepted = False
        while t >= 2.0**-40:
            x_t = x + t * step
            r_t = np.asarray(residual(x_t), dtype=float)
            nr_t = float(np.linalg.norm(r_t))
            if nr_t <= (1.0 - 0.25 * t) * nr or nr_t <= tol:
                x, r, nr = x_t, r_t, nr_t
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise InnerSolveError("newton line search stalled", nr)
    if nr <= tol:
        return x
    raise InnerSolveError("newton iteration limit reached", nr)


def projected_concave_max(
    value: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    feasible: FeasibleSet,
    y0: np.ndarray,
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    tol: float = 1e-10,
    max_iters: int = 100,
    *,
    constant_hess: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Maximize a strongly concave function over a box.

    Projected Newton: the Newton step is restricted to coordinates not
    pinned at an active face with an outward gradient, the iterate is
    clamped, and progress is enforced by an Armijo ascent condition along
    the projection arc. Convergence is declared when the projected gradient
    (the element-wise vector field projection of the gradient) has norm
    below ``tol``.

    ``constant_hess`` is the Hessian of a concave quadratic. The gradient is
    then carried along the iterates as ``g + constant_hess @ move``, the
    ascent test uses the exact change ``g.d + d.H.d / 2``, so ``value`` and
    ``hess`` are never called, and a solve ends only once the projected
    gradient of the ``grad`` oracle itself is below ``tol``.
    """
    if constant_hess is not None:
        return _box_qp_max(grad, feasible, y0, constant_hess, tol, max_iters)
    y = feasible.clamp(np.asarray(y0, dtype=float))
    nres = np.inf
    for _ in range(max_iters):
        g = np.asarray(grad(y), dtype=float)
        res = project_vector_field(feasible, y, g)
        nres = float(np.linalg.norm(res))
        if nres <= tol:
            return y
        hmat = hess(y) if hess is not None else fd_jacobian(grad, y)
        step = _free_newton_step(hmat, g, y, feasible)
        phi0 = float(value(y))
        t = 1.0
        accepted = False
        while t >= 2.0**-40:
            y_t = feasible.clamp(y + t * step)
            move = y_t - y
            if np.any(move != 0.0):
                # ascent test; falls back to residual decrease when the value
                # change sits below floating-point noise near the optimum
                if float(value(y_t)) >= phi0 + 1e-4 * float(g @ move):
                    y = y_t
                    accepted = True
                    break
                res_t = project_vector_field(feasible, y_t, np.asarray(grad(y_t), dtype=float))
                if float(np.linalg.norm(res_t)) <= (1.0 - 0.25 * t) * nres:
                    y = y_t
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            raise InnerSolveError("projected newton line search stalled", nres)
    raise InnerSolveError("projected newton iteration limit reached", nres)


def _free_newton_step(hmat: np.ndarray, g: np.ndarray, y: np.ndarray, feasible: FeasibleSet):
    """Newton ascent step on the coordinates not held at a face by the gradient."""
    free = ~((y == feasible.lower) & (g < 0.0)) & ~((y == feasible.upper) & (g > 0.0))
    step = np.zeros_like(y)
    gf = g[free]
    try:
        step[free] = np.linalg.solve(-hmat[np.ix_(free, free)], gf)
    except np.linalg.LinAlgError:
        step[free] = np.linalg.lstsq(-hmat[np.ix_(free, free)], gf, rcond=None)[0]
    return step


def _box_qp_max(grad, feasible: FeasibleSet, y0, hmat: np.ndarray, tol: float, max_iters: int):
    """Projected Newton over the exact quadratic model with Hessian ``hmat``."""
    y = feasible.clamp(np.asarray(y0, dtype=float))
    g = np.asarray(grad(y), dtype=float)
    from_oracle = True
    nres = np.inf
    for _ in range(max_iters):
        nres = float(np.linalg.norm(project_vector_field(feasible, y, g)))
        if nres <= tol:
            if from_oracle:
                return y
            # the carried gradient may drift by rounding: confirm at the oracle
            g = np.asarray(grad(y), dtype=float)
            from_oracle = True
            nres = float(np.linalg.norm(project_vector_field(feasible, y, g)))
            if nres <= tol:
                return y
        step = _free_newton_step(hmat, g, y, feasible)
        t = 1.0
        while t >= 2.0**-40:
            y_t = feasible.clamp(y + t * step)
            move = y_t - y
            if np.any(move != 0.0):
                h_move = hmat @ move
                ascent = float(g @ move)
                g_t = g + h_move
                if ascent + 0.5 * float(move @ h_move) >= 1e-4 * ascent:
                    break
                res_t = project_vector_field(feasible, y_t, g_t)
                if float(np.linalg.norm(res_t)) <= (1.0 - 0.25 * t) * nres:
                    break
            t *= 0.5
        else:
            raise InnerSolveError("projected newton line search stalled", nres)
        y, g = y_t, g_t
        from_oracle = False
    raise InnerSolveError("projected newton iteration limit reached", nres)
