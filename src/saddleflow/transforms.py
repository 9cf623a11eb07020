"""Saddle-point-preserving transformations of a saddle problem.

Four constructions, each of which maps saddle points of the transformed
problem back to saddle points of the original one:

* state augmentation with virtual mirror variables and quadratic couplings,
* the proximal surrogate (partial Moreau regularization of the min block),
* the preconditioning change of variables u = x + alpha*A^T*y for Lagrangians
  of affinely constrained programs,
* reduction by partial minimization over a strongly convex sub-block,

plus the two-step chain used for Lasso regression: a nonsmooth-splitting
reformulation followed by proximal regularization of the constrained dual
block.

``augment`` and ``precondition`` are closed forms and return the transformed
``SaddleProblem`` itself. ``proximal_surrogate``, ``reduce`` and
``lasso_dual_prox`` need an inner solve per oracle call; they return an
object holding the transformed ``problem``, the solver, its warm-start cache
and ``reset``. Of a quadratic base, the proximal surrogate and the reduced
problem are quadratic again: they declare their constant ``hessian`` (a
Schur complement), so their saddle flow is affine and solves nothing per
evaluation. The Lasso dual prox is only piecewise affine (its maximizer
meets the faces of a box): of a quadratic base, its ``field`` is the affine
map of one active set at a time, and it solves its inner box QP only when
the active set changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ._inner import INNER_TOL, ConstantHessian, InnerSolveError, WarmCache, newton_solve, projected_concave_max
from .core import AFFINE_MAX_DIM, ConvexityMeta, ConvexObjective, SaddleProblem
from .flows import _PROBE_TOL, AffineMap
from .projection import FeasibleSet

if TYPE_CHECKING:  # pragma: no cover
    from .problems import SeparableProblem

__all__ = [
    "InnerSolveError",
    "ProximalSurrogate",
    "ReducedProblem",
    "LassoDualProx",
    "augment",
    "proximal_surrogate",
    "precondition",
    "reduce",
    "lasso_reformulate",
    "lasso_dual_prox",
]


# ---------------------------------------------------------------------------
# state augmentation


def augment(problem: SaddleProblem, rho: float) -> SaddleProblem:
    """The augmented function over ((x, x_hat), (y, y_hat)).

    Its value is S(x, y) + (rho/2)||x - x_hat||^2 - (rho/2)||y - y_hat||^2;
    saddle points satisfy x = x_hat and y = y_hat and project onto saddle
    points of the base problem.
    """
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    n, m = problem.n, problem.m

    def value(xa, ya):
        (x, xh), (y, yh) = (xa[:n], xa[n:]), (ya[:m], ya[m:])
        gap_x, gap_y = x - xh, y - yh
        s = float(problem.value(x, y)) + 0.5 * rho * float(gap_x @ gap_x)
        return s - 0.5 * rho * float(gap_y @ gap_y)

    def grad_x(xa, ya):
        d = rho * (xa[:n] - xa[n:])
        return np.concatenate((problem.grad_x(xa[:n], ya[:m]) + d, -d))

    def grad_y(xa, ya):
        e = rho * (ya[:m] - ya[m:])
        return np.concatenate((problem.grad_y(xa[:n], ya[:m]) - e, e))

    y_set = saddle = None
    if problem.y_set is not None:  # only the real dual block keeps its bounds
        y_set = FeasibleSet.stack(problem.y_set, FeasibleSet.free(m))
    if problem.saddle is not None:
        saddle = tuple(np.concatenate((v, v)) for v in problem.saddle)

    hessian = None
    # declared up to AFFINE_MAX_DIM, where the affine flow stops; certificates use it too
    if problem.hessian is not None and 2 * (n + m) <= AFFINE_MAX_DIM:
        # state order (x, x_hat, y, y_hat); slices build it faster than np.block
        H, rn, rm = problem.hessian, rho * np.eye(n), rho * np.eye(m)
        x, xh = slice(0, n), slice(n, 2 * n)
        y, yh = slice(2 * n, 2 * n + m), slice(2 * n + m, 2 * (n + m))
        hessian = np.zeros((2 * (n + m), 2 * (n + m)))
        hessian[x, x], hessian[x, xh], hessian[x, y] = H[:n, :n] + rn, -rn, H[:n, n:]
        hessian[xh, x], hessian[xh, xh] = -rn, rn
        hessian[y, x], hessian[y, y], hessian[y, yh] = H[n:, :n], H[n:, n:] - rm, rm
        hessian[yh, y], hessian[yh, yh] = rm, -rm

    return SaddleProblem(
        n=2 * n, m=2 * m, value=value, grad_x=grad_x, grad_y=grad_y, meta=ConvexityMeta(),
        y_set=y_set, saddle=saddle, label=f"augmented({problem.label or 'problem'}, rho={rho})",
        hessian=hessian,
    )


# ---------------------------------------------------------------------------
# proximal surrogate


@dataclass(frozen=True)
class ProximalSurrogate:
    """Moreau-type surrogate of the min block: a problem over (u, y).

    The surrogate value is min_x { S(x, y) + (rho/2)||x - u||^2 }; its
    gradients are evaluated through the inner minimizer x_tilde(u, y), which
    is resolved by damped Newton to a residual of 1e-10. When the base
    declares its ``hessian``, the inverse M of H_xx + rho*I is factored once
    at build time from its x block and each solve opens with that exact step;
    up to ``AFFINE_MAX_DIM`` coordinates the surrogate ``problem`` then
    declares its own ``hessian`` too, and its saddle flow calls no solve.
    """

    base: SaddleProblem
    rho: float
    problem: SaddleProblem
    _cache: WarmCache
    _jacobian_inverse: Optional[np.ndarray] = None

    def minimizer(self, u, y, x0: Optional[np.ndarray] = None) -> np.ndarray:
        """The inner minimizer x_tilde(u, y); deterministic given (u, y, x0)."""
        u = np.asarray(u, dtype=float)
        y = np.asarray(y, dtype=float)
        if x0 is None:
            hit = self._cache.match(u, y)
            if hit is not None:
                return hit
            x0 = u if self._cache.point is None else self._cache.point

        def residual(x):
            return self.base.grad_x(x, y) + self.rho * (x - u)

        jacobian = None
        if self.base.hess_xx is not None:
            # identity built per Jacobian call: the factored step seldom needs one
            jacobian = lambda x: self.base.hess_xx(x, y) + self.rho * np.eye(self.base.n)
        x = newton_solve(residual, x0, jacobian, jacobian_inverse=self._jacobian_inverse)
        self._cache.store(x, u, y)
        return x

    def reset(self) -> None:
        self._cache.clear()


def proximal_surrogate(problem: SaddleProblem, rho: float) -> ProximalSurrogate:
    """Build the proximal surrogate of a convex-concave problem."""
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")

    def value(u, y):
        x = surrogate.minimizer(u, y)
        d = x - u
        return float(problem.value(x, y)) + 0.5 * rho * float(d @ d)

    def grad_u(u, y):
        x = surrogate.minimizer(u, y)
        return rho * (np.asarray(u, dtype=float) - x)

    def grad_y(u, y):
        x = surrogate.minimizer(u, y)
        return problem.grad_y(x, y)

    meta = problem.meta
    mu_s = None if meta.mu is None else (meta.mu * rho / (meta.mu + rho) if meta.mu > 0 else 0.0)
    q_s = None if meta.kappa is None or meta.l is None else meta.kappa / (meta.l + rho)
    l_s = None if meta.l is None else rho * meta.l / (meta.l + rho)

    jacobian_inverse = hessian = None
    if problem.hessian is not None:
        n = problem.n
        H = problem.hessian
        jacobian_inverse = np.linalg.inv(H[:n, :n] + rho * np.eye(n))
        # declared up to AFFINE_MAX_DIM, where the affine flow stops; certificates use it too
        if problem.dim <= AFFINE_MAX_DIM:
            hessian = _surrogate_hessian(H, n, rho, jacobian_inverse)

    surrogate_problem = SaddleProblem(
        n=problem.n, m=problem.m, value=value, grad_x=grad_u, grad_y=grad_y,
        meta=ConvexityMeta(mu=mu_s, q=q_s, l=l_s), y_set=problem.y_set, saddle=problem.saddle,
        label=f"proximal({problem.label or 'problem'}, rho={rho})", hessian=hessian,
    )
    surrogate = ProximalSurrogate(problem, rho, surrogate_problem, WarmCache(), jacobian_inverse)
    return surrogate


def _surrogate_hessian(H: np.ndarray, n: int, rho: float, M: np.ndarray) -> np.ndarray:
    """The constant Hessian of the proximal surrogate of a quadratic base.

    With x_tilde = M @ (rho*u - H_xy @ y - const) and M = (H_xx + rho*I)^-1,
    the gradients rho*(u - x_tilde) and grad_y S(x_tilde, y) have the Jacobian
    [[rho*I - rho^2*M, rho*M@H_xy], [rho*H_yx@M, H_yy - H_yx@M@H_xy]].
    """
    H_xy, H_yx = H[:n, n:], H[n:, :n]
    MH_xy = M @ H_xy
    out = np.empty_like(H)
    out[:n, :n] = rho * np.eye(n) - rho**2 * M
    out[:n, n:] = rho * MH_xy
    out[n:, :n] = rho * (H_yx @ M)
    out[n:, n:] = H[n:, n:] - H_yx @ MH_xy
    return out


# ---------------------------------------------------------------------------
# preconditioning change of variables


def precondition(
    f: ConvexObjective, A, b, eta: float, alpha: float, y_set: Optional[FeasibleSet] = None
) -> SaddleProblem:
    """Apply the change of variables u = x + alpha*A^T*y to f + eta*y^T(Ax - b).

    The transformed Lagrangian over (u, y) has the value
    f(u - alpha*A^T*y) + eta*y^T(Au - b) - eta*alpha*||A^T*y||^2 and is
    strongly convex-strongly concave when 2*eta > l*alpha; a point (u, y)
    maps back to original coordinates through x = u - alpha*A^T*y.
    Requires 2*eta > l*alpha whenever f declares its Lipschitz constant l.
    """
    if not eta > 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if f.l is not None and not 2.0 * eta > f.l * alpha:
        raise ValueError(
            f"preconditioning requires 2*eta > l*alpha: 2*eta={2.0 * eta}, l*alpha={f.l * alpha}"
        )
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m, n = A.shape
    if n != f.dim:
        raise ValueError(f"A has {n} columns but the objective has dimension {f.dim}")
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")
    AAT = A @ A.T
    eigs = np.linalg.eigvalsh(AAT)
    kappa_a, sigma_a = float(max(eigs[0], 0.0)), float(eigs[-1])

    def primal_point(u, y):
        return u - alpha * (A.T @ y)

    def value(u, y):
        aty = A.T @ y
        x = primal_point(u, y)
        return float(f.value(x)) + eta * float(y @ (A @ u - b)) - eta * alpha * float(aty @ aty)

    def grad_u(u, y):
        return f.grad(primal_point(u, y)) + eta * (A.T @ y)

    def grad_y(u, y):
        gf = f.grad(primal_point(u, y))
        return -alpha * (A @ gf) + eta * (A @ u - b) - 2.0 * eta * alpha * (AAT @ y)

    hessian = hess_xx = hess_yy = None
    if f.hess_constant:
        hf = f.hess(np.zeros(n))
        hessian = np.empty((n + m, n + m))
        hessian[:n, :n] = hf
        hessian[:n, n:] = eta * A.T - alpha * (hf @ A.T)
        hessian[n:, :n] = eta * A - alpha * (A @ hf)
        hessian[n:, n:] = alpha**2 * (A @ hf @ A.T) - 2.0 * eta * alpha * AAT
    elif f.hess is not None:
        def hess_xx(u, y):
            return f.hess(primal_point(u, y))

        def hess_yy(u, y):
            hf = f.hess(primal_point(u, y))
            return alpha**2 * (A @ hf @ A.T) - 2.0 * eta * alpha * AAT

    q = None if f.l is None else (2.0 * eta * alpha - f.l * alpha**2) * kappa_a
    return SaddleProblem(
        n=n, m=m, value=value, grad_x=grad_u, grad_y=grad_y,
        meta=ConvexityMeta(mu=f.mu, q=q if q and q > 0 else None, l=f.l, kappa=kappa_a, sigma=sigma_a),
        y_set=FeasibleSet.nonnegative(m) if y_set is None else y_set,
        hess_xx=hess_xx, hess_yy=hess_yy, hessian=hessian,
        label=f"preconditioned({f.label or 'f'}, eta={eta}, alpha={alpha})",
    )


# ---------------------------------------------------------------------------
# reduction by partial minimization


@dataclass(frozen=True)
class ReducedProblem:
    """Lagrangian of a separable program minimized over the x_s block.

    A problem over (x_c, y); ``minimizer`` resolves x_s_bar(y) from the
    optimality condition grad f_s(x_s) + A_s^T y = 0, and ``recover`` stacks
    the full primal point. A quadratic f_s (``hess_constant``) has its
    Hessian inverted once at build time. When f_c is quadratic too, the
    reduced ``problem`` declares its ``hessian`` up to ``AFFINE_MAX_DIM``
    coordinates, and its saddle flow calls no solve.
    """

    sep: "SeparableProblem"
    problem: SaddleProblem
    _cache: WarmCache
    _jacobian_inverse: Optional[np.ndarray] = None

    def minimizer(self, y, x0: Optional[np.ndarray] = None) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        f_s, A_s = self.sep.f_s, self.sep.A_s
        if x0 is None:
            hit = self._cache.match(y)
            if hit is not None:
                return hit
            x0 = np.zeros(f_s.dim) if self._cache.point is None else self._cache.point
        aty = A_s.T @ y

        def residual(x):
            return f_s.grad(x) + aty

        jacobian = f_s.hess if f_s.hess is not None else None
        x = newton_solve(residual, x0, jacobian, jacobian_inverse=self._jacobian_inverse)
        self._cache.store(x, y)
        return x

    def recover(self, x_c, y) -> np.ndarray:
        """The full primal point (x_s_bar(y), x_c)."""
        return np.concatenate((self.minimizer(y), np.asarray(x_c, dtype=float)))

    def reset(self) -> None:
        self._cache.clear()


def reduce(sep: "SeparableProblem") -> ReducedProblem:
    """Partially minimize a separable Lagrangian over its strongly convex block."""
    if sep.f_s.mu is None or not sep.f_s.mu > 0:
        raise ValueError("reduction requires a strongly convex f_s (positive mu)")
    f_c, A_s, A_c, b = sep.f_c, sep.A_s, sep.A_c, sep.b
    m = b.shape[0]

    def value(x_c, y):
        x_s = reduced.minimizer(y)
        con = A_s @ x_s + A_c @ x_c - b
        return float(sep.f_s.value(x_s)) + float(f_c.value(x_c)) + float(y @ con)

    def grad_xc(x_c, y):
        return f_c.grad(x_c) + A_c.T @ y

    def grad_y(x_c, y):
        x_s = reduced.minimizer(y)
        return A_s @ x_s + A_c @ x_c - b

    q_val = None
    if sep.kappa_s is not None and sep.f_s.l is not None and sep.f_s.l > 0:
        q_val = sep.kappa_s / sep.f_s.l

    jacobian_inverse = hessian = None
    if sep.f_s.hess_constant:
        jacobian_inverse = np.linalg.inv(sep.f_s.hess(np.zeros(sep.f_s.dim)))
        # declared up to AFFINE_MAX_DIM, where the affine flow stops; certificates use it too
        n_c = f_c.dim
        if f_c.hess_constant and n_c + m <= AFFINE_MAX_DIM:
            # [[Q_c, A_c^T], [A_c, -A_s Q_s^-1 A_s^T]]: x_s_bar(y) has slope -Q_s^-1 A_s^T
            hessian = np.empty((n_c + m, n_c + m))
            hessian[:n_c, :n_c] = f_c.hess(np.zeros(n_c))
            hessian[:n_c, n_c:] = A_c.T
            hessian[n_c:, :n_c] = A_c
            hessian[n_c:, n_c:] = -(A_s @ jacobian_inverse @ A_s.T)

    problem = SaddleProblem(
        n=f_c.dim, m=m, value=value, grad_x=grad_xc, grad_y=grad_y,
        meta=ConvexityMeta(mu=f_c.mu, q=q_val, l=f_c.l), y_set=FeasibleSet.nonnegative(m),
        label="reduced_lagrangian", hessian=hessian,
    )
    reduced = ReducedProblem(sep, problem, WarmCache(), jacobian_inverse)
    return reduced


# ---------------------------------------------------------------------------
# Lasso chain


def lasso_reformulate(
    fhat: ConvexObjective, lam: float
) -> tuple[ConvexObjective, np.ndarray, FeasibleSet]:
    """Split the l1 term of min fhat(x) + lam*||x||_1 into sign parts.

    Lifts the variable to x = (x_hat, x_plus, x_minus) with the smooth
    objective fhat(x_hat) + lam*1^T(x_plus, x_minus), the 3n x 3n constraint
    matrix [[I, -I, I], [0, -I, 0], [0, 0, -I]] (blocks of size n), and the
    dual domain: free multipliers for the n coupling equalities, nonnegative
    multipliers for the 2n sign constraints. The constraint matrix has full
    row rank by construction.
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    n = fhat.dim
    eye_n = np.eye(n)
    A = np.block([[eye_n, -eye_n, eye_n], [np.zeros((2 * n, n)), -np.eye(2 * n)]])

    def value(x):
        return float(fhat.value(x[:n])) + lam * float(np.sum(x[n:]))

    def grad_f(x):
        return np.concatenate((fhat.grad(x[:n]), np.full(2 * n, lam)))

    hess = None
    if fhat.hess is not None:
        def hess(x):
            out = np.zeros((3 * n, 3 * n))
            out[:n, :n] = fhat.hess(x[:n])
            return out

    f = ConvexObjective(
        dim=3 * n, value=value, grad=grad_f, hess=hess, mu=0.0, l=fhat.l,
        label=f"lasso_split({fhat.label or 'fhat'}, lambda={lam})", hess_constant=fhat.hess_constant,
    )
    return f, A, FeasibleSet.stack(FeasibleSet.free(n), FeasibleSet.nonnegative(2 * n))


def _face_key(y: np.ndarray, feasible: FeasibleSet) -> np.ndarray:
    """The lower- and upper-face masks of a point of the box, stacked."""
    return np.stack((y <= feasible.lower, y >= feasible.upper))


def _active_set_map(transform: "LassoDualProx", y: np.ndarray) -> AffineMap:
    """The Lasso dual-prox field on the active set of a box-QP maximizer ``y``.

    With D = H_yy - rho*I, the inner gradient is G @ z + D @ y + g_y0 for
    G = [H_yx, rho*I]. Pinning the coordinates off the free set F at their
    faces b_P and zeroing the gradient on F gives y_tilde = S @ z + s, with
    S_F = (-D_FF)^-1 G_F and s_F = (-D_FF)^-1 (D_FP b_P + g_y0_F). The map
    gives the ``dim`` rows of the field, then one sign row ``sign * KKT row``
    per finite bound of a KKT row (y_tilde on F, the inner gradient off it),
    with floor ``sign * bound``: each free y_tilde inside its bounds, each
    pinned gradient pointing out of its face. ``parts`` keeps (S, s, rows,
    sign) for ``LassoDualProx._confirm``.
    """
    base, rho, D, box = transform.base, transform.rho, transform._dual_hess.matrix, transform._feasible
    n, m, dim = base.n, base.m, base.dim
    H = base.hessian
    faces = _face_key(y, box)
    (at_lower, at_upper), free = faces, ~faces.any(axis=0)
    gx0 = base.grad_x(np.zeros(n), np.zeros(m))
    gy0 = base.grad_y(np.zeros(n), np.zeros(m))
    G = np.zeros((m, dim))
    G[:, :n] = H[n:, :n]
    G[:, n:] = rho * np.eye(m)
    inverse = transform._dual_hess.free_inverse(free)
    S = np.zeros((m, dim))
    S[free] = inverse @ G[free]
    s = np.where(free, 0.0, y)
    s[free] = inverse @ (D[free] @ s + gy0[free])
    # a pinned KKT row needs an outward gradient: <= 0 on a lower face, >= 0
    # on an upper one, either on a coordinate whose bounds coincide
    lo = np.where(free, box.lower, np.where(at_upper & ~at_lower, 0.0, -np.inf))
    hi = np.where(free, box.upper, np.where(at_lower & ~at_upper, 0.0, np.inf))
    low, high = np.flatnonzero(lo > -np.inf), np.flatnonzero(hi < np.inf)
    rows = np.concatenate((low, high))
    sign = np.concatenate((np.ones(low.shape[0]), -np.ones(high.shape[0])))
    kkt_slope = np.where(free[:, None], S, G + D @ S)[rows]
    kkt_offset = np.where(free, s, D @ s + gy0)[rows]
    W = np.empty((dim + rows.shape[0], dim))
    w = np.empty(dim + rows.shape[0])
    W[:n] = -(H[:n, n:] @ S)
    W[:n, :n] -= H[:n, :n]
    w[:n] = -(H[:n, n:] @ s + gx0)
    W[n:dim] = rho * S
    W[n:dim, n:] -= rho * np.eye(m)
    w[n:dim] = rho * s
    W[dim:] = sign[:, None] * kkt_slope
    w[dim:] = sign * kkt_offset
    floor = sign * np.concatenate((lo[low], hi[high]))
    return AffineMap(faces, dim, W, w, floor, parts=(S, s, rows, sign))


@dataclass(frozen=True)
class LassoDualProx:
    """Proximal regularization of a constrained dual block: problem over (u, v).

    The value is max_{y in Y} { L(u, y) - (rho/2)||y - v||^2 }; the maximizer
    y_tilde(u, v) is resolved by a projected Newton solve to a projected
    gradient of 1e-10. When the base declares its ``hessian``, the dual
    Hessian H_yy - rho*I is built once from its y block and the solve is a
    box QP over it, which first tries the active set of the previous
    solution.

    ``field`` is the saddle flow of ``problem``. Of a base that declares its
    ``hessian`` with at most ``AFFINE_MAX_DIM`` coordinates, the maximizer
    is piecewise affine in (u, v) (Bemporad, Morari, Dua & Pistikopoulos,
    Automatica 38(1), 2002), and ``field`` evaluates the affine map of the
    last active set plus a sign test; it solves the box QP only when the
    test fails. Any other base gets the oracle field.
    """

    base: SaddleProblem
    rho: float
    problem: SaddleProblem
    _cache: WarmCache
    _dual_hess: Optional[ConstantHessian] = None
    _slot: Optional[list] = None  # [the last confirmed map], or None without one

    @property
    def _feasible(self) -> FeasibleSet:
        """The box of the dual block (free when the base has no ``y_set``)."""
        return self.base.y_set if self.base.y_set is not None else FeasibleSet.free(self.base.m)

    def field(self, z) -> np.ndarray:
        """The saddle flow field (-grad_u, grad_v) at the state z = (u, v).

        On the map path it is ``W @ z + w`` of the slot's active set when
        the KKT rows pass the sign test; then y_tilde is the exact maximizer,
        since the KKT conditions suffice for this strongly concave QP.
        Otherwise the box QP finds the maximizer and its active set, and a
        new active set replaces the slot once confirmed at the oracles
        (``_confirm``). Where the new map still fails its sign test (a tie
        at a face) the field is the oracle field at the box-QP maximizer.
        """
        slot = self._slot
        if slot is not None and slot[0] is not None:
            f = slot[0](z)
            if f is not None:
                return f
        n = self.base.n
        u, v = z[:n], z[n:]
        if slot is not None:
            y = self.maximizer(u, v)
            if slot[0] is None or _face_key(y, self._feasible).tobytes() != slot[0].key:
                amap = _active_set_map(self, y)
                self._confirm(amap, z, y)
                slot[0] = amap
                f = amap(z)
                if f is not None:
                    return f
        return np.concatenate((-self.problem.grad_x(u, v), self.problem.grad_y(u, v)))

    def _confirm(self, amap: AffineMap, z, y: np.ndarray) -> None:
        """Check a new map at the oracles at one state; ``ValueError`` if it is off.

        At the map's y_tilde the inner gradient of the oracle must vanish on
        the free set to the inner tolerance, and the field and sign rows
        must match the oracles to ``flows._PROBE_TOL`` relative. The sign of
        the pinned gradients is the sign test's: near a tie it may point
        inward by the box QP's tolerance.
        """
        base, rho = self.base, self.rho
        u, v = z[: base.n], z[base.n :]
        S, s, rows, sign = amap.parts
        free = ~amap.faces.any(axis=0)
        y_map = S @ z + s
        d = rho * (y_map - v)
        g = base.grad_y(u, y_map) - d
        oracle = np.concatenate((-base.grad_x(u, y_map), d, sign * np.where(free, y_map, g)[rows]))
        gap = np.abs(amap.W @ z + amap.w - oracle).max()
        scale = 1.0 + (np.abs(amap.W) @ np.abs(z) + np.abs(amap.w)).max()
        stationarity = float(np.linalg.norm(g[free]))
        if not (stationarity <= INNER_TOL and gap <= _PROBE_TOL * scale):
            raise ValueError(
                f"active-set map of {self.problem.label} does not match its oracles: inner "
                f"gradient {stationarity:.3e} on the free set, field off by {gap:.3e}"
            )

    def maximizer(self, u, v, y0: Optional[np.ndarray] = None) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if y0 is None:
            hit = self._cache.match(u, v)
            if hit is not None:
                return hit
            y0 = v if self._cache.point is None else self._cache.point
        base, rho = self.base, self.rho
        feasible = self._feasible

        def phi(y):
            d = y - v
            return float(base.value(u, y)) - 0.5 * rho * float(d @ d)

        def dphi(y):
            return base.grad_y(u, y) - rho * (y - v)

        hess = None
        if base.hess_yy is not None and self._dual_hess is None:
            eye = np.eye(base.m)
            hess = lambda y: base.hess_yy(u, y) - rho * eye
        y = projected_concave_max(
            phi, dphi, feasible, y0, hess, constant_hess=self._dual_hess
        )
        self._cache.store(y, u, v)
        return y

    def reset(self) -> None:
        self._cache.clear()
        if self._slot is not None:
            self._slot[0] = None


def lasso_dual_prox(base: SaddleProblem, rho: float) -> LassoDualProx:
    """Proximally regularize the (possibly constrained) dual block of ``base``."""
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")

    def value(u, v):
        y = transform.maximizer(u, v)
        d = y - v
        return float(base.value(u, y)) - 0.5 * rho * float(d @ d)

    def grad_u(u, v):
        y = transform.maximizer(u, v)
        return base.grad_x(u, y)

    def grad_v(u, v):
        y = transform.maximizer(u, v)
        return rho * (y - np.asarray(v, dtype=float))

    problem = SaddleProblem(
        n=base.n, m=base.m, value=value, grad_x=grad_u, grad_y=grad_v, meta=ConvexityMeta(),
        label=f"dual_prox({base.label or 'problem'}, rho={rho})",
    )
    dual_hess = slot = None
    if base.hessian is not None:
        dual_hess = ConstantHessian(base.hessian[base.n :, base.n :] - rho * np.eye(base.m))
        # the map's W has up to (dim + 2m) x dim entries, as dense as the affine field's K
        if base.dim <= AFFINE_MAX_DIM:
            slot = [None]
    transform = LassoDualProx(
        base=base, rho=rho, problem=problem, _cache=WarmCache(),
        _dual_hess=dual_hess, _slot=slot,
    )
    return transform
