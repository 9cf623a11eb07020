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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from ._inner import InnerSolveError, WarmCache, newton_solve, projected_concave_max
from .core import ConvexityMeta, ConvexObjective, SaddleProblem
from .projection import FeasibleSet

if TYPE_CHECKING:  # pragma: no cover
    from .problems import SeparableProblem

__all__ = [
    "InnerSolveConfig",
    "InnerSolveError",
    "AugmentedProblem",
    "ProximalSurrogate",
    "PreconditionedProblem",
    "ReducedProblem",
    "LassoDualProx",
    "augment",
    "proximal_surrogate",
    "precondition",
    "reduce",
    "lasso_reformulate",
    "lasso_dual_prox",
]


@dataclass(frozen=True)
class InnerSolveConfig:
    """Stopping rule for the inner minimizations hidden in transformed oracles."""

    tol: float = 1e-10
    max_iters: int = 100

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


# ---------------------------------------------------------------------------
# state augmentation


@dataclass(frozen=True)
class AugmentedProblem:
    """The augmented function over ((x, x_hat), (y, y_hat)).

    Its value is S(x, y) + (rho/2)||x - x_hat||^2 - (rho/2)||y - y_hat||^2;
    saddle points satisfy x = x_hat and y = y_hat and project onto saddle
    points of the base problem.
    """

    base: SaddleProblem
    rho: float
    problem: SaddleProblem


def augment(problem: SaddleProblem, rho: float) -> AugmentedProblem:
    """Augment a convex-concave problem with mirror variables."""
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if not problem.convex_concave:
        raise ValueError("augmentation requires a convex-concave problem")
    n, m = problem.n, problem.m

    def value(xa, ya):
        x, xh = xa[:n], xa[n:]
        y, yh = ya[:m], ya[m:]
        gap_x = x - xh
        gap_y = y - yh
        return (
            float(problem.value(x, y))
            + 0.5 * rho * float(gap_x @ gap_x)
            - 0.5 * rho * float(gap_y @ gap_y)
        )

    def grad_x(xa, ya):
        x, xh = xa[:n], xa[n:]
        y = ya[:m]
        d = rho * (x - xh)
        return np.concatenate((problem.grad_x(x, y) + d, -d))

    def grad_y(xa, ya):
        x = xa[:n]
        y, yh = ya[:m], ya[m:]
        e = rho * (y - yh)
        return np.concatenate((problem.grad_y(x, y) - e, e))

    y_set = None
    if problem.y_set is not None:
        # only the real dual block keeps its bounds; the mirror block is free
        y_set = FeasibleSet.stack(problem.y_set, FeasibleSet.free(m))

    saddle = None
    if problem.saddle is not None:
        x_star, y_star = problem.saddle
        saddle = (
            np.concatenate((x_star, x_star)),
            np.concatenate((y_star, y_star)),
        )

    aug = SaddleProblem(
        n=2 * n,
        m=2 * m,
        value=value,
        grad_x=grad_x,
        grad_y=grad_y,
        meta=ConvexityMeta(),
        convex_concave=True,
        y_set=y_set,
        saddle=saddle,
        label=f"augmented({problem.label or 'problem'}, rho={rho})",
    )
    return AugmentedProblem(base=problem, rho=rho, problem=aug)


# ---------------------------------------------------------------------------
# proximal surrogate


@dataclass(frozen=True)
class ProximalSurrogate:
    """Moreau-type surrogate of the min block: a problem over (u, y).

    The surrogate value is min_x { S(x, y) + (rho/2)||x - u||^2 }; its
    gradients are evaluated through the inner minimizer x_tilde(u, y), which
    is resolved by damped Newton to the configured residual tolerance. When
    the base declares a constant Hessian, the inverse of H_xx + rho*I is
    factored once at build time and each solve opens with that exact step.
    """

    base: SaddleProblem
    rho: float
    inner: InnerSolveConfig
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
            eye = np.eye(self.base.n)
            jacobian = lambda x: self.base.hess_xx(x, y) + self.rho * eye
        x = newton_solve(
            residual, x0, jacobian, tol=self.inner.tol, max_iters=self.inner.max_iters,
            jacobian_inverse=self._jacobian_inverse,
        )
        self._cache.store(x, u, y)
        return x

    def reset(self) -> None:
        self._cache.clear()


def proximal_surrogate(
    problem: SaddleProblem, rho: float, inner: InnerSolveConfig = InnerSolveConfig()
) -> ProximalSurrogate:
    """Build the proximal surrogate of a convex-concave problem."""
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if not problem.convex_concave:
        raise ValueError("the proximal surrogate requires a convex-concave problem")

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
    mu_s = None if meta.mu is None else (
        meta.mu * rho / (meta.mu + rho) if meta.mu > 0 else 0.0
    )
    q_s = None
    if meta.kappa is not None and meta.l is not None:
        q_s = meta.kappa / (meta.l + rho)
    l_s = None if meta.l is None else rho * meta.l / (meta.l + rho)

    surrogate_problem = SaddleProblem(
        n=problem.n,
        m=problem.m,
        value=value,
        grad_x=grad_u,
        grad_y=grad_y,
        meta=ConvexityMeta(mu=mu_s, q=q_s, l=l_s),
        convex_concave=True,
        y_set=problem.y_set,
        saddle=problem.saddle,
        label=f"proximal({problem.label or 'problem'}, rho={rho})",
    )
    jacobian_inverse = None
    if problem.hess_constant and problem.hess_xx is not None:
        n, m = problem.n, problem.m
        jacobian_inverse = np.linalg.inv(
            problem.hess_xx(np.zeros(n), np.zeros(m)) + rho * np.eye(n)
        )
    surrogate = ProximalSurrogate(
        base=problem, rho=rho, inner=inner, problem=surrogate_problem, _cache=WarmCache(),
        _jacobian_inverse=jacobian_inverse,
    )
    return surrogate


# ---------------------------------------------------------------------------
# preconditioning change of variables


@dataclass(frozen=True)
class PreconditionedProblem:
    """The transformed Lagrangian over (u, y) after u = x + alpha*A^T*y.

    The value is f(u - alpha*A^T*y) + eta*y^T(Au - b) - eta*alpha*||A^T*y||^2,
    strongly convex-strongly concave when 2*eta > l*alpha. ``primal`` maps a
    transformed point back to original coordinates.
    """

    f: ConvexObjective
    A: np.ndarray
    b: np.ndarray
    eta: float
    alpha: float
    problem: SaddleProblem

    def primal(self, u, y) -> np.ndarray:
        return np.asarray(u, dtype=float) - self.alpha * (self.A.T @ np.asarray(y, dtype=float))


def precondition(
    f: ConvexObjective,
    A,
    b,
    eta: float,
    alpha: float,
    y_set: Optional[FeasibleSet] = None,
) -> PreconditionedProblem:
    """Apply the change of variables u = x + alpha*A^T*y to f + eta*y^T(Ax - b).

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
    kappa_a = float(max(eigs[0], 0.0))
    sigma_a = float(eigs[-1])

    def primal_point(u, y):
        return u - alpha * (A.T @ y)

    def value(u, y):
        x = primal_point(u, y)
        aty = A.T @ y
        return (
            float(f.value(x))
            + eta * float(y @ (A @ u - b))
            - eta * alpha * float(aty @ aty)
        )

    def grad_u(u, y):
        return f.grad(primal_point(u, y)) + eta * (A.T @ y)

    def grad_y(u, y):
        gf = f.grad(primal_point(u, y))
        return -alpha * (A @ gf) + eta * (A @ u - b) - 2.0 * eta * alpha * (AAT @ y)

    hess_xx = None
    hess_yy = None
    if f.hess is not None:
        def hess_xx(u, y):
            return f.hess(primal_point(u, y))

        def hess_yy(u, y):
            hf = f.hess(primal_point(u, y))
            return alpha**2 * (A @ hf @ A.T) - 2.0 * eta * alpha * AAT

    q_val = None
    if f.l is not None:
        gap = (2.0 * eta * alpha - f.l * alpha**2) * kappa_a
        q_val = gap if gap > 0 else None

    problem = SaddleProblem(
        n=n,
        m=m,
        value=value,
        grad_x=grad_u,
        grad_y=grad_y,
        meta=ConvexityMeta(mu=f.mu, q=q_val, l=f.l, kappa=kappa_a, sigma=sigma_a),
        convex_concave=True,
        y_set=FeasibleSet.nonnegative(m) if y_set is None else y_set,
        hess_xx=hess_xx,
        hess_yy=hess_yy,
        hess_constant=f.hess_constant,
        label=f"preconditioned({f.label or 'f'}, eta={eta}, alpha={alpha})",
    )
    return PreconditionedProblem(f=f, A=A, b=b, eta=eta, alpha=alpha, problem=problem)


# ---------------------------------------------------------------------------
# reduction by partial minimization


@dataclass(frozen=True)
class ReducedProblem:
    """Lagrangian of a separable program minimized over the x_s block.

    A problem over (x_c, y); ``minimizer`` resolves x_s_bar(y) from the
    optimality condition grad f_s(x_s) + A_s^T y = 0, and ``recover`` stacks
    the full primal point. A quadratic f_s (``hess_constant``) has its
    Hessian inverted once at build time.
    """

    sep: "SeparableProblem"
    inner: InnerSolveConfig
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
        x = newton_solve(
            residual, x0, jacobian, tol=self.inner.tol, max_iters=self.inner.max_iters,
            jacobian_inverse=self._jacobian_inverse,
        )
        self._cache.store(x, y)
        return x

    def recover(self, x_c, y) -> np.ndarray:
        """The full primal point (x_s_bar(y), x_c)."""
        return np.concatenate((self.minimizer(y), np.asarray(x_c, dtype=float)))

    def reset(self) -> None:
        self._cache.clear()


def reduce(sep: "SeparableProblem", inner: InnerSolveConfig = InnerSolveConfig()) -> ReducedProblem:
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

    problem = SaddleProblem(
        n=f_c.dim,
        m=m,
        value=value,
        grad_x=grad_xc,
        grad_y=grad_y,
        meta=ConvexityMeta(mu=f_c.mu, q=q_val, l=f_c.l),
        convex_concave=True,
        y_set=FeasibleSet.nonnegative(m),
        label="reduced_lagrangian",
    )
    jacobian_inverse = None
    if sep.f_s.hess_constant:
        jacobian_inverse = np.linalg.inv(sep.f_s.hess(np.zeros(sep.f_s.dim)))
    reduced = ReducedProblem(
        sep=sep, inner=inner, problem=problem, _cache=WarmCache(),
        _jacobian_inverse=jacobian_inverse,
    )
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
    C = np.hstack((-eye_n, eye_n))
    A = np.block(
        [
            [eye_n, C],
            [np.zeros((2 * n, n)), -np.eye(2 * n)],
        ]
    )

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
        dim=3 * n,
        value=value,
        grad=grad_f,
        hess=hess,
        mu=0.0,
        l=fhat.l,
        label=f"lasso_split({fhat.label or 'fhat'}, lambda={lam})",
        hess_constant=fhat.hess_constant,
    )
    feasible = FeasibleSet(
        np.concatenate((np.full(n, -np.inf), np.zeros(2 * n))),
        np.full(3 * n, np.inf),
    )
    return f, A, feasible


@dataclass(frozen=True)
class LassoDualProx:
    """Proximal regularization of a constrained dual block: problem over (u, v).

    The value is max_{y in Y} { L(u, y) - (rho/2)||y - v||^2 }; the maximizer
    y_tilde(u, v) is resolved by a projected Newton solve to the configured
    residual tolerance. When the base declares a constant Hessian, the dual
    Hessian H_yy - rho*I is built once and the solve is a box QP over it.
    When the base problem came from ``precondition``, ``recover`` maps an
    equilibrium back to original primal-dual coordinates.
    """

    base: SaddleProblem
    rho: float
    inner: InnerSolveConfig
    problem: SaddleProblem
    precond: Optional[PreconditionedProblem]
    _cache: WarmCache
    _dual_hess: Optional[np.ndarray] = None

    def maximizer(self, u, v, y0: Optional[np.ndarray] = None) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if y0 is None:
            hit = self._cache.match(u, v)
            if hit is not None:
                return hit
            y0 = v if self._cache.point is None else self._cache.point
        base, rho = self.base, self.rho
        feasible = base.y_set if base.y_set is not None else FeasibleSet.free(base.m)

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
            phi, dphi, feasible, y0, hess, tol=self.inner.tol, max_iters=self.inner.max_iters,
            constant_hess=self._dual_hess,
        )
        self._cache.store(y, u, v)
        return y

    def recover(self, u, v) -> tuple[np.ndarray, np.ndarray]:
        """Original coordinates (x, y) of a transformed equilibrium (u, v)."""
        if self.precond is None:
            raise ValueError("recovery needs the preconditioning transform this problem came from")
        v = np.asarray(v, dtype=float)
        return self.precond.primal(u, v), v

    def reset(self) -> None:
        self._cache.clear()


def lasso_dual_prox(
    LC: Union[SaddleProblem, PreconditionedProblem],
    rho: float,
    inner: InnerSolveConfig = InnerSolveConfig(),
) -> LassoDualProx:
    """Proximally regularize the (possibly constrained) dual block of ``LC``."""
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    precond = LC if isinstance(LC, PreconditionedProblem) else None
    base = LC.problem if isinstance(LC, PreconditionedProblem) else LC

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
        n=base.n,
        m=base.m,
        value=value,
        grad_x=grad_u,
        grad_y=grad_v,
        meta=ConvexityMeta(),
        convex_concave=True,
        y_set=None,
        label=f"dual_prox({base.label or 'problem'}, rho={rho})",
    )
    dual_hess = None
    if base.hess_constant and base.hess_yy is not None:
        dual_hess = base.hess_yy(np.zeros(base.n), np.zeros(base.m)) - rho * np.eye(base.m)
    transform = LassoDualProx(
        base=base, rho=rho, inner=inner, problem=problem, precond=precond, _cache=WarmCache(),
        _dual_hess=dual_hess,
    )
    return transform
