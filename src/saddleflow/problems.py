"""Concrete problem builders and independent reference oracles.

Builders return saddle problems with analytic gradients, exact curvature
metadata (dense eigensolves at build time; instances are desk scale), and
the analytic saddle point where one is known. The oracles (vertex
enumeration for LPs, proximal gradient for Lasso) are deliberately
independent of the flow machinery so acceptance checks have a second route.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .core import ConstraintMap, ConvexityMeta, ConvexObjective, SaddleProblem
from .flows import Flow, standard_flow
from .projection import FeasibleSet
from .transforms import lasso_dual_prox, lasso_reformulate, precondition

__all__ = [
    "LinearProgram",
    "LpSolution",
    "FlowNetwork",
    "SeparableProblem",
    "QpBundle",
    "LassoBundle",
    "make_bilinear",
    "make_quadratic_saddle",
    "make_lp",
    "make_min_cost_flow",
    "min_cost_flow_lp",
    "make_qp_affine",
    "qp_lagrangian",
    "make_separable_qp",
    "separable_qp_bundle",
    "make_lasso",
    "lp_oracle",
    "lasso_oracle",
    "parse_network",
    "parse_network_text",
    "demo_network",
]


def _sym_eig_bounds(mat: np.ndarray) -> tuple[float, float]:
    eigs = np.linalg.eigvalsh(mat)
    return float(max(eigs[0], 0.0)), float(max(eigs[-1], 0.0))


def _linear_objective(c: np.ndarray) -> ConvexObjective:
    """f(x) = c^T x: zero curvature (mu = l = 0) and a constant zero Hessian."""
    n = c.shape[0]
    return ConvexObjective(
        dim=n, value=lambda x: float(c @ x), grad=lambda x: c, hess=lambda x: np.zeros((n, n)),
        mu=0.0, l=0.0, label="linear", hess_constant=True,
    )


def _lagrangian(
    f: ConvexObjective, A: np.ndarray, b: np.ndarray, label: str, *,
    q: float = 0.0, kappa=None, sigma=None, y_set=None, saddle=None,
) -> SaddleProblem:
    """S(x, y) = f(x) + y^T (Ax - b) - (q/2)||y||^2, the one Lagrangian builder.

    A quadratic f (``hess_constant``, a linear one included) declares
    ``hessian`` at any size. Any other f with a ``hess`` oracle gets
    ``hess_xx`` and ``hess_yy`` and no ``hessian``; an f without one gets
    neither.
    """
    m, n = A.shape
    yy = -q * np.eye(m) if q else np.zeros((m, m))
    hessian = hess_xx = hess_yy = None
    if f.hess_constant:
        top = np.concatenate((f.hess(np.zeros(n)), A.T), axis=1)  # np.block costs 4x more
        hessian = np.concatenate((top, np.concatenate((A, yy), axis=1)))
        hessian.flags.writeable = False  # handed over without a copy
    elif f.hess is not None:
        hess_xx, hess_yy = (lambda x, y: f.hess(x)), (lambda x, y: yy)
    return SaddleProblem(
        n=n,
        m=m,
        value=lambda x, y: (
            float(f.value(x)) + float(y @ (A @ x - b)) - (0.5 * q * float(y @ y) if q else 0.0)
        ),
        grad_x=lambda x, y: f.grad(x) + A.T @ y,
        grad_y=(lambda x, y: A @ x - b - q * y) if q else (lambda x, y: A @ x - b),
        meta=ConvexityMeta(mu=f.mu, q=q, l=f.l, kappa=kappa, sigma=sigma),
        y_set=y_set, saddle=saddle, hess_xx=hess_xx, hess_yy=hess_yy, label=label, hessian=hessian,
    )


# ---------------------------------------------------------------------------
# plain saddle builders


def make_bilinear(M) -> SaddleProblem:
    """S(x, y) = x^T M y; the origin is always a saddle point."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    n, m = M.shape
    kappa, sigma = _sym_eig_bounds(M.T @ M)
    return _lagrangian(
        _linear_objective(np.zeros(n)), M.T, np.zeros(m), "bilinear",
        kappa=kappa, sigma=sigma, saddle=np.zeros(n + m),
    )


def make_quadratic_saddle(mu: float, q: float, B) -> SaddleProblem:
    """S(x, y) = (mu/2)||x||^2 + x^T B y - (q/2)||y||^2, saddle at the origin."""
    if not mu > 0 or not q > 0:
        raise ValueError(f"mu and q must be positive, got mu={mu}, q={q}")
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n, m = B.shape
    kappa, sigma = _sym_eig_bounds(B.T @ B)
    Q = mu * np.eye(n)  # f = (mu/2)||x||^2: its curvature is mu, no eigvalsh needed
    f = ConvexObjective(
        dim=n, value=lambda x: 0.5 * float(x @ (mu * x)), grad=lambda x: mu * x,
        hess=lambda x: Q, mu=float(mu), l=float(mu), label="quadratic", hess_constant=True,
    )
    return _lagrangian(
        f, B.T, np.zeros(m), "quadratic_saddle",
        q=q, kappa=kappa, sigma=sigma, saddle=np.zeros(n + m),
    )


# ---------------------------------------------------------------------------
# linear programs and network flow


@dataclass(frozen=True)
class LinearProgram:
    """min c^T x s.t. Ax - b <= 0, plus an optional equality block."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    A_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        n = c.shape[0]
        if A.shape != (b.shape[0], n):
            raise ValueError(f"inconsistent LP shapes: c {c.shape}, A {A.shape}, b {b.shape}")
        arrays = [c, A, b]
        A_eq = b_eq = None
        if self.A_eq is not None or self.b_eq is not None:
            if self.A_eq is None or self.b_eq is None:
                raise ValueError("A_eq and b_eq must be given together")
            A_eq = np.atleast_2d(np.asarray(self.A_eq, dtype=float))
            b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
            if A_eq.shape != (b_eq.shape[0], n):
                raise ValueError(f"inconsistent equality block: {A_eq.shape}, {b_eq.shape}")
            arrays += [A_eq, b_eq]
        for arr in arrays:
            if not np.all(np.isfinite(arr)):
                raise ValueError("LP data must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "A_eq", A_eq)
        object.__setattr__(self, "b_eq", b_eq)

    @property
    def n(self) -> int:
        return self.c.shape[0]


def make_lp(lp: LinearProgram) -> SaddleProblem:
    """Lagrangian of an LP: c^T x + y^T (A_full x - b_full).

    Equality rows come first with free multipliers; inequality rows carry
    nonnegative multipliers, encoded in the problem's y_set.
    """
    if lp.A_eq is not None:
        A_full = np.vstack((lp.A_eq, lp.A))
        b_full = np.concatenate((lp.b_eq, lp.b))
        k_eq = lp.b_eq.shape[0]
    else:
        A_full, b_full, k_eq = lp.A, lp.b, 0
    m = b_full.shape[0]
    lower = np.concatenate((np.full(k_eq, -np.inf), np.zeros(m - k_eq)))
    return _lagrangian(
        _linear_objective(lp.c), A_full, b_full, "lp_lagrangian",
        y_set=FeasibleSet(lower, np.full(m, np.inf)),
    )


@dataclass(frozen=True)
class FlowNetwork:
    """A directed network with nodal injections, edge costs and capacities."""

    injections: np.ndarray
    tails: np.ndarray
    heads: np.ndarray
    costs: np.ndarray
    capacities: np.ndarray
    node_ids: tuple = ()

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.injections, dtype=float))
        tails = np.atleast_1d(np.asarray(self.tails, dtype=int))
        heads = np.atleast_1d(np.asarray(self.heads, dtype=int))
        costs = np.atleast_1d(np.asarray(self.costs, dtype=float))
        caps = np.atleast_1d(np.asarray(self.capacities, dtype=float))
        n_e = tails.shape[0]
        if not (heads.shape[0] == costs.shape[0] == caps.shape[0] == n_e) or n_e == 0:
            raise ValueError("edge arrays must be nonempty and of equal length")
        n_v = d.shape[0]
        if np.any(tails < 0) or np.any(tails >= n_v) or np.any(heads < 0) or np.any(heads >= n_v):
            raise ValueError("edge endpoints out of node range")
        if np.any(tails == heads):
            raise ValueError("self-loops are not allowed")
        if np.any(caps < 0):
            raise ValueError("capacities must be nonnegative")
        scale = 1.0 + float(np.abs(d).max(initial=0.0))
        if abs(float(d.sum())) > 1e-9 * scale:
            raise ValueError(f"injections must balance to zero, sum={d.sum():.3e}")
        ids = self.node_ids if self.node_ids else tuple(str(i) for i in range(n_v))
        if len(ids) != n_v:
            raise ValueError("node_ids length does not match injections")
        for name, arr in (("injections", d), ("tails", tails), ("heads", heads),
                          ("costs", costs), ("capacities", caps)):
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "node_ids", tuple(ids))

    @property
    def num_nodes(self) -> int:
        return self.injections.shape[0]

    @property
    def num_edges(self) -> int:
        return self.tails.shape[0]

    def incidence(self) -> np.ndarray:
        """Node-edge incidence matrix: +1 at the tail, -1 at the head."""
        B = np.zeros((self.num_nodes, self.num_edges))
        for j, (i, k) in enumerate(zip(self.tails, self.heads)):
            B[i, j] = 1.0
            B[k, j] = -1.0
        return B


def min_cost_flow_lp(net: FlowNetwork) -> LinearProgram:
    """The min-cost flow problem as an LP: flow balance plus 0 <= x <= cap."""
    n_e = net.num_edges
    eye = np.eye(n_e)
    return LinearProgram(
        c=net.costs, A=np.vstack((eye, -eye)), b=np.concatenate((net.capacities, np.zeros(n_e))),
        A_eq=net.incidence(), b_eq=net.injections,
    )


def make_min_cost_flow(net: FlowNetwork) -> tuple[SaddleProblem, Callable]:
    """Stacked Lagrangian over (x, y_balance, y_capacity) and a recovery map.

    Balance multipliers are free; only the capacity block carries the
    nonnegative orthant. The recovery map reads the edge flows and the
    objective off any state whose leading block is x.
    """
    lp = min_cost_flow_lp(net)
    problem = make_lp(lp)
    n_e = net.num_edges
    costs = net.costs

    def recover(state) -> tuple[np.ndarray, float]:
        x = np.asarray(state, dtype=float)[:n_e]
        return x, float(costs @ x)

    return problem, recover


# ---------------------------------------------------------------------------
# quadratic programs


@dataclass(frozen=True)
class QpBundle:
    """A strongly convex quadratic objective with affine inequality constraints."""

    f: ConvexObjective
    A: np.ndarray
    b: np.ndarray
    kappa: float
    sigma: float

    def constraints(self) -> ConstraintMap:
        A, b = self.A, self.b
        zero = np.zeros((A.shape[1], A.shape[1]))
        return ConstraintMap(
            m=A.shape[0], value=lambda x: A @ x - b, jacobian=lambda x: A, hess=lambda x, y: zero,
            label="affine",
        )


def make_qp_affine(Q, p, A, b) -> QpBundle:
    """Bundle f(x) = 0.5 x^T Q x + p^T x with Ax - b <= 0; exact metadata.

    Q must be symmetric positive definite and A full row rank; curvature
    constants are eigenvalue bounds computed at build time.
    """
    f = _quadratic_objective(Q, p, "quadratic")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if A.shape[1] != f.dim or b.shape != (A.shape[0],):
        raise ValueError(f"inconsistent constraint shapes: A {A.shape}, b {b.shape}")
    kappa, sigma = _sym_eig_bounds(A @ A.T)
    if kappa <= 1e-12 * max(sigma, 1.0):
        raise ValueError("A must have full row rank (A A^T is singular)")
    return QpBundle(f=f, A=A, b=b, kappa=kappa, sigma=sigma)


def qp_lagrangian(bundle: QpBundle, nonneg_y: bool = True) -> SaddleProblem:
    """Lagrangian f(x) + y^T(Ax - b) of a QP bundle.

    With ``nonneg_y`` False the dual block is free; for a quadratic f
    (``hess_constant``) the unique stationary point is then solved from the
    KKT system and attached as the saddle.
    """
    f, A, b = bundle.f, bundle.A, bundle.b
    m, n = A.shape
    saddle = None
    if not nonneg_y and f.hess_constant:
        kkt = np.block([[f.hess(np.zeros(n)), A.T], [A, np.zeros((m, m))]])
        saddle = np.linalg.solve(kkt, np.concatenate((-f.grad(np.zeros(n)), b)))
    return _lagrangian(
        f, A, b, "qp_lagrangian", kappa=bundle.kappa, sigma=bundle.sigma,
        y_set=FeasibleSet.nonnegative(m) if nonneg_y else None, saddle=saddle,
    )


# ---------------------------------------------------------------------------
# separable programs


@dataclass(frozen=True)
class SeparableProblem:
    """min f_s(x_s) + f_c(x_c) s.t. A_s x_s + A_c x_c - b <= 0."""

    f_s: ConvexObjective
    f_c: ConvexObjective
    A_s: np.ndarray
    A_c: np.ndarray
    b: np.ndarray
    kappa_s: float = field(init=False)  # the extreme eigenvalues of A_s A_s^T, computed here
    sigma_s: float = field(init=False)

    def __post_init__(self):
        A_s = np.atleast_2d(np.asarray(self.A_s, dtype=float))
        A_c = np.atleast_2d(np.asarray(self.A_c, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        m = b.shape[0]
        if A_s.shape != (m, self.f_s.dim) or A_c.shape != (m, self.f_c.dim):
            raise ValueError(
                f"inconsistent shapes: A_s {A_s.shape}, A_c {A_c.shape}, b {b.shape}"
            )
        kappa_s, sigma_s = _sym_eig_bounds(A_s @ A_s.T)
        if kappa_s <= 1e-12 * max(sigma_s, 1.0):
            raise ValueError("A_s must have full row rank (A_s A_s^T is singular)")
        values = {"A_s": A_s, "A_c": A_c, "b": b, "kappa_s": kappa_s, "sigma_s": sigma_s}
        for name, value in values.items():
            object.__setattr__(self, name, value)


def _is_symmetric(Q: np.ndarray) -> bool:
    """``np.allclose(Q, Q.T, atol=1e-12)``, without its per-call overhead.

    The same element-wise test as ``np.isclose`` (rtol 1e-5): |a - b| <=
    1e-12 + 1e-5*|b| at a finite b, or a == b. An exactly symmetric Q,
    the usual input, costs one comparison.
    """
    QT = Q.T
    equal = Q == QT
    if equal.all():
        return True
    with np.errstate(invalid="ignore"):  # inf - inf
        close = (np.abs(Q - QT) <= 1e-12 + 1e-5 * np.abs(QT)) & np.isfinite(QT)
    return bool((close | equal).all())


def _quadratic_objective(Q, p, label: str) -> ConvexObjective:
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    n = Q.shape[0]
    if Q.shape != (n, n) or p.shape != (n,):
        raise ValueError(f"inconsistent quadratic shapes: Q {Q.shape}, p {p.shape}")
    if not _is_symmetric(Q):
        raise ValueError("Q must be symmetric")
    eigs = np.linalg.eigvalsh(Q)
    if eigs[0] <= 0:
        raise ValueError(f"Q must be positive definite, smallest eigenvalue {eigs[0]:.3e}")
    return ConvexObjective(
        dim=n, value=lambda x: 0.5 * float(x @ (Q @ x)) + float(p @ x), grad=lambda x: Q @ x + p,
        hess=lambda x: Q, mu=float(eigs[0]), l=float(eigs[-1]), label=label, hess_constant=True,
    )


def make_separable_qp(Q_s, p_s, Q_c, p_c, A_s, A_c, b) -> SeparableProblem:
    """Separable QP with exact per-block curvature metadata."""
    f_s, f_c = _quadratic_objective(Q_s, p_s, "f_s"), _quadratic_objective(Q_c, p_c, "f_c")
    return SeparableProblem(f_s=f_s, f_c=f_c, A_s=A_s, A_c=A_c, b=b)


def separable_qp_bundle(sep: SeparableProblem) -> QpBundle:
    """Collapse a separable problem into one QP bundle over (x_s, x_c).

    Lets the preconditioning transform run on separable instances; requires
    both blocks to declare constant Hessians (``hess_constant``) and a
    full-row-rank stacked constraint matrix.
    """
    if not (sep.f_s.hess_constant and sep.f_c.hess_constant):
        raise ValueError(
            "combined bundle requires quadratic blocks: both must declare hess_constant"
        )
    n_s, n_c = sep.f_s.dim, sep.f_c.dim
    z_s, z_c = np.zeros(n_s), np.zeros(n_c)
    Q = np.zeros((n_s + n_c, n_s + n_c))
    Q[:n_s, :n_s], Q[n_s:, n_s:] = sep.f_s.hess(z_s), sep.f_c.hess(z_c)
    p = np.concatenate((sep.f_s.grad(z_s), sep.f_c.grad(z_c)))
    return make_qp_affine(Q, p, np.hstack((sep.A_s, sep.A_c)), sep.b)


# ---------------------------------------------------------------------------
# Lasso


@dataclass(frozen=True)
class LassoBundle:
    """Data and the transformed pieces of min 0.5||Ax - b||^2 + lam*||x||_1."""

    A_data: np.ndarray
    b_data: np.ndarray
    lam: float
    fhat: ConvexObjective
    f: ConvexObjective
    A: np.ndarray
    y_set: FeasibleSet

    @property
    def n(self) -> int:
        return self.fhat.dim

    @property
    def l(self) -> float:
        return self.fhat.l

    def dynamics(self, alpha: float, rho: float) -> Flow:
        """The flow of the dual-proximal transform over (u, v); requires alpha < 2/l."""
        if self.l > 0 and not alpha < 2.0 / self.l:
            raise ValueError(f"alpha must satisfy alpha < 2/l = {2.0 / self.l}, got {alpha}")
        zeros = np.zeros(self.f.dim)
        transform = lasso_dual_prox(
            precondition(self.f, self.A, zeros, eta=1.0, alpha=alpha, y_set=self.y_set), rho
        )
        return replace(standard_flow(transform.problem), field=transform.field)

    def recover(self, alpha: float, state) -> np.ndarray:
        """The lifted primal point x = u - alpha*A^T*v of a state (u, v).

        ``state`` is a state of ``dynamics(alpha, rho)``; at an equilibrium,
        x[:n] is the regression variable x_hat.
        """
        state = np.asarray(state, dtype=float)
        lifted = self.f.dim
        return state[:lifted] - alpha * (self.A.T @ state[lifted:])


def make_lasso(A_data, b_data, lam: float) -> LassoBundle:
    """Lasso problem bundle; the data-fit term supplies exact l = lambda_max(A^T A)."""
    A_data = np.atleast_2d(np.asarray(A_data, dtype=float))
    b_data = np.atleast_1d(np.asarray(b_data, dtype=float))
    m, n = A_data.shape
    if b_data.shape != (m,):
        raise ValueError(f"inconsistent data shapes: A {A_data.shape}, b {b_data.shape}")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    gram = A_data.T @ A_data
    mu_hat, l_hat = _sym_eig_bounds(gram)
    fhat = ConvexObjective(
        dim=n, value=lambda x: 0.5 * float(np.sum((A_data @ x - b_data) ** 2)),
        grad=lambda x: A_data.T @ (A_data @ x - b_data), hess=lambda x: gram,
        mu=mu_hat, l=l_hat, label="lasso_datafit", hess_constant=True,
    )
    f, A, y_set = lasso_reformulate(fhat, lam)
    return LassoBundle(A_data=A_data, b_data=b_data, lam=lam, fhat=fhat, f=f, A=A, y_set=y_set)


def _soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def lasso_oracle(
    bundle: LassoBundle, tol: float = 1e-10, max_iters: int = 200_000, x0=None
) -> np.ndarray:
    """Reference Lasso solution by accelerated proximal gradient.

    Runs FISTA with gradient-based restarts until the exact subgradient
    optimality residual drops below ``tol``; independent of the saddle-flow
    machinery. The starting point does not affect the limit.
    """
    A, b, lam, n, L = bundle.A_data, bundle.b_data, bundle.lam, bundle.n, bundle.l
    if L <= 0:
        return np.zeros(n)
    step = 1.0 / L
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    w = x.copy()
    theta = 1.0
    for _ in range(max_iters):
        g_w = A.T @ (A @ w - b)
        x_new = _soft_threshold(w - step * g_w, step * lam)
        g = A.T @ (A @ x_new - b)
        on = x_new != 0.0
        res = np.where(on, g + lam * np.sign(x_new), np.maximum(np.abs(g) - lam, 0.0))
        if float(np.linalg.norm(res)) <= tol:
            return x_new
        if float(g_w @ (x_new - x)) > 0.0:  # adaptive restart
            theta = 1.0
        theta_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta**2))
        w = x_new + ((theta - 1.0) / theta_new) * (x_new - x)
        x = x_new
        theta = theta_new
    raise RuntimeError(f"lasso oracle did not reach tol={tol} in {max_iters} iterations")


# ---------------------------------------------------------------------------
# LP oracle


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray] = None
    value: Optional[float] = None


def _independent_rows(A: np.ndarray) -> list[int]:
    rows: list[int] = []
    for i in range(A.shape[0]):
        trial = A[rows + [i]]
        if np.linalg.matrix_rank(trial) == len(rows) + 1:
            rows.append(i)
    return rows


def lp_oracle(
    lp: LinearProgram, tol: float = 1e-9, box: float = 1e6, max_bases: int = 500_000
) -> LpSolution:
    """Exact small-scale LP solve by vertex enumeration.

    Every basis combines the independent equality rows with n - rank(A_eq)
    active inequality (or bounding-box) rows; the box at ``box`` detects
    unboundedness. Raises when the basis count exceeds ``max_bases``.
    """
    n = lp.n
    if lp.A_eq is not None:
        x_part, *_ = np.linalg.lstsq(lp.A_eq, lp.b_eq, rcond=None)
        scale_eq = 1.0 + float(np.abs(lp.b_eq).max(initial=0.0))
        if float(np.abs(lp.A_eq @ x_part - lp.b_eq).max()) > tol * scale_eq:
            return LpSolution(status="infeasible")
        eq_rows = _independent_rows(lp.A_eq)
        E, e = lp.A_eq[eq_rows], lp.b_eq[eq_rows]
    else:
        E, e = np.zeros((0, n)), np.zeros(0)

    eye = np.eye(n)
    G = np.vstack((lp.A, eye, -eye))
    g = np.concatenate((lp.b, np.full(n, box), np.full(n, box)))
    n_free = max(n - E.shape[0], 0)
    if math.comb(G.shape[0], n_free) > max_bases:
        raise ValueError(f"lp_oracle size cap exceeded: C({G.shape[0]}, {n_free}) > {max_bases}")

    feas_scale_in = 1.0 + np.abs(lp.b)
    feas_scale_eq = None if lp.A_eq is None else 1.0 + np.abs(lp.b_eq)

    best_any: Optional[tuple[float, np.ndarray]] = None
    best_inner: Optional[tuple[float, np.ndarray]] = None
    box_edge = box * (1.0 - 1e-6)
    for rows in itertools.combinations(range(G.shape[0]), n_free):
        basis = np.vstack((E, G[list(rows)])) if n_free else E
        rhs = np.concatenate((e, g[list(rows)])) if n_free else e
        try:
            x = np.linalg.solve(basis, rhs)
        except np.linalg.LinAlgError:
            continue
        slack = lp.A @ x - lp.b
        if np.any(slack > tol * (feas_scale_in + np.abs(lp.A) @ np.abs(x))):
            continue
        if lp.A_eq is not None:
            gap = np.abs(lp.A_eq @ x - lp.b_eq)
            if np.any(gap > tol * (feas_scale_eq + np.abs(lp.A_eq) @ np.abs(x))):
                continue
        if np.any(np.abs(x) > box * (1.0 + 1e-9)):
            continue
        val = float(lp.c @ x)
        if best_any is None or val < best_any[0]:
            best_any = (val, x)
        if float(np.abs(x).max(initial=0.0)) < box_edge:
            if best_inner is None or val < best_inner[0]:
                best_inner = (val, x)

    if best_any is None:
        return LpSolution(status="infeasible")
    if best_inner is not None:
        val_tol = 1e-7 * (1.0 + abs(best_inner[0]))
        if best_any[0] >= best_inner[0] - val_tol:
            return LpSolution(status="optimal", x=best_inner[1], value=best_inner[0])
    return LpSolution(status="unbounded")


# ---------------------------------------------------------------------------
# network file format


def parse_network_text(text: str) -> FlowNetwork:
    """Parse the line-oriented network format.

    ``node <id> <injection>`` and ``edge <tail> <head> <cost> <capacity>``
    lines, ``#`` comments; nodes are indexed in order of appearance.
    """
    ids: list[str] = []
    index: dict[str, int] = {}
    injections: list[float] = []
    tails: list[int] = []
    heads: list[int] = []
    costs: list[float] = []
    caps: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].lower()
        try:
            if kind == "node" and len(parts) == 3:
                name = parts[1]
                if name in index:
                    raise ValueError(f"duplicate node '{name}'")
                index[name] = len(ids)
                ids.append(name)
                injections.append(float(parts[2]))
            elif kind == "edge" and len(parts) == 5:
                tails.append(index[parts[1]])
                heads.append(index[parts[2]])
                costs.append(float(parts[3]))
                caps.append(float(parts[4]))
            else:
                raise ValueError(f"unrecognized line: {raw!r}")
        except KeyError as err:
            raise ValueError(f"line {lineno}: unknown node {err}") from None
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    return FlowNetwork(
        injections=np.asarray(injections), tails=np.asarray(tails, dtype=int),
        heads=np.asarray(heads, dtype=int), costs=np.asarray(costs), capacities=np.asarray(caps),
        node_ids=tuple(ids),
    )


def parse_network(path) -> FlowNetwork:
    return parse_network_text(Path(path).read_text())


def demo_network(seed: int = 2024) -> FlowNetwork:
    """The canonical 5-node / 7-edge test network (seeded costs and capacities)."""
    rng = np.random.default_rng(seed)
    tails = np.array([0, 1, 2, 3, 4, 0, 1])
    heads = np.array([1, 2, 3, 4, 0, 2, 4])
    injections = np.array([3.0, 1.0, -2.0, -1.0, -1.0])
    costs = np.round(rng.uniform(1.0, 4.0, size=7), 2)
    capacities = np.round(rng.uniform(2.0, 5.0, size=7), 2)
    return FlowNetwork(
        injections=injections, tails=tails, heads=heads, costs=costs, capacities=capacities,
        node_ids=tuple(f"n{i + 1}" for i in range(5)),
    )
