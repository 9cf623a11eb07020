"""Observable certificates and closed-form convergence-rate bounds.

A certificate is a two-entry nonnegative function of the state, sandwiched
from above by saddle-value gaps; its vanishing along a whole trajectory
forces the flow to sit at an equilibrium. Its builders take the saddle point
as one stacked vector (x*, y*), as a run's state carries it. The rate bounds
are the min-of-curvature constants of the exponential envelopes, plus the
parameter rules that optimize them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import SaddleProblem, full_domain, grad, stationarity_residual
from .flows import Flow
from .integrate import Trajectory
from .transforms import ProximalSurrogate

__all__ = [
    "Certificate",
    "CertificateReport",
    "cert_strict_cc",
    "cert_proximal",
    "cert_augmented",
    "eval_certificate",
    "rate_bound_strong",
    "rate_bound_proximal",
    "optimal_rho",
    "precond_params_pick",
    "precond_K",
]

_SADDLE_TOL = 1e-8
# largest value - bracket that still counts as the sandwich holding
SANDWICH_TOL = 1e-9
# flow residual above which a vanished certificate falsifies observability
_ZERO_TOL = 1e-6


@dataclass(frozen=True)
class Certificate:
    """Two nonnegative entries plus their sandwich upper bound, per state.

    ``batch``, if set, maps the (k, dim) states to (values, brackets) of shape
    (k, 2) at once; ``s_star``, the saddle value, scales its oracle check.
    """

    value: Callable[[np.ndarray], np.ndarray]
    bracket: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"
    batch: Optional[Callable[[np.ndarray], tuple]] = None
    s_star: float = 0.0


@dataclass(frozen=True)
class CertificateReport:
    min_entry: np.ndarray          # per-entry minimum over the trajectory
    max_bracket_violation: float   # max over samples and entries of value - bracket
    final_values: np.ndarray
    observability_violated: Optional[bool] = None
    route: str = "oracle"          # "batch", or "oracle" at every state
    oracle_gap: Optional[float] = None  # batch route: largest |batch - oracle| at the checks
    checked_states: int = 0        # batch route: states checked against the oracles


def _saddle_gaps(problem: SaddleProblem, z_star, what: str, xs: slice, ys: slice):
    """(S*, gaps, batch gaps) at the stacked point z*, checked to be a saddle point.

    gaps maps a state (x, y in its entries xs, ys) to [S* - S(x*, y), S(x, y*) - S*]
    through the value oracle. Its batch form, None without a declared ``hessian``,
    maps (k, dim) states to the rows [-(g_y*.dy + dy.H_yy.dy/2), g_x*.dx + dx.H_xx.dx/2],
    centred at z*: exact for a quadratic S, from one gradient call at z*.
    """
    res = stationarity_residual(problem, z_star, feasible=full_domain(problem))
    if res > _SADDLE_TOL:
        raise ValueError(
            f"{what} is not a saddle point: stationarity residual {res:.3e} > {_SADDLE_TOL:.0e}"
        )
    z_star, H, n = np.asarray(z_star, dtype=float), problem.hessian, problem.n
    x_star, y_star = z_star[:n], z_star[n:]
    s_star = float(problem.value(x_star, y_star))

    def gaps(state):
        x, y = state[xs], state[ys]
        return np.array(
            [s_star - float(problem.value(x_star, y)), float(problem.value(x, y_star)) - s_star]
        )

    if H is None:
        return s_star, gaps, None
    gx, gy = grad(problem, z_star)

    def batch_gaps(states):
        dx, dy = states[:, xs] - x_star, states[:, ys] - y_star
        s_y = -(dy @ gy + 0.5 * ((dy @ H[n:, n:]) * dy).sum(axis=1))
        # + 0.0 turns the -0.0 of a vanishing gap into 0.0
        return np.column_stack((s_y, dx @ gx + 0.5 * ((dx @ H[:n, :n]) * dx).sum(axis=1))) + 0.0

    return s_star, gaps, batch_gaps


def cert_strict_cc(problem: SaddleProblem, z_star) -> Certificate:
    """Saddle-gap certificate for strictly convex-concave problems.

    Entries [S(x*,y*) - S(x*,y), S(x,y*) - S(x*,y*)]; the bracket is the
    certificate itself (the sandwich holds with equality); with a declared
    ``hessian`` its batch form is the batch gaps.
    """
    n = problem.n
    s_star, gaps, batch_gaps = _saddle_gaps(problem, z_star, "z_star", slice(n), slice(n, None))
    batch = None if batch_gaps is None else lambda states: (batch_gaps(states),) * 2
    return Certificate(value=gaps, bracket=gaps, label="strict_cc", batch=batch, s_star=s_star)


def cert_proximal(surrogate: ProximalSurrogate, w_star) -> Certificate:
    """Certificate of the proximal surrogate at its stacked saddle w* = (u*, y*).

    Entries [S~(u*,y*) - S~(u*,y), (rho/2)*||x_tilde(u,y*) - u||^2]; the
    second bracket entry is the saddle gap S~(u,y*) - S~(u*,y*), which
    dominates the quadratic term by convexity of the min block. With a declared
    ``hessian``, the batch form takes the batch gaps and x_tilde(u, y*) =
    M(rho*u - grad_x S(0, y*)), M = (H_xx + rho*I)^-1 as the surrogate factors it.
    """
    prob = surrogate.problem
    n = prob.n
    s_star, gaps, batch_gaps = _saddle_gaps(prob, w_star, "w_star", slice(n), slice(n, None))
    w_star = np.asarray(w_star, dtype=float)
    u_star, y_star = w_star[:n], w_star[n:]
    rho = surrogate.rho

    def value(state):
        u, y = state[:n], state[n:]
        d = surrogate.minimizer(u, y_star) - u
        return np.array([s_star - float(prob.value(u_star, y)), 0.5 * rho * float(d @ d)])

    batch = None
    if batch_gaps is not None:
        M, g0 = surrogate._jacobian_inverse, surrogate.base.grad_x(np.zeros(n), y_star)

        def batch(states):
            U, brackets = states[:, :n], batch_gaps(states)
            D = (rho * U - g0) @ M.T - U
            return np.column_stack((brackets[:, 0], 0.5 * rho * (D * D).sum(axis=1))), brackets

    return Certificate(value=value, bracket=gaps, label="proximal", batch=batch, s_star=s_star)


def cert_augmented(problem: SaddleProblem, rho: float, z_star) -> Certificate:
    """Mirror-gap certificate over the augmented state (x, x_hat, y, y_hat).

    Entries [(rho/2)*||y - y_hat||^2, (rho/2)*||x - x_hat||^2] for the
    augmentation of ``problem`` with weight rho; the bracket is the augmented
    saddle-gap sandwich at the stacked base saddle point ``z_star`` = (x*, y*)
    (gap of S plus the mirror term). With a declared ``hessian`` of the base,
    the batch form is the row norms plus the batch gaps of the base.
    """
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    n, m = problem.n, problem.m
    xs, xh, ys, yh = slice(n), slice(n, 2 * n), slice(2 * n, 2 * n + m), slice(2 * n + m, None)
    s_star, gaps, batch_gaps = _saddle_gaps(problem, z_star, "z_star", xs, ys)

    def value(state):
        dx, dy = state[xs] - state[xh], state[ys] - state[yh]
        return np.array([0.5 * rho * float(dy @ dy), 0.5 * rho * float(dx @ dx)])

    def bracket(state):
        return gaps(state) + value(state)

    batch = None
    if batch_gaps is not None:
        def batch(states):
            dx, dy = states[:, xs] - states[:, xh], states[:, ys] - states[:, yh]
            values = 0.5 * rho * np.column_stack(((dy * dy).sum(axis=1), (dx * dx).sum(axis=1)))
            return values, batch_gaps(states) + values

    return Certificate(value=value, bracket=bracket, label="augmented", batch=batch, s_star=s_star)


def _shaped(rows, k: int) -> tuple:
    rows = tuple(np.asarray(a, dtype=float) for a in rows)
    for name, a in zip(("values", "brackets"), rows):
        if a.shape != (k, 2):
            raise ValueError(f"certificate {name} have shape {a.shape}, expected ({k}, 2)")
    return rows


def _oracle_rows(cert: Certificate, states: np.ndarray) -> tuple:
    values = np.array([cert.value(s) for s in states], dtype=float)
    if cert.bracket is cert.value:  # a second pass would repeat every oracle call
        return _shaped((values, values), len(states))
    return _shaped((values, [cert.bracket(s) for s in states]), len(states))


def eval_certificate(
    cert: Certificate,
    traj: Trajectory,
    flow: Optional[Flow] = None,
) -> CertificateReport:
    """Evaluate a certificate along a trajectory.

    Reports the per-entry minimum (nonnegativity), the worst sandwich
    violation value - bracket (should stay below ``SANDWICH_TOL``), and the
    final values. A ``batch`` form, if any, evaluates every state; it must
    agree with the oracles within 1e-12*(1 + |S*| + the largest |entry|) at
    the first, middle and last state, else ``ValueError``. Otherwise each
    state goes through the oracles, once if the bracket is the value itself
    (as in ``cert_strict_cc``), whose violation is then 0 wherever finite.
    Values and brackets must have shape (k, 2). With a flow, additionally
    flags the case where the certificate has vanished while the flow
    residual has not (is above 1e-6), which would falsify observability;
    certificate entries scale like squared distances near a saddle while the
    residual is linear, so the vanishing threshold is the squared tolerance.
    """
    k, checked = len(traj), {}
    if cert.batch is None:
        values, brackets = _oracle_rows(cert, traj.states)
    else:
        values, brackets = _shaped(cert.batch(traj.states), k)
        at = sorted({0, k // 2, k - 1})
        ov, ob = _oracle_rows(cert, traj.states[at])
        gap = np.maximum(abs(values[at] - ov), abs(brackets[at] - ob)).max(axis=1)
        tol = 1e-12 * (1.0 + abs(cert.s_star) + np.maximum(abs(ov), abs(ob)).max(axis=1))
        if not (gap <= tol).all():
            raise ValueError(f"batch certificate off its oracles at states {at}: {gap} > {tol}")
        checked = dict(route="batch", oracle_gap=float(gap.max()), checked_states=len(at))
    observability = None
    if flow is not None:
        h_gone = float(np.linalg.norm(values[-1])) <= _ZERO_TOL**2
        observability = bool(h_gone and flow.residual(traj.final_state) > _ZERO_TOL)
    return CertificateReport(
        min_entry=values.min(axis=0),
        max_bracket_violation=float((values - brackets).max()),
        final_values=values[-1],
        observability_violated=observability,
        **checked,
    )


# ---------------------------------------------------------------------------
# rate bounds and parameter rules


def _require_positive(**kwargs: float) -> None:
    for name, v in kwargs.items():
        if not v > 0:
            raise ValueError(f"{name} must be positive, got {v}")


def rate_bound_strong(mu: float, q: float) -> float:
    """Decay-rate bound min(mu, q) for strongly convex-strongly concave flows."""
    _require_positive(mu=mu, q=q)
    return min(mu, q)


def rate_bound_proximal(mu: float, l: float, kappa: float, rho: float, q: float = 0.0) -> float:
    """Decay-rate bound min(mu*rho/(mu+rho), q + kappa/(l+rho)) of proximal flows, q the base's dual curvature.

    kappa or q may be 0, not both: the bound needs q + kappa > 0.
    """
    _require_positive(mu=mu, l=l, rho=rho)
    if l < mu:
        raise ValueError(f"inconsistent constants: l={l} < mu={mu}")
    if not q >= 0:
        raise ValueError(f"q must be >= 0, got {q}")
    if not (kappa >= 0 and q + kappa > 0):
        raise ValueError(f"kappa must be >= 0 and q + kappa > 0, got kappa={kappa}, q={q}")
    return min(mu * rho / (mu + rho), q + kappa / (l + rho))


def optimal_rho(mu: float, l: float, kappa: float) -> tuple[float, float]:
    """Regularization weight balancing the two proximal curvature terms.

    Returns (rho_star, c_star): rho_star is the unique positive root of
    mu*rho/(mu+rho) = kappa/(l+rho), that is of the quadratic
    mu*rho^2 + (mu*l - kappa)*rho - mu*kappa = 0, taken in the form without
    cancellation; c_star is the resulting (optimal) rate bound in closed
    form. The bound is always strictly below mu. The rule is for q = 0: it
    ignores a base's dual curvature q > 0, which ``rate_bound_proximal`` adds.
    """
    _require_positive(mu=mu, l=l, kappa=kappa)
    b = mu * l - kappa
    root_d = math.sqrt(b * b + 4.0 * mu * mu * kappa)
    rho_star = 2.0 * mu * kappa / (root_d + b) if b >= 0 else (root_d - b) / (2.0 * mu)
    c_star = 2.0 * mu * kappa / (
        math.sqrt((mu * l - kappa) ** 2 + 4.0 * mu**2 * kappa) + mu * l + kappa
    )
    achieved = mu * rho_star / (mu + rho_star)
    if abs(achieved - c_star) > 1e-8 * max(1.0, c_star):
        raise RuntimeError(
            f"balance/closed-form mismatch: {achieved!r} vs {c_star!r} at rho={rho_star!r}"
        )
    return rho_star, c_star


def precond_params_pick(mu: float, l: float, kappa: float) -> tuple[float, float]:
    """Parameters (eta, alpha) making the preconditioned bound equal mu.

    alpha balances the two terms of the strict inequality 2*eta > l*alpha +
    mu/(kappa*alpha); eta carries a 10% margin so the inequality is robust
    to floating-point edge cases.
    """
    _require_positive(mu=mu, l=l, kappa=kappa)
    alpha = math.sqrt(mu / (l * kappa))
    eta = 0.55 * (l * alpha + mu / (kappa * alpha))
    return eta, alpha


def precond_K(sigma: float, alpha: float) -> float:
    """Overshoot constant max(2, 2*sigma*alpha^2 + 1) of original-space envelopes."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    _require_positive(alpha=alpha)
    return max(2.0, 2.0 * sigma * alpha**2 + 1.0)

