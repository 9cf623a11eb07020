"""Observable certificates and closed-form convergence-rate bounds.

A certificate is a two-entry nonnegative function of the state, sandwiched
from above by saddle-value gaps; its vanishing along a whole trajectory
forces the flow to sit at an equilibrium. The rate bounds are the min-of-
curvature constants of the exponential envelopes, plus the parameter rules
that optimize them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import PointZ, SaddleProblem, full_domain, stationarity_residual
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


@dataclass(frozen=True)
class Certificate:
    """Two nonnegative entries plus their sandwich upper bound, per state."""

    value: Callable[[np.ndarray], np.ndarray]
    bracket: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"


@dataclass(frozen=True)
class CertificateReport:
    min_entry: np.ndarray          # per-entry minimum over the trajectory
    max_bracket_violation: float   # max over samples and entries of value - bracket
    final_values: np.ndarray
    observability_violated: Optional[bool] = None


def _check_saddle(problem: SaddleProblem, z_star: PointZ, what: str) -> None:
    res = stationarity_residual(problem, z_star, feasible=full_domain(problem))
    if res > _SADDLE_TOL:
        raise ValueError(
            f"{what} is not a saddle point: stationarity residual {res:.3e} > {_SADDLE_TOL:.0e}"
        )


def cert_strict_cc(problem: SaddleProblem, z_star: PointZ) -> Certificate:
    """Saddle-gap certificate for strictly convex-concave problems.

    Entries [S(x*,y*) - S(x*,y), S(x,y*) - S(x*,y*)]; the bracket is the
    certificate itself (the sandwich holds with equality).
    """
    _check_saddle(problem, z_star, "z_star")
    n = problem.n
    x_star, y_star = z_star.x, z_star.y
    s_star = float(problem.value(x_star, y_star))

    def value(state):
        x, y = state[:n], state[n:]
        return np.array(
            [s_star - float(problem.value(x_star, y)), float(problem.value(x, y_star)) - s_star]
        )

    return Certificate(value=value, bracket=value, label="strict_cc")


def cert_proximal(surrogate: ProximalSurrogate, w_star: PointZ) -> Certificate:
    """Certificate of the proximal surrogate at its saddle (u*, y*).

    Entries [S~(u*,y*) - S~(u*,y), (rho/2)*||x_tilde(u,y*) - u||^2]; the
    second bracket entry is the saddle gap S~(u,y*) - S~(u*,y*), which
    dominates the quadratic term by convexity of the min block.
    """
    prob = surrogate.problem
    _check_saddle(prob, w_star, "w_star")
    n = prob.n
    u_star, y_star = w_star.x, w_star.y
    s_star = float(prob.value(u_star, y_star))
    rho = surrogate.rho

    def value(state):
        u, y = state[:n], state[n:]
        d = surrogate.minimizer(u, y_star) - u
        return np.array(
            [s_star - float(prob.value(u_star, y)), 0.5 * rho * float(d @ d)]
        )

    def bracket(state):
        u, y = state[:n], state[n:]
        return np.array(
            [s_star - float(prob.value(u_star, y)), float(prob.value(u, y_star)) - s_star]
        )

    return Certificate(value=value, bracket=bracket, label="proximal")


def cert_augmented(problem: SaddleProblem, rho: float, z_star: PointZ) -> Certificate:
    """Mirror-gap certificate over the augmented state (x, x_hat, y, y_hat).

    Entries [(rho/2)*||y - y_hat||^2, (rho/2)*||x - x_hat||^2] for the
    augmentation of ``problem`` with weight rho; the bracket is the augmented
    saddle-gap sandwich at the base saddle point ``z_star`` (gap of S plus
    the mirror term).
    """
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    _check_saddle(problem, z_star, "z_star")
    n, m = problem.n, problem.m
    x_star, y_star = z_star.x, z_star.y
    s_star = float(problem.value(x_star, y_star))

    def value(state):
        x, xh = state[:n], state[n : 2 * n]
        y, yh = state[2 * n : 2 * n + m], state[2 * n + m :]
        dx = x - xh
        dy = y - yh
        return np.array([0.5 * rho * float(dy @ dy), 0.5 * rho * float(dx @ dx)])

    def bracket(state):
        x, y = state[:n], state[2 * n : 2 * n + m]
        gaps = [s_star - float(problem.value(x_star, y)), float(problem.value(x, y_star)) - s_star]
        return np.array(gaps) + value(state)

    return Certificate(value=value, bracket=bracket, label="augmented")


def eval_certificate(
    cert: Certificate,
    traj: Trajectory,
    flow: Optional[Flow] = None,
    zero_tol: float = 1e-6,
) -> CertificateReport:
    """Evaluate a certificate along a trajectory.

    Reports the per-entry minimum (nonnegativity), the worst sandwich
    violation value - bracket (should stay below ``SANDWICH_TOL``), and the
    final values. A certificate whose bracket is its own value (the same
    callable, as in ``cert_strict_cc``) is evaluated once per state, and its
    violation is 0 wherever the values are finite. With a flow, additionally
    flags the case where the certificate has vanished while the flow
    residual has not, which would falsify observability; certificate entries
    scale like squared distances near a saddle while the residual is linear,
    so the vanishing threshold is the squared tolerance.
    """
    values = np.array([cert.value(s) for s in traj.states])
    if cert.bracket is cert.value:
        brackets = values  # a second pass would repeat every oracle call
    else:
        brackets = np.array([cert.bracket(s) for s in traj.states])
    if values.shape != (len(traj), 2):
        raise ValueError(f"certificate produced shape {values.shape}, expected ({len(traj)}, 2)")
    observability = None
    if flow is not None:
        h_gone = float(np.linalg.norm(values[-1])) <= zero_tol**2
        observability = bool(h_gone and flow.residual(traj.final_state) > zero_tol)
    return CertificateReport(
        min_entry=values.min(axis=0),
        max_bracket_violation=float((values - brackets).max()),
        final_values=values[-1],
        observability_violated=observability,
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


def rate_bound_proximal(mu: float, l: float, kappa: float, rho: float) -> float:
    """Decay-rate bound min(mu*rho/(mu+rho), kappa/(l+rho)) of proximal flows."""
    _require_positive(mu=mu, l=l, kappa=kappa, rho=rho)
    if l < mu:
        raise ValueError(f"inconsistent constants: l={l} < mu={mu}")
    return min(mu * rho / (mu + rho), kappa / (l + rho))


def optimal_rho(mu: float, l: float, kappa: float) -> tuple[float, float]:
    """Regularization weight balancing the two proximal curvature terms.

    Returns (rho_star, c_star): rho_star is the unique positive root of
    mu*rho/(mu+rho) = kappa/(l+rho), that is of the quadratic
    mu*rho^2 + (mu*l - kappa)*rho - mu*kappa = 0, taken in the form without
    cancellation; c_star is the resulting (optimal) rate bound in closed
    form. The bound is always strictly below mu.
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

