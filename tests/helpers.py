"""Shared test oracles: finite differences, small KKT solvers, run loops.

Everything here is deliberately independent of the library's own gradient
and flow machinery so the tests have a second route to the same numbers.
"""

from __future__ import annotations

import importlib.util
import itertools
import logging
import sys
from pathlib import Path
from typing import Optional

import numpy as np

import saddleflow as sf
from saddleflow.certificates import _require_positive
from saddleflow.core import _as_vector

logger = logging.getLogger(__name__)

ROOT = Path(__file__).resolve().parents[1]


def bench_inputs():
    """The benchmark's ``bench/inputs.py``, loaded as a module (``write_inputs(workload, seed, dir)``)."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def fd_gradient(f, x, scale: float = 1e-6) -> np.ndarray:
    """Central differences with step scale*(1 + ||x||)."""
    x = np.asarray(x, dtype=float)
    h = scale * (1.0 + np.linalg.norm(x))
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def check_gradients(problem: sf.SaddleProblem, rng, probes: int = 10,
                    tol: float = 1e-6, radius: float = 2.0) -> None:
    """Assert both block gradients match finite differences of the value."""
    for _ in range(probes):
        x = rng.uniform(-radius, radius, size=problem.n)
        y = rng.uniform(-radius, radius, size=problem.m)
        if problem.y_set is not None:
            y = np.clip(y, problem.y_set.lower, problem.y_set.upper)
        gx = problem.grad_x(x, y)
        gy = problem.grad_y(x, y)
        gx_fd = fd_gradient(lambda v: problem.value(v, y), x)
        gy_fd = fd_gradient(lambda v: problem.value(x, v), y)
        err_x = np.linalg.norm(gx - gx_fd) / (1.0 + np.linalg.norm(gx))
        err_y = np.linalg.norm(gy - gy_fd) / (1.0 + np.linalg.norm(gy))
        assert err_x <= tol, f"grad_x off by {err_x:.3e} at x={x}, y={y}"
        assert err_y <= tol, f"grad_y off by {err_y:.3e} at x={x}, y={y}"


def face_points(rng, problem, count=200):
    """Feasible states on which about half of the bounded duals sit on their face."""
    lower = problem.y_set.lower
    bounded = np.isfinite(lower)
    points = []
    for _ in range(count):
        z = rng.uniform(-2.0, 2.0, size=problem.dim)
        y = z[problem.n :]
        y[bounded] = lower[bounded] + np.abs(y[bounded])
        face = bounded & (rng.random(problem.m) < 0.5)
        y[face] = lower[face]
        points.append(z)
    return points


def second_difference(f, x, d, h: float = 1e-4) -> float:
    """Directional second derivative of a scalar function."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    return (f(x + h * d) - 2.0 * f(x) + f(x - h * d)) / h**2


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection; f(lo) and f(hi) must bracket a sign change."""
    flo = f(lo)
    assert flo * f(hi) <= 0, "bisection bracket does not straddle a root"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def cosh_bundle(with_hess: bool = True) -> sf.QpBundle:
    """f(x) = sum cosh(x_i) under x_1 + 2 x_2 <= 3: convex, but not quadratic."""
    f = sf.ConvexObjective(
        dim=2,
        value=lambda x: float(np.cosh(x).sum()),
        grad=np.sinh,
        hess=(lambda x: np.diag(np.cosh(x))) if with_hess else None,
        mu=1.0,
    )
    return sf.QpBundle(f=f, A=np.array([[1.0, 2.0]]), b=np.array([3.0]), kappa=5.0, sigma=5.0)


def qp_kkt_oracle(Q, p, A, b, eta: float = 1.0, tol: float = 1e-9):
    """Active-set enumeration for min 0.5 x'Qx + p'x s.t. Ax <= b.

    Returns (x, y) where y is the eta-weighted multiplier, i.e. the saddle
    of f(x) + eta*y'(Ax - b).
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m, n = A.shape
    for k in range(m + 1):
        for active in itertools.combinations(range(m), k):
            act = list(active)
            Aw = A[act]
            kkt = np.block([[Q, eta * Aw.T], [Aw, np.zeros((k, k))]])
            rhs = np.concatenate((-p, b[act]))
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x, yw = sol[:n], sol[n:]
            if np.any(yw < -tol):
                continue
            if np.any(A @ x - b > tol * (1.0 + np.abs(b))):
                continue
            y = np.zeros(m)
            y[act] = yw
            return x, y
    raise AssertionError("no KKT point found by enumeration")


def lasso_saddle(bundle: sf.LassoBundle, alpha: float, tol: float = 1e-12):
    """Exact transformed-space saddle (u*, v*) built from the Lasso oracle.

    The dual comes from stationarity of the lifted Lagrangian: the coupling
    multiplier is -grad(fhat) and the sign multipliers are lam -+ that
    gradient; the (u, v) point follows from the change of variables.
    """
    x_orc = sf.lasso_oracle(bundle, tol=tol)
    ghat = bundle.fhat.grad(x_orc)
    y_star = np.concatenate((-ghat, bundle.lam + ghat, bundle.lam - ghat))
    x_full = np.concatenate((x_orc, np.maximum(x_orc, 0.0), np.maximum(-x_orc, 0.0)))
    kkt_err = float(np.abs(bundle.f.grad(x_full) + bundle.A.T @ y_star).max())
    assert kkt_err <= 1e-8, f"lasso KKT residual {kkt_err:.3e}"
    u_star = x_full + alpha * (bundle.A.T @ y_star)
    return x_orc, np.concatenate((u_star, y_star))


def lasso_transform(flow: sf.Flow) -> sf.LassoDualProx:
    """The dual-proximal transform behind a ``LassoBundle.dynamics`` flow.

    The flow's ``field`` is that transform's bound ``field`` method.
    """
    return flow.field.__self__


def start_next_solve_at(transform, point) -> None:
    """Make the next inner solve of ``transform`` start at ``point``.

    The point is stored under no key, so no lookup matches it and the next
    solve warm-starts there.
    """
    transform._cache.store(np.array(point, dtype=float))


def run_until(flow: sf.Flow, z0, config: sf.IntegratorConfig, tol: float,
              max_chunks: int = 20):
    """Integrate in horizon-sized chunks until the flow residual is small.

    Returns (final_state, elapsed_time, residual); asserts the tolerance was
    reached within the chunk budget.
    """
    z = np.asarray(z0, dtype=float)
    elapsed = 0.0
    residual = np.inf
    for _ in range(max_chunks):
        traj = sf.integrate(flow, z, config)
        z = traj.final_state
        elapsed += config.horizon
        residual = flow.residual(z)
        if residual <= tol:
            return z, elapsed, residual
    raise AssertionError(
        f"flow '{flow.label}' did not reach residual {tol:g} within "
        f"t={elapsed:g} (last residual {residual:.3e})"
    )


def preconditioned_pd(f: sf.ConvexObjective, A, b, eta: float, alpha: float) -> sf.Flow:
    """Preconditioned primal-dual dynamics in original coordinates (x, y).

    The saddle flow over (u, y) of ``precondition(f, A, b, eta, alpha)``,
    which is ``standard_flow`` of that problem, pushed through
    x = u - alpha*A^T*y: both produce identical trajectories under that
    coupling.

    A hand-written field that projects the y velocity itself, kept as a
    second route to the (u, y) run the library records through that map.
    The two agree where no clamp acts on y; at an active face a clamp of y
    moves x in the (u, y) run only, a first-order difference in the step.
    """
    problem = sf.precondition(f, A, b, eta, alpha)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n, y_set = problem.n, problem.y_set

    def field(z):
        x, y = z[:n], z[n:]
        gf = f.grad(x)
        raw = -alpha * (A @ (gf + eta * (A.T @ y))) + eta * (A @ x - b)
        ydot = sf.project_vector_field(y_set, y, raw)
        return np.concatenate((-alpha * (A.T @ ydot) - gf - eta * (A.T @ y), ydot))

    return sf.Flow(
        dim=problem.dim,
        field=field,
        feasible=sf.full_domain(problem),
        label=f"preconditioned_pd(xy, eta={eta}, alpha={alpha})",
    )


# ---------------------------------------------------------------------------
# closed forms the runs take from the transformed problems' meta, and the
# saddle inequality sampled directly


def rate_bound_precond(mu: float, l: float, kappa: float, eta: float, alpha: float) -> float:
    """Decay-rate bound min(mu, (2*eta*alpha - l*alpha^2)*kappa), needs 2*eta > l*alpha."""
    _require_positive(mu=mu, l=l, kappa=kappa, eta=eta, alpha=alpha)
    if not 2.0 * eta > l * alpha:
        raise ValueError(
            f"validity condition 2*eta > l*alpha violated: 2*eta={2.0 * eta}, l*alpha={l * alpha}"
        )
    return min(mu, (2.0 * eta * alpha - l * alpha**2) * kappa)


def rate_bound_reduced(mu_c: float, l_s: float, kappa_s: float) -> float:
    """Decay-rate bound min(mu_c, kappa_s/l_s) of reduced primal-dual flows."""
    _require_positive(mu_c=mu_c, l_s=l_s, kappa_s=kappa_s)
    return min(mu_c, kappa_s / l_s)


def saddle_inequality_check(
    problem: sf.SaddleProblem,
    z_star: np.ndarray,
    samples: int = 100,
    radius: float = 1.0,
    tol: float = 1e-9,
    seed: int = 0,
    feasible: Optional[sf.FeasibleSet] = None,
) -> bool:
    """Empirically test the two-sided saddle inequality at the stacked ``z_star``.

    Draws ``samples`` points uniformly from the ball of the given radius
    around ``z_star`` (intersected with ``feasible`` when given) and checks
    S(x*, y) <= S(x*, y*) <= S(x, y*) within ``tol`` at each. Returns False
    and logs the first violating sample on failure.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not radius > 0:
        raise ValueError("radius must be > 0")
    rng = np.random.default_rng(seed)
    center = _as_vector(z_star, problem.dim, "z_star")
    x_star, y_star = center[: problem.n], center[problem.n :]
    d = center.shape[0]
    s_star = float(problem.value(x_star, y_star))

    def draw() -> np.ndarray:
        # uniform in the ball: gaussian direction, radius ~ U^(1/d)
        v = rng.standard_normal(d)
        v /= max(np.linalg.norm(v), 1e-300)
        w = center + radius * rng.uniform() ** (1.0 / d) * v
        if feasible is None:
            return w
        for _ in range(64):
            if feasible.contains(w):
                return w
            v = rng.standard_normal(d)
            v /= max(np.linalg.norm(v), 1e-300)
            w = center + radius * rng.uniform() ** (1.0 / d) * v
        return np.clip(w, feasible.lower, feasible.upper)

    for k in range(samples):
        w = draw()
        xs, ys = w[: problem.n], w[problem.n :]
        upper = float(problem.value(x_star, ys))
        lower = float(problem.value(xs, y_star))
        if upper > s_star + tol or lower < s_star - tol:
            logger.info(
                "saddle inequality violated at sample %d: S(x*,y)=%.12g, "
                "S(x*,y*)=%.12g, S(x,y*)=%.12g, point=%s",
                k,
                upper,
                s_star,
                lower,
                np.array2string(w, precision=6),
            )
            return False
    return True


def assert_batch_matches_the_oracle(cert: sf.Certificate, traj: sf.Trajectory) -> None:
    """The batch rows of a certificate are within the check tolerance of
    ``eval_certificate`` of its oracle forms at every recorded state, and
    none is -0.0."""
    assert cert.batch is not None, cert.label
    values, brackets = cert.batch(traj.states)
    oracle_values = np.array([cert.value(s) for s in traj.states])
    oracle_brackets = np.array([cert.bracket(s) for s in traj.states])
    gap = np.maximum(abs(values - oracle_values), abs(brackets - oracle_brackets)).max(axis=1)
    largest = np.maximum(abs(oracle_values), abs(oracle_brackets)).max(axis=1)
    assert (gap <= 1e-12 * (1.0 + abs(cert.s_star) + largest)).all(), (cert.label, gap.max())
    both = np.concatenate((values, brackets))
    assert not np.signbit(both[both == 0.0]).any(), cert.label
