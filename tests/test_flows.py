import numpy as np
import pytest

import saddleflow as sf
from saddleflow import PointZ

from helpers import qp_kkt_oracle, run_until


def _coupled_quadratic():
    return sf.SaddleProblem(
        n=1,
        m=1,
        value=lambda x, y: 0.5 * float(x @ x) + float(y @ x),
        grad_x=lambda x, y: x + y,
        grad_y=lambda x, y: x.copy(),
        meta=sf.ConvexityMeta(mu=1.0, q=0.0, l=1.0, kappa=1.0, sigma=1.0),
        saddle=(np.zeros(1), np.zeros(1)),
        hess_xx=lambda x, y: np.eye(1),
    )


def test_standard_flow_examples():
    bil = sf.standard_flow(sf.make_bilinear([[1.0]]))
    assert np.allclose(bil.field(np.array([1.0, 0.0])), [0.0, 1.0])
    quad = sf.standard_flow(sf.make_quadratic_saddle(1.0, 1.0, [[0.0]]))
    assert np.allclose(quad.field(np.array([2.0, 2.0])), [-2.0, -2.0])
    assert np.allclose(quad.field(np.zeros(2)), 0.0)
    assert np.array_equal(quad.equilibrium_hint, np.zeros(2))


def test_augmented_flow_matches_display():
    flow = sf.augmented_flow(sf.make_bilinear([[1.0]]), 1.0)
    assert np.allclose(flow.field(np.zeros(4)), 0.0)
    assert np.allclose(flow.field(np.array([1.0, 1.0, 1.0, 1.0])), [-1.0, 0.0, 1.0, 0.0])
    flow2 = sf.augmented_flow(sf.make_bilinear([[1.0]]), 2.0)
    out = flow2.field(np.array([1.0, 0.0, 0.0, 0.0]))
    assert out[0] == pytest.approx(-2.0)  # -grad S - rho*(x - x_hat) = -0 - 2
    assert out[1] == pytest.approx(2.0)   # mirror chases x at rate rho


def test_proximal_flow_examples():
    sur = sf.proximal_surrogate(_coupled_quadratic(), 1.0)
    flow = sf.proximal_flow(sur)
    assert np.allclose(flow.field(np.array([1.0, 0.0])), [-0.5, 0.5], atol=1e-9)
    assert np.allclose(flow.field(np.array([0.0, 1.0])), [-0.5, -0.5], atol=1e-9)
    assert np.allclose(flow.field(np.zeros(2)), 0.0, atol=1e-10)


def test_projected_flow_rules():
    flow = sf.standard_flow(sf.make_lp(sf.LinearProgram(c=[0.0], A=[[1.0]], b=[1.0])))
    dom = sf.FeasibleSet.stack(sf.FeasibleSet.free(1), sf.FeasibleSet.nonnegative(1))
    proj = sf.projected_flow(flow, dom)
    # y = 0 with outward (negative) dual velocity: pinned
    z = np.array([0.0, 0.0])
    assert proj.field(z)[1] == 0.0  # raw ydot = Ax - b = -1, removed
    # interior state: field passes through
    z_in = np.array([0.5, 1.0])
    assert np.array_equal(proj.field(z_in), flow.field(z_in))
    # inward velocity at the face survives
    z2 = np.array([2.0, 0.0])
    assert proj.field(z2)[1] == pytest.approx(1.0)  # Ax - b = +1


def test_projected_flow_dimension_check():
    flow = sf.standard_flow(sf.make_bilinear([[1.0]]))
    with pytest.raises(ValueError, match="dimension"):
        sf.projected_flow(flow, sf.FeasibleSet.nonnegative(3))


def test_augmented_pd_lp_examples():
    # origin optimal: flow vanishes
    f0 = sf.augmented_primal_dual_lp([0.0], [[1.0]], [0.0], 1.0)
    assert np.allclose(f0.field(np.zeros(4)), 0.0)
    # at (1,1,0,0) with c=1, A=1, b=1: ydot = [1-1-0]^+ = 0
    f1 = sf.augmented_primal_dual_lp([1.0], [[1.0]], [1.0], 1.0)
    out = f1.field(np.array([1.0, 1.0, 0.0, 0.0]))
    assert out[2] == 0.0
    # at (0,0,1,1) with b=0: xdot = -1 - 1 = -2, ydot = [0]^+ = 0
    f2 = sf.augmented_primal_dual_lp([1.0], [[1.0]], [0.0], 1.0)
    out = f2.field(np.array([0.0, 0.0, 1.0, 1.0]))
    assert out[0] == pytest.approx(-2.0)
    assert out[2] == 0.0


def test_augmented_pd_lp_mirror_dual_unprojected():
    flow = sf.augmented_primal_dual_lp([0.0], [[1.0]], [0.0], 1.0)
    # y_hat block may move in either direction; only y is clamped
    out = flow.field(np.array([0.0, 0.0, 0.0, 1.0]))
    assert out[3] == pytest.approx(-1.0)   # y_hat_dot = rho*(y - y_hat) = -1
    assert out[2] == pytest.approx(1.0)    # ydot = [0 - rho*(y - y_hat)]^+ = +1
    assert np.isinf(flow.feasible.lower[3]) and flow.feasible.lower[2] == 0.0


def test_proximal_primal_dual_examples():
    f = sf.ConvexObjective(
        dim=1, value=lambda x: 0.5 * float(x @ x), grad=lambda x: x.copy(),
        hess=lambda x: np.eye(1), mu=1.0, l=1.0,
    )
    g = sf.ConstraintMap(
        m=1, value=lambda x: x - 1.0, jacobian=lambda x: np.eye(1),
        hess=lambda x, y: np.zeros((1, 1)),
    )
    flow = sf.proximal_primal_dual(f, g, 1.0)
    out = flow.field(np.array([1.0, 0.0]))
    assert out[0] == pytest.approx(-0.5, abs=1e-9)  # descent in u
    assert out[1] == 0.0                            # [g]^+ at the face
    out2 = flow.field(np.array([2.0, 1.0]))
    assert out2[0] == pytest.approx(-1.5, abs=1e-9)
    assert out2[1] == pytest.approx(-0.5, abs=1e-9)
    # unconstrained optimum x* = 0 with inactive constraint: equilibrium
    assert np.allclose(flow.field(np.zeros(2)), 0.0, atol=1e-9)


def _unit_precond(eta=1.5, alpha=1.0, b=0.0):
    f = sf.ConvexObjective(
        dim=1, value=lambda x: 0.5 * float(x @ x), grad=lambda x: x.copy(),
        hess=lambda x: np.eye(1), mu=1.0, l=1.0,
    )
    return sf.precondition(f, [[1.0]], [b], eta=eta, alpha=alpha)


def test_preconditioned_pd_examples():
    uy = sf.preconditioned_pd(_unit_precond(), "uy")
    xy = sf.preconditioned_pd(_unit_precond(), "xy")
    assert np.allclose(uy.field(np.zeros(2)), 0.0)
    assert np.allclose(xy.field(np.zeros(2)), 0.0)
    # with eta = 1 the dual velocity at (1, 0) cancels: [-1*1 + 1*1]^+ = 0
    uy1 = sf.preconditioned_pd(_unit_precond(eta=1.0), "uy")
    out = uy1.field(np.array([1.0, 0.0]))
    assert out[0] == pytest.approx(-1.0)
    assert out[1] == 0.0


def test_preconditioned_pd_validates_concavity():
    with pytest.raises(ValueError, match="2\\*eta > l\\*alpha"):
        sf.preconditioned_pd(_unit_precond(eta=0.4, alpha=1.0), "uy")
    with pytest.raises(ValueError, match="space"):
        sf.preconditioned_pd(_unit_precond(), "zz")


def test_preconditioned_spaces_stay_coupled():
    # trajectories in the two spaces satisfy x(t) = u(t) - alpha*A^T y(t)
    alpha = 1.0
    pre = _unit_precond(eta=1.1, alpha=alpha, b=-1.0)
    uy = sf.preconditioned_pd(pre, "uy")
    xy = sf.preconditioned_pd(pre, "xy")
    u0, y0 = np.array([0.7]), np.array([0.3])
    cfg = sf.IntegratorConfig(step=1e-3, horizon=5.0, record_every=1)
    tu = sf.integrate(uy, np.concatenate((u0, y0)), cfg)
    tx = sf.integrate(xy, np.concatenate((u0 - alpha * y0, y0)), cfg)
    x_from_u = tu.states[:, :1] - alpha * tu.states[:, 1:]
    assert np.abs(x_from_u - tx.states[:, :1]).max() <= 1e-8
    assert np.abs(tu.states[:, 1:] - tx.states[:, 1:]).max() <= 1e-8


def test_reduced_pd_examples():
    sep = sf.make_separable_qp(
        np.eye(1), np.zeros(1), np.eye(1), np.zeros(1),
        np.eye(1), np.eye(1), np.zeros(1),
    )
    flow = sf.reduced_pd(sf.reduce(sep))
    out = flow.field(np.array([1.0, 1.0]))
    assert out[0] == pytest.approx(-2.0)            # -(grad f_c + A_c^T y)
    assert out[1] == pytest.approx(0.0, abs=1e-10)  # A_s xbar + A_c x_c - b = 0
    assert np.allclose(flow.field(np.zeros(2)), 0.0, atol=1e-10)
    out2 = flow.field(np.array([0.0, 2.0]))
    assert out2[1] == pytest.approx(-2.0, abs=1e-10)  # y interior: passes through


def test_lasso_flow_consistent_with_dual_prox():
    toy = sf.SaddleProblem(
        n=1, m=1,
        value=lambda u, y: float(u @ y) - float(y @ y),
        grad_x=lambda u, y: y.copy(),
        grad_y=lambda u, y: u - 2 * y,
        y_set=sf.FeasibleSet.nonnegative(1),
        hess_yy=lambda u, y: -2.0 * np.eye(1),
    )
    dp = sf.lasso_dual_prox(toy, rho=1.0)
    flow = sf.lasso_flow(dp)
    assert np.allclose(flow.field(np.zeros(2)), 0.0, atol=1e-10)
    # u = 1, v = 2: ytilde = 1; udot = -grad_u = -ytilde; vdot = rho*(ytilde - v)
    out = flow.field(np.array([1.0, 2.0]))
    assert out[0] == pytest.approx(-1.0, abs=1e-9)
    assert out[1] == pytest.approx(-1.0, abs=1e-9)
    # constrained case: u = -3, v = 0 gives ytilde = 0, so no motion in v
    out2 = flow.field(np.array([-3.0, 0.0]))
    assert out2[1] == pytest.approx(0.0, abs=1e-10)


def test_lasso_flow_validates_alpha():
    rng = np.random.default_rng(0)
    bundle = sf.make_lasso(rng.standard_normal((4, 2)), rng.standard_normal(4), 0.2)
    with pytest.raises(ValueError, match="alpha"):
        bundle.dynamics(alpha=2.0 / bundle.l, rho=1.0)


def test_equilibria_map_to_original_saddles():
    # saddle correspondence: transformed equilibria are saddle points of the
    # problem they came from, at stationarity residual <= 1e-6
    base = _coupled_quadratic()

    # augmented bilinear
    bil = sf.make_bilinear([[1.0]])
    aug_flow = sf.augmented_flow(bil, 0.5)
    z, _, _ = run_until(aug_flow, np.array([1.0, 0.0, 0.0, 0.0]),
                        sf.IntegratorConfig(step=0.02, horizon=40.0, record_every=50), 1e-8)
    assert sf.stationarity_residual(bil, PointZ(z[:1], z[2:3])) <= 1e-6

    # proximal surrogate of the coupled quadratic
    sur = sf.proximal_surrogate(base, 1.0)
    prox_flow = sf.proximal_flow(sur)
    w, _, _ = run_until(prox_flow, np.array([1.0, 1.0]),
                        sf.IntegratorConfig(step=0.01, horizon=40.0, record_every=50), 1e-8)
    assert sf.stationarity_residual(base, PointZ(w[:1], w[1:])) <= 1e-6

    # preconditioned QP: map back through u = x + alpha*A^T y
    pre = _unit_precond(eta=1.1, alpha=1.0, b=-1.0)
    uy_flow = sf.preconditioned_pd(pre, "uy")
    w, _, _ = run_until(uy_flow, np.array([1.0, 0.0]),
                        sf.IntegratorConfig(step=0.002, horizon=30.0, record_every=50), 1e-9)
    x = pre.primal(w[:1], w[1:])
    x_ref, y_ref = qp_kkt_oracle(np.eye(1), np.zeros(1), np.array([[1.0]]), np.array([-1.0]), eta=1.1)
    assert np.abs(x - x_ref).max() <= 1e-6
    assert np.abs(w[1:] - y_ref).max() <= 1e-6


def test_lyapunov_descent_along_flows():
    rng = np.random.default_rng(1)
    quad = sf.make_quadratic_saddle(1.0, 2.0, rng.standard_normal((2, 2)) * 0.4)
    flow = sf.standard_flow(quad)
    traj = sf.integrate(flow, rng.standard_normal(4), sf.IntegratorConfig(step=1e-3, horizon=8.0))
    assert sf.max_increment(sf.lyapunov_series(traj, flow.equilibrium_hint)) <= 1e-8

    bil = sf.make_bilinear([[1.0]])
    aug = sf.augmented_flow(bil, 0.5)
    z_lim, _, _ = run_until(aug, np.array([1.0, 0.0, 0.0, 0.0]),
                            sf.IntegratorConfig(step=0.02, horizon=40.0, record_every=50), 1e-9)
    traj = sf.integrate(aug, np.array([1.0, 0.0, 0.0, 0.0]),
                        sf.IntegratorConfig(step=0.01, horizon=30.0))
    assert sf.max_increment(sf.lyapunov_series(traj, z_lim)) <= 1e-8


def test_bilinear_conservation_short():
    flow = sf.standard_flow(sf.make_bilinear([[1.0]]))
    traj = sf.integrate(flow, np.array([1.0, 0.0]),
                        sf.IntegratorConfig(step=1e-3, horizon=10.0, record_every=100))
    drift = np.abs(np.linalg.norm(traj.states, axis=1) - 1.0).max()
    assert drift <= 1e-7


def test_flow_reset_clears_warm_cache():
    sur = sf.proximal_surrogate(_coupled_quadratic(), 1.0)
    flow = sf.proximal_flow(sur)
    flow.field(np.array([1.0, 0.0]))
    assert sur._cache.point is not None
    flow.reset()
    assert sur._cache.point is None


def test_augmented_flow_keeps_the_lp_dual_domain():
    # the criterion-10 LP: without the y >= 0 projection the duals run
    # negative and the flow settles at x = (1.5, 1), away from the optimum
    lp = sf.LinearProgram(c=[1.0, 1.0], A=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], b=[-1.0, -0.5, 3.0])
    problem = sf.make_lp(lp)
    flow = sf.augmented_flow(problem, 0.5)
    n, m = problem.n, problem.m
    assert flow.feasible is not None
    assert np.array_equal(flow.feasible.lower[2 * n : 2 * n + m], np.zeros(m))
    z, _, _ = run_until(
        flow, np.ones(flow.dim), sf.IntegratorConfig(step=0.02, horizon=80.0, record_every=100), 1e-8
    )
    assert np.allclose(z[:n], sf.lp_oracle(lp).x, atol=1e-6)
    assert np.allclose(z[:n], [1.0, 0.5], atol=1e-6)
    assert np.all(z[2 * n : 2 * n + m] >= 0.0)


def test_proximal_flow_keeps_the_dual_domain():
    # inactive constraint: its multiplier is 0 at the KKT point, and a free
    # dual would instead drive x onto x1 + x2 = 10
    Q, p, A, b = np.diag([1.0, 2.0]), np.array([-2.0, -2.0]), np.array([[1.0, 1.0]]), np.array([10.0])
    surrogate = sf.proximal_surrogate(sf.qp_lagrangian(sf.make_qp_affine(Q, p, A, b)), 1.0)
    flow = sf.proximal_flow(surrogate)
    assert flow.feasible is not None and flow.feasible.lower[2] == 0.0
    z, _, _ = run_until(
        flow, np.array([0.0, 0.0, 1.0]), sf.IntegratorConfig(step=0.02, horizon=40.0, record_every=100), 1e-9
    )
    x_ref, y_ref = qp_kkt_oracle(Q, p, A, b)
    assert np.allclose(z[:2], x_ref, atol=1e-7)
    assert np.allclose(z[2:], y_ref, atol=1e-7)
