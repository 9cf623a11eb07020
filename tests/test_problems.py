import numpy as np
import pytest

import saddleflow as sf
from saddleflow import PointZ

from helpers import check_gradients, fd_gradient, qp_kkt_oracle, run_until


# ---------------------------------------------------------------------------
# plain builders


def test_bilinear_builder():
    p = sf.make_bilinear([[1.0]])
    assert p.value(np.array([2.0]), np.array([3.0])) == 6.0
    assert sf.stationarity_residual(p, PointZ(*p.saddle)) == 0.0
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    p2 = sf.make_bilinear(M)
    kappa, sigma = np.linalg.eigvalsh(M.T @ M)[[0, -1]]
    assert p2.meta.kappa == pytest.approx(kappa)
    assert p2.meta.sigma == pytest.approx(sigma)


def test_quadratic_saddle_builder():
    p = sf.make_quadratic_saddle(1.0, 2.0, [[0.5]])
    assert p.meta.mu == 1.0 and p.meta.q == 2.0 and p.meta.l == 1.0
    assert p.meta.kappa == pytest.approx(0.25)
    with pytest.raises(ValueError):
        sf.make_quadratic_saddle(0.0, 1.0, [[1.0]])


def test_quadratic_saddle_decoupled_rates_exact():
    # B = 0: each block is an independent linear decay at its own rate
    flow = sf.standard_flow(sf.make_quadratic_saddle(1.0, 2.0, [[0.0]]))
    traj = sf.integrate(flow, [1.0, 1.0], sf.IntegratorConfig(step=1e-3, horizon=5.0, record_every=100))
    t = traj.times
    assert np.abs(traj.states[:, 0] - np.exp(-t)).max() <= 1e-9
    assert np.abs(traj.states[:, 1] - np.exp(-2.0 * t)).max() <= 1e-9


def test_metadata_matches_fd_curvature():
    rng = np.random.default_rng(21)
    p = sf.make_quadratic_saddle(0.8, 1.7, rng.standard_normal((2, 2)))
    h = 1e-4
    for _ in range(10):
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        curv_x = (p.value(x + h * d, y) - 2 * p.value(x, y) + p.value(x - h * d, y)) / h**2
        curv_y = (p.value(x, y + h * d) - 2 * p.value(x, y) + p.value(x, y - h * d)) / h**2
        assert p.meta.mu - 1e-4 <= curv_x <= p.meta.l + 1e-4
        assert -p.meta.q - 1e-4 <= curv_y <= -p.meta.q + 1e-4
        # cross-coupling Gram bounds via an FD Jacobian of grad_y in x
        jac = np.column_stack([
            fd_gradient(lambda v, j=j: p.grad_y(v, y)[j], x) for j in range(2)
        ]).T
        eigs = np.linalg.eigvalsh(jac @ jac.T)
        assert eigs[0] >= p.meta.kappa - 1e-4
        assert eigs[-1] <= p.meta.sigma + 1e-4


# ---------------------------------------------------------------------------
# LP and QP


def test_make_lp_gradients():
    p = sf.make_lp(sf.LinearProgram(c=[1.0], A=[[1.0]], b=[0.0]))
    assert p.grad_x(np.array([2.0]), np.array([3.0]))[0] == 4.0
    assert p.grad_y(np.array([2.0]), np.array([3.0]))[0] == 2.0
    assert p.y_set.lower[0] == 0.0


def test_make_lp_equality_block_layout():
    lp = sf.LinearProgram(c=[1.0], A=[[1.0]], b=[2.0], A_eq=[[1.0]], b_eq=[1.0])
    p = sf.make_lp(lp)
    assert p.m == 2
    assert np.isinf(p.y_set.lower[0]) and p.y_set.lower[1] == 0.0


def test_linear_program_validation():
    with pytest.raises(ValueError, match="shapes"):
        sf.LinearProgram(c=[1.0, 2.0], A=[[1.0]], b=[0.0])
    with pytest.raises(ValueError, match="finite"):
        sf.LinearProgram(c=[np.inf], A=[[1.0]], b=[0.0])
    with pytest.raises(ValueError, match="together"):
        sf.LinearProgram(c=[1.0], A=[[1.0]], b=[0.0], A_eq=[[1.0]])


def test_make_qp_affine_metadata():
    b1 = sf.make_qp_affine(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2))
    assert b1.f.mu == 1.0 and b1.f.l == 1.0
    b2 = sf.make_qp_affine(np.eye(2), np.zeros(2), np.array([[1.0, 0.0], [0.0, 2.0]]), np.zeros(2))
    assert b2.kappa == pytest.approx(1.0)
    assert b2.sigma == pytest.approx(4.0)
    with pytest.raises(ValueError, match="positive definite"):
        sf.make_qp_affine(np.diag([1.0, 0.0]), np.zeros(2), np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="row rank"):
        sf.make_qp_affine(np.eye(2), np.zeros(2), np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros(2))


def test_qp_lagrangian_against_active_set_oracle():
    Q = np.array([[2.0, 0.3], [0.3, 1.0]])
    p_vec = np.array([1.0, -0.5])
    A = np.array([[1.0, 1.0], [-1.0, 0.5]])
    b = np.array([0.2, -0.1])
    bundle = sf.make_qp_affine(Q, p_vec, A, b)
    x_ref, y_ref = qp_kkt_oracle(Q, p_vec, A, b)
    problem = sf.qp_lagrangian(bundle)
    res = sf.stationarity_residual(problem, PointZ(x_ref, y_ref), feasible=sf.full_domain(problem))
    assert res <= 1e-8


def test_qp_lagrangian_free_dual_saddle():
    bundle = sf.make_qp_affine(np.diag([1.0, 2.0]), np.zeros(2), np.eye(2), np.zeros(2))
    problem = sf.qp_lagrangian(bundle, nonneg_y=False)
    assert problem.saddle is not None
    assert sf.stationarity_residual(problem, PointZ(*problem.saddle)) <= 1e-12


def test_separable_qp_builder():
    sep = sf.make_separable_qp(
        np.diag([1.0, 2.0]), np.zeros(2), np.eye(1), np.zeros(1),
        np.array([[1.0, 0.0]]), np.array([[1.0]]), np.array([0.5]),
    )
    assert sep.f_s.mu == 1.0 and sep.f_s.l == 2.0
    assert sep.kappa_s == pytest.approx(1.0)
    with pytest.raises(ValueError, match="row rank"):
        sf.make_separable_qp(
            np.eye(1), np.zeros(1), np.eye(1), np.zeros(1),
            np.array([[0.0]]), np.array([[1.0]]), np.array([0.0]),
        )


def _wavy_block():
    # x.x + c*sum(cos(2*pi*x/0.37)): convex, not quadratic, and its Hessian
    # at 0 equals its Hessian at the all-0.37 point
    w = 2.0 * np.pi / 0.37
    c = 1e-3
    return sf.ConvexObjective(
        dim=2,
        value=lambda x: float(x @ x) + c * float(np.cos(w * x).sum()),
        grad=lambda x: 2.0 * x - c * w * np.sin(w * x),
        hess=lambda x: np.diag(2.0 - c * w**2 * np.cos(w * x)),
        mu=2.0 - c * w**2,
        l=2.0 + c * w**2,
        label="wavy",
    )


def test_separable_qp_bundle_rejects_undeclared_non_quadratic_block():
    quad = sf.make_separable_qp(
        np.eye(2), np.zeros(2), np.eye(1), np.zeros(1),
        np.array([[1.0, 0.0]]), np.array([[1.0]]), np.array([0.5]),
    )
    wavy = _wavy_block()
    # the two-point probe the bundle used to rely on cannot tell it apart
    assert np.allclose(wavy.hess(np.zeros(2)), wavy.hess(np.full(2, 0.37)), atol=1e-12)
    assert not np.allclose(wavy.hess(np.zeros(2)), wavy.hess(np.full(2, 0.1)))
    sep = sf.SeparableProblem(f_s=wavy, f_c=quad.f_c, A_s=quad.A_s, A_c=quad.A_c, b=quad.b)
    with pytest.raises(ValueError, match="hess_constant"):
        sf.separable_qp_bundle(sep)
    flipped = sf.SeparableProblem(f_s=quad.f_s, f_c=wavy, A_s=np.eye(1, 2), A_c=np.ones((1, 2)), b=quad.b)
    with pytest.raises(ValueError, match="hess_constant"):
        sf.separable_qp_bundle(flipped)


def test_separable_qp_bundle_stacks_declared_blocks():
    sep = sf.make_separable_qp(
        np.diag([1.0, 2.0]), np.array([0.5, -1.0]), np.eye(1) * 3.0, np.array([2.0]),
        np.array([[1.0, 0.0]]), np.array([[1.0]]), np.array([0.5]),
    )
    bundle = sf.separable_qp_bundle(sep)
    assert bundle.f.hess_constant
    assert np.array_equal(bundle.f.hess(np.zeros(3)), np.diag([1.0, 2.0, 3.0]))
    assert np.array_equal(bundle.f.grad(np.zeros(3)), [0.5, -1.0, 2.0])


def test_separable_lagrangian_matches_reduction_at_saddle():
    sep = sf.make_separable_qp(
        np.eye(1), np.zeros(1), np.eye(1), np.zeros(1),
        np.eye(1), np.eye(1), np.array([-1.0]),
    )
    red = sf.reduce(sep)
    flow = sf.reduced_pd(red)
    z, _, _ = run_until(flow, np.array([1.0, 0.0]),
                        sf.IntegratorConfig(step=0.002, horizon=30.0, record_every=100), 1e-9)
    full = sf.separable_lagrangian(sep)
    x_full = red.recover(z[:1], z[1:])
    res = sf.stationarity_residual(full, PointZ(x_full, z[1:]), feasible=sf.full_domain(full))
    assert res <= 1e-6


# ---------------------------------------------------------------------------
# network flow


NET_TEXT = """
# two nodes, one edge
node a  1.0
node b -1.0
edge a b 3.0 2.0
"""


def test_parse_network_and_incidence():
    net = sf.parse_network_text(NET_TEXT)
    assert net.num_nodes == 2 and net.num_edges == 1
    assert np.array_equal(net.incidence(), [[1.0], [-1.0]])
    assert net.node_ids == ("a", "b")


def test_parse_network_errors():
    with pytest.raises(ValueError, match="unknown node"):
        sf.parse_network_text("node a 0.0\nedge a b 1 1\nnode b 0.0")
    with pytest.raises(ValueError, match="duplicate"):
        sf.parse_network_text("node a 1.0\nnode a -1.0")
    with pytest.raises(ValueError, match="unrecognized"):
        sf.parse_network_text("vertex a 1.0")


def test_network_validation():
    with pytest.raises(ValueError, match="balance"):
        sf.FlowNetwork(
            injections=[1.0, 0.0], tails=[0], heads=[1], costs=[1.0], capacities=[1.0]
        )
    with pytest.raises(ValueError, match="self-loops"):
        sf.FlowNetwork(
            injections=[0.0, 0.0], tails=[0], heads=[0], costs=[1.0], capacities=[1.0]
        )


def test_min_cost_flow_two_node_example():
    net = sf.parse_network_text(NET_TEXT)
    sol = sf.lp_oracle(sf.min_cost_flow_lp(net))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.value == pytest.approx(3.0, abs=1e-9)


def test_min_cost_flow_zero_injection():
    net = sf.FlowNetwork(
        injections=[0.0, 0.0], tails=[0], heads=[1], costs=[2.0], capacities=[1.0]
    )
    sol = sf.lp_oracle(sf.min_cost_flow_lp(net))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.0, abs=1e-9)


def test_min_cost_flow_lagrangian_layout():
    net = sf.parse_network_text(NET_TEXT)
    problem, recover = sf.make_min_cost_flow(net)
    assert problem.n == 1 and problem.m == 2 + 2 * 1
    assert np.isinf(problem.y_set.lower[0]) and np.isinf(problem.y_set.lower[1])
    assert problem.y_set.lower[2] == 0.0 and problem.y_set.lower[3] == 0.0
    x, value = recover(np.array([1.0, 9.0, 9.0, 9.0, 9.0]))
    assert x[0] == 1.0 and value == 3.0


def test_two_node_network_augmented_dynamics_match_oracle():
    net = sf.parse_network_text(NET_TEXT)
    lp = sf.min_cost_flow_lp(net)
    sol = sf.lp_oracle(lp)
    problem, recover = sf.make_min_cost_flow(net)
    aug = sf.augment(problem, 0.5)
    flow = sf.projected_flow(sf.standard_flow(aug.problem), sf.full_domain(aug.problem))
    z, _, _ = run_until(flow, np.ones(flow.dim),
                        sf.IntegratorConfig(step=0.02, horizon=100.0, record_every=100), 1e-7)
    _, value = recover(z)
    assert abs(value - sol.value) <= 1e-4 * abs(sol.value)


def test_demo_network_shape():
    net = sf.demo_network()
    assert net.num_nodes == 5 and net.num_edges == 7
    assert abs(net.injections.sum()) <= 1e-12
    assert sf.lp_oracle(sf.min_cost_flow_lp(net)).status == "optimal"


# ---------------------------------------------------------------------------
# LP oracle


def test_lp_oracle_unbounded():
    sol = sf.lp_oracle(sf.LinearProgram(c=[-1.0], A=[[-1.0]], b=[0.0]))
    assert sol.status == "unbounded"


def test_lp_oracle_infeasible():
    sol = sf.lp_oracle(sf.LinearProgram(c=[1.0], A=[[1.0], [-1.0]], b=[0.0, -1.0]))
    assert sol.status == "infeasible"


def test_lp_oracle_inconsistent_equalities():
    lp = sf.LinearProgram(
        c=[1.0], A=[[1.0]], b=[5.0], A_eq=[[1.0], [1.0]], b_eq=[0.0, 1.0]
    )
    assert sf.lp_oracle(lp).status == "infeasible"


def test_lp_oracle_simple_vertex():
    # min x + y s.t. x >= 1, y >= 0.5, x + y <= 3
    lp = sf.LinearProgram(
        c=[1.0, 1.0], A=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], b=[-1.0, -0.5, 3.0]
    )
    sol = sf.lp_oracle(lp)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [1.0, 0.5], atol=1e-9)


def test_lp_oracle_size_cap():
    rng = np.random.default_rng(0)
    n, m = 14, 40
    lp = sf.LinearProgram(c=np.ones(n), A=rng.standard_normal((m, n)), b=np.ones(m))
    with pytest.raises(ValueError, match="size cap"):
        sf.lp_oracle(lp)


# ---------------------------------------------------------------------------
# Lasso


def test_make_lasso_metadata_and_validation():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 3))
    bundle = sf.make_lasso(A, rng.standard_normal(5), 0.5)
    assert bundle.l == pytest.approx(np.linalg.eigvalsh(A.T @ A)[-1])
    check_gradients(
        sf.SaddleProblem(
            n=3, m=1,
            value=lambda x, y: bundle.fhat.value(x),
            grad_x=lambda x, y: bundle.fhat.grad(x),
            grad_y=lambda x, y: np.zeros(1),
        ),
        rng,
        probes=5,
    )
    with pytest.raises(ValueError, match="lambda"):
        sf.make_lasso(A, rng.standard_normal(5), -1.0)


def test_lasso_oracle_scalar_soft_threshold():
    # min 0.5(x - 1)^2 + 0.5|x|  ->  x = 1 - 0.5
    bundle = sf.make_lasso([[1.0]], [1.0], 0.5)
    x = sf.lasso_oracle(bundle, tol=1e-12)
    assert x[0] == pytest.approx(0.5, abs=1e-10)


def test_lasso_oracle_full_shrinkage():
    bundle = sf.make_lasso([[1.0]], [1.0], 10.0)
    assert sf.lasso_oracle(bundle)[0] == 0.0


def test_lasso_oracle_restart_consistency():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((8, 5))
    bundle = sf.make_lasso(A, rng.standard_normal(8), 0.3)
    a = sf.lasso_oracle(bundle, tol=1e-11)
    b = sf.lasso_oracle(bundle, tol=1e-11, x0=rng.standard_normal(5))
    assert np.abs(a - b).max() <= 1e-8


def test_lasso_chain_recovery_identities():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 3))
    bundle = sf.make_lasso(A, rng.standard_normal(6), 0.4)
    transform, flow = bundle.dynamics(alpha=0.8 / bundle.l, rho=1.0)
    z, _, _ = run_until(flow, np.zeros(flow.dim),
                        sf.IntegratorConfig(step=0.01, horizon=40.0, record_every=100), 1e-8)
    lifted = bundle.f.dim
    x_full, y = transform.recover(z[:lifted], z[lifted:])
    xhat, xplus, xminus = x_full[:3], x_full[3:6], x_full[6:]
    assert np.abs(xhat - (xplus - xminus)).max() <= 1e-8


def test_builders_gradient_hygiene_sample():
    rng = np.random.default_rng(6)
    net = sf.parse_network_text(NET_TEXT)
    problems = [
        sf.make_lp(sf.min_cost_flow_lp(net)),
        sf.qp_lagrangian(sf.make_qp_affine(np.eye(2), np.ones(2), np.eye(2), np.zeros(2))),
        sf.separable_lagrangian(
            sf.make_separable_qp(np.eye(1), np.zeros(1), np.eye(1), np.zeros(1),
                                 np.eye(1), np.eye(1), np.zeros(1))
        ),
    ]
    for problem in problems:
        check_gradients(problem, rng, probes=10)
