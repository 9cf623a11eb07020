from dataclasses import replace

import numpy as np
import pytest

import saddleflow as sf

from helpers import face_points, preconditioned_pd, qp_kkt_oracle, run_until


def _coupled_quadratic():
    return sf.SaddleProblem(
        n=1,
        m=1,
        value=lambda x, y: 0.5 * float(x @ x) + float(y @ x),
        grad_x=lambda x, y: x + y,
        grad_y=lambda x, y: x.copy(),
        meta=sf.ConvexityMeta(mu=1.0, q=0.0, l=1.0, kappa=1.0, sigma=1.0),
        saddle=np.zeros(2),
        hess_xx=lambda x, y: np.eye(1),
    )


def test_standard_flow_examples():
    bil = sf.standard_flow(sf.make_bilinear([[1.0]]))
    assert np.allclose(bil.field(np.array([1.0, 0.0])), [0.0, 1.0])
    quad = sf.standard_flow(sf.make_quadratic_saddle(1.0, 1.0, [[0.0]]))
    assert np.allclose(quad.field(np.array([2.0, 2.0])), [-2.0, -2.0])
    assert np.allclose(quad.field(np.zeros(2)), 0.0)
    assert np.array_equal(quad.equilibrium_hint, np.zeros(2))


def _augmented(problem, rho):
    return sf.standard_flow(sf.augment(problem, rho))


def _lp_augmented(c, A, b, rho):
    return _augmented(sf.make_lp(sf.LinearProgram(c=c, A=A, b=b)), rho)


def test_augmented_flow_matches_display():
    flow = _augmented(sf.make_bilinear([[1.0]]), 1.0)
    assert np.allclose(flow.field(np.zeros(4)), 0.0)
    assert np.allclose(flow.field(np.array([1.0, 1.0, 1.0, 1.0])), [-1.0, 0.0, 1.0, 0.0])
    flow2 = _augmented(sf.make_bilinear([[1.0]]), 2.0)
    out = flow2.field(np.array([1.0, 0.0, 0.0, 0.0]))
    assert out[0] == pytest.approx(-2.0)  # -grad S - rho*(x - x_hat) = -0 - 2
    assert out[1] == pytest.approx(2.0)   # mirror chases x at rate rho


def test_proximal_flow_examples():
    sur = sf.proximal_surrogate(_coupled_quadratic(), 1.0)
    flow = sf.standard_flow(sur.problem)
    assert np.allclose(flow.field(np.array([1.0, 0.0])), [-0.5, 0.5], atol=1e-9)
    assert np.allclose(flow.field(np.array([0.0, 1.0])), [-0.5, -0.5], atol=1e-9)
    assert np.allclose(flow.field(np.zeros(2)), 0.0, atol=1e-10)


def test_projected_flow_rules():
    # the unprojected saddle field (-y, x - 1) of min 0 s.t. x <= 1
    flow = sf.Flow(dim=2, field=lambda z: np.array([-z[1], z[0] - 1.0]))
    dom = sf.FeasibleSet.stack(sf.FeasibleSet.free(1), sf.FeasibleSet.nonnegative(1))
    proj = sf.projected_flow(flow, dom)
    lp_flow = sf.standard_flow(sf.make_lp(sf.LinearProgram(c=[0.0], A=[[1.0]], b=[1.0])))
    for z in ([0.0, 0.0], [0.5, 1.0], [2.0, 0.0]):
        assert np.array_equal(lp_flow.field(np.array(z)), proj.field(np.array(z)))
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
    f0 = _lp_augmented([0.0], [[1.0]], [0.0], 1.0)
    assert np.allclose(f0.field(np.zeros(4)), 0.0)
    # at (1,1,0,0) with c=1, A=1, b=1: ydot = [1-1-0]^+ = 0
    f1 = _lp_augmented([1.0], [[1.0]], [1.0], 1.0)
    out = f1.field(np.array([1.0, 1.0, 0.0, 0.0]))
    assert out[2] == 0.0
    # at (0,0,1,1) with b=0: xdot = -1 - 1 = -2, ydot = [0]^+ = 0
    f2 = _lp_augmented([1.0], [[1.0]], [0.0], 1.0)
    out = f2.field(np.array([0.0, 0.0, 1.0, 1.0]))
    assert out[0] == pytest.approx(-2.0)
    assert out[2] == 0.0


def test_augmented_pd_lp_mirror_dual_unprojected():
    flow = _lp_augmented([0.0], [[1.0]], [0.0], 1.0)
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


def _unit_f():
    return sf.ConvexObjective(
        dim=1, value=lambda x: 0.5 * float(x @ x), grad=lambda x: x.copy(),
        hess=lambda x: np.eye(1), mu=1.0, l=1.0,
    )


def _unit_precond(eta=1.5, alpha=1.0, b=0.0):
    return sf.precondition(_unit_f(), [[1.0]], [b], eta=eta, alpha=alpha)


def test_preconditioned_pd_examples():
    uy = sf.standard_flow(_unit_precond())
    xy = preconditioned_pd(_unit_f(), [[1.0]], [0.0], 1.5, 1.0)
    assert np.allclose(uy.field(np.zeros(2)), 0.0)
    assert np.allclose(xy.field(np.zeros(2)), 0.0)
    # with eta = 1 the dual velocity at (1, 0) cancels: [-1*1 + 1*1]^+ = 0
    uy1 = sf.standard_flow(_unit_precond(eta=1.0))
    out = uy1.field(np.array([1.0, 0.0]))
    assert out[0] == pytest.approx(-1.0)
    assert out[1] == 0.0


def test_preconditioned_pd_validates_concavity():
    # checked where both spaces and the Lasso chain build their problem
    with pytest.raises(ValueError, match="2\\*eta > l\\*alpha"):
        _unit_precond(eta=0.4, alpha=1.0)


def test_preconditioned_spaces_stay_coupled():
    # trajectories in the two spaces satisfy x(t) = u(t) - alpha*A^T y(t)
    alpha = 1.0
    pre = _unit_precond(eta=1.1, alpha=alpha, b=-1.0)
    uy = sf.standard_flow(pre)
    xy = preconditioned_pd(_unit_f(), [[1.0]], [-1.0], 1.1, alpha)
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
    flow = sf.standard_flow(sf.reduce(sep).problem)
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
    flow = sf.standard_flow(dp.problem)
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
    aug_flow = _augmented(bil, 0.5)
    z, _, _ = run_until(aug_flow, np.array([1.0, 0.0, 0.0, 0.0]),
                        sf.IntegratorConfig(step=0.02, horizon=40.0, record_every=50), 1e-8)
    assert sf.stationarity_residual(bil, z[[0, 2]]) <= 1e-6

    # proximal surrogate of the coupled quadratic
    sur = sf.proximal_surrogate(base, 1.0)
    prox_flow = sf.standard_flow(sur.problem)
    w, _, _ = run_until(prox_flow, np.array([1.0, 1.0]),
                        sf.IntegratorConfig(step=0.01, horizon=40.0, record_every=50), 1e-8)
    assert sf.stationarity_residual(base, w) <= 1e-6

    # preconditioned QP: map back through u = x + alpha*A^T y
    pre = _unit_precond(eta=1.1, alpha=1.0, b=-1.0)
    uy_flow = sf.standard_flow(pre)
    w, _, _ = run_until(uy_flow, np.array([1.0, 0.0]),
                        sf.IntegratorConfig(step=0.002, horizon=30.0, record_every=50), 1e-9)
    x = w[:1] - 1.0 * w[1:]  # x = u - alpha*A^T*y with alpha = 1, A = [[1]]
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
    aug = _augmented(bil, 0.5)
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


def test_flow_caches_clear_the_warm_cache():
    sur = sf.proximal_surrogate(_coupled_quadratic(), 1.0)
    flow = sf.standard_flow(sur.problem)
    assert [id(c) for c in flow.caches] == [id(sur._cache)]
    flow.field(np.array([1.0, 0.0]))
    assert sur._cache.point is not None
    for cache in flow.caches:
        cache.clear()
    assert sur._cache.point is None


def test_augmented_flow_keeps_the_lp_dual_domain():
    # the criterion-10 LP: without the y >= 0 projection the duals run
    # negative and the flow settles at x = (1.5, 1), away from the optimum
    lp = sf.LinearProgram(c=[1.0, 1.0], A=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], b=[-1.0, -0.5, 3.0])
    problem = sf.make_lp(lp)
    flow = _augmented(problem, 0.5)
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
    flow = sf.standard_flow(surrogate.problem)
    assert flow.feasible is not None and flow.feasible.lower[2] == 0.0
    z, _, _ = run_until(
        flow, np.array([0.0, 0.0, 1.0]), sf.IntegratorConfig(step=0.02, horizon=40.0, record_every=100), 1e-9
    )
    x_ref, y_ref = qp_kkt_oracle(Q, p, A, b)
    assert np.allclose(z[:2], x_ref, atol=1e-7)
    assert np.allclose(z[2:], y_ref, atol=1e-7)


# ---------------------------------------------------------------------------
# Hand-written fields the library used to build for three transformed
# problems, kept as test references: the saddle flow of each transformed
# problem, projected onto its domain, equals them bit for bit.


def _augmented_pd_lp_reference(c, A, b, rho):
    """Augmented primal-dual field of min c^T x s.t. Ax - b <= 0 over (x, x_hat, y, y_hat)."""
    m, n = A.shape
    y_set = sf.FeasibleSet.nonnegative(m)

    def field(z):
        x, xh = z[:n], z[n : 2 * n]
        y, yh = z[2 * n : 2 * n + m], z[2 * n + m :]
        gap_x = rho * (x - xh)
        gap_y = rho * (y - yh)
        ydot = sf.project_vector_field(y_set, y, A @ x - b - gap_y)
        return np.concatenate((-c - A.T @ y - gap_x, gap_x, ydot, gap_y))

    return field


def _dual_projected_reference(problem):
    """The field of the (u, y)-space preconditioned flow and of the reduced flow:
    dual velocity projected onto ``y_set`` first, then the primal descent."""
    n = problem.n

    def field(z):
        x, y = z[:n], z[n:]
        ydot = sf.project_vector_field(problem.y_set, y, problem.grad_y(x, y))
        return np.concatenate((-problem.grad_x(x, y), ydot))

    return field


def _face_signs(problem, z):
    """Signs of the unprojected dual velocity on the coordinates at their lower face."""
    x, y = z[: problem.n], z[problem.n :]
    return set(np.sign(problem.grad_y(x, y)[y == problem.y_set.lower]))


def _assert_bitwise_equal(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def test_standard_flow_of_augmented_lp_matches_hand_written_field():
    rng = np.random.default_rng(11)
    c, A, b = rng.standard_normal(2), rng.standard_normal((3, 2)), rng.standard_normal(3)
    problem = sf.augment(sf.make_lp(sf.LinearProgram(c=c, A=A, b=b)), 0.5)
    # the reference follows the oracles' order of operations: the oracle path
    flow = sf.standard_flow(replace(problem, hessian=None))
    reference = _augmented_pd_lp_reference(c, A, b, 0.5)
    assert np.array_equal(flow.feasible.lower, np.r_[np.full(4, -np.inf), np.zeros(3), np.full(3, -np.inf)])
    signs = set()
    for z in face_points(rng, problem):
        _assert_bitwise_equal(flow.field(z), reference(z))
        signs |= _face_signs(problem, z)
    assert signs == {-1.0, 1.0}  # faces met with outward and with inward velocity


def test_standard_flow_of_preconditioned_problem_matches_hand_written_uy_field():
    rng = np.random.default_rng(12)
    bundle = sf.make_qp_affine(np.diag([1.0, 2.0, 3.0]), rng.standard_normal(3),
                               rng.standard_normal((2, 3)), rng.standard_normal(2))
    problem = sf.precondition(bundle.f, bundle.A, bundle.b, eta=1.0, alpha=0.5)
    # the reference follows the oracles' order of operations: the oracle path
    flow = sf.standard_flow(replace(problem, hessian=None))
    reference = _dual_projected_reference(problem)
    signs = set()
    for z in face_points(rng, problem):
        _assert_bitwise_equal(flow.field(z), reference(z))
        signs |= _face_signs(problem, z)
    assert signs == {-1.0, 1.0}


def test_standard_flow_of_reduced_problem_matches_hand_written_field():
    rng = np.random.default_rng(13)
    sep = sf.make_separable_qp(
        np.diag([1.0, 2.0, 3.0]), rng.standard_normal(3), np.diag([1.5, 0.5]), rng.standard_normal(2),
        rng.standard_normal((3, 3)), rng.standard_normal((3, 2)), rng.standard_normal(3),
    )
    # one instance per field: their warm-start caches see the same solves;
    # the reference follows the oracles' order of operations: the oracle path
    reduced = sf.reduce(sep)
    flow = sf.standard_flow(replace(reduced.problem, hessian=None))
    reference = _dual_projected_reference(sf.reduce(sep).problem)
    probe = sf.reduce(sep).problem
    signs = set()
    for z in face_points(rng, probe):
        _assert_bitwise_equal(flow.field(z), reference(z))
        signs |= _face_signs(probe, z)
    assert signs == {-1.0, 1.0}


def _proximal_pd_reference(f, g, rho):
    """The proximal primal-dual field as the library wrote it by hand: the inner
    solve, then the dual velocity projected onto y >= 0 on its own."""
    from saddleflow._inner import WarmCache, newton_solve

    n, m = f.dim, g.m
    y_set = sf.FeasibleSet.nonnegative(m)
    cache = WarmCache()
    eye = np.eye(n)
    jacobian_inverse = np.linalg.inv(f.hess(np.zeros(n)) + rho * eye) if f.hess_constant else None

    def field(z):
        u, y = z[:n], z[n:]
        residual = lambda x: f.grad(x) + g.jacobian(x).T @ y + rho * (x - u)
        jacobian = lambda x: f.hess(x) + g.hess(x, y) + rho * eye
        x0 = u if cache.point is None else cache.point
        x = newton_solve(residual, x0, jacobian, jacobian_inverse=jacobian_inverse)
        cache.point = x
        ydot = sf.project_vector_field(y_set, y, g.value(x))
        return np.concatenate((rho * (x - u), ydot))

    return field


@pytest.mark.parametrize("hess_constant", [True, False])
def test_proximal_primal_dual_matches_hand_written_field(hess_constant):
    rng = np.random.default_rng(14)
    bundle = sf.make_qp_affine(np.diag([1.0, 2.0, 3.0]), rng.standard_normal(3),
                               rng.standard_normal((2, 3)), rng.standard_normal(2))
    f, g = replace(bundle.f, hess_constant=hess_constant), bundle.constraints()
    flow, reference = sf.proximal_primal_dual(f, g, 1.2), _proximal_pd_reference(f, g, 1.2)
    assert np.array_equal(flow.feasible.lower, np.r_[np.full(3, -np.inf), np.zeros(2)])
    face_moves = set()
    for _ in range(200):
        z = rng.uniform(-2.0, 2.0, size=5)
        z[3:] = np.where(rng.random(2) < 0.5, 0.0, np.abs(z[3:]))
        out = flow.field(z)
        _assert_bitwise_equal(out, reference(z))
        face_moves |= set(out[3:][z[3:] == 0.0] > 0.0)
    assert face_moves == {False, True}  # faces met with outward and with inward velocity
