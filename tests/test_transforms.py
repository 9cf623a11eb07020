import functools
from dataclasses import replace

import numpy as np
import pytest

import saddleflow as sf
import saddleflow.transforms as transforms_module
from saddleflow import cli
from saddleflow._inner import WarmCache, newton_solve
from saddleflow.transforms import InnerSolveError

from helpers import (
    bisect_root, check_gradients, fd_gradient, lasso_transform, second_difference, start_next_solve_at,
)


def _coupled_quadratic():
    # S = 0.5 x^2 + y x   (strongly convex-linear)
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


# ---------------------------------------------------------------------------
# augmentation


def test_augment_zero_at_joint_saddle():
    aug = sf.augment(sf.make_bilinear([[1.0]]), 1.0)
    z = np.zeros(2)
    assert np.allclose(aug.grad_x(z, z), 0.0)
    assert np.allclose(aug.grad_y(z, z), 0.0)


def test_augment_gradients_on_diagonal():
    aug = sf.augment(sf.make_bilinear([[1.0]]), 1.0)
    ones = np.ones(2)
    # regularizers vanish on the diagonal x = x_hat, y = y_hat
    assert np.allclose(aug.grad_x(ones, ones), [1.0, 0.0])
    assert np.allclose(aug.grad_y(ones, ones), [1.0, 0.0])


def test_augment_mirror_coupling():
    aug = sf.augment(sf.make_bilinear([[1.0]]), 2.0)
    xa = np.array([1.0, 0.0])
    ya = np.zeros(2)
    gx = aug.grad_x(xa, ya)
    assert gx[0] == pytest.approx(0.0 + 2.0)  # grad S + rho*(x - x_hat)
    assert gx[1] == pytest.approx(-2.0)       # mirror pulls toward x


def test_augment_requires_positive_rho():
    with pytest.raises(ValueError, match="rho"):
        sf.augment(sf.make_bilinear([[1.0]]), 0.0)


def test_augmented_value_identity_and_gradients():
    rng = np.random.default_rng(0)
    base = sf.make_quadratic_saddle(1.0, 2.0, rng.standard_normal((2, 2)))
    aug = sf.augment(base, 0.7)
    for _ in range(20):
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        both_x = np.concatenate((x, x))
        both_y = np.concatenate((y, y))
        assert aug.value(both_x, both_y) == base.value(x, y)
    check_gradients(aug, rng, probes=8)


def test_augment_maps_saddle():
    base = sf.make_quadratic_saddle(1.0, 1.0, [[0.3]])
    aug = sf.augment(base, 1.0)
    assert sf.stationarity_residual(aug, aug.saddle) <= 1e-12


# ---------------------------------------------------------------------------
# proximal surrogate


def test_inner_minimizer_linear_cases():
    sur = sf.proximal_surrogate(_coupled_quadratic(), 1.0)
    start_next_solve_at(sur, [0.0])
    assert sur.minimizer([1.0], [0.0])[0] == pytest.approx(0.5, abs=1e-10)
    start_next_solve_at(sur, [0.0])
    assert sur.minimizer([0.0], [1.0])[0] == pytest.approx(-0.5, abs=1e-10)


def test_inner_minimizer_cubic_against_bisection():
    quartic = sf.SaddleProblem(
        n=1,
        m=1,
        value=lambda x, y: 0.25 * float(x @ x) ** 2,
        grad_x=lambda x, y: x**3,
        grad_y=lambda x, y: np.zeros(1),
    )
    sur = sf.proximal_surrogate(quartic, 1.0)
    start_next_solve_at(sur, [0.0])
    x_t = sur.minimizer([1.0], [0.0])[0]
    root = bisect_root(lambda t: t**3 + t - 1.0, 0.0, 1.0)
    assert root == pytest.approx(0.6823278, abs=1e-7)
    assert x_t == pytest.approx(root, abs=1e-9)


def test_inner_minimizer_iteration_cap_carries_residual(monkeypatch):
    quartic = sf.SaddleProblem(
        n=1,
        m=1,
        value=lambda x, y: 0.25 * float(x @ x) ** 2,
        grad_x=lambda x, y: x**3,
        grad_y=lambda x, y: np.zeros(1),
    )
    monkeypatch.setattr(
        transforms_module, "newton_solve", functools.partial(newton_solve, tol=1e-12, max_iters=2)
    )
    sur = sf.proximal_surrogate(quartic, 1.0)
    start_next_solve_at(sur, [37.0])  # far from the solution: two iterations cannot reach it
    with pytest.raises(InnerSolveError) as err:
        sur.minimizer([1.0], [0.0])
    assert err.value.residual > 0.0


def test_inner_minimizer_deterministic():
    sur = sf.proximal_surrogate(_coupled_quadratic(), 1.0)
    start_next_solve_at(sur, [5.0])
    a = sur.minimizer([0.3], [0.4])
    start_next_solve_at(sur, [5.0])
    b = sur.minimizer([0.3], [0.4])
    assert b is not a and np.array_equal(a, b)


def test_surrogate_gradients_match_lemma_formulas():
    sur = sf.proximal_surrogate(_coupled_quadratic(), 1.0)
    p = sur.problem
    assert p.grad_x([1.0], [0.0])[0] == pytest.approx(0.5, abs=1e-9)
    assert p.grad_y([1.0], [0.0])[0] == pytest.approx(0.5, abs=1e-9)
    assert p.grad_x([0.0], [1.0])[0] == pytest.approx(0.5, abs=1e-9)
    assert p.grad_y([0.0], [1.0])[0] == pytest.approx(-0.5, abs=1e-9)
    # both gradients vanish at the surrogate saddle (u* = x* = 0, y* = 0)
    assert abs(p.grad_x([0.0], [0.0])[0]) <= 1e-10
    assert abs(p.grad_y([0.0], [0.0])[0]) <= 1e-10


def test_surrogate_gradient_fd_consistency():
    # looser than the core tolerance because of the inner solve
    rng = np.random.default_rng(8)
    base = sf.make_quadratic_saddle(1.0, 1.5, rng.standard_normal((2, 2)))
    sur = sf.proximal_surrogate(base, 0.8).problem
    for _ in range(6):
        u = rng.standard_normal(2)
        y = rng.standard_normal(2)
        gu = sur.grad_x(u, y)
        gy = sur.grad_y(u, y)
        gu_fd = fd_gradient(lambda v: sur.value(v, y), u)
        gy_fd = fd_gradient(lambda v: sur.value(u, v), y)
        assert np.linalg.norm(gu - gu_fd) / (1 + np.linalg.norm(gu)) <= 1e-5
        assert np.linalg.norm(gy - gy_fd) / (1 + np.linalg.norm(gy)) <= 1e-5


def test_surrogate_meta_shift():
    sur = sf.proximal_surrogate(_coupled_quadratic(), 1.0)
    meta = sur.problem.meta
    assert meta.mu == pytest.approx(0.5)   # mu*rho/(mu+rho)
    assert meta.q == pytest.approx(0.5)    # kappa/(l+rho)


@pytest.mark.parametrize("n, m", [(3, 3), (5, 3), (3, 5)], ids=["square", "tall", "wide"])
def test_surrogate_meta_is_the_spectrum_of_its_declared_hessian(n, m):
    # a second route to the surrogate's curvature: with f = (mu/2)||x||^2 its
    # uu block is mu*rho/(mu+rho) I, and minus its yy block is
    # q I + B^T B/(mu+rho), whose smallest eigenvalue is q + kappa/(l+rho)
    rng = np.random.default_rng(10 * n + m)
    for mu, q, rho in ((1.0, 2.0, 1.0), (0.5, 0.3, 2.5), (3.0, 0.1, 0.4)):
        base = sf.make_quadratic_saddle(mu, q, rng.standard_normal((n, m)))
        sur = sf.proximal_surrogate(base, rho).problem
        H = sur.hessian
        assert sur.meta.mu == pytest.approx(np.linalg.eigvalsh(H[:n, :n])[0], rel=1e-12, abs=0.0)
        assert sur.meta.q == pytest.approx(np.linalg.eigvalsh(-H[n:, n:])[0], rel=1e-12, abs=0.0)


def test_a_surrogate_keeps_the_base_q_without_kappa():
    # q_s = q + kappa/(l + rho) >= q: without kappa or l the surrogate keeps q
    base = sf.make_quadratic_saddle(1.0, 2.0, [[0.6, 0.8]])
    for meta in (replace(base.meta, kappa=None), replace(base.meta, l=None)):
        sur = sf.proximal_surrogate(replace(base, meta=meta), 1.0).problem
        assert sur.meta.q == 2.0
        setup = cli._saddle_run(sur, "wide quadratic saddle", "proximal")
        assert setup.c_bound == min(sur.meta.mu, 2.0) == 0.5


# ---------------------------------------------------------------------------
# preconditioning


def _unit_qp_transform(eta=1.0, alpha=1.0):
    f = sf.ConvexObjective(
        dim=1,
        value=lambda x: 0.5 * float(x @ x),
        grad=lambda x: x.copy(),
        hess=lambda x: np.eye(1),
        mu=1.0,
        l=1.0,
    )
    return sf.precondition(f, [[1.0]], [0.0], eta=eta, alpha=alpha)


def test_precondition_gradients_examples():
    p = _unit_qp_transform()
    assert np.allclose([p.grad_x([0.0], [0.0])[0], p.grad_y([0.0], [0.0])[0]], 0.0)
    assert p.grad_x([1.0], [0.0])[0] == pytest.approx(1.0)
    assert p.grad_y([1.0], [0.0])[0] == pytest.approx(0.0)
    assert p.grad_x([0.0], [1.0])[0] == pytest.approx(0.0)
    assert p.grad_y([0.0], [1.0])[0] == pytest.approx(-1.0)


def test_precondition_fd_consistency_and_meta():
    rng = np.random.default_rng(5)
    Q = np.diag([1.0, 3.0])
    f = sf.ConvexObjective(
        dim=2,
        value=lambda x: 0.5 * float(x @ (Q @ x)),
        grad=lambda x: Q @ x,
        hess=lambda x: Q,
        mu=1.0,
        l=3.0,
    )
    A = np.array([[1.0, 0.0], [1.0, 1.0]])
    pre = sf.precondition(f, A, [0.5, -0.5], eta=2.0, alpha=0.4)
    check_gradients(pre, rng, probes=8)
    kappa, sigma = np.linalg.eigvalsh(A @ A.T)[[0, -1]]
    assert pre.meta.kappa == pytest.approx(kappa)
    assert pre.meta.sigma == pytest.approx(sigma)
    assert pre.meta.q == pytest.approx((2 * 2.0 * 0.4 - 3.0 * 0.4**2) * kappa)


def test_precondition_validates_parameters():
    f = sf.ConvexObjective(dim=1, value=lambda x: 0.0, grad=lambda x: np.zeros(1))
    with pytest.raises(ValueError, match="eta"):
        sf.precondition(f, [[1.0]], [0.0], eta=0.0, alpha=1.0)
    with pytest.raises(ValueError, match="alpha"):
        sf.precondition(f, [[1.0]], [0.0], eta=1.0, alpha=-1.0)
    with pytest.raises(ValueError, match="columns"):
        sf.precondition(f, [[1.0, 2.0]], [0.0], eta=1.0, alpha=1.0)


def test_precondition_saddle_correspondence():
    # saddle of the weighted Lagrangian maps to the transformed saddle
    pre = _unit_qp_transform(eta=1.5, alpha=1.0)
    # min 0.5 x^2 s.t. x <= 0 has x* = 0, weighted dual y* = 0
    w = [0.0, 0.0]
    assert sf.stationarity_residual(pre, w, feasible=sf.full_domain(pre)) <= 1e-12
    u, y, alpha, A = np.array([0.0]), np.array([0.0]), 1.0, np.array([[1.0]])
    assert np.allclose(u - alpha * (A.T @ y), 0.0)  # x = u - alpha*A^T*y


# ---------------------------------------------------------------------------
# reduction


def _unit_separable():
    return sf.make_separable_qp(
        np.eye(1), np.zeros(1), np.eye(1), np.zeros(1),
        np.eye(1), np.eye(1), np.zeros(1),
    )


def test_reduce_inner_minimizer_linear():
    red = sf.reduce(_unit_separable())
    assert red.minimizer([2.0])[0] == pytest.approx(-2.0, abs=1e-10)


def test_reduce_gradients_examples():
    red = sf.reduce(_unit_separable())
    assert red.problem.grad_y([1.0], [1.0])[0] == pytest.approx(0.0, abs=1e-10)
    assert red.problem.grad_x([1.0], [1.0])[0] == pytest.approx(2.0)


def test_reduce_requires_strong_convexity():
    sep = _unit_separable()
    flat = sf.ConvexObjective(dim=1, value=lambda x: float(x.sum()), grad=lambda x: np.ones(1), mu=0.0)
    weak = sf.SeparableProblem(f_s=flat, f_c=sep.f_c, A_s=sep.A_s, A_c=sep.A_c, b=sep.b)
    with pytest.raises(ValueError, match="strongly convex"):
        sf.reduce(weak)


def test_reduced_curvature_bounds_by_second_differences():
    rng = np.random.default_rng(11)
    Q_s = np.diag([1.0, 2.0])
    Q_c = np.diag([1.5, 3.0])
    A_s = np.array([[1.0, 0.0], [0.5, 1.0]])
    A_c = np.array([[0.2, 0.0], [0.0, 0.3]])
    sep = sf.make_separable_qp(Q_s, np.zeros(2), Q_c, np.zeros(2), A_s, A_c, rng.standard_normal(2))
    red = sf.reduce(sep)
    mu_c = sep.f_c.mu
    bound_y = sep.kappa_s / sep.f_s.l
    for _ in range(10):
        x_c = rng.standard_normal(2)
        y = rng.standard_normal(2)
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        curv_x = second_difference(lambda v: red.problem.value(v, y), x_c, d)
        curv_y = second_difference(lambda v: red.problem.value(x_c, v), y, d)
        assert curv_x >= mu_c - 1e-4
        assert curv_y <= -bound_y + 1e-4


def test_reduce_recover_stacks_full_primal():
    red = sf.reduce(_unit_separable())
    full = red.recover([3.0], [2.0])
    assert np.allclose(full, [-2.0, 3.0])


# ---------------------------------------------------------------------------
# Lasso chain


def test_lasso_reformulate_matrix_n1():
    fhat = sf.ConvexObjective(
        dim=1, value=lambda x: 0.5 * float(x @ x), grad=lambda x: x.copy(),
        hess=lambda x: np.eye(1), mu=1.0, l=1.0,
    )
    f, A, feas = sf.lasso_reformulate(fhat, 0.5)
    assert np.array_equal(A, [[1.0, -1.0, 1.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    assert np.isinf(feas.lower[0]) and feas.lower[1] == 0.0 and feas.lower[2] == 0.0
    assert np.linalg.matrix_rank(A) == 3


def test_lasso_reformulate_sign_split_identity():
    # x_hat = -2 with split (0, 2): the coupling row vanishes, |x_hat| = sum
    fhat = sf.ConvexObjective(dim=1, value=lambda x: 0.0, grad=lambda x: np.zeros(1), l=1.0)
    f, A, _ = sf.lasso_reformulate(fhat, 1.0)
    x = np.array([-2.0, 0.0, 2.0])
    assert (A @ x)[0] == 0.0
    assert f.value(x) == pytest.approx(2.0)


def test_lasso_reformulate_zero_penalty():
    fhat = sf.ConvexObjective(dim=2, value=lambda x: float(x @ x), grad=lambda x: 2 * x, l=2.0)
    f, _, _ = sf.lasso_reformulate(fhat, 0.0)
    x = np.array([1.0, -1.0, 3.0, 4.0, 5.0, 6.0])
    assert f.value(x) == fhat.value(x[:2])


def test_lasso_reformulate_rejects_negative_lambda():
    fhat = sf.ConvexObjective(dim=1, value=lambda x: 0.0, grad=lambda x: np.zeros(1))
    with pytest.raises(ValueError, match="lambda"):
        sf.lasso_reformulate(fhat, -0.1)


def _scalar_toy(with_bound: bool):
    return sf.SaddleProblem(
        n=1,
        m=1,
        value=lambda u, y: float(u @ y) - float(y @ y),
        grad_x=lambda u, y: y.copy(),
        grad_y=lambda u, y: u - 2 * y,
        y_set=sf.FeasibleSet.nonnegative(1) if with_bound else None,
        hess_yy=lambda u, y: -2.0 * np.eye(1),
    )


def test_lasso_dual_prox_unconstrained_maximizer():
    dp = sf.lasso_dual_prox(_scalar_toy(False), rho=1.0)
    # quadratic maximization: y = (u + rho v)/(2 + rho)
    assert dp.maximizer([1.0], [2.0])[0] == pytest.approx(1.0, abs=1e-10)
    assert dp.maximizer([0.3], [-0.9])[0] == pytest.approx((0.3 - 0.9) / 3.0, abs=1e-10)


def test_lasso_dual_prox_active_bound():
    dp = sf.lasso_dual_prox(_scalar_toy(True), rho=1.0)
    assert dp.maximizer([-3.0], [0.0])[0] == 0.0


def test_lasso_dual_prox_fixed_point():
    dp = sf.lasso_dual_prox(_scalar_toy(True), rho=1.0)
    # equilibrium of the toy: u* = 0, y* = 0 = v*
    y = dp.maximizer([0.0], [0.0])
    assert abs(y[0]) <= 1e-10
    assert abs(dp.problem.grad_x([0.0], [0.0])[0]) <= 1e-10
    assert abs(dp.problem.grad_y([0.0], [0.0])[0]) <= 1e-10


def test_lasso_dual_prox_gradient_fd_consistency():
    rng = np.random.default_rng(2)
    data_A = rng.standard_normal((4, 2))
    bundle = sf.make_lasso(data_A, rng.standard_normal(4), 0.3)
    p = lasso_transform(bundle.dynamics(alpha=0.5 / bundle.l, rho=1.0)).problem
    for _ in range(4):
        u = rng.standard_normal(p.n)
        v = rng.standard_normal(p.m)
        gu = p.grad_x(u, v)
        gv = p.grad_y(u, v)
        gu_fd = fd_gradient(lambda w: p.value(w, v), u)
        gv_fd = fd_gradient(lambda w: p.value(u, w), v)
        assert np.linalg.norm(gu - gu_fd) / (1 + np.linalg.norm(gu)) <= 1e-5
        assert np.linalg.norm(gv - gv_fd) / (1 + np.linalg.norm(gv)) <= 1e-5


def test_separate_builds_have_private_caches():
    problem = _coupled_quadratic()
    sur = sf.proximal_surrogate(problem, 1.0)
    sur.minimizer([1.0], [0.0])
    twin = sf.proximal_surrogate(problem, 1.0)
    assert twin._cache.point is None
    assert sur._cache.point is not None


# (build, solver looked up in transforms, position of its start argument,
#  solve(key), default start for a key, three keys)
WARM_START_CASES = {
    "proximal_surrogate": (
        lambda: sf.proximal_surrogate(_coupled_quadratic(), 1.0), "newton_solve", 1,
        lambda t, key: t.minimizer(*key), lambda key: key[0],
        [([1.0], [0.0]), ([2.0], [1.0]), ([-1.0], [0.5])],
    ),
    "reduce": (
        lambda: sf.reduce(_unit_separable()), "newton_solve", 1,
        lambda t, key: t.minimizer(*key), lambda key: np.zeros(1),
        [([2.0],), ([3.0],), ([-1.0],)],
    ),
    "lasso_dual_prox": (
        lambda: sf.lasso_dual_prox(_scalar_toy(True), rho=1.0), "projected_concave_max", 3,
        lambda t, key: t.maximizer(*key), lambda key: key[1],
        [([1.0], [2.0]), ([0.3], [-0.9]), ([4.0], [1.0])],
    ),
}


@pytest.mark.parametrize("case", sorted(WARM_START_CASES))
def test_warm_start_rule(case, monkeypatch):
    build, solver, start_at, solve, default, (k1, k2, k3) = WARM_START_CASES[case]
    starts = []
    real = getattr(transforms_module, solver)

    def counted(*args, **kwargs):
        starts.append(np.array(args[start_at], dtype=float))
        return real(*args, **kwargs)

    monkeypatch.setattr(transforms_module, solver, counted)
    t = build()

    first = solve(t, k1)
    assert len(starts) == 1 and np.array_equal(starts[0], default(k1))
    assert solve(t, k1) is first and len(starts) == 1  # repeated key: stored point, no solve

    solve(t, k2)
    assert len(starts) == 2 and np.array_equal(starts[1], first)  # new key: last solution

    for cache in t.problem.caches:  # as integrate does before a run
        cache.clear()
    solve(t, k3)
    assert len(starts) == 3 and np.array_equal(starts[2], default(k3))  # cleared: cold start


def test_warm_cache_match_is_array_equal_per_key():
    cache = WarmCache()
    assert cache.match(np.zeros(2)) is None
    point = np.array([7.0])
    cache.store(point, np.array([1.0, -0.0, 3.0]), np.array(2.5), np.zeros(0), np.array([[1.0, 2.0]]))
    hit = ([1.0, 0.0, 3.0], 2.5, [], np.array([[1.0, 2.0]]))  # -0.0 == 0.0; lists and scalars by value
    queries = [
        hit,
        (np.array([1.0, 0.0, 3.0]), 2.5, [], np.array([[1.0, np.nan]])),  # NaN never equals
        (np.array([1.0, 0.0, 3.0]), np.array([2.5]), [], np.array([[1.0, 2.0]])),  # (1,) is not ()
        (np.array([1.0]), 2.5, [], np.array([[1.0, 2.0]])),  # would broadcast
        (np.array([1.0, 0.0, 3.0, 4.0]), 2.5, [], np.array([[1.0, 2.0]])),
        (np.array([1.0, 0.0, 3.0]), 2.5),  # fewer keys
    ]
    for query in queries:
        expected = len(query) == len(cache.key) and all(
            np.array_equal(a, b) for a, b in zip(cache.key, query)
        )
        assert (cache.match(*query) is point) == expected
    assert cache.match(*hit) is point


def test_warm_cache_solve_looks_up_solves_and_stores_through_its_methods(monkeypatch):
    # the lookups go through ``match`` and ``store``, where a tracer counts them
    looked, stored = [], []
    match, store = WarmCache.match, WarmCache.store
    monkeypatch.setattr(WarmCache, "match", lambda self, *k: looked.append(k) or match(self, *k))
    monkeypatch.setattr(WarmCache, "store", lambda self, p, *k: stored.append(k) or store(self, p, *k))
    cache, starts = WarmCache(), []

    def solve(x0):
        starts.append(x0)
        return x0 + 1.0

    first = cache.solve(solve, np.zeros(1), np.ones(2))
    assert np.array_equal(first, [1.0]) and len(starts) == 1 and np.array_equal(starts[0], [0.0])
    assert cache.solve(solve, np.zeros(1), np.ones(2)) is first and len(starts) == 1
    second = cache.solve(solve, np.zeros(1), np.zeros(2))
    assert starts[-1] is first and np.array_equal(second, [2.0])
    assert len(looked) == 3 and len(stored) == 2 and cache.point is second

