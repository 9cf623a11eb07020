"""Inner solves over declared constant curvature against the general paths.

Every transform with a hidden inner solve is built twice, once from a
problem that declares its Hessian constant (factored once, one prefactored
Newton step or a box QP over the model) and once from the same problem with
the declaration removed (damped Newton or projected Newton on the oracles).
"""

from dataclasses import replace

import numpy as np
import pytest

import saddleflow as sf
import saddleflow._inner as inner_mod
from saddleflow.flows import proximal_primal_dual
from saddleflow.transforms import InnerSolveError

from helpers import bisect_root

AGREE = 1e-12


def _walk(rng, start, steps, scale=1e-2):
    """Random states: a few far apart, then a slow walk that warm-starts."""
    states = [rng.standard_normal(start.shape) * 3.0 for _ in range(5)]
    z = start
    for _ in range(steps):
        z = z + scale * rng.standard_normal(start.shape)
        states.append(z)
    return states


def test_proximal_surrogate_paths_agree():
    rng = np.random.default_rng(40)
    base = sf.make_quadratic_saddle(0.7, 1.3, rng.standard_normal((3, 2)))
    declared = sf.proximal_surrogate(base, 0.9)
    plain = sf.proximal_surrogate(replace(base, hess_constant=False), 0.9)
    assert declared._jacobian_inverse is not None and plain._jacobian_inverse is None
    for z in _walk(rng, rng.standard_normal(5), 200):
        u, y = z[:3], z[3:]
        a, b = declared.minimizer(u, y), plain.minimizer(u, y)
        assert np.abs(a - b).max() <= AGREE


def test_reduced_minimizer_paths_agree():
    rng = np.random.default_rng(41)
    sep = sf.make_separable_qp(
        np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([0.4, -0.2]), np.eye(2), np.zeros(2),
        np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2), np.array([0.1, -0.3]),
    )
    declared = sf.reduce(sep)
    plain = sf.reduce(replace(sep, f_s=replace(sep.f_s, hess_constant=False)))
    assert declared._jacobian_inverse is not None and plain._jacobian_inverse is None
    for y in _walk(rng, rng.standard_normal(2), 200):
        assert np.abs(declared.minimizer(y) - plain.minimizer(y)).max() <= AGREE


def test_proximal_primal_dual_field_paths_agree():
    rng = np.random.default_rng(42)
    bundle = sf.make_qp_affine(
        np.array([[1.0, 0.2, 0.0], [0.2, 2.0, 0.1], [0.0, 0.1, 1.5]]), np.array([0.3, 0.0, -0.5]),
        rng.standard_normal((2, 3)), np.array([-1.0, 0.5]),
    )
    g = bundle.constraints()
    declared = proximal_primal_dual(bundle.f, g, 1.2).field
    # undeclared: the Jacobian callable adds the explicit zero Hessian of g
    plain = proximal_primal_dual(replace(bundle.f, hess_constant=False), g, 1.2).field
    for z in _walk(rng, np.abs(rng.standard_normal(5)), 200):
        z[3:] = np.abs(z[3:])
        assert np.abs(declared(z) - plain(z)).max() <= AGREE


def _lasso_pair(rng, rho=1.0):
    bundle = sf.make_lasso(rng.standard_normal((6, 4)) / np.sqrt(6), rng.standard_normal(6), 0.5)
    alpha = 0.8 / bundle.l
    zeros = np.zeros(bundle.f.dim)

    def build(f):
        pre = sf.precondition(f, bundle.A, zeros, eta=1.0, alpha=alpha, y_set=bundle.y_set)
        return sf.lasso_dual_prox(pre, rho)

    return bundle, build(bundle.f), build(replace(bundle.f, hess_constant=False))


def test_lasso_maximizer_paths_agree_with_bounds_active():
    rng = np.random.default_rng(43)
    bundle, declared, plain = _lasso_pair(rng)
    assert declared._dual_hess is not None and plain._dual_hess is None
    n = bundle.n
    lifted = bundle.f.dim
    on_bound = 0
    for z in _walk(rng, rng.standard_normal(2 * lifted), 200, scale=5e-2):
        u, v = z[:lifted], z[lifted:]
        a, b = declared.maximizer(u, v), plain.maximizer(u, v)
        assert np.abs(a - b).max() <= AGREE
        on_bound += bool(np.any(a[n:] == 0.0)) and bool(np.any(a[n:] > 0.0))
    assert on_bound >= 50  # some, not all, of the sign multipliers sit at 0


def test_lasso_maximizer_starting_on_the_bound():
    rng = np.random.default_rng(44)
    bundle, declared, plain = _lasso_pair(rng)
    n, lifted = bundle.n, bundle.f.dim
    for _ in range(20):
        u = rng.standard_normal(lifted)
        v = rng.standard_normal(lifted)
        y0 = np.clip(rng.standard_normal(lifted), bundle.y_set.lower, None)
        y0[n : n + 3] = 0.0
        a = declared.maximizer(u, v, y0=y0)
        b = plain.maximizer(u, v, y0=y0)
        assert np.abs(a - b).max() <= AGREE


def test_box_qp_confirms_convergence_at_the_oracle():
    # the model Hessian is 10% off: the solve must still end at the oracle's
    # maximizer, to the oracle's tolerance
    rng = np.random.default_rng(45)
    M = rng.standard_normal((4, 4))
    H = -(M @ M.T + np.eye(4))
    c = rng.standard_normal(4) * 3.0
    feasible = sf.FeasibleSet(np.array([-np.inf, 0.0, 0.0, -1.0]), np.array([np.inf, np.inf, 0.5, 1.0]))
    grad = lambda y: H @ y + c
    value = lambda y: 0.5 * float(y @ (H @ y)) + float(c @ y)
    exact = inner_mod.projected_concave_max(value, grad, feasible, np.zeros(4), lambda y: H, tol=1e-12)
    y = inner_mod.projected_concave_max(
        value, grad, feasible, np.zeros(4), None, tol=1e-12, constant_hess=1.1 * H
    )
    assert np.linalg.norm(sf.project_vector_field(feasible, y, grad(y))) <= 1e-12
    assert np.abs(y - exact).max() <= 1e-11


def test_box_qp_never_calls_value_or_hess():
    rng = np.random.default_rng(46)
    M = rng.standard_normal((3, 3))
    H = -(M @ M.T + np.eye(3))
    c = rng.standard_normal(3)
    grads = []

    def grad(y):
        grads.append(1)
        return H @ y + c

    def refuse(*_):
        raise AssertionError("called")

    y = inner_mod.projected_concave_max(
        refuse, grad, sf.FeasibleSet.nonnegative(3), np.ones(3), refuse, constant_hess=H
    )
    assert np.all(y >= 0.0)
    assert len(grads) <= 3  # start, then one confirmation per model convergence


def test_prefactored_step_falls_back_to_damped_newton():
    # a wrong inverse: its step misses, the gate fails, damped Newton finishes
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, -1.0])
    calls = []

    def jacobian(x):
        calls.append(1)
        return A

    x = inner_mod.newton_solve(
        lambda x: A @ x - b, np.zeros(2), jacobian, tol=1e-12, jacobian_inverse=0.5 * np.eye(2)
    )
    assert np.abs(A @ x - b).max() <= 1e-12
    assert calls
    calls.clear()
    x = inner_mod.newton_solve(
        lambda x: A @ x - b, np.zeros(2), jacobian, tol=1e-12, jacobian_inverse=np.linalg.inv(A)
    )
    assert np.abs(A @ x - b).max() <= 1e-12
    assert not calls  # the exact step passes the gate


def test_undeclared_quartic_still_takes_damped_newton(monkeypatch):
    quartic = sf.SaddleProblem(
        n=1,
        m=1,
        value=lambda x, y: 0.25 * float(x @ x) ** 2,
        grad_x=lambda x, y: x**3,
        grad_y=lambda x, y: np.zeros(1),
    )
    fd_calls = []
    fd = inner_mod.fd_jacobian
    monkeypatch.setattr(inner_mod, "fd_jacobian", lambda *a, **k: fd_calls.append(1) or fd(*a, **k))
    sur = sf.proximal_surrogate(quartic, 1.0)
    assert sur._jacobian_inverse is None
    x_t = sur.minimizer([1.0], [0.0], x0=np.array([0.0]))[0]
    assert x_t == pytest.approx(bisect_root(lambda t: t**3 + t - 1.0, 0.0, 1.0), abs=1e-9)
    assert len(fd_calls) >= 3  # several damped Newton iterations
    capped = sf.proximal_surrogate(
        quartic, 1.0, sf.InnerSolveConfig(tol=1e-12, max_iters=2)
    )
    with pytest.raises(InnerSolveError) as err:
        capped.minimizer([1.0], [0.0], x0=np.array([37.0]))
    assert err.value.residual > 0.0


def test_declaration_needs_a_hessian_oracle():
    with pytest.raises(ValueError, match="hess_constant"):
        sf.ConvexObjective(dim=1, value=lambda x: 0.0, grad=lambda x: np.zeros(1), hess_constant=True)
    with pytest.raises(ValueError, match="hess_constant"):
        sf.SaddleProblem(
            n=1, m=1, value=lambda x, y: 0.0, grad_x=lambda x, y: np.zeros(1),
            grad_y=lambda x, y: np.zeros(1), hess_constant=True,
        )


def _declared_hessians(rng):
    """(name, Hessian callable of one point argument) of every declaring builder."""
    out = []
    quad = sf.make_quadratic_saddle(1.0, 2.0, rng.standard_normal((2, 3)))
    out += [("quadratic_saddle.hess_xx", quad, lambda p, z: p.hess_xx(z[:2], z[2:5]))]
    out += [("quadratic_saddle.hess_yy", quad, lambda p, z: p.hess_yy(z[:2], z[2:5]))]
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    bundle = sf.make_qp_affine(Q, np.ones(2), np.eye(2), np.zeros(2))
    out += [("qp_affine.f", bundle.f, lambda f, z: f.hess(z[:2]))]
    lag = sf.qp_lagrangian(bundle)
    out += [("qp_lagrangian.hess_xx", lag, lambda p, z: p.hess_xx(z[:2], z[2:4]))]
    out += [("qp_lagrangian.hess_yy", lag, lambda p, z: p.hess_yy(z[:2], z[2:4]))]
    sep = sf.make_separable_qp(Q, np.zeros(2), np.eye(1), np.zeros(1), np.eye(2), np.ones((2, 1)), np.zeros(2))
    out += [("separable.f_s", sep.f_s, lambda f, z: f.hess(z[:2]))]
    out += [("separable.f_c", sep.f_c, lambda f, z: f.hess(z[:1]))]
    lasso = sf.make_lasso(rng.standard_normal((5, 3)), rng.standard_normal(5), 0.3)
    out += [("lasso.fhat", lasso.fhat, lambda f, z: f.hess(z[:3]))]
    out += [("lasso_reformulate.f", lasso.f, lambda f, z: f.hess(z[:9]))]
    pre = sf.precondition(lasso.f, lasso.A, np.zeros(9), eta=1.0, alpha=0.5 / lasso.l, y_set=lasso.y_set)
    out += [("precondition.hess_xx", pre.problem, lambda p, z: p.hess_xx(z[:9], z[9:18]))]
    out += [("precondition.hess_yy", pre.problem, lambda p, z: p.hess_yy(z[:9], z[9:18]))]
    return out


def test_declaring_builders_return_one_hessian_everywhere():
    rng = np.random.default_rng(47)
    for name, owner, hess in _declared_hessians(rng):
        assert owner.hess_constant, name
        first = hess(owner, 5.0 * rng.standard_normal(18))
        for _ in range(2):
            assert np.array_equal(hess(owner, 5.0 * rng.standard_normal(18)), first), name
