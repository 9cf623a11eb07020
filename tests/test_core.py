import tracemalloc

import numpy as np
import pytest

import saddleflow as sf
from saddleflow.core import DimensionMismatchError

from helpers import check_gradients, saddle_inequality_check


def _quadratic_cross():
    # S = 0.5 x^2 - 0.5 y^2 + x y
    return sf.SaddleProblem(
        n=1,
        m=1,
        value=lambda x, y: 0.5 * float(x @ x) - 0.5 * float(y @ y) + float(x @ y),
        grad_x=lambda x, y: x + y,
        grad_y=lambda x, y: -y + x,
    )


def test_grad_bilinear_example():
    p = sf.make_bilinear([[1.0]])
    gx, gy = sf.grad(p, [1.0, 2.0])
    assert gx[0] == 2.0 and gy[0] == 1.0


def test_grad_quadratic_example():
    p = sf.make_quadratic_saddle(1.0, 1.0, [[0.0]])
    gx, gy = sf.grad(p, [3.0, -4.0])
    assert gx[0] == 3.0 and gy[0] == 4.0


def test_grad_lp_lagrangian_example():
    p = sf.make_lp(sf.LinearProgram(c=[1.0], A=[[1.0]], b=[0.0]))
    gx, gy = sf.grad(p, [2.0, 3.0])
    assert gx[0] == 4.0 and gy[0] == 2.0


def test_grad_dimension_mismatch_names_the_stacked_length():
    p = sf.make_bilinear([[1.0]])
    for z in ([1.0], [1.0, 2.0, 3.0], np.zeros((2, 1))):
        with pytest.raises(DimensionMismatchError, match="expects length 2"):
            sf.grad(p, z)


def test_stationarity_residual_at_saddle():
    assert sf.stationarity_residual(_quadratic_cross(), [0.0, 0.0]) == 0.0


def test_stationarity_residual_bilinear():
    p = sf.make_bilinear([[1.0]])
    assert sf.stationarity_residual(p, [1.0, 0.0]) == pytest.approx(1.0)


def test_stationarity_residual_projected_lp_boundary():
    # at y = 0 on the orthant face the outward dual component is removed
    p = sf.make_lp(sf.LinearProgram(c=[1.0], A=[[1.0]], b=[0.0]))
    z = np.array([-1.0, 0.0])
    dom = sf.full_domain(p)
    gy = p.grad_y(z[:1], z[1:])
    assert gy[0] == -1.0
    projected = sf.project_vector_field(dom, z, np.array([-1.0, gy[0]]))
    assert projected[1] == 0.0
    assert sf.stationarity_residual(p, z, feasible=dom) == pytest.approx(1.0)


def test_stationarity_residual_outside_set_raises():
    p = sf.make_lp(sf.LinearProgram(c=[1.0], A=[[1.0]], b=[0.0]))
    with pytest.raises(ValueError, match="outside"):
        sf.stationarity_residual(p, [0.0, -1.0], feasible=sf.full_domain(p))


def test_saddle_inequality_check_quadratic():
    p = sf.make_quadratic_saddle(1.0, 1.0, [[0.0]])
    assert saddle_inequality_check(p, [0.0, 0.0], samples=200, radius=2.0)


def test_saddle_inequality_check_bilinear_origin():
    p = sf.make_bilinear([[1.0]])
    assert saddle_inequality_check(p, [0.0, 0.0], samples=200, radius=1.0)


def test_saddle_inequality_check_rejects_non_saddle():
    p = sf.make_bilinear([[1.0]])
    assert not saddle_inequality_check(p, [1.0, 1.0], samples=200, radius=1.0)


def test_saddle_inequality_check_validates_args():
    p = sf.make_bilinear([[1.0]])
    with pytest.raises(ValueError):
        saddle_inequality_check(p, [0.0, 0.0], samples=0)
    with pytest.raises(ValueError):
        saddle_inequality_check(p, [0.0, 0.0], radius=0.0)


def test_convexity_meta_invariants():
    with pytest.raises(ValueError, match="mu"):
        sf.ConvexityMeta(mu=2.0, l=1.0)
    with pytest.raises(ValueError, match="kappa"):
        sf.ConvexityMeta(kappa=2.0, sigma=1.0)
    with pytest.raises(ValueError):
        sf.ConvexityMeta(q=-0.5)


def test_full_domain_composition():
    p = sf.make_lp(sf.LinearProgram(c=[1.0], A=[[1.0], [2.0]], b=[0.0, 1.0]))
    dom = sf.full_domain(p)
    assert dom.dim == 3
    assert np.isinf(dom.lower[0]) and dom.lower[1] == 0.0 and dom.lower[2] == 0.0
    assert sf.full_domain(sf.make_bilinear([[1.0]])) is None


def test_builders_pass_gradient_checks():
    rng = np.random.default_rng(3)
    problems = [
        sf.make_bilinear(rng.standard_normal((2, 3))),
        sf.make_quadratic_saddle(1.0, 2.0, rng.standard_normal((3, 2))),
        sf.make_lp(sf.LinearProgram(c=[1.0, -1.0], A=[[1.0, 2.0]], b=[0.5])),
        _quadratic_cross(),
    ]
    for problem in problems:
        check_gradients(problem, rng, probes=10)


def test_zero_residual_implies_saddle_inequality():
    rng = np.random.default_rng(4)
    builders = [
        sf.make_bilinear(rng.standard_normal((2, 2))),
        sf.make_quadratic_saddle(0.7, 1.3, rng.standard_normal((2, 2))),
    ]
    for problem in builders:
        z_star = problem.saddle
        assert sf.stationarity_residual(problem, z_star) <= 1e-12
        assert saddle_inequality_check(problem, z_star, samples=100, radius=1.5)


def test_a_declared_hessian_is_read_only_and_a_writable_one_is_never_aliased():
    oracles = dict(value=lambda x, y: 0.0, grad_x=lambda x, y: np.zeros(1), grad_y=lambda x, y: np.zeros(1))
    H = np.array([[1.0, 2.0], [-2.0, 0.0]])
    problem = sf.SaddleProblem(n=1, m=1, hessian=H, **oracles)
    assert problem.hessian is not H and not np.shares_memory(problem.hessian, H)
    H[0, 0] = 5.0  # the caller's array stays its own
    assert problem.hessian[0, 0] == 1.0 and not problem.hessian.flags.writeable
    frozen = np.array([[1.0, 2.0], [-2.0, 0.0]])
    frozen.flags.writeable = False
    assert sf.SaddleProblem(n=1, m=1, hessian=frozen, **oracles).hessian is frozen  # adopted
    big = np.zeros((3, 3))
    big.flags.writeable = False
    for other in (big[:2, :2], frozen.astype(np.float32), frozen.tolist()):  # a view, float32, a list
        hessian = sf.SaddleProblem(n=1, m=1, hessian=other, **oracles).hessian
        assert hessian is not other and hessian.dtype == np.float64 and not hessian.flags.writeable
        assert not np.shares_memory(hessian, big)
    for problem in (sf.make_bilinear(np.ones((2, 3))), sf.augment(sf.make_bilinear(np.ones((2, 3))), 1.0)):
        assert problem.hessian.base is None and not problem.hessian.flags.writeable


def test_augmenting_a_large_bilinear_problem_copies_no_hessian():
    # dim 600 after augmentation: a 2.9 MB hessian and the base's 0.7 MB are
    # kept; a copy of the new hessian on adoption peaked at 2x what was kept
    B = np.random.default_rng(50).standard_normal((150, 150))
    sf.augment(sf.make_bilinear(B), 1.0)  # warm: imports and first-call caches
    tracemalloc.start()
    try:
        base = sf.make_bilinear(B)
        aug = sf.augment(base, 1.0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert aug.dim == 600 and kept >= aug.hessian.nbytes + base.hessian.nbytes
    assert peak <= 1.3 * kept
