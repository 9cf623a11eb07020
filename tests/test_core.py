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
