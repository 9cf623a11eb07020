"""A point is one stacked vector z = (x, y) of length n + m, everywhere."""

from dataclasses import replace

import numpy as np
import pytest

import saddleflow as sf
from saddleflow.cli import _build_problem, build_setup, load_config
from saddleflow.certificates import SANDWICH_TOL
from saddleflow.core import DimensionMismatchError


def _qp_problem():
    # a free-dual QP Lagrangian: its KKT saddle is away from the origin
    bundle = sf.make_qp_affine(np.diag([1.0, 2.0, 3.0]), np.array([0.5, -0.3, 0.2]),
                               np.array([[1.0, 0.4, 0.0], [0.0, 1.0, -0.5]]), np.array([-1.0, 0.5]))
    return sf.qp_lagrangian(bundle, nonneg_y=False)


def test_a_point_of_the_wrong_length_is_refused_everywhere():
    problem = _qp_problem()
    surrogate = sf.proximal_surrogate(problem, 1.0)
    calls = {
        "grad": lambda z: sf.grad(problem, z),
        "stationarity_residual": lambda z: sf.stationarity_residual(problem, z),
        "projected stationarity_residual": lambda z: sf.stationarity_residual(
            problem, z, feasible=sf.FeasibleSet.free(problem.dim)),
        "cert_strict_cc": lambda z: sf.cert_strict_cc(problem, z),
        "cert_proximal": lambda z: sf.cert_proximal(surrogate, z),
        "cert_augmented": lambda z: sf.cert_augmented(problem, 0.5, z),
    }
    for name, call in calls.items():
        for z in (np.zeros(problem.dim - 1), np.zeros(problem.dim + 1)):
            with pytest.raises(DimensionMismatchError, match=f"expects length {problem.dim}"):
                call(z)
        call(problem.saddle)  # the right length passes


def test_a_saddle_of_the_wrong_length_fails_at_construction():
    def build(saddle):
        return sf.SaddleProblem(
            n=1, m=2, value=lambda x, y: 0.0, grad_x=lambda x, y: np.zeros(1),
            grad_y=lambda x, y: np.zeros(2), saddle=saddle,
        )

    for saddle in (np.zeros(2), np.zeros(4), np.zeros((1, 3))):
        with pytest.raises(DimensionMismatchError, match="saddle expects length 3"):
            build(saddle)
    with pytest.raises(ValueError):  # the (x*, y*) pair is no longer a form of it
        build((np.zeros(1), np.zeros(2)))
    given = [1.0, 2.0, 3.0]
    saddle = build(given).saddle
    assert saddle.dtype == float and np.array_equal(saddle, given)
    with pytest.raises(ValueError, match="read-only"):
        saddle[0] = 0.0


def test_the_saddle_is_frozen_and_passed_on_as_the_flow_hint():
    problem = _qp_problem()
    assert not problem.saddle.flags.writeable
    assert sf.stationarity_residual(problem, problem.saddle) <= 1e-12
    assert sf.standard_flow(problem).equilibrium_hint is problem.saddle


def test_augment_and_the_proximal_surrogate_carry_the_saddle():
    problem = _qp_problem()
    x, y = problem.saddle[: problem.n], problem.saddle[problem.n :]
    aug = sf.augment(problem, 0.7)
    assert np.array_equal(aug.saddle, np.concatenate((x, x, y, y)))
    assert sf.stationarity_residual(aug, aug.saddle) <= 1e-12
    assert sf.standard_flow(aug).equilibrium_hint is aug.saddle
    surrogate = sf.proximal_surrogate(problem, 0.7)
    assert np.array_equal(surrogate.problem.saddle, problem.saddle)
    assert sf.stationarity_residual(surrogate.problem, surrogate.problem.saddle) <= 1e-12
    assert sf.augment(replace(problem, saddle=None), 0.7).saddle is None


_CONFIG = """
[experiment]
seed = 3

[problem]
kind = {kind}
{extra}
n = 2
m = 3

[algorithm]
kind = {algorithm}
{rho}

[integrator]
step = 0.01
horizon = 1
"""


@pytest.mark.parametrize("kind, algorithm, label", [
    ("quadratic_saddle", "standard", "strict_cc"),
    ("quadratic_saddle", "augmented", "augmented"),
    ("bilinear", "augmented", "augmented"),
    ("quadratic_saddle", "proximal", "proximal"),
])
def test_each_cli_certificate_builder_takes_the_run_state(tmp_path, kind, algorithm, label):
    extra = "mu = 1.0\nq = 2.0" if kind == "quadratic_saddle" else ""
    path = tmp_path / "run.ini"
    rho = "" if algorithm == "standard" else "rho = 0.8"
    path.write_text(_CONFIG.format(kind=kind, extra=extra, algorithm=algorithm, rho=rho))
    setup = build_setup(load_config(path))
    z_star = setup.flow.equilibrium_hint  # what a run hands the builder as z*
    assert z_star.shape == (setup.flow.dim,)
    certificate = setup.cert_builder(z_star)
    assert certificate.label == label
    assert np.abs(certificate.value(z_star)).max() <= 1e-12
    traj = sf.integrate(setup.flow, np.ones(setup.flow.dim), sf.IntegratorConfig(step=0.01, horizon=1.0))
    report = sf.eval_certificate(certificate, traj, flow=setup.flow)
    assert report.min_entry.min() >= 0.0 and report.max_bracket_violation <= SANDWICH_TOL


def test_the_augmented_builder_cuts_the_base_point_from_the_state(tmp_path):
    # S = x^T B y with a 2 x 3 B: every (0, y0) with B y0 = 0 is a saddle, so
    # states (0, 0, y, y_hat) away from the hint show which entries the cut reads
    path = tmp_path / "run.ini"
    path.write_text(_CONFIG.format(kind="bilinear", extra="", algorithm="augmented", rho="rho = 0.8"))
    cfg = load_config(path)
    base, _ = _build_problem(cfg)
    y0 = np.linalg.svd(base.hessian[:2, 2:])[2][-1]  # the null direction of B
    state = np.concatenate((np.zeros(4), y0, y0 + 1.0))  # y_hat is not read
    certificate = build_setup(cfg).cert_builder(state)
    direct = sf.cert_augmented(base, 0.8, np.concatenate((np.zeros(2), y0)))
    probe = np.cos(np.arange(10.0))
    assert np.array_equal(certificate.bracket(probe), direct.bracket(probe))
    assert np.array_equal(certificate.value(probe), direct.value(probe))
    with pytest.raises(ValueError, match="not a saddle point"):
        build_setup(cfg).cert_builder(np.concatenate((np.zeros(4), y0 + 1.0, y0)))
