from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import saddleflow as sf

from helpers import assert_batch_matches_the_oracle, rate_bound_precond, rate_bound_reduced


def _pure_quadratic():
    # S = 0.5 x^2 - 0.5 y^2
    return sf.make_quadratic_saddle(1.0, 1.0, [[0.0]])


def _coupled_quadratic():
    return sf.SaddleProblem(
        n=1,
        m=1,
        value=lambda x, y: 0.5 * float(x @ x) + float(y @ x),
        grad_x=lambda x, y: x + y,
        grad_y=lambda x, y: x.copy(),
        saddle=np.zeros(2),
        hess_xx=lambda x, y: np.eye(1),
    )


# ---------------------------------------------------------------------------
# certificates


def test_cert_strict_cc_values():
    cert = sf.cert_strict_cc(_pure_quadratic(), [0.0, 0.0])
    assert np.allclose(cert.value(np.zeros(2)), 0.0)
    assert np.allclose(cert.value(np.array([1.0, 0.0])), [0.0, 0.5])
    assert np.allclose(cert.value(np.array([0.0, 2.0])), [2.0, 0.0])
    assert cert.label == "strict_cc"


def test_cert_strict_cc_rejects_non_saddle():
    with pytest.raises(ValueError, match="not a saddle"):
        sf.cert_strict_cc(_pure_quadratic(), [1.0, 0.0])


def test_cert_proximal_values():
    sur = sf.proximal_surrogate(_coupled_quadratic(), 1.0)
    cert = sf.cert_proximal(sur, [0.0, 0.0])
    assert np.allclose(cert.value(np.zeros(2)), 0.0, atol=1e-12)
    h = cert.value(np.array([1.0, 0.0]))
    assert h[1] == pytest.approx(0.125, abs=1e-9)  # (rho/2)(0.5 - 1)^2
    bracket = cert.bracket(np.array([1.0, 0.0]))
    assert bracket[1] == pytest.approx(0.25, abs=1e-9)  # S~(1,0) - S~(0,0)
    assert bracket[1] >= h[1]
    assert cert.label == "proximal"


def test_cert_augmented_values():
    # the entries do not depend on the base problem, only on its n and m
    bil = sf.make_bilinear([[1.0]])
    cert = sf.cert_augmented(bil, 2.0, [0.0, 0.0])
    diag = np.array([0.7, 0.7, -0.3, -0.3])
    assert np.allclose(cert.value(diag), 0.0)
    state = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(cert.value(state), [0.0, 1.0])  # (rho/2)*1^2
    cert_rho1 = sf.cert_augmented(sf.make_bilinear([[1.0, 1.0]]), 1.0, [0.0, 0.0, 0.0])
    state = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    assert cert_rho1.value(state)[0] == pytest.approx(1.0)  # (1/2)*||(1,1)||^2
    with pytest.raises(ValueError, match="rho"):
        sf.cert_augmented(bil, 0.0, [0.0, 0.0])


def test_cert_augmented_bracket_with_problem():
    bil = sf.make_bilinear([[1.0]])
    cert = sf.cert_augmented(bil, 0.5, [0.0, 0.0])
    state = np.array([1.0, 0.5, -0.5, 0.0])
    h = cert.value(state)
    b = cert.bracket(state)
    # bracket = saddle gaps (here 0 and 0 at y*=0, x*=0... both gaps are
    # -S(x*, y) = 0 and S(x, y*) = 0) plus the mirror terms = h itself
    assert np.all(b >= h - 1e-12)


def test_eval_certificate_pinned_trajectory():
    cert = sf.cert_strict_cc(_pure_quadratic(), [0.0, 0.0])
    traj = sf.Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)))
    report = sf.eval_certificate(cert, traj)
    assert np.allclose(report.min_entry, 0.0)
    assert report.max_bracket_violation == 0.0
    assert np.allclose(report.final_values, 0.0)
    assert report.observability_violated is None


def test_eval_certificate_flags_falsified_observability():
    # a certificate that is identically zero on a non-converging orbit
    zero = sf.Certificate(
        value=lambda s: np.zeros(2), bracket=lambda s: np.zeros(2), label="custom"
    )
    flow = sf.standard_flow(sf.make_bilinear([[1.0]]))
    traj = sf.integrate(flow, [1.0, 0.0], sf.IntegratorConfig(step=0.01, horizon=1.0))
    report = sf.eval_certificate(zero, traj, flow=flow)
    assert report.observability_violated is True
    # and a genuine certificate on a converging run is not flagged
    quad = _pure_quadratic()
    qflow = sf.standard_flow(quad)
    qtraj = sf.integrate(qflow, [1.0, 1.0], sf.IntegratorConfig(step=0.01, horizon=20.0))
    qcert = sf.cert_strict_cc(quad, [0.0, 0.0])
    qreport = sf.eval_certificate(qcert, qtraj, flow=qflow)
    assert qreport.observability_violated is False


def _two_pass_reference(cert, traj, flow=None, zero_tol=1e-6):
    """The evaluator before single-pass: a value pass, then a bracket pass."""
    values = np.array([cert.value(s) for s in traj.states])
    brackets = np.array([cert.bracket(s) for s in traj.states])
    observability = None
    if flow is not None:
        h_gone = float(np.linalg.norm(values[-1])) <= zero_tol**2
        observability = bool(h_gone and flow.residual(traj.final_state) > zero_tol)
    return sf.CertificateReport(
        min_entry=values.min(axis=0),
        max_bracket_violation=float((values - brackets).max()),
        final_values=values[-1],
        observability_violated=observability,
    )


class _Counted:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def test_strict_cc_is_evaluated_once_per_state():
    quad = _pure_quadratic()
    counted = _Counted(quad.value)
    cert = sf.cert_strict_cc(replace(quad, value=counted), [0.0, 0.0])
    assert cert.bracket is cert.value
    traj = sf.integrate(sf.standard_flow(quad), [1.0, 1.0], sf.IntegratorConfig(step=0.01, horizon=0.5))
    k = len(traj)
    counted.calls = 0
    report = sf.eval_certificate(replace(cert, batch=None), traj)
    assert counted.calls == 2 * k  # S(x*, y) and S(x, y*) per state; the bracket pass doubled it
    assert report.max_bracket_violation == 0.0
    # the batch route calls the value oracle only at its three check states
    counted.calls = 0
    report = sf.eval_certificate(cert, traj)
    assert (report.route, report.checked_states, counted.calls) == ("batch", 3, 2 * 3)
    assert report.max_bracket_violation == 0.0


def test_distinct_bracket_still_gets_its_own_pass():
    traj = sf.Trajectory(np.arange(5.0), np.column_stack((np.arange(5.0), np.zeros(5))))
    value = _Counted(lambda s: np.array([0.0, 1e-3]) if s[0] == 2.0 else np.zeros(2))
    bracket = _Counted(lambda s: np.zeros(2))
    report = sf.eval_certificate(sf.Certificate(value=value, bracket=bracket), traj)
    assert (value.calls, bracket.calls) == (5, 5)
    assert report.max_bracket_violation == 1e-3


def _quadratic_case():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((3, 2))
    B *= 0.8 / np.linalg.svd(B, compute_uv=False)[0]
    quad = sf.make_quadratic_saddle(1.0, 2.0, B)
    return quad, sf.standard_flow(quad), np.ones(5)


def _preconditioned_case():
    bundle = sf.make_qp_affine(np.diag([1.0, 2.0]), np.zeros(2), np.eye(2), np.array([-1.0, -1.0]))
    eta, alpha = sf.precond_params_pick(bundle.f.mu, bundle.f.l, bundle.kappa)
    pre = sf.precondition(bundle.f, bundle.A, bundle.b, eta, alpha)
    return pre, sf.standard_flow(pre), np.ones(4)


def _reduced_case():
    # two coupled blocks: the old bracket pass re-solved x_s(y) from other
    # warm starts and reported a violation of 2.2e-16 here
    sep = sf.make_separable_qp(
        np.array([[2.0, 0.5], [0.5, 1.5]]), np.array([0.3, -0.2]),
        np.array([[1.2, 0.3], [0.3, 1.0]]), np.array([-0.1, 0.2]),
        np.array([[1.0, 0.3], [0.2, 0.9]]), np.array([[0.5, -0.2], [0.1, 0.4]]),
        np.array([-0.5, 0.4]),
    )
    reduced = sf.reduce(sep)
    flow = sf.standard_flow(reduced.problem)
    return reduced.problem, flow, np.ones(4)


@pytest.mark.parametrize(
    "case", [_quadratic_case, _preconditioned_case, _reduced_case],
    ids=["quadratic", "preconditioned", "reduced"],
)
def test_single_pass_matches_the_two_pass_evaluator(case):
    problem, flow, z0 = case()
    traj = sf.integrate(flow, z0, sf.IntegratorConfig(step=0.01, horizon=40.0, record_every=5))
    z_star = flow.equilibrium_hint
    if z_star is None:
        z_star = sf.detect_equilibrium(flow, traj, 1e-9)
    cert = sf.cert_strict_cc(problem, z_star)

    # both evaluators start from the same (cleared) warm-start caches
    for cache in flow.caches:
        cache.clear()
    old = _two_pass_reference(cert, traj, flow=flow)
    for cache in flow.caches:
        cache.clear()
    new = sf.eval_certificate(replace(cert, batch=None), traj, flow=flow)

    for field in ("min_entry", "final_values"):
        a, b = getattr(old, field), getattr(new, field)
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), field
    assert new.observability_violated is old.observability_violated is False
    assert new.max_bracket_violation == 0.0
    assert new.route == "oracle"


# ---------------------------------------------------------------------------
# the batch route


@pytest.mark.parametrize("block, i, j", [("xx", 0, 0), ("xx", 2, 1), ("yy", 1, 1), ("yy", 0, 1)])
def test_a_perturbed_hessian_block_fails_the_oracle_check(block, i, j):
    quad, flow, z0 = _quadratic_case()
    traj = sf.integrate(flow, z0, sf.IntegratorConfig(step=0.01, horizon=10.0, record_every=5))
    n, z_star = quad.n, quad.saddle
    H = quad.hessian.copy()
    H[(i, j) if block == "xx" else (n + i, n + j)] += 1e-6
    bad = replace(quad, hessian=H)
    assert sf.eval_certificate(sf.cert_strict_cc(quad, z_star), traj).route == "batch"
    with pytest.raises(ValueError, match="batch certificate off its oracles"):
        sf.eval_certificate(sf.cert_strict_cc(bad, z_star), traj)
    # the augmented certificate takes its gaps from the same base blocks
    x, y = traj.states[:, :n], traj.states[:, n:]
    augmented = sf.Trajectory(traj.times, np.hstack((x, 0.5 * x, y, 0.5 * y)))
    assert sf.eval_certificate(sf.cert_augmented(quad, 0.5, z_star), augmented).route == "batch"
    with pytest.raises(ValueError, match="batch certificate off its oracles"):
        sf.eval_certificate(sf.cert_augmented(bad, 0.5, z_star), augmented)


@pytest.mark.parametrize("i, j", [(0, 0), (1, 0)])
def test_a_perturbed_proximal_inverse_fails_the_oracle_check(i, j):
    # a saddle away from the origin, so that grad_x S(0, y*) is not zero
    bundle = sf.make_qp_affine(np.diag([1.0, 2.0]), np.array([0.5, -0.3]),
                               np.array([[1.0, 0.4], [0.0, 1.0]]), np.array([-1.0, 0.5]))
    surrogate = sf.proximal_surrogate(sf.qp_lagrangian(bundle, nonneg_y=False), 1.0)
    flow = sf.standard_flow(surrogate.problem)
    traj = sf.integrate(flow, np.ones(4), sf.IntegratorConfig(step=0.01, horizon=5.0, record_every=5))
    w_star = flow.equilibrium_hint
    assert np.abs(surrogate.base.grad_x(np.zeros(2), w_star[2:])).min() > 0.1
    cert = sf.cert_proximal(surrogate, w_star)
    assert_batch_matches_the_oracle(cert, traj)
    assert sf.eval_certificate(cert, traj).route == "batch"
    M = surrogate._jacobian_inverse.copy()
    M[i, j] += 1e-6
    with pytest.raises(ValueError, match="batch certificate off its oracles"):
        sf.eval_certificate(sf.cert_proximal(replace(surrogate, _jacobian_inverse=M), w_star), traj)


def test_a_problem_without_hessian_keeps_the_per_state_route():
    problem = _coupled_quadratic()
    assert problem.hessian is None
    traj = sf.integrate(sf.standard_flow(problem), [1.0, 1.0], sf.IntegratorConfig(step=0.01, horizon=1.0))
    counted = _Counted(problem.value)
    cert = sf.cert_strict_cc(replace(problem, value=counted), [0.0, 0.0])
    assert cert.batch is None
    counted.calls = 0
    report = sf.eval_certificate(cert, traj)
    assert (report.route, report.oracle_gap, report.checked_states) == ("oracle", None, 0)
    assert counted.calls == 2 * len(traj)
    surrogate = sf.proximal_surrogate(problem, 1.0)
    pcert = sf.cert_proximal(surrogate, [0.0, 0.0])
    assert pcert.batch is None
    assert sf.eval_certificate(pcert, traj).route == "oracle"


def test_a_bracket_of_the_wrong_shape_is_refused_on_both_routes():
    traj = sf.Trajectory(np.arange(4.0), np.zeros((4, 2)))
    short = lambda s: np.zeros(1)
    cert = sf.Certificate(value=lambda s: np.zeros(2), bracket=short)
    with pytest.raises(ValueError, match=r"certificate brackets have shape \(4, 1\), expected \(4, 2\)"):
        sf.eval_certificate(cert, traj)
    with pytest.raises(ValueError, match=r"certificate values have shape \(4, 1\), expected \(4, 2\)"):
        sf.eval_certificate(replace(cert, value=short, bracket=lambda s: np.zeros(2)), traj)
    # batch rows of the wrong shape, and a batch whose oracle bracket is short
    good = lambda states: np.zeros((len(states), 2))
    with pytest.raises(ValueError, match=r"certificate brackets have shape \(1,\), expected \(4, 2\)"):
        sf.eval_certificate(replace(cert, batch=lambda states: (good(states), np.zeros(1))), traj)
    with pytest.raises(ValueError, match=r"certificate brackets have shape \(3, 1\), expected \(3, 2\)"):
        sf.eval_certificate(replace(cert, batch=lambda states: (good(states), good(states))), traj)


# ---------------------------------------------------------------------------
# rate bounds


def test_rate_bound_strong():
    assert sf.rate_bound_strong(1.0, 2.0) == 1.0
    assert sf.rate_bound_strong(3.0, 3.0) == 3.0
    assert sf.rate_bound_strong(0.5, 10.0) == 0.5
    with pytest.raises(ValueError):
        sf.rate_bound_strong(0.0, 1.0)


def test_rate_bound_proximal():
    assert sf.rate_bound_proximal(1.0, 1.0, 1.0, 1.0) == pytest.approx(0.5)
    assert sf.rate_bound_proximal(1.0, 4.0, 1.0, 1.0) == pytest.approx(0.2)
    assert sf.rate_bound_proximal(2.0, 2.0, 8.0, 2.0) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="l.*mu"):
        sf.rate_bound_proximal(2.0, 1.0, 1.0, 1.0)


def test_rate_bound_proximal_keeps_the_dual_curvature_q():
    assert sf.rate_bound_proximal(1.0, 1.0, 1.0, 1.0, q=2.0) == 0.5  # the primal term binds
    assert sf.rate_bound_proximal(4.0, 4.0, 1.0, 4.0, q=0.5) == pytest.approx(0.625)  # 0.5 + 1/8
    assert sf.rate_bound_proximal(4.0, 4.0, 1.0, 4.0, q=0.0) == sf.rate_bound_proximal(4.0, 4.0, 1.0, 4.0)
    with pytest.raises(ValueError, match="q must be >= 0"):
        sf.rate_bound_proximal(1.0, 1.0, 1.0, 1.0, q=-0.1)


def test_rate_bound_proximal_needs_only_q_plus_kappa_positive():
    assert sf.rate_bound_proximal(1.0, 1.0, 0.0, 1.0, q=2.0) == 0.5
    with pytest.raises(ValueError, match="q \\+ kappa > 0"):
        sf.rate_bound_proximal(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="kappa must be >= 0"):
        sf.rate_bound_proximal(1.0, 1.0, -0.1, 1.0, q=2.0)
    # a wide B (more y than x) has a singular B^T B: kappa = 0, and the
    # surrogate's dual curvature is the base's q
    base = sf.make_quadratic_saddle(1.0, 2.0, [[1.0, -1.0]])
    meta = sf.proximal_surrogate(base, 1.0).problem.meta
    assert base.meta.kappa == 0.0 and meta.q == 2.0
    bound = sf.rate_bound_proximal(base.meta.mu, base.meta.l, base.meta.kappa, 1.0, q=base.meta.q)
    assert bound == min(meta.mu, meta.q) == 0.5


def test_optimal_rho_symmetric_case():
    rho, c = sf.optimal_rho(1.0, 1.0, 1.0)
    assert rho == pytest.approx(1.0, abs=1e-10)
    assert c == pytest.approx(0.5, abs=1e-12)


def test_optimal_rho_closed_form_case():
    rho, c = sf.optimal_rho(1.0, 4.0, 1.0)
    assert rho == pytest.approx((-3.0 + np.sqrt(13.0)) / 2.0, abs=1e-10)
    assert c == pytest.approx(0.232408, abs=1e-6)


def test_optimal_rho_against_brentq_oracle():
    rng = np.random.default_rng(9)
    for _ in range(50):
        mu, kappa = np.exp(rng.uniform(-2.3, 2.3, size=2))
        l = mu * np.exp(rng.uniform(0.0, 2.0))
        rho, c = sf.optimal_rho(mu, l, kappa)
        ref = brentq(
            lambda r: mu * r / (mu + r) - kappa / (l + r), 1e-12, 1e9, xtol=1e-13, rtol=1e-15
        )
        assert abs(rho - ref) <= 1e-8 * (1.0 + ref)
        assert c < mu
        assert sf.rate_bound_proximal(mu, l, kappa, rho) == pytest.approx(c, abs=1e-8)


def test_optimal_rho_is_a_maximum():
    mu, l, kappa = 1.3, 2.7, 0.8
    rho, c = sf.optimal_rho(mu, l, kappa)
    assert sf.rate_bound_proximal(mu, l, kappa, rho * 1.1) < c
    assert sf.rate_bound_proximal(mu, l, kappa, rho * 0.9) < c


def test_rate_bound_precond():
    assert rate_bound_precond(1.0, 1.0, 1.0, 1.5, 1.0) == pytest.approx(1.0)
    assert rate_bound_precond(1.0, 1.0, 1.0, 0.6, 1.0) == pytest.approx(0.2)
    with pytest.raises(ValueError, match="2\\*eta > l\\*alpha"):
        rate_bound_precond(1.0, 1.0, 1.0, 0.4, 1.0)


def test_precond_params_pick():
    eta, alpha = sf.precond_params_pick(1.0, 1.0, 1.0)
    assert (eta, alpha) == (pytest.approx(1.1), pytest.approx(1.0))
    eta, alpha = sf.precond_params_pick(4.0, 1.0, 1.0)
    assert (eta, alpha) == (pytest.approx(2.2), pytest.approx(2.0))


@settings(max_examples=100, deadline=None)
@given(
    mu=st.floats(1e-2, 1e2),
    l_scale=st.floats(1.0, 50.0),
    kappa=st.floats(1e-2, 1e2),
)
def test_precond_pick_always_achieves_mu(mu, l_scale, kappa):
    l = mu * l_scale
    eta, alpha = sf.precond_params_pick(mu, l, kappa)
    assert 2.0 * eta > l * alpha + mu / (kappa * alpha)
    assert rate_bound_precond(mu, l, kappa, eta, alpha) == mu


def test_precond_K():
    assert sf.precond_K(1.0, 1.0) == 3.0
    assert sf.precond_K(0.1, 1.0) == 2.0
    assert sf.precond_K(2.0, 0.5) == 2.0
    with pytest.raises(ValueError):
        sf.precond_K(-1.0, 1.0)


def test_rate_bound_reduced():
    assert rate_bound_reduced(1.0, 1.0, 1.0) == 1.0
    assert rate_bound_reduced(0.5, 2.0, 1.0) == 0.5
    assert rate_bound_reduced(3.0, 1.0, 2.0) == 2.0


def test_bound_monotonicity_sweeps():
    rng = np.random.default_rng(12)
    for _ in range(200):
        mu, kappa, rho = np.exp(rng.uniform(-1.5, 1.5, size=3))
        l = mu * np.exp(rng.uniform(0.0, 1.5))
        base = sf.rate_bound_proximal(mu, l, kappa, rho)
        assert sf.rate_bound_proximal(mu, l * 1.3, kappa, rho) <= base + 1e-15
        assert sf.rate_bound_proximal(mu, l, kappa * 1.3, rho) >= base - 1e-15
        assert sf.rate_bound_strong(mu, kappa) <= sf.rate_bound_strong(mu * 1.3, kappa * 1.3)
        assert rate_bound_reduced(mu, l, kappa) >= rate_bound_reduced(mu, l * 1.3, kappa) - 1e-15

