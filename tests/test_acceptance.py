"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines; tolerances are fixed here and nowhere else.
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq

import saddleflow as sf

from helpers import (
    assert_batch_matches_the_oracle,
    lasso_saddle,
    preconditioned_pd,
    qp_kkt_oracle,
    rate_bound_reduced,
    run_until,
    saddle_inequality_check,
)


def _report(name: str, detail: str) -> None:
    print(f"\n[{name}] PASS: {detail}")


# ---------------------------------------------------------------------------
# 1. bilinear divergence/convergence split


def test_criterion_01_bilinear_split():
    start = time.perf_counter()
    bil = sf.make_bilinear([[1.0]])

    flow = sf.standard_flow(bil)
    traj = sf.integrate(
        flow, [1.0, 0.0], sf.IntegratorConfig(step=1e-3, horizon=100.0, record_every=100)
    )
    drift = float(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0).max())
    assert drift <= 1e-6

    aug = sf.standard_flow(sf.augment(bil, 0.1))
    z, elapsed, residual = run_until(
        aug,
        np.array([1.0, 0.0, 0.0, 0.0]),
        sf.IntegratorConfig(step=0.05, horizon=100.0, record_every=100),
        tol=1e-6,
        max_chunks=20,
    )
    assert elapsed <= 2000.0
    assert residual <= 1e-6
    aug_problem = sf.augment(bil, 0.1)
    assert saddle_inequality_check(aug_problem, z, samples=200, radius=1.0, tol=1e-5)

    runtime = time.perf_counter() - start
    assert runtime < 10.0
    _report(
        "criterion-01",
        f"orbit drift {drift:.2e} <= 1e-6; augmented residual {residual:.2e} "
        f"at t={elapsed:g} <= 2000; limit is a saddle; runtime {runtime:.1f}s < 10s",
    )


# ---------------------------------------------------------------------------
# 2. strong convexity-strong concavity rate


def test_criterion_02_strong_rate():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    B = rng.standard_normal((3, 2))
    B *= 0.8 / np.linalg.svd(B, compute_uv=False)[0]
    problem = sf.make_quadratic_saddle(1.0, 2.0, B)
    bound = sf.rate_bound_strong(1.0, 2.0)
    flow = sf.standard_flow(problem)
    traj = sf.integrate(
        flow, np.ones(5), sf.IntegratorConfig(step=1e-3, horizon=24.0, record_every=10)
    )
    rep = sf.fit_rate(sf.distance_series(traj, flow.equilibrium_hint), c_bound=bound)
    assert rep.c_fit >= 0.95 * bound
    assert rep.r_squared >= 0.999
    runtime = time.perf_counter() - start
    assert runtime < 5.0
    _report(
        "criterion-02",
        f"c_fit={rep.c_fit:.4f} >= 0.95*min(mu,q)={0.95 * bound}; "
        f"r^2={rep.r_squared:.5f} >= 0.999; runtime {runtime:.1f}s < 5s",
    )


# ---------------------------------------------------------------------------
# 3. proximal rate bound across regularization weights


def test_criterion_03_proximal_rate():
    start = time.perf_counter()
    bundle = sf.make_qp_affine(np.diag([1.0, 2.0]), np.zeros(2), np.eye(2), np.zeros(2))
    S = sf.qp_lagrangian(bundle, nonneg_y=False)  # S = 0.5 x'Qx + y'Bx
    assert (S.meta.mu, S.meta.l, S.meta.kappa) == (1.0, 2.0, 1.0)
    rho_star, _ = sf.optimal_rho(1.0, 2.0, 1.0)
    details = []
    for rho in (0.5, rho_star, 2.0):
        bound = sf.rate_bound_proximal(1.0, 2.0, 1.0, rho)
        surrogate = sf.proximal_surrogate(S, rho)
        flow = sf.standard_flow(surrogate.problem)
        horizon = min(90.0, 23.0 / bound)
        traj = sf.integrate(
            flow, np.ones(4), sf.IntegratorConfig(step=4e-3, horizon=horizon, record_every=10)
        )
        rep = sf.fit_rate(sf.distance_series(traj, flow.equilibrium_hint), c_bound=bound)
        assert rep.c_fit >= 0.9 * bound, f"rho={rho}: {rep.c_fit} < 0.9*{bound}"
        details.append(f"rho={rho:.3g}: c_fit={rep.c_fit:.3f} >= 0.9*{bound:.3f}")
    runtime = time.perf_counter() - start
    assert runtime < 30.0
    _report("criterion-03", "; ".join(details) + f"; runtime {runtime:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 4. optimal regularization weight


def test_criterion_04_optimal_rho():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        mu, kappa = np.exp(rng.uniform(-2.5, 2.5, size=2))
        l = mu * np.exp(rng.uniform(0.0, 2.5))
        rho, c = sf.optimal_rho(mu, l, kappa)
        ref = brentq(
            lambda r: mu * r / (mu + r) - kappa / (l + r), 1e-12, 1e12, xtol=1e-13, rtol=8.9e-16
        )
        worst = max(worst, abs(rho - ref) / (1.0 + ref))
        assert abs(rho - ref) <= 1e-8 * (1.0 + ref)
        assert c < mu
    _report(
        "criterion-04",
        f"100 random triples: worst |rho - oracle| (scaled) {worst:.2e} <= 1e-8, c* < mu on all",
    )


# ---------------------------------------------------------------------------
# 5. preconditioned rate and envelope


def test_criterion_05_preconditioned():
    start = time.perf_counter()
    bundle = sf.make_qp_affine(np.eye(1), np.zeros(1), np.eye(1), np.array([-1.0]))
    assert (bundle.f.mu, bundle.f.l, bundle.kappa, bundle.sigma) == (1.0, 1.0, 1.0, 1.0)
    eta, alpha = sf.precond_params_pick(1.0, 1.0, 1.0)
    pre = sf.precondition(bundle.f, bundle.A, bundle.b, eta, alpha)

    x_star, y_star = qp_kkt_oracle(np.eye(1), np.zeros(1), np.eye(1), np.array([-1.0]), eta=eta)
    w_star = np.concatenate((x_star + alpha * y_star, y_star))
    z_star = np.concatenate((x_star, y_star))

    uy = sf.standard_flow(pre)
    traj_uy = sf.integrate(
        uy, np.array([1.0, 0.0]), sf.IntegratorConfig(step=1e-3, horizon=22.0, record_every=10)
    )
    rep = sf.fit_rate(sf.distance_series(traj_uy, w_star), c_bound=1.0)
    assert rep.c_fit >= 0.9 * 1.0

    xy = preconditioned_pd(bundle.f, bundle.A, bundle.b, eta, alpha)
    traj_xy = sf.integrate(
        xy, np.array([1.0, 0.0]), sf.IntegratorConfig(step=1e-3, horizon=22.0, record_every=10)
    )
    K = sf.precond_K(bundle.sigma, alpha)
    assert sf.envelope_check(sf.distance_series(traj_xy, z_star), c=1.0, K=K)

    _, c_star = sf.optimal_rho(1.0, 1.0, 1.0)
    assert c_star < rep.c_fit

    runtime = time.perf_counter() - start
    _report(
        "criterion-05",
        f"uy c_fit={rep.c_fit:.4f} >= 0.9*mu; xy envelope holds with K={K}; "
        f"proximal c*={c_star} < c_fit; runtime {runtime:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. reduced rate


def test_criterion_06_reduced_rate():
    start = time.perf_counter()
    sep = sf.make_separable_qp(
        np.eye(1), np.zeros(1), np.eye(1), np.zeros(1),
        np.eye(1), np.eye(1), np.array([-1.0]),
    )
    bound = rate_bound_reduced(1.0, 1.0, 1.0)
    reduced = sf.reduce(sep)
    flow = sf.standard_flow(reduced.problem)
    traj = sf.integrate(
        flow, np.array([1.0, 0.0]), sf.IntegratorConfig(step=2e-3, horizon=25.0, record_every=10)
    )
    z_star = sf.detect_equilibrium(flow, traj, 1e-8)
    assert z_star is not None
    rep = sf.fit_rate(sf.distance_series(traj, z_star), c_bound=bound)
    assert rep.c_fit >= 0.9 * bound
    runtime = time.perf_counter() - start
    assert runtime < 10.0
    _report(
        "criterion-06",
        f"c_fit={rep.c_fit:.4f} >= 0.9*min(mu_c, kappa_s/l_s)={0.9 * bound}; "
        f"runtime {runtime:.1f}s < 10s",
    )


# ---------------------------------------------------------------------------
# 7. min-cost network flow


def test_criterion_07_min_cost_flow():
    start = time.perf_counter()
    net = sf.demo_network()
    assert (net.num_nodes, net.num_edges) == (5, 7)
    oracle = sf.lp_oracle(sf.min_cost_flow_lp(net))
    assert oracle.status == "optimal"

    problem, recover = sf.make_min_cost_flow(net)
    flow = sf.standard_flow(sf.augment(problem, 0.5))
    z, elapsed, residual = run_until(
        flow,
        np.ones(flow.dim),
        sf.IntegratorConfig(step=0.01, horizon=100.0, record_every=100),
        tol=1e-6,
        max_chunks=12,
    )
    _, objective = recover(z)
    rel = abs(objective - oracle.value) / abs(oracle.value)
    assert rel <= 1e-4
    runtime = time.perf_counter() - start
    _report(
        "criterion-07",
        f"residual {residual:.2e} <= 1e-6 at t={elapsed:g}; objective {objective:.6f} vs "
        f"oracle {oracle.value:.6f} (rel err {rel:.2e} <= 1e-4); runtime {runtime:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. Lasso pipeline


def _lasso_data(seed=7, n=8, m=12, smin=0.8, smax=1.2):
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((m, m)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = U[:, :n] @ np.diag(np.linspace(smin, smax, n)) @ V.T
    return A, rng.standard_normal(m)


def test_criterion_08_lasso_pipeline():
    start = time.perf_counter()
    A, b = _lasso_data()
    details = []

    # solution match at both penalty levels
    for lam in (0.1, 1.0):
        bundle = sf.make_lasso(A, b, lam)
        x_oracle = sf.lasso_oracle(bundle, tol=1e-12)
        flow = bundle.dynamics(alpha=1.0 / bundle.l, rho=1.0)
        z, _, _ = run_until(
            flow,
            np.zeros(flow.dim),
            sf.IntegratorConfig(step=0.01, horizon=30.0, record_every=100),
            tol=1e-7,
            max_chunks=8,
        )
        xhat = bundle.recover(1.0 / bundle.l, z)[: bundle.n]
        err = float(np.abs(xhat - x_oracle).max())
        assert err <= 1e-5, f"lam={lam}: |xhat - oracle|_inf = {err:.2e}"
        details.append(f"lam={lam}: err={err:.1e}")

    # decay rate nondecreasing in alpha (ties within 5% fit noise allowed)
    bundle = sf.make_lasso(A, b, 0.1)
    rates = []
    for scale in (0.5, 1.0, 1.5):
        alpha = scale / bundle.l
        _, w_star = lasso_saddle(bundle, alpha)
        flow = bundle.dynamics(alpha, rho=1.0)
        traj = sf.integrate(
            flow, np.zeros(flow.dim), sf.IntegratorConfig(step=0.01, horizon=45.0, record_every=10)
        )
        rates.append(sf.fit_rate(sf.distance_series(traj, w_star)).c_fit)
    for i in range(len(rates) - 1):
        assert rates[i + 1] >= 0.95 * rates[i], f"rates not nondecreasing: {rates}"
    runtime = time.perf_counter() - start
    _report(
        "criterion-08",
        "; ".join(details)
        + f"; rates over alpha*l in (0.5, 1, 1.5): {[round(r, 4) for r in rates]} "
        f"nondecreasing (5% ties); runtime {runtime:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. certificate sandwich


def test_criterion_09_certificate_sandwich():
    start = time.perf_counter()
    reports = {}

    # strict convexity-concavity certificate on the standard flow
    rng = np.random.default_rng(42)
    B = rng.standard_normal((3, 2))
    B *= 0.8 / np.linalg.svd(B, compute_uv=False)[0]
    quad = sf.make_quadratic_saddle(1.0, 2.0, B)
    flow = sf.standard_flow(quad)
    traj = sf.integrate(flow, np.ones(5), sf.IntegratorConfig(step=1e-3, horizon=15.0, record_every=10))
    cert = sf.cert_strict_cc(quad, quad.saddle)
    reports["strict_cc"] = sf.eval_certificate(cert, traj, flow=flow)

    # proximal certificate on the proximal flow
    bundle = sf.make_qp_affine(np.diag([1.0, 2.0]), np.zeros(2), np.eye(2), np.zeros(2))
    S = sf.qp_lagrangian(bundle, nonneg_y=False)
    surrogate = sf.proximal_surrogate(S, 1.0)
    pflow = sf.standard_flow(surrogate.problem)
    ptraj = sf.integrate(pflow, np.ones(4), sf.IntegratorConfig(step=4e-3, horizon=20.0, record_every=10))
    pcert = sf.cert_proximal(surrogate, np.zeros(4))
    reports["proximal"] = sf.eval_certificate(pcert, ptraj, flow=pflow)

    # augmented certificate on the augmented flow
    bil = sf.make_bilinear([[1.0]])
    aflow = sf.standard_flow(sf.augment(bil, 0.5))
    atraj = sf.integrate(
        aflow, np.array([1.0, 0.0, 0.0, 0.0]), sf.IntegratorConfig(step=0.01, horizon=40.0, record_every=10)
    )
    acert = sf.cert_augmented(bil, 0.5, [0.0, 0.0])
    reports["augmented"] = sf.eval_certificate(acert, atraj, flow=aflow)

    # each certificate takes its batch route, which matches its oracle forms
    # at every recorded state, not only at the three states it checks
    for c, t in ((cert, traj), (pcert, ptraj), (acert, atraj)):
        assert_batch_matches_the_oracle(c, t)
    for label, rep in reports.items():
        assert rep.route == "batch", label
        assert rep.min_entry.min() >= -1e-9, f"{label}: negative certificate entry"
        assert rep.max_bracket_violation <= 1e-9, f"{label}: sandwich violated"
        assert not rep.observability_violated
    runtime = time.perf_counter() - start
    summary = ", ".join(
        f"{label}: min={rep.min_entry.min():.1e}, viol={rep.max_bracket_violation:.1e}"
        for label, rep in reports.items()
    )
    _report("criterion-09", summary + f"; runtime {runtime:.1f}s")


# ---------------------------------------------------------------------------
# 10. Lyapunov monotonicity across all convex-concave flows


def test_criterion_10_lyapunov_monotonicity():
    start = time.perf_counter()
    runs = []

    rng = np.random.default_rng(42)
    B = rng.standard_normal((3, 2))
    B *= 0.8 / np.linalg.svd(B, compute_uv=False)[0]
    quad = sf.make_quadratic_saddle(1.0, 2.0, B)
    flow = sf.standard_flow(quad)
    runs.append(("standard", flow, np.ones(5), flow.equilibrium_hint, 10.0, 1e-3))

    bil = sf.make_bilinear([[1.0]])
    aug = sf.standard_flow(sf.augment(bil, 0.5))
    z_lim, _, _ = run_until(
        aug, np.array([1.0, 0.0, 0.0, 0.0]),
        sf.IntegratorConfig(step=0.02, horizon=50.0, record_every=100), 1e-9,
    )
    runs.append(("augmented", aug, np.array([1.0, 0.0, 0.0, 0.0]), z_lim, 25.0, 5e-3))

    bundle = sf.make_qp_affine(np.diag([1.0, 2.0]), np.zeros(2), np.eye(2), np.zeros(2))
    S = sf.qp_lagrangian(bundle, nonneg_y=False)
    surrogate = sf.proximal_surrogate(S, 1.0)
    pflow = sf.standard_flow(surrogate.problem)
    runs.append(("proximal", pflow, np.ones(4), pflow.equilibrium_hint, 15.0, 4e-3))

    lp = sf.LinearProgram(c=[1.0, 1.0], A=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], b=[-1.0, -0.5, 3.0])
    lp_flow = sf.standard_flow(sf.augment(sf.make_lp(lp), 0.5))
    z_lim, _, _ = run_until(
        lp_flow, np.ones(lp_flow.dim),
        sf.IntegratorConfig(step=0.02, horizon=80.0, record_every=100), 1e-8,
    )
    runs.append(("augmented_pd_lp", lp_flow, np.ones(lp_flow.dim), z_lim, 30.0, 5e-3))

    qp = sf.make_qp_affine(np.eye(1), np.zeros(1), np.eye(1), np.array([-1.0]))
    eta, alpha = sf.precond_params_pick(1.0, 1.0, 1.0)
    pre = sf.precondition(qp.f, qp.A, qp.b, eta, alpha)
    x_s, y_s = qp_kkt_oracle(np.eye(1), np.zeros(1), np.eye(1), np.array([-1.0]), eta=eta)
    uy = sf.standard_flow(pre)
    runs.append(("preconditioned_uy", uy, np.array([1.0, 0.0]),
                 np.concatenate((x_s + alpha * y_s, y_s)), 15.0, 1e-3))

    sep = sf.make_separable_qp(np.eye(1), np.zeros(1), np.eye(1), np.zeros(1),
                               np.eye(1), np.eye(1), np.array([-1.0]))
    reduced = sf.reduce(sep)
    rflow = sf.standard_flow(reduced.problem)
    z_lim, _, _ = run_until(
        rflow, np.array([1.0, 0.0]),
        sf.IntegratorConfig(step=0.002, horizon=30.0, record_every=100), 1e-9,
    )
    runs.append(("reduced", rflow, np.array([1.0, 0.0]), z_lim, 15.0, 2e-3))

    A, b = _lasso_data()
    lbundle = sf.make_lasso(A, b, 0.1)
    lflow = lbundle.dynamics(alpha=1.0 / lbundle.l, rho=1.0)
    _, w_star = lasso_saddle(lbundle, 1.0 / lbundle.l)
    runs.append(("lasso", lflow, np.zeros(lflow.dim), w_star, 15.0, 1e-2))

    worst = {}
    for label, fl, z0, z_star, horizon, step in runs:
        traj = sf.integrate(fl, z0, sf.IntegratorConfig(step=step, horizon=horizon, record_every=10))
        inc = sf.max_increment(sf.lyapunov_series(traj, z_star))
        assert inc <= 1e-8, f"{label}: Lyapunov increment {inc:.2e}"
        worst[label] = inc
    runtime = time.perf_counter() - start
    _report(
        "criterion-10",
        "max V-increment per flow: "
        + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
        + f" (all <= 1e-8); runtime {runtime:.1f}s",
    )


# ---------------------------------------------------------------------------
# 11. projection law


def test_criterion_11_projection_law():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = -np.inf
    for _ in range(100_000):
        dim = int(rng.integers(1, 5))
        lower = np.where(rng.random(dim) < 0.3, -np.inf, rng.uniform(-2.0, 0.0, dim))
        upper = np.where(rng.random(dim) < 0.3, np.inf, rng.uniform(0.5, 2.0, dim))
        fs = sf.FeasibleSet(lower, upper)
        p = sf.project_point(fs, rng.uniform(-3.0, 3.0, dim))
        p_star = sf.project_point(fs, rng.uniform(-3.0, 3.0, dim))
        s = rng.uniform(-4.0, 4.0, dim)
        proj = sf.project_vector_field(fs, p, s)
        val = float((p_star - p) @ (s - proj))
        worst = max(worst, val)
        assert val <= 1e-12

    # limit consistency at decreasing offsets
    for _ in range(300):
        dim = int(rng.integers(1, 5))
        lower = rng.uniform(-2.0, 0.0, dim)
        upper = rng.uniform(0.5, 2.0, dim)
        fs = sf.FeasibleSet(lower, upper)
        p = sf.project_point(fs, rng.uniform(-3.0, 3.0, dim))
        s = rng.uniform(-4.0, 4.0, dim)
        proj = sf.project_vector_field(fs, p, s)
        errs = [
            float(np.linalg.norm((sf.project_point(fs, p + d * s) - p) / d - proj))
            for d in (1e-4, 1e-6, 1e-8)
        ]
        assert errs[1] <= errs[0] + 1e-7
        assert errs[2] <= errs[1] + 1e-7
        assert errs[2] <= 1e-6
    runtime = time.perf_counter() - start
    _report(
        "criterion-11",
        f"inner-product law on 1e5 tuples (worst {worst:.2e} <= 1e-12); "
        f"limit consistency on 300 cases; runtime {runtime:.1f}s",
    )


# ---------------------------------------------------------------------------
# 12. gradient hygiene


def test_criterion_12_gradient_hygiene():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    net = sf.demo_network()
    mcf_problem, _ = sf.make_min_cost_flow(net)
    A_data, b_data = _lasso_data()
    lasso_bundle = sf.make_lasso(A_data, b_data, 0.5)
    qp = sf.make_qp_affine(
        np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([0.5, -1.0]),
        np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([1.0, 0.5]),
    )
    sep = sf.make_separable_qp(
        np.diag([1.0, 2.0]), np.ones(2), np.eye(1), np.zeros(1),
        np.array([[1.0, 0.5]]), np.array([[1.0]]), np.array([0.3]),
    )
    builders = {
        "bilinear": sf.make_bilinear(rng.standard_normal((2, 3))),
        "quadratic_saddle": sf.make_quadratic_saddle(1.0, 2.0, rng.standard_normal((3, 2))),
        "lp": sf.make_lp(sf.LinearProgram(c=[1.0, -2.0], A=[[1.0, 1.0], [0.5, -1.0]], b=[1.0, 0.0])),
        "min_cost_flow": mcf_problem,
        "qp_lagrangian": sf.qp_lagrangian(qp),
        "separable_lagrangian": sf.qp_lagrangian(sf.separable_qp_bundle(sep)),
        "lasso_datafit": sf.SaddleProblem(
            n=lasso_bundle.n, m=1,
            value=lambda x, y: lasso_bundle.fhat.value(x),
            grad_x=lambda x, y: lasso_bundle.fhat.grad(x),
            grad_y=lambda x, y: np.zeros(1),
        ),
    }
    from helpers import check_gradients

    for label, problem in builders.items():
        check_gradients(problem, rng, probes=100, tol=1e-6)
    runtime = time.perf_counter() - start
    _report(
        "criterion-12",
        f"{len(builders)} builders x 100 probes at 1e-6 relative; runtime {runtime:.1f}s",
    )
