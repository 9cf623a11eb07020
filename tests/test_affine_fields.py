"""Declared constant Hessians and the affine saddle flows built from them.

A builder whose S is quadratic declares ``SaddleProblem.hessian``, the
constant Jacobian of the stacked gradient (grad_x, grad_y); ``standard_flow``
then evaluates K @ z + k0 instead of the oracles. The proximal surrogate and
the reduced problem of a quadratic base declare theirs too, where each oracle
call runs an inner solve. Each declaration is checked here against central
differences of its own oracles, each affine field against the oracle field of
the same problem with the declaration removed, and every shipped config
against the path it is meant to take.
"""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import saddleflow as sf
import saddleflow._inner as inner_mod
from saddleflow import cli, transforms

from helpers import bench_inputs, cosh_bundle, face_points

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# shipped configs whose field is affine in the state (up to the projection)
CLOSED_FORM = (
    "bilinear_augmented.ini", "bilinear_standard.ini", "lp_augmented.ini",
    "mincostflow_augmented.ini", "qp_preconditioned_uy.ini", "qp_preconditioned_xy.ini",
    "qp_proximal.ini", "quadratic_proximal.ini", "quadratic_standard.ini",
    "separable_preconditioned.ini", "separable_reduced.ini",
)
# shipped configs whose field still solves while integrating: the Lasso
# dual prox runs a box QP at each change of its active set
INNER_SOLVE = ("lasso_pipeline.ini",)


def _declaring_problems():
    """(name, problem) for every builder and transform that declares a Hessian."""
    rng = np.random.default_rng(130)
    quad = sf.make_quadratic_saddle(0.7, 1.3, rng.standard_normal((2, 3)))
    lp = sf.make_lp(sf.LinearProgram(
        c=rng.standard_normal(3), A=rng.standard_normal((2, 3)), b=rng.standard_normal(2),
        A_eq=rng.standard_normal((1, 3)), b_eq=rng.standard_normal(1),
    ))
    network, _ = sf.make_min_cost_flow(sf.demo_network())
    Q = np.array([[2.0, 0.4, 0.0], [0.4, 1.0, 0.2], [0.0, 0.2, 1.5]])
    bundle = sf.make_qp_affine(Q, rng.standard_normal(3), rng.standard_normal((2, 3)), rng.standard_normal(2))
    sep = sf.make_separable_qp(
        np.diag([1.0, 2.0]), rng.standard_normal(2), np.eye(1) * 1.5, rng.standard_normal(1),
        rng.standard_normal((2, 2)), rng.standard_normal((2, 1)), rng.standard_normal(2),
    )
    lasso = sf.make_lasso(rng.standard_normal((5, 3)) / np.sqrt(5), rng.standard_normal(5), 0.4)
    return [
        ("bilinear", sf.make_bilinear(rng.standard_normal((3, 2)))),
        ("quadratic_saddle", quad),
        ("lp", lp),
        ("min_cost_flow", network),
        ("qp_lagrangian", sf.qp_lagrangian(bundle)),
        ("qp_lagrangian_free", sf.qp_lagrangian(bundle, nonneg_y=False)),
        ("separable_lagrangian", sf.qp_lagrangian(sf.separable_qp_bundle(sep))),
        ("precondition_qp", sf.precondition(bundle.f, bundle.A, bundle.b, eta=1.0, alpha=0.5)),
        ("precondition_lasso", sf.precondition(
            lasso.f, lasso.A, np.zeros(lasso.f.dim), eta=1.0, alpha=0.8 / lasso.l, y_set=lasso.y_set
        )),
        ("augment_quadratic", sf.augment(quad, 0.5)),
        ("augment_lp", sf.augment(lp, 0.5)),
        ("augment_min_cost_flow", sf.augment(network, 0.5)),
        # transforms with an inner solve per oracle call; the LP's inequality
        # duals sit on their y >= 0 faces at about half of the states below
        ("proximal_quadratic", sf.proximal_surrogate(quad, 0.9).problem),
        ("proximal_lp", sf.proximal_surrogate(lp, 0.9).problem),
        ("proximal_augment_bilinear", sf.proximal_surrogate(
            sf.augment(sf.make_bilinear(rng.standard_normal((3, 2))), 0.5), 0.9
        ).problem),
        ("reduce_separable", sf.reduce(sep).problem),
    ]


DECLARING = _declaring_problems()
IDS = [name for name, _ in DECLARING]


def _stacked_gradient(problem, z):
    x, y = z[: problem.n], z[problem.n :]
    return np.concatenate((problem.grad_x(x, y), problem.grad_y(x, y)))


def _states(rng, problem, count=40):
    """Seeded states: in the box and on its faces when the problem has a y_set."""
    if problem.y_set is None:
        return [rng.uniform(-2.0, 2.0, problem.dim) for _ in range(count)]
    return face_points(rng, problem, count)


@pytest.mark.parametrize("name, problem", DECLARING, ids=IDS)
def test_declared_hessian_is_the_jacobian_of_the_gradient_oracles(name, problem):
    rng = np.random.default_rng(131)
    H = problem.hessian
    assert H is not None and H.shape == (problem.dim, problem.dim)
    h = 1e-4
    for _ in range(3):
        z = rng.uniform(-2.0, 2.0, problem.dim)
        fd = np.empty_like(H)
        for j in range(problem.dim):
            e = np.zeros(problem.dim)
            e[j] = h
            fd[:, j] = (_stacked_gradient(problem, z + e) - _stacked_gradient(problem, z - e)) / (2 * h)
        assert np.abs(fd - H).max() <= 1e-8 * (1.0 + np.abs(H).max()), name


@pytest.mark.parametrize("name, problem", DECLARING, ids=IDS)
def test_affine_field_agrees_with_the_oracle_field(name, problem):
    rng = np.random.default_rng(132)
    affine = sf.standard_flow(problem)
    oracle = sf.standard_flow(replace(problem, hessian=None))
    for z in _states(rng, problem):
        expected = oracle.field(z)
        assert np.abs(affine.field(z) - expected).max() <= 1e-12 * (1.0 + np.linalg.norm(expected)), name


@pytest.mark.parametrize("name, problem", DECLARING, ids=IDS)
def test_a_perturbed_declaration_fails_the_build(name, problem):
    rng = np.random.default_rng(133)
    for _ in range(3):
        i, j = rng.integers(problem.dim, size=2)
        wrong = problem.hessian.copy()
        wrong[i, j] += 1e-6
        with pytest.raises(ValueError, match="does not match its gradient oracles"):
            sf.standard_flow(replace(problem, hessian=wrong))


def test_declarations_hold_at_any_size_and_only_the_affine_field_stops_at_the_cap():
    rng = np.random.default_rng(134)
    cap = sf.AFFINE_MAX_DIM
    # the affine field runs up to the cap and not past it
    at_cap = sf.make_bilinear(rng.standard_normal((cap // 2, cap // 2)))
    assert isinstance(sf.standard_flow(at_cap).field, sf.AffineField)
    # past it every quadratic builder and transform still declares its hessian:
    # a Lagrangian with a linear f (bilinear, LP) or a quadratic one, and augment
    big = sf.make_quadratic_saddle(0.7, 1.3, rng.standard_normal((cap // 2 + 1, cap // 2)))
    lp = sf.LinearProgram(c=np.ones(cap // 2), A=np.eye(cap // 2 + 1, cap // 2), b=np.ones(cap // 2 + 1))
    wide_qp = cap // 2 + 1
    qp = sf.make_qp_affine(np.eye(wide_qp), np.zeros(wide_qp), np.eye(cap // 2, wide_qp), np.ones(cap // 2))
    wide = sf.make_quadratic_saddle(0.7, 1.3, rng.standard_normal((cap // 4 + 1, cap // 4)))
    past = [sf.make_bilinear(rng.standard_normal((cap // 2 + 1, cap // 2))), sf.make_lp(lp), big,
            sf.qp_lagrangian(qp), sf.augment(wide, 0.5)]
    for problem in past:
        assert problem.dim > cap and problem.hessian is not None, problem.label
        assert not isinstance(sf.standard_flow(problem).field, sf.AffineField), problem.label
    # the surrogate of a base past the cap declares its hessian too and keeps
    # the prefactored inner step, but runs the oracle field: an inner solve per call
    surrogate, twin = sf.proximal_surrogate(big, 0.9), sf.proximal_surrogate(big, 0.9)
    assert surrogate._jacobian_inverse is not None and surrogate.problem.hessian is not None
    flow, n = sf.standard_flow(surrogate.problem), big.n
    for _ in range(3):
        z = rng.uniform(-2.0, 2.0, big.dim)
        u, y = z[:n], z[n:]
        expected = np.concatenate((-twin.problem.grad_x(u, y), twin.problem.grad_y(u, y)))
        assert np.array_equal(flow.field(z), expected)
        assert surrogate._cache.match(u, y) is not None  # this call solved at z
    # so does the reduced problem of a separable QP past the cap
    n_c, m = cap // 2, cap // 2 + 1
    sep = sf.make_separable_qp(
        np.eye(m), np.zeros(m), np.eye(n_c), np.zeros(n_c), np.eye(m), np.ones((m, n_c)), np.ones(m),
    )
    reduced = sf.reduce(sep).problem
    assert reduced.dim > cap and reduced.hessian is not None
    assert not isinstance(sf.standard_flow(reduced).field, sf.AffineField)
    # a Lagrangian with a non-quadratic f declares no hessian and takes hess_xx from f.hess
    bundle = cosh_bundle()
    lag = sf.qp_lagrangian(bundle)
    assert lag.hessian is None
    for _ in range(3):
        x, y = rng.uniform(-2.0, 2.0, 2), rng.uniform(0.0, 2.0, 1)
        assert np.array_equal(lag.hess_xx(x, y), bundle.f.hess(x))
        assert np.array_equal(lag.hess_yy(x, y), np.zeros((1, 1)))


def _past_the_cap():
    """(name, problem, certificates) of nine constructions, each just past the cap.

    Each instance is built around a chosen saddle z* with strict
    complementarity; ``certificates`` are the ones a run of it would take, as
    functions of z*.
    """
    rng = np.random.default_rng(135)
    n, m = sf.AFFINE_MAX_DIM // 2 + 1, sf.AFFINE_MAX_DIM // 2  # n + m = cap + 1
    A = rng.standard_normal((m, n))
    x_star, y_star = rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 1.5, m)
    Q = np.diag(rng.uniform(1.0, 2.0, n))
    strict = lambda problem: [lambda z: sf.cert_strict_cc(problem, z)]
    out = []

    bilinear = sf.make_bilinear(rng.standard_normal((n, m)))
    out.append(("bilinear", bilinear, np.zeros(n + m), strict(bilinear)))
    # an LP whose inequality duals are zero on every other row, where the row is slack
    y_lp = np.where(np.arange(m) % 2 == 0, y_star, 0.0)
    lp = sf.make_lp(sf.LinearProgram(c=-A.T @ y_lp, A=A, b=A @ x_star + (y_lp == 0.0)))
    out.append(("lp", lp, np.concatenate((x_star, y_lp)), strict(lp)))
    # 40 edges and 9 nodes: flows strictly inside (0, cap), costs from node potentials
    tails = rng.integers(9, size=40)
    heads = (tails + rng.integers(1, 9, size=40)) % 9
    caps = rng.uniform(1.0, 2.0, 40)
    flows = caps * rng.uniform(0.2, 0.8, 40)
    incidence = np.zeros((9, 40))
    incidence[tails, np.arange(40)], incidence[heads, np.arange(40)] = 1.0, -1.0
    potentials = rng.standard_normal(9)
    network = sf.FlowNetwork(incidence @ flows, tails, heads, -incidence.T @ potentials, caps)
    mcf, _ = sf.make_min_cost_flow(network)
    out.append(("min_cost_flow", mcf, np.concatenate((flows, potentials, np.zeros(80))), strict(mcf)))
    quad = sf.make_quadratic_saddle(0.7, 1.3, rng.standard_normal((n, m)))
    out.append(("quadratic_saddle", quad, np.zeros(n + m), strict(quad)))
    # every constraint active at z*, with a positive dual
    p = -Q @ x_star - A.T @ y_star
    qp = sf.qp_lagrangian(sf.make_qp_affine(Q, p, A, A @ x_star))
    out.append(("qp_lagrangian", qp, np.concatenate((x_star, y_star)), strict(qp)))
    half = sf.make_quadratic_saddle(0.7, 1.3, rng.standard_normal((33, 32)))  # doubled: 130
    aug = sf.augment(half, 0.5)
    base = np.r_[:33, 66:98]
    out.append(("augment", aug, np.zeros(130), strict(aug) + [lambda z: sf.cert_augmented(half, 0.5, z[base])]))
    surrogate = sf.proximal_surrogate(quad, 0.9)
    out.append(("proximal_surrogate", surrogate.problem, np.zeros(n + m),
                [lambda z: sf.cert_proximal(surrogate, z)]))
    # reduce over x_s (m coordinates) leaves (x_c, y): n + m coordinates
    x_s = rng.uniform(-1.0, 1.0, m)
    A_s = rng.standard_normal((m, m)) + 3.0 * np.eye(m)
    Q_s = np.diag(rng.uniform(1.0, 2.0, m))
    sep = sf.make_separable_qp(Q_s, -Q_s @ x_s - A_s.T @ y_star, Q, p, A_s, A, A_s @ x_s + A @ x_star)
    reduced = sf.reduce(sep).problem
    out.append(("reduce", reduced, np.concatenate((x_star, y_star)), strict(reduced)))
    # u = x + alpha*A^T*y maps the saddle of f + eta*y^T(Ax - b) over (eta = 1)
    pre = sf.precondition(sf.make_qp_affine(Q, p, A, A @ x_star).f, A, A @ x_star, eta=1.0, alpha=0.5)
    out.append(("precondition", pre, np.concatenate((x_star + 0.5 * A.T @ y_star, y_star)), strict(pre)))
    return out


PAST_THE_CAP = _past_the_cap()


@pytest.mark.parametrize("name, problem, z_star, certificates", PAST_THE_CAP, ids=[c[0] for c in PAST_THE_CAP])
def test_past_the_cap_a_declaration_changes_no_field_and_no_certificate(name, problem, z_star, certificates):
    rng = np.random.default_rng(136)
    assert sf.AFFINE_MAX_DIM < problem.dim <= sf.AFFINE_MAX_DIM + 2
    assert problem.hessian is not None
    declared, oracle = sf.standard_flow(problem), sf.standard_flow(replace(problem, hessian=None))
    states = [z_star + rng.uniform(-1.0, 1.0, problem.dim) for _ in range(3)]
    if declared.feasible is not None:
        states = [declared.feasible.clamp(z) for z in states]
    for z in states:
        assert np.array_equal(declared.field(z), oracle.field(z)), name
    traj = sf.integrate(declared, states[0], sf.IntegratorConfig(step=0.01, horizon=0.2, record_every=2))
    for build in certificates:
        certificate = build(z_star)
        batch = sf.eval_certificate(certificate, traj)
        each = sf.eval_certificate(replace(certificate, batch=None), traj)
        assert (batch.route, each.route) == ("batch", "oracle"), name
        entries = np.abs(np.concatenate((each.min_entry, each.final_values))).max()
        scale = 1e-12 * (1.0 + abs(certificate.s_star) + entries)
        assert np.abs(batch.min_entry - each.min_entry).max() <= scale, name
        assert abs(batch.max_bracket_violation - each.max_bracket_violation) <= scale, name


def _count_gradient_calls(monkeypatch) -> dict:
    """Count every gradient oracle call, and those made inside ``integrate``.

    The oracles of each ``SaddleProblem`` and ``ConvexObjective`` are wrapped
    as the object is built; ``integrate`` is wrapped where the CLI looks it up.
    Box-QP solves are counted as ``box_qp``, those inside ``integrate`` as
    ``box_qp_in_integrate``.
    """
    counts = {"total": 0, "in_integrate": 0, "box_qp": 0, "box_qp_in_integrate": 0, "depth": 0}
    box_qp = inner_mod._box_qp_max

    def counted_box_qp(*args):
        counts["box_qp"] += 1
        counts["box_qp_in_integrate"] += counts["depth"] > 0
        return box_qp(*args)

    monkeypatch.setattr(inner_mod, "_box_qp_max", counted_box_qp)

    def wrap(fn):
        if fn is None or getattr(fn, "counted", False):
            return fn

        def counted(*args):
            counts["total"] += 1
            counts["in_integrate"] += counts["depth"] > 0
            return fn(*args)

        counted.counted = True
        return counted

    def counting_init(cls, attrs):
        init = cls.__init__

        def traced_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            for attr in attrs:
                object.__setattr__(obj, attr, wrap(getattr(obj, attr)))

        monkeypatch.setattr(cls, "__init__", traced_init)

    counting_init(sf.SaddleProblem, ("grad_x", "grad_y"))
    counting_init(sf.ConvexObjective, ("grad",))
    integrate = cli.integrate

    def traced_integrate(*args, **kwargs):
        counts["depth"] += 1
        try:
            return integrate(*args, **kwargs)
        finally:
            counts["depth"] -= 1

    monkeypatch.setattr(cli, "integrate", traced_integrate)
    return counts


def test_shipped_configs_are_all_classified():
    assert sorted(CLOSED_FORM + INNER_SOLVE) == sorted(p.name for p in CONFIGS.glob("*.ini"))


@pytest.mark.parametrize("name", CLOSED_FORM + INNER_SOLVE)
def test_only_inner_solve_configs_call_gradient_oracles_while_integrating(tmp_path, monkeypatch, name):
    # a builder that drops its declaration shows here as oracle calls in integrate
    text = re.sub(r"(?m)^horizon = \S+$", "horizon = 2", (CONFIGS / name).read_text())
    config = tmp_path / name
    config.write_text(text)
    (tmp_path / "network.txt").write_text((CONFIGS / "network.txt").read_text())
    counts = _count_gradient_calls(monkeypatch)
    assert cli.main(["run", str(config), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 0
    assert counts["total"] > 0  # the wrapping took hold: builds and certificates call them
    if name in CLOSED_FORM:
        assert counts["in_integrate"] == 0
    else:
        # measured 138 oracle calls and 7 box-QP solves for the 800 field
        # evaluations of the run (one solve per evaluation before the
        # active-set map); the bounds are 2x those counts
        assert 0 < counts["in_integrate"] <= 276
        assert 0 < counts["box_qp_in_integrate"] <= 14
        # the post-run residuals at the first and last states meet kept pieces
        assert counts["total"] == counts["in_integrate"]


@pytest.mark.parametrize("seed, active_sets", [(2024, 4), (31337, 3)])
def test_bench_lasso_runs_solve_one_box_qp_per_active_set(tmp_path, monkeypatch, seed, active_sets):
    # every box QP meets an active set the run had not met, and none is left
    # for the post-run residuals at the first and last states
    bench_inputs().write_inputs("inner_solve", seed, tmp_path)
    keys = []
    build = transforms._active_set_map

    def logging(*args):
        piece = build(*args)
        keys.append(piece.key)
        return piece

    monkeypatch.setattr(transforms, "_active_set_map", logging)
    counts = _count_gradient_calls(monkeypatch)
    config = tmp_path / "lasso_pipeline.ini"
    assert cli.main(["run", str(config), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 0
    assert counts["box_qp"] == counts["box_qp_in_integrate"] == len(keys) == len(set(keys)) == active_sets


def test_cli_proximal_pd_field_is_the_proximal_primal_dual_field(monkeypatch):
    # the CLI runs the proximal primal-dual flow as the saddle flow of the
    # proximal surrogate of the QP Lagrangian; on the oracle path that field is
    # proximal_primal_dual's bit for bit, and the affine field agrees with it
    rng = np.random.default_rng(135)
    bundle = sf.make_qp_affine(np.diag([1.0, 2.0, 3.0]), rng.standard_normal(3),
                               rng.standard_normal((2, 3)), rng.standard_normal(2))
    algo = {"rho": "1.2"}
    declared = cli.BUILDERS["qp_affine", "proximal"][0](bundle, "qp", algo).flow
    with monkeypatch.context() as patch:
        patch.setattr(cli, "standard_flow", lambda problem: sf.standard_flow(replace(problem, hessian=None)))
        oracle = cli.BUILDERS["qp_affine", "proximal"][0](bundle, "qp", algo).flow
    reference = sf.proximal_primal_dual(bundle.f, bundle.constraints(), 1.2)
    for flow in (declared, oracle):
        assert np.array_equal(flow.feasible.lower, reference.feasible.lower)
        assert np.array_equal(flow.feasible.upper, reference.feasible.upper)
        assert len(flow.caches) == 1  # the surrogate's warm-start cache
    on_face = 0
    for z in face_points(rng, sf.qp_lagrangian(bundle)):
        expected = reference.field(z)
        out = oracle.field(z)
        assert np.array_equal(out, expected) and np.array_equal(np.signbit(out), np.signbit(expected))
        assert np.abs(declared.field(z) - expected).max() <= 1e-12 * (1.0 + np.linalg.norm(expected))
        on_face += bool(np.any(z[3:] == 0.0))
    assert on_face >= 100
