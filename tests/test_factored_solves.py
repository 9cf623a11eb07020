"""Inner solves over declared constant curvature against the general paths.

Every transform with a hidden inner solve is built twice, once from a
problem that declares its Hessian constant (factored once, one prefactored
Newton step or a box QP over the model) and once from the same problem with
the declaration removed (damped Newton or projected Newton on the oracles).
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

import saddleflow as sf
import saddleflow._inner as inner_mod
import saddleflow.transforms as transforms
from saddleflow.flows import proximal_primal_dual
from saddleflow.transforms import InnerSolveError

from helpers import bisect_root, lasso_transform, start_next_solve_at

AGREE = 1e-12


def _walk(rng, start, steps, scale=1e-2):
    """Random states: a few far apart, then a slow walk that warm-starts."""
    states = [rng.standard_normal(start.shape) * 3.0 for _ in range(5)]
    z = start
    for _ in range(steps):
        z = z + scale * rng.standard_normal(start.shape)
        states.append(z)
    return states


def _surrogate_bases(rng):
    """One base of each declaring builder, for the surrogate's two paths."""
    quad = sf.make_quadratic_saddle(0.7, 1.3, rng.standard_normal((3, 2)))
    sep = sf.make_separable_qp(
        np.diag([1.0, 2.0]), rng.standard_normal(2), np.eye(1) * 1.5, rng.standard_normal(1),
        rng.standard_normal((2, 2)), rng.standard_normal((2, 1)), rng.standard_normal(2),
    )
    lp = sf.LinearProgram(c=rng.standard_normal(3), A=rng.standard_normal((2, 3)), b=rng.standard_normal(2))
    return [
        quad,
        sf.make_bilinear(rng.standard_normal((3, 2))),
        sf.make_lp(lp),
        sf.make_min_cost_flow(sf.demo_network())[0],
        sf.qp_lagrangian(sf.separable_qp_bundle(sep)),
        sf.augment(quad, 0.5),
    ]


def test_proximal_surrogate_paths_agree():
    # the plain side keeps the hess_xx its base derived from the declaration
    rng = np.random.default_rng(40)
    for base in _surrogate_bases(rng):
        declared = sf.proximal_surrogate(base, 0.9)
        plain = sf.proximal_surrogate(replace(base, hessian=None), 0.9)
        assert declared._jacobian_inverse is not None and plain._jacobian_inverse is None, base.label
        for z in _walk(rng, rng.standard_normal(base.dim), 200):
            u, y = z[: base.n], z[base.n :]
            a, b = declared.minimizer(u, y), plain.minimizer(u, y)
            assert np.abs(a - b).max() <= AGREE, base.label


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


def test_declared_transform_flows_agree_with_undeclared_builds():
    # a declaring base gives an affine surrogate or reduced flow; without the
    # declaration each evaluation solves, by damped Newton on the oracles
    rng = np.random.default_rng(49)
    pairs = []
    for base in _surrogate_bases(rng):
        declared = sf.proximal_surrogate(base, 0.9).problem
        plain = sf.proximal_surrogate(replace(base, hessian=None), 0.9).problem
        pairs.append((declared, plain))
    sep = sf.make_separable_qp(
        np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([0.4, -0.2]), np.eye(2), np.zeros(2),
        np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2), np.array([0.1, -0.3]),
    )
    plain_sep = replace(sep, f_s=replace(sep.f_s, hess_constant=False))
    pairs.append((sf.reduce(sep).problem, sf.reduce(plain_sep).problem))
    for declared, plain in pairs:
        assert declared.hessian is not None and plain.hessian is None, declared.label
        a, b = sf.standard_flow(declared), sf.standard_flow(plain)
        box = sf.full_domain(declared)
        for z in _walk(rng, rng.standard_normal(declared.dim), 200):
            z = z if box is None else box.clamp(z)
            assert np.abs(a.field(z) - b.field(z)).max() <= AGREE, declared.label


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


def _counting_newton_steps(monkeypatch) -> list:
    """Record each projected Newton step; the declared path takes one only on a guess miss."""
    steps = []
    step = inner_mod._free_newton_step
    monkeypatch.setattr(inner_mod, "_free_newton_step", lambda *a: steps.append(1) or step(*a))
    return steps


def test_lasso_maximizer_paths_agree_with_bounds_active(monkeypatch):
    rng = np.random.default_rng(43)
    bundle, declared, plain = _lasso_pair(rng)
    assert declared._dual_hess is not None and plain._dual_hess is None
    steps = _counting_newton_steps(monkeypatch)
    n = bundle.n
    lifted = bundle.f.dim
    on_bound = hits = misses = entered = left = 0
    last = None
    for z in _walk(rng, rng.standard_normal(2 * lifted), 200, scale=5e-2):
        u, v = z[:lifted], z[lifted:]
        before = len(steps)
        a = declared.maximizer(u, v)
        hits += len(steps) == before
        misses += len(steps) > before
        b = plain.maximizer(u, v)
        assert np.abs(a - b).max() <= AGREE
        on_bound += bool(np.any(a[n:] == 0.0)) and bool(np.any(a[n:] > 0.0))
        if last is not None:
            entered += bool(np.any((last[n:] > 0.0) & (a[n:] == 0.0)))
            left += bool(np.any((last[n:] == 0.0) & (a[n:] > 0.0)))
        last = a
    assert on_bound >= 50  # some, not all, of the sign multipliers sit at 0
    assert entered and left  # multipliers reach the face and leave it along the walk
    assert hits >= 150 and misses  # the guess holds on most solves and is confirmed on all


def _counting_box_qp_solves(monkeypatch) -> list:
    solves = []
    solve = inner_mod._box_qp_max
    monkeypatch.setattr(inner_mod, "_box_qp_max", lambda *a: solves.append(1) or solve(*a))
    return solves


def test_lasso_active_set_map_field_agrees_with_the_oracle_fields(monkeypatch):
    # the kept pieces hold between active-set changes; the multipliers reach
    # their faces and leave them along the walk, and a box QP is solved only
    # for an active set met the first time, or at a tie on a face
    rng = np.random.default_rng(50)
    bundle, declared, plain = _lasso_pair(rng)
    assert declared._pieces is not None and plain._pieces is None
    reference = sf.standard_flow(declared.problem).field
    undeclared = sf.standard_flow(plain.problem).field
    solves = _counting_box_qp_solves(monkeypatch)
    n, dim = bundle.n, declared.base.dim
    states = _walk(rng, rng.standard_normal(dim), 300, scale=2e-2)
    fallbacks = entered = left = ties = 0
    seen = set()  # the active sets met
    last = None
    for z in states:
        before = len(solves)
        a = declared.field(z)
        head = declared._pieces[0]
        if len(solves) > before:
            fallbacks += 1
            assert head.key not in seen or head(z) is None  # a new active set, or a tie
            ties += head.key in seen
        seen.add(head.key)
        pinned = head.faces.any(axis=0)[n:]  # the sign multipliers on their face
        if last is not None:
            entered += bool(np.any(pinned & ~last))
            left += bool(np.any(~pinned & last))
        last = pinned
        scale = AGREE * (1.0 + np.linalg.norm(a))
        assert np.abs(a - reference(z)).max() <= scale
        assert np.abs(a - undeclared(z)).max() <= scale
    assert entered >= 5 and left >= 5
    # measured: the head's active set changed 10 times, over 7 active sets and
    # 7 box QPs; the other evaluations are sign tests of kept pieces
    assert fallbacks == len(seen) + ties <= 30
    for cache in declared.problem.caches:
        cache.clear()
    assert declared._pieces == [] and declared._cache.point is None


def test_a_walk_past_the_kept_pieces_drops_the_oldest_and_agrees_with_the_oracle_field(monkeypatch):
    # a faster walk meets 17 active sets, more than the kept pieces: a new
    # piece goes to the head, the least recently served one is dropped, and
    # the one dropped active set met again is built again
    rng = np.random.default_rng(56)
    _, declared, _ = _lasso_pair(rng)
    reference = sf.standard_flow(declared.problem).field
    built = []
    build = transforms._active_set_map

    def logging(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(transforms, "_active_set_map", logging)
    kept, dropped = transforms._PIECES_KEPT, 0
    for z in _walk(rng, rng.standard_normal(declared.base.dim), 300, scale=5e-2):
        before, pieces = len(built), list(declared._pieces)
        a = declared.field(z)
        head = declared._pieces[0]
        if len(built) > before:
            assert declared._pieces == [head] + pieces[: kept - 1]
            dropped += len(pieces) == kept
        else:  # the kept piece that served moved to the head, the others in their order
            assert head in pieces and declared._pieces[1:] == [p for p in pieces if p is not head]
            assert head(z).tobytes() == a.tobytes()
        assert np.abs(a - reference(z)).max() <= AGREE * (1.0 + np.linalg.norm(a))
    assert len({piece.key for piece in built}) == 17 and len(built) == 18
    assert dropped == len(built) - kept


def test_lasso_field_past_the_size_cap_is_the_oracle_field():
    # 6n = 132 coordinates: no map, and the box QP serves every evaluation
    rng = np.random.default_rng(51)
    n = 22
    bundle = sf.make_lasso(rng.standard_normal((30, n)) / np.sqrt(30), rng.standard_normal(30), 0.5)
    flow = bundle.dynamics(0.8 / bundle.l, 1.0)
    transform = lasso_transform(flow)
    assert transform.base.dim == 6 * n > sf.AFFINE_MAX_DIM
    assert transform._pieces is None and transform._dual_hess is not None
    oracle = sf.standard_flow(transform.problem).field
    for z in _walk(rng, rng.standard_normal(6 * n), 3, scale=5e-2):
        assert np.array_equal(flow.field(z), oracle(z))


@pytest.mark.parametrize("row", ["field", "free", "pinned"])
def test_a_perturbed_active_set_map_fails_its_confirmation(monkeypatch, row):
    rng = np.random.default_rng(52)
    bundle, declared, _ = _lasso_pair(rng)
    dim = declared.base.dim
    bounded = declared._feasible.lower > -np.inf  # the sign multipliers: y >= 0
    build = transforms.Piece
    perturbed = []

    def perturb(dim, W, w, floor, *, faces):
        # the field rows, then the KKT rows: one per free sign multiplier
        # (y_tilde >= 0), then one per pinned one (its gradient <= 0); the
        # unbounded equality multipliers have none
        free_rows = np.count_nonzero(~faces.any(axis=0) & bounded)
        at, end = {"field": (0, dim), "free": (dim, dim + free_rows), "pinned": (dim + free_rows, W.shape[0])}[row]
        if at < end:
            W[at, 0] += 1e-6
            perturbed.append(1)
        return build(dim, W, w, floor, faces=faces)

    monkeypatch.setattr(transforms, "Piece", perturb)
    with pytest.raises(ValueError, match="active-set piece .* does not match its oracles"):
        for z in _walk(rng, rng.standard_normal(dim), 300, scale=5e-2):
            declared.field(z)
    assert perturbed


def test_a_new_piece_that_fails_its_own_rows_gives_the_oracle_field(monkeypatch):
    # a tie at a face: the box QP starts at its maximizer with a sign multiplier
    # y_j on its face, where the gradient points inward by 1e-12, far below
    # the QP's tolerance, so it returns that point as it is; the new piece's
    # pinned row for j then fails at z, and the field is the oracle field
    rng = np.random.default_rng(53)
    _, declared, _ = _lasso_pair(rng)
    n, dim, box = declared.base.n, declared.base.dim, declared._feasible
    z = rng.standard_normal(dim)
    y = declared.maximizer(z[:n], z[n:])
    gradient = declared.base.grad_y(z[:n], y) - declared.rho * (y - z[n:])
    j = np.flatnonzero(y <= box.lower)[0]
    assert gradient[j] < 0.0  # pinned, outward
    z[n + j] += (1e-12 - gradient[j]) / declared.rho  # the gradient on j alone moves, to +1e-12
    for cache in declared.problem.caches:
        cache.clear()
    start_next_solve_at(declared, y)
    field = declared.field(z)
    assert field.tobytes() == sf.standard_flow(declared.problem).field(z).tobytes()
    piece = declared._pieces[0]
    assert piece.key == box.on_faces(y).tobytes() and piece.faces[0, j]
    assert piece(z) is None  # the new piece is kept, and fails its own rows at z
    # back at z with another piece at the head: no kept piece holds, and the
    # box QP lands on the tie's active set, whose kept piece moves to the head
    declared.field(-z)
    other = declared._pieces[0]
    assert declared._pieces == [other, piece] and other(z) is None
    built = []
    build = transforms._active_set_map
    monkeypatch.setattr(transforms, "_active_set_map", lambda *args: built.append(1) or build(*args))
    start_next_solve_at(declared, y)
    assert declared.field(z).tobytes() == field.tobytes()
    assert declared._pieces == [piece, other] and built == []


def test_guessed_face_with_an_inward_gradient_falls_back(monkeypatch):
    # coordinate 0 starts on its face and is held there by the guess, but the
    # maximizer is interior: the gate rejects the step at the oracle
    H = -np.array([[2.0, 0.5], [0.5, 1.0]])
    c = np.array([1.0, 1.0])
    feasible = sf.FeasibleSet.nonnegative(2)
    points = []

    def grad(y):
        points.append(y.copy())
        return H @ y + c

    steps = _counting_newton_steps(monkeypatch)
    y = inner_mod.projected_concave_max(
        None, grad, feasible, np.array([0.0, 2.0]), None, tol=1e-12, constant_hess=inner_mod.ConstantHessian(H)
    )
    guess = points[1]
    assert guess[0] == 0.0 and guess[1] > 0.0  # the free step, inside the box
    assert grad(guess)[0] > 0.0  # inward on the held face
    assert steps  # projected Newton finished the solve
    exact = np.linalg.solve(-H, c)
    assert np.all(exact > 0.0)
    assert np.linalg.norm(sf.project_vector_field(feasible, y, grad(y))) <= 1e-12
    assert np.abs(y - exact).max() <= 1e-11


def test_free_step_leaving_the_box_falls_back(monkeypatch):
    H = -np.array([[1.0, 0.2], [0.2, 1.0]])
    c = np.array([-3.0, 1.0])
    feasible = sf.FeasibleSet.nonnegative(2)
    y0 = np.array([1.0, 1.0])
    assert not feasible.contains(y0 + np.linalg.solve(-H, H @ y0 + c))  # both start free
    points = []

    def grad(y):
        points.append(y.copy())
        return H @ y + c

    steps = _counting_newton_steps(monkeypatch)
    model = inner_mod.ConstantHessian(H)
    y = inner_mod.projected_concave_max(None, grad, feasible, y0, None, tol=1e-12, constant_hess=model)
    assert steps
    assert all(feasible.contains(p) for p in points)  # no oracle call outside the box
    assert np.linalg.norm(sf.project_vector_field(feasible, y, grad(y))) <= 1e-12
    assert y[0] == 0.0 and y[1] == pytest.approx(1.0, abs=1e-12)


def test_constant_hessian_keeps_one_free_block_inverse():
    H = -np.array([[3.0, 0.5, 0.1], [0.5, 2.0, 0.3], [0.1, 0.3, 1.0]])
    model = inner_mod.ConstantHessian(H)
    a = np.array([True, False, True])
    first = model.free_inverse(a)
    assert np.array_equal(first, np.linalg.inv(-H[np.ix_(a, a)]))
    assert model.free_inverse(a.copy()) is first  # same mask: no new inverse
    assert np.array_equal(model.free_inverse(~a), np.linalg.inv(-H[np.ix_(~a, ~a)]))
    again = model.free_inverse(a)  # the slot held only the last mask
    assert again is not first and np.array_equal(again, first)


def test_lasso_run_is_byte_deterministic_with_a_warm_factor_slot(tmp_path, monkeypatch):
    rng = np.random.default_rng(48)
    bundle = sf.make_lasso(rng.standard_normal((6, 4)) / np.sqrt(6), rng.standard_normal(6), 0.5)
    config = sf.IntegratorConfig(step=0.05, horizon=20.0, record_every=5)
    z0 = np.ones(2 * bundle.f.dim)
    masks = set()
    free_inverse = inner_mod.ConstantHessian.free_inverse
    monkeypatch.setattr(
        inner_mod.ConstantHessian, "free_inverse",
        lambda self, free: masks.add(free.tobytes()) or free_inverse(self, free),
    )

    def run(flow, name):
        sf.integrate(flow, z0, config).write_csv(tmp_path / name)
        return (tmp_path / name).read_bytes()

    flow = bundle.dynamics(1.0 / bundle.l, 1.0)
    transform = lasso_transform(flow)
    first = run(flow, "first.csv")
    assert len(masks) >= 2  # the free set changed along the run
    for cache in flow.caches:
        cache.clear()
    assert transform._cache.point is None and transform._dual_hess._inverse is not None
    second = run(flow, "second.csv")  # starts with the last run's free block in the slot
    fresh = run(bundle.dynamics(1.0 / bundle.l, 1.0), "fresh.csv")
    assert first == second == fresh


def test_lasso_maximizer_starting_on_the_bound():
    rng = np.random.default_rng(44)
    bundle, declared, plain = _lasso_pair(rng)
    n, lifted = bundle.n, bundle.f.dim
    for _ in range(20):
        u = rng.standard_normal(lifted)
        v = rng.standard_normal(lifted)
        y0 = np.clip(rng.standard_normal(lifted), bundle.y_set.lower, None)
        y0[n : n + 3] = 0.0
        start_next_solve_at(declared, y0)
        start_next_solve_at(plain, y0)
        a = declared.maximizer(u, v)
        b = plain.maximizer(u, v)
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
        value, grad, feasible, np.zeros(4), None, tol=1e-12, constant_hess=inner_mod.ConstantHessian(1.1 * H)
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
        refuse, grad, sf.FeasibleSet.nonnegative(3), np.ones(3), refuse, constant_hess=inner_mod.ConstantHessian(H)
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
    start_next_solve_at(sur, [0.0])
    x_t = sur.minimizer([1.0], [0.0])[0]
    assert x_t == pytest.approx(bisect_root(lambda t: t**3 + t - 1.0, 0.0, 1.0), abs=1e-9)
    assert len(fd_calls) >= 3  # several damped Newton iterations
    monkeypatch.setattr(
        transforms, "newton_solve", functools.partial(inner_mod.newton_solve, tol=1e-12, max_iters=2)
    )
    capped = sf.proximal_surrogate(quartic, 1.0)
    start_next_solve_at(capped, [37.0])  # far from the solution: two iterations cannot reach it
    with pytest.raises(InnerSolveError) as err:
        capped.minimizer([1.0], [0.0])
    assert err.value.residual > 0.0


def test_declaration_needs_a_hessian_oracle():
    with pytest.raises(ValueError, match="hess_constant"):
        sf.ConvexObjective(dim=1, value=lambda x: 0.0, grad=lambda x: np.zeros(1), hess_constant=True)
    oracles = dict(value=lambda x, y: 0.0, grad_x=lambda x, y: np.zeros(1), grad_y=lambda x, y: np.zeros(1))
    with pytest.raises(ValueError, match=r"hessian has shape \(1, 1\), expected \(2, 2\)"):
        sf.SaddleProblem(n=1, m=1, hessian=np.eye(1), **oracles)
    with pytest.raises(ValueError, match="hessian must be finite"):
        sf.SaddleProblem(n=1, m=1, hessian=np.diag([1.0, np.inf]), **oracles)


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
    out += [("precondition.hess_xx", pre, lambda p, z: p.hess_xx(z[:9], z[9:18]))]
    out += [("precondition.hess_yy", pre, lambda p, z: p.hess_yy(z[:9], z[9:18]))]
    return out


def test_declaring_builders_return_one_hessian_everywhere():
    rng = np.random.default_rng(47)
    for name, owner, hess in _declared_hessians(rng):
        if isinstance(owner, sf.SaddleProblem):
            assert owner.hessian is not None, name
        else:
            assert owner.hess_constant, name
        first = hess(owner, 5.0 * rng.standard_normal(18))
        for _ in range(2):
            assert np.array_equal(hess(owner, 5.0 * rng.standard_normal(18)), first), name


def _counting_fd_jacobians(monkeypatch) -> list:
    """Record each finite-difference Jacobian an inner solve takes."""
    calls = []
    fd = inner_mod.fd_jacobian
    monkeypatch.setattr(inner_mod, "fd_jacobian", lambda *a, **k: calls.append(1) or fd(*a, **k))
    return calls


def test_a_linear_lagrangian_past_the_size_cap_keeps_its_hessian_oracles(monkeypatch):
    # dim 140 > AFFINE_MAX_DIM: the ``hessian`` is declared, and hess_xx/hess_yy are its zero blocks
    B = np.random.default_rng(48).standard_normal((70, 70))
    problem = sf.make_bilinear(B)
    assert problem.dim > sf.AFFINE_MAX_DIM and problem.hessian is not None
    assert np.array_equal(problem.hess_xx(np.ones(70), np.ones(70)), np.zeros((70, 70)))
    assert np.array_equal(problem.hess_yy(np.ones(70), np.ones(70)), np.zeros((70, 70)))
    calls = _counting_fd_jacobians(monkeypatch)
    surrogate = sf.proximal_surrogate(problem, 1.0)
    u, y = np.cos(np.arange(70.0)), np.sin(np.arange(70.0))
    x = surrogate.minimizer(u, y)
    assert calls == []
    assert np.linalg.norm(B @ y + (x - u)) <= 1e-10


def test_augment_past_the_size_cap_passes_block_hessian_oracles(monkeypatch):
    # an 80-dim quadratic base and its augmentation (dim 160) both declare their
    # hessian; the augmentation's block oracles are its x and y blocks
    rng = np.random.default_rng(49)
    base = sf.make_quadratic_saddle(1.0, 1.0, rng.standard_normal((40, 40)))
    aug = sf.augment(base, 1.0)
    assert aug.dim > sf.AFFINE_MAX_DIM and aug.hessian is not None
    xa, ya = np.cos(np.arange(80.0)), np.sin(np.arange(80.0))
    assert np.array_equal(aug.hess_xx(xa, ya), aug.hessian[:80, :80])
    assert np.array_equal(aug.hess_yy(xa, ya), aug.hessian[80:, 80:])
    calls = _counting_fd_jacobians(monkeypatch)
    surrogate = sf.proximal_surrogate(aug, 1.0)
    u, y = np.cos(np.arange(80.0)), np.sin(np.arange(80.0))
    x = surrogate.minimizer(u, y)
    assert calls == []
    assert np.linalg.norm(aug.grad_x(x, y) + (x - u)) <= 1e-10


def test_block_hessian_oracles_of_augment_are_the_declared_blocks():
    # the same base with and without its declaration: the oracles are the blocks
    base = sf.make_quadratic_saddle(0.7, 1.3, np.random.default_rng(50).standard_normal((2, 3)))
    declared = sf.augment(base, 0.6)
    oracles = sf.augment(replace(base, hessian=None), 0.6)
    assert oracles.hessian is None
    xa, ya = np.arange(4.0), np.arange(6.0)
    assert np.array_equal(oracles.hess_xx(xa, ya), declared.hessian[:4, :4])
    assert np.array_equal(oracles.hess_yy(xa, ya), declared.hessian[4:, 4:])
    bare = replace(base, hessian=None, hess_xx=None, hess_yy=None)
    assert sf.augment(bare, 0.6).hess_xx is None and sf.augment(bare, 0.6).hess_yy is None
