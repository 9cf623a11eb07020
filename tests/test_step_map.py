"""RK4 step maps of piecewise-affine fields against the 4-stage step they replace.

``integrate`` takes each full RK4 step of an ``AffineField``, and of the
Lasso dual-prox field, as one ``AffineMap`` of the field's piece:
``W @ z + w`` plus a sign test, or several steps at once as a block of that
map (``AffineMap.block``). These tests compare map steps with 4-stage steps
and block runs with one-step runs (chunks and chunked runs in test names) on
the shipped configs, on the benchmark's Lasso inputs and on seeded walks
that cross faces, check the build-state and block checks, and pin down which
steps take the 4-stage path.
"""

import ast
import functools
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import saddleflow as sf
from helpers import bench_inputs, lasso_transform
from saddleflow import flows, transforms
from saddleflow.cli import build_setup, load_config, main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
AGREE = 1e-12


def _four_stage(flow, z, h):
    """One clamped 4-stage RK4 step of the flow's field."""
    clamp = flow.feasible.clamp if flow.feasible is not None else (lambda p: p)
    field = flow.field
    k1 = field(z)
    k2 = field(clamp(z + (0.5 * h) * k1))
    k3 = field(clamp(z + (0.5 * h) * k2))
    k4 = field(clamp(z + h * k3))
    return clamp(z + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))


def _map_step(flow, z, h):
    """The clamped map step from z on the piece at z, or None if the piece has no map at z or its test fails."""
    piece = flow.field.piece(z)
    amap = piece.step_map(z, h)
    out = None if amap is None else amap(z)
    if out is None:
        return None, piece.faces
    return (flow.feasible.clamp(out) if flow.feasible is not None else out), piece.faces


def _agree(a, b):
    return np.abs(a - b).max() <= AGREE * (1.0 + np.linalg.norm(b))


def _walk_flow(seed):
    """A projected affine flow that rotates through the faces of a box.

    Coordinates: two in [-0.3, 0.4], two on an orthant, one pinned, three free.
    """
    rng = np.random.default_rng(seed)
    dim = 8
    A = rng.standard_normal((dim, dim))
    skew = A - A.T
    K = -0.2 * np.eye(dim) + 1.5 * skew / np.linalg.norm(skew, 2)
    k0 = 0.8 * rng.standard_normal(dim)
    box = sf.FeasibleSet(
        [-0.3, -0.3, 0.0, 0.0, 0.2, -np.inf, -np.inf, -np.inf],
        [0.4, 0.4, np.inf, np.inf, 0.2, np.inf, np.inf, np.inf],
    )
    flow = sf.projected_flow(sf.Flow(dim=dim, field=sf.AffineField(K, k0)), box)
    return flow, box.clamp(rng.standard_normal(dim))


def _shipped_affine():
    for path in sorted(CONFIGS.glob("*.ini")):
        cfg = load_config(path)
        flow = build_setup(cfg).flow
        if isinstance(flow.field, sf.AffineField):
            yield path.stem, cfg.integrator, flow


def test_eleven_shipped_configs_run_affine_fields():
    names = [name for name, _, _ in _shipped_affine()]
    assert len(names) == 11 and "lasso_pipeline" not in names


@pytest.mark.parametrize(
    "name, config, flow", list(_shipped_affine()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_map_steps_agree_with_four_stage_steps_on_shipped_configs(name, config, flow):
    z0 = np.ones(flow.dim) if flow.feasible is None else flow.feasible.clamp(np.ones(flow.dim))
    traj = sf.integrate(flow, z0, config)
    h, passed = config.step, 0
    states = traj.states[np.linspace(0, len(traj) - 2, 40).astype(int)]
    for z in states:
        out, faces = _map_step(flow, z, h)
        if out is None:
            continue
        passed += 1
        assert _agree(out, _four_stage(flow, z, h)), name
        active = faces.any(axis=0)
        assert np.array_equal(out[active], z[active])  # face coordinates bit for bit
    assert passed >= 0.9 * len(states), name


def _maps_taken(monkeypatch) -> list:
    """(map, state, the states after each step, one a row) of every step map call that passes, and of every block."""
    taken = []
    call, block = sf.AffineMap.__call__, sf.AffineMap.block

    def logging(self, z):
        out = call(self, z)
        if out is not None and not isinstance(self, sf.Piece):  # a piece's outputs are field values
            taken.append((self, z.copy(), out[None].copy()))
        return out

    def blocking(self, z, steps, buf, powers):
        rows = block(self, z, steps, buf, powers)
        if rows.shape[0]:
            taken.append((self, z.copy(), rows.copy()))
        return rows

    monkeypatch.setattr(sf.AffineMap, "__call__", logging)
    monkeypatch.setattr(sf.AffineMap, "block", blocking)
    return taken


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_map_steps_agree_on_walks_that_cross_faces(monkeypatch, seed):
    flow, z0 = _walk_flow(seed)
    h = 0.05
    config = sf.IntegratorConfig(step=h, horizon=60.0)
    taken = _maps_taken(monkeypatch)
    fast = sf.integrate(flow, z0, config)
    slow = sf.integrate(replace(flow, field=lambda z: flow.field(z)), z0, config)
    # the state each step of the run got from the map that took it: a block or a one-step map
    index = {z.tobytes(): t for t, z in enumerate(fast.states)}
    took = {}
    for _, z, rows in taken:
        for j, row in enumerate(rows, 1):
            took[index[z.tobytes()] + j] = flow.feasible.clamp(row)
    assert any(rows.shape[0] > 1 for _, _, rows in taken)
    keys, mapped = set(), 0
    for t, (z, z_next) in enumerate(zip(fast.states[:-1], fast.states[1:])):
        out, faces = _map_step(flow, z, h)
        keys.add(faces.tobytes())
        if out is not None:
            mapped += 1
            assert _agree(out, _four_stage(flow, z, h))
            assert np.array_equal(took[t + 1], z_next)  # the run took a map step here
    assert len(keys) >= 4  # coordinates enter faces and leave them
    assert mapped >= 0.8 * (len(fast) - 1)
    scale = AGREE * 100 * (1.0 + np.linalg.norm(slow.states, axis=1))
    assert np.all(np.abs(fast.states - slow.states).max(axis=1) <= scale)


@pytest.mark.parametrize("row", ["state", "stage point", "face"])
def test_a_perturbed_step_map_fails_its_build_state_check(monkeypatch, row):
    flow, z0 = _walk_flow(1)
    traj = sf.integrate(flow, z0, sf.IntegratorConfig(step=0.05, horizon=3.0))
    z = next(z for z in traj.states if flow.field.faces(z)[:, :4].any())  # on a face
    k = int(np.argmax(np.abs(z)))
    build = flows.AffineMap

    def perturbed(dim, W, w, floor):
        W[{"state": 0, "stage point": dim, "face": -1}[row], k] += 1e-6
        return build(dim, W, w, floor)

    assert flow.field.piece(z).step_map(z, 0.05) is not None  # unperturbed, it passes
    monkeypatch.setattr(flows, "AffineMap", perturbed)
    with pytest.raises(ValueError, match="RK4 step map off the 4-stage step"):
        flow.field.piece(z).step_map(z, 0.05)
    with pytest.raises(ValueError, match="RK4 step map off the 4-stage step"):
        sf.integrate(flow, z, sf.IntegratorConfig(step=0.05, horizon=1.0))


def _on_a_face():
    """A walk's step map at a state on a face, that state and the index of its largest coordinate."""
    flow, z0 = _walk_flow(1)
    traj = sf.integrate(flow, z0, sf.IntegratorConfig(step=0.05, horizon=3.0))
    z = next(z for z in traj.states if flow.field.faces(z)[:, :4].any())  # on a face
    return flow, flow.field.piece(z).step_map(z, 0.05), z, int(np.argmax(np.abs(z)))


@pytest.mark.parametrize("power", [0, 1, 3])
def test_a_perturbed_cached_power_fails_the_block_check(monkeypatch, power):
    flow, amap, z, k = _on_a_face()
    buf, powers = np.empty(flows.BLOCK_MAX_ENTRIES), []
    assert amap.block(z, 8, buf, powers).shape[0] == 8 and len(powers) == 4  # unperturbed, it passes
    powers[power][k, k] += 1e-6
    with pytest.raises(ValueError, match="RK4 block of [1-8] steps off its step map"):
        amap.block(z, 8, buf, powers)
    block = flows.AffineMap.block

    def perturbed(self, z, steps, buf, powers):
        if len(powers) > power:
            powers[power][k, k] += 1e-6
        return block(self, z, steps, buf, powers)

    monkeypatch.setattr(flows.AffineMap, "block", perturbed)
    with pytest.raises(ValueError, match="RK4 block of .* steps off its step map"):
        sf.integrate(flow, z, sf.IntegratorConfig(step=0.05, horizon=3.0))


def _steps_on_the_piece(flow, amap, z):
    """The states of one-step maps from z until the first whose test fails, z included."""
    states = [z]
    while (out := amap(states[-1])) is not None and len(states) <= amap.max_block:
        states.append(flow.feasible.clamp(out))
    return np.array(states)


def test_a_block_whose_test_fails_at_step_j_takes_j_steps():
    # the first state of the walk from which one-step maps of its piece take
    # a few steps before a coordinate reaches a face
    flow, z0 = _walk_flow(2)
    traj = sf.integrate(flow, z0, sf.IntegratorConfig(step=0.05, horizon=10.0))
    buf = np.empty(flows.BLOCK_MAX_ENTRIES)
    for z in traj.states:
        amap = flow.field.piece(z).step_map(z, 0.05)
        if amap is None:  # the piece's stage rows fail at z: no map
            continue
        one_step = _steps_on_the_piece(flow, amap, z)
        j = one_step.shape[0] - 1
        if 4 < j < amap.max_block:
            break
    else:
        pytest.fail("no state whose one-step maps take a few steps on its piece")
    for steps in (j - 1, j, j + 1, amap.max_block):
        rows = amap.block(z, steps, buf, [])
        assert rows.shape == (min(steps, j), flow.dim)
    assert np.abs(rows - one_step[1:]).max() <= 1e-13 * (1.0 + np.linalg.norm(z))
    assert np.array_equal(flow.feasible.clamp(rows[:-1]), rows[:-1])  # on the piece: unclamped


def _block_and_one_step_runs(monkeypatch, flow, z0, config):
    taken = _maps_taken(monkeypatch)
    blocks = sf.integrate(flow, z0, config)
    assert any(rows.shape[0] > 1 for _, _, rows in taken)  # blocks took steps
    with monkeypatch.context() as patch:
        patch.setattr(flows, "BLOCK_MAX_ENTRIES", 0)  # no block of two steps fits
        del taken[:]
        one_step = sf.integrate(flow, z0, config)
        assert taken and all(rows.shape[0] == 1 for _, _, rows in taken)
    return blocks, one_step


def _assert_same_run(blocks, one_step):
    assert np.array_equal(blocks.times, one_step.times)
    scale = 1e-13 * (1.0 + np.linalg.norm(one_step.states, axis=1))
    assert np.all(np.abs(blocks.states - one_step.states).max(axis=1) <= scale)


@pytest.mark.parametrize(
    "name, config, flow", list(_shipped_affine()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_chunked_runs_match_one_step_runs_on_shipped_configs(monkeypatch, name, config, flow):
    z0 = np.ones(flow.dim) if flow.feasible is None else flow.feasible.clamp(np.ones(flow.dim))
    _assert_same_run(*_block_and_one_step_runs(monkeypatch, flow, z0, config))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("every, horizon", [(1, 60.0), (3, 60.0), (10, 60.0), (7, 61.23)])
def test_chunked_runs_match_one_step_runs_on_walks(monkeypatch, seed, every, horizon):
    # 61.23 is 1224 steps of 0.05, not a multiple of 7, then a fractional step of 0.03
    flow, z0 = _walk_flow(seed)
    config = sf.IntegratorConfig(step=0.05, horizon=horizon, record_every=every)
    blocks, one_step = _block_and_one_step_runs(monkeypatch, flow, z0, config)
    _assert_same_run(blocks, one_step)
    assert blocks.times[-1] == horizon


def test_a_map_fails_once_a_face_coordinate_has_left_its_face():
    # coordinate 0 is on its lower face with an outward field, so the map
    # holds it there; off the face, with the field still outward, the
    # 4-stage step moves it and the map must not hold
    box = sf.FeasibleSet([0.0, -np.inf], [np.inf, np.inf])
    field = sf.AffineField(-np.eye(2), np.array([-1.0, 0.0]), box)
    z = np.array([0.0, 1.0])
    amap = field.piece(z).step_map(z, 0.1)
    assert amap(z)[0] == 0.0
    assert amap(np.array([0.05, 1.0])) is None


def _count_builds(monkeypatch) -> list:
    builds = []
    build = sf.Piece.step_map

    def counting(self, z, h):
        builds.append(self.key)
        return build(self, z, h)

    monkeypatch.setattr(sf.Piece, "step_map", counting)
    return builds


def test_a_face_with_an_exactly_zero_field_builds_its_map_once(monkeypatch):
    # coordinate 0 sits on its lower face and its field -z_0 vanishes there
    # exactly (a degenerate complementary pair); the rest rotate freely
    K = np.array([[-1.0, 0.0, 0.0], [0.0, -0.1, -1.0], [0.0, 1.0, -0.1]])
    box = sf.FeasibleSet([0.0, -np.inf, -np.inf], [np.inf, np.inf, np.inf])
    flow = sf.projected_flow(sf.Flow(dim=3, field=sf.AffineField(K, np.zeros(3))), box)
    builds = _count_builds(monkeypatch)
    config = sf.IntegratorConfig(step=0.01, horizon=5.0)
    fast = sf.integrate(flow, [0.0, 1.0, 0.5], config)
    assert len(builds) == 1
    assert np.all(fast.states[:, 0] == 0.0)
    slow = sf.integrate(replace(flow, field=lambda z: flow.field(z)), [0.0, 1.0, 0.5], config)
    assert np.abs(fast.states - slow.states).max() <= AGREE


def _counting_calls(monkeypatch) -> list:
    calls = []
    call = sf.AffineField.__call__
    monkeypatch.setattr(sf.AffineField, "__call__", lambda self, z: calls.append(1) or call(self, z))
    return calls


def test_fractional_last_step_and_euler_take_the_four_stage_path(monkeypatch):
    K = np.array([[-0.5, 1.0], [-1.0, -0.5]])
    flow = sf.Flow(dim=2, field=sf.AffineField(K, np.array([0.1, -0.2])))
    calls = _counting_calls(monkeypatch)
    traj = sf.integrate(flow, [1.0, 0.0], sf.IntegratorConfig(step=0.1, horizon=1.05, record_every=1))
    assert len(calls) == 4  # ten map steps, then one 4-stage step of 0.05
    assert traj.times[-1] == 1.05
    assert np.array_equal(traj.states[-1], _four_stage(flow, traj.states[-2], 1.05 - 10 * 0.1))
    calls.clear()
    sf.integrate(flow, [1.0, 0.0], sf.IntegratorConfig(method="euler", step=0.1, horizon=1.0))
    assert len(calls) == 10


def test_runs_are_byte_deterministic_on_both_paths(tmp_path):
    flow, z0 = _walk_flow(3)
    config = sf.IntegratorConfig(step=0.05, horizon=30.0)
    for run in (flow, replace(flow, field=lambda z: flow.field(z))):
        first, second = sf.integrate(run, z0, config), sf.integrate(run, z0, config)
        assert first.states.tobytes() == second.states.tobytes()
    outputs = []
    for k in range(2):
        out = tmp_path / str(k)
        assert main(["run", str(CONFIGS / "lp_augmented.ini"), "--output-dir", str(out), "--quiet"]) == 0
        outputs.append((out / "trajectory.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_a_replaced_field_is_integrated_not_the_stale_map(monkeypatch):
    flow, z0 = _walk_flow(1)
    config = sf.IntegratorConfig(step=0.05, horizon=10.0)
    doubled = replace(flow, field=lambda z: 2 * flow.field(z))
    builds = _count_builds(monkeypatch)
    traj = sf.integrate(doubled, z0, config)
    assert builds == []
    z = np.asarray(z0)
    for _ in range(200):
        z = _four_stage(doubled, z, 0.05)
    assert np.array_equal(traj.final_state, z)

    # a wrapper made by functools.wraps is evaluated at all four stages; a
    # pass-through one records the unwrapped run byte for byte
    def wrapped(scale):
        calls = []

        def field(z):
            calls.append(1)
            return scale * flow.field(z)

        return replace(flow, field=functools.update_wrapper(field, flow.field)), calls

    same, calls = wrapped(1.0)
    assert sf.integrate(same, z0, config).states.tobytes() == sf.integrate(flow, z0, config).states.tobytes()
    assert len(calls) == 4 * 200
    twice, _ = wrapped(2.0)
    assert np.array_equal(sf.integrate(twice, z0, config).states, traj.states)


@pytest.mark.parametrize("cap, short", [(2**15, False), (2**10, True)])
def test_a_wrapped_field_records_the_grid_states_of_its_run(monkeypatch, cap, short):
    # 11.23 is 224 steps of 0.05 and a fractional one, and still far from
    # the equilibrium. Blocks start at any step and record every 10th state
    # inside them. A cap of 2**15 entries lets them run long; one of 2**10
    # keeps them at most 32 steps long, so many more start and end between records.
    flow, z0 = _walk_flow(1)
    config = sf.IntegratorConfig(step=0.05, horizon=11.23, record_every=10)
    monkeypatch.setattr(flows, "BLOCK_MAX_ENTRIES", cap)
    taken = _maps_taken(monkeypatch)
    plain = sf.integrate(flow, z0, config)
    blocks = [rows.shape[0] for _, _, rows in taken if rows.shape[0] > 1]
    assert blocks and (max(blocks) <= 32) == short
    grid = np.append(np.arange(0, 225, 10), 225) * 0.05
    grid[-1] = 11.23
    assert np.array_equal(plain.times, grid)

    def wrapped(scale):
        def field(z):
            return scale * flow.field(z)

        return replace(flow, field=functools.update_wrapper(field, flow.field))

    # a pass-through wrapper keeps the map's states, any other records its own run
    assert sf.integrate(wrapped(1.0), z0, config).states.tobytes() == plain.states.tobytes()
    doubled = replace(flow, field=lambda z: 2 * flow.field(z))
    assert np.array_equal(sf.integrate(wrapped(2.0), z0, config).states, sf.integrate(doubled, z0, config).states)


def test_a_wrapper_that_changes_the_field_records_only_its_own_run():
    # 61.23 runs the doubled field close to the equilibrium it shares with
    # the plain one; from the first block where the wrapper's states differ
    # from the map's, the run takes the wrapper's 4-stage steps, so no later
    # map state agrees by chance
    flow, z0 = _walk_flow(1)
    config = sf.IntegratorConfig(step=0.05, horizon=61.23, record_every=10)

    def field(z):
        return 2.0 * flow.field(z)

    wrapped = replace(flow, field=functools.update_wrapper(field, flow.field))
    doubled = replace(flow, field=lambda z: 2.0 * flow.field(z))
    assert np.array_equal(sf.integrate(wrapped, z0, config).states, sf.integrate(doubled, z0, config).states)


def _inward_on_a_face(flow, z0):
    """z0 with one bounded coordinate of a walk moved onto a face where its field points inward."""
    box, field = flow.feasible, flow.field
    for i in range(4):  # the coordinates with a finite bound
        for bound, inward in ((box.lower[i], 1.0), (box.upper[i], -1.0)):
            z = z0.copy()
            z[i] = bound
            if np.isfinite(bound) and inward * (field.K @ z + field.k0)[i] > 0.0:
                return z, i
    raise AssertionError("no bounded coordinate with an inward field on its face")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_free_coordinate_on_its_face_takes_the_four_stage_step(seed):
    # the map's inside rows hold at z too, so a coordinate that sits on its
    # face with an inward field fails them there: the piece builds no map
    # at z, and the step is the 4-stage step's arithmetic
    flow, z0 = _walk_flow(seed)
    z, i = _inward_on_a_face(flow, z0)
    h = 0.05
    piece = flow.field.piece(z)
    assert not piece.faces[:, i].any()  # free: the field leaves the face
    assert piece.step_map(z, h) is None  # no map is built
    traj = sf.integrate(flow, z, sf.IntegratorConfig(step=h, horizon=2 * h))
    assert np.array_equal(traj.states[1], _four_stage(flow, z, h))


def test_a_step_map_tests_each_row_once():
    # a held face row is the same at all four stages, so it is kept once:
    # four rows per finite bound of a free coordinate (z, p2, p3, p4), five
    # per coordinate held on one face (the face, the raw field at four stages)
    held_in_all = 0
    for name, config, flow in _shipped_affine():
        if flow.feasible is None:
            continue
        z = sf.integrate(flow, flow.feasible.clamp(np.ones(flow.dim)), config).final_state
        piece = flow.field.piece(z)
        amap = piece.step_map(z, config.step)
        signed = np.column_stack((amap.W[flow.dim :], amap.w[flow.dim :], amap.floor))
        assert np.unique(signed, axis=0).shape[0] == signed.shape[0], name
        free, box = ~piece.faces.any(axis=0), flow.feasible
        bounds = np.count_nonzero(free & (box.lower > -np.inf)) + np.count_nonzero(free & (box.upper < np.inf))
        held = np.count_nonzero(piece.faces[0] ^ piece.faces[1])
        assert amap.floor.shape[0] == 4 * bounds + 5 * held, name
        held_in_all += held
    assert held_in_all > 0  # some final states sit on faces


# ---------------------------------------------------------------------------
# One RK4 step: flows._rk4 takes the 4-stage steps and builds the step maps

RK4_WEIGHTS = ast.dump(ast.parse("k1 + 2.0 * (k2 + k3) + k4", mode="eval").body)


def _rk4_weightings(tree) -> list:
    """(top-level definition, line) of each expression ``k1 + 2.0 * (k2 + k3) + k4`` in ``tree``."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.BinOp) and ast.dump(node) == RK4_WEIGHTS:
                found.append((getattr(top, "name", None), node.lineno))
    return found


def test_the_scan_sees_the_rk4_weighting():
    tree = ast.parse(
        "def step(z, h):\n"
        "    return z + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)\n"
        "x = k1 + 2.0 * (k2 + k3) + k4\n"
        "y = k1 + 2.0 * (k3 + k2) + k4\n"
    )
    assert _rk4_weightings(tree) == [("step", 2), (None, 3)]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "saddleflow").glob("*.py")), ids=lambda path: path.name)
def test_only_flows_rk4_weights_the_stages(path):
    found = _rk4_weightings(ast.parse(path.read_text()))
    assert [owner for owner, _ in found] == (["_rk4"] if path.name == "flows.py" else [])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_rk4_step_of_a_run_is_one_rk4_call(monkeypatch, seed):
    # one per 4-stage step of integrate (four field evaluations), one per
    # refused step map (its rows at z), two per built one (and the map's rows)
    flow, z0 = _walk_flow(seed)
    evaluations, builds, calls = _counting_calls(monkeypatch), _builds(monkeypatch), []
    rk4 = flows._rk4
    monkeypatch.setattr(flows, "_rk4", lambda *args: calls.append(args[0]) or rk4(*args))
    sf.integrate(flow, z0, sf.IntegratorConfig(step=0.05, horizon=60.0))
    built = sum(amap is not None for _, _, amap in builds)
    assert len(evaluations) % 4 == 0 and evaluations and 0 < built < len(builds)
    assert len(calls) == len(evaluations) // 4 + len(builds) + built
    assert calls.count(flow.field) == len(evaluations) // 4


def _build_state_rows(monkeypatch) -> list:
    """(the map's W, its build state, the rows its build-state check expects) of every map built."""
    built, check = [], flows._check

    def logging(W, w, z, expected, what):
        check(W, w, z, expected, what)
        if what.startswith("RK4 step map"):
            built.append((W, z.copy(), expected.copy()))

    monkeypatch.setattr(flows, "_check", logging)
    return built


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_maps_build_state_rows_are_rk4_on_the_pieces_field_rows(monkeypatch, seed):
    # the state, then each signed row at the four stage points, of which a
    # row at p2, p3 or p4 is kept only where the map keeps it: bit for bit
    flow, z0 = _walk_flow(seed)
    h = 0.05
    builds, checked = _builds(monkeypatch), _build_state_rows(monkeypatch)
    sf.integrate(flow, z0, sf.IntegratorConfig(step=h, horizon=60.0))
    maps = [(piece, z, amap) for piece, z, amap in builds if amap is not None]
    assert len(maps) == len(checked) > 0
    for (piece, z, amap), (W, at, expected) in zip(maps, checked):
        assert W is amap.W and np.array_equal(at, z)
        dim = z.shape[0]
        M, m, G, g = piece.W[:dim], piece.w[:dim], piece.W[dim:], piece.w[dim:]
        state, points = flows._rk4(lambda p: M @ p + m, np.asarray, z, h)
        rows = np.stack(points) @ G.T + g
        signed = g.shape[0]
        assert np.array_equal(expected[:dim], state) and np.array_equal(expected[dim : dim + signed], rows[0])
        later = iter(zip(rows[1:].ravel(), np.tile(piece.floor, 3)))  # the rows at p2, p3, p4, stage by stage
        for row, floor in zip(expected[dim + signed :], amap.floor[signed:]):
            assert any(v == row and f == floor for v, f in later)  # each kept row, in order


# ---------------------------------------------------------------------------
# Lasso pieces: the dual-prox field on one active set of its inner box QP

LASSO = ["shipped", "bench_2024", "bench_31337"]


@functools.cache
def _lasso(name, tmp_path):
    """(integrator config, flow, z0) of configs/lasso_pipeline.ini or of the benchmark's at a seed."""
    path = CONFIGS / "lasso_pipeline.ini"
    if name != "shipped":
        bench_inputs().write_inputs("inner_solve", int(name.rpartition("_")[2]), tmp_path)
        path = tmp_path / "lasso_pipeline.ini"
    cfg = load_config(path)
    flow = build_setup(cfg).flow
    return cfg.integrator, flow, cfg.z0 if cfg.z0 is not None else np.ones(flow.dim)


def _piece_keys(monkeypatch) -> dict:
    """id of every step map built -> the key of the piece it was built of."""
    keys = {}
    build = sf.Piece.step_map

    def logging(self, *args):
        amap = build(self, *args)
        keys[id(amap)] = self.key
        return amap

    monkeypatch.setattr(sf.Piece, "step_map", logging)
    return keys


@pytest.mark.parametrize("name", LASSO)
def test_lasso_map_steps_and_chunks_agree_with_four_stage_steps(monkeypatch, tmp_path, name):
    config, flow, z0 = _lasso(name, tmp_path)
    keys = _piece_keys(monkeypatch)
    steps = _maps_taken(monkeypatch)
    sf.integrate(flow, z0, config)
    assert any(rows.shape[0] > 1 for _, _, rows in steps)  # blocks took steps
    assert len({keys[id(amap)] for amap, _, _ in steps}) >= 2  # on pieces of several active sets
    for _, z, rows in steps:
        p = z
        for j, row in enumerate(rows):
            p = _four_stage(flow, p, config.step)
            assert _agree(row, p), (name, j, rows.shape[0])
    _assert_same_run(*_block_and_one_step_runs(monkeypatch, flow, z0, config))


def test_a_piece_is_an_affine_map_that_takes_no_steps(tmp_path):
    # one sign-tested affine type: a piece is an AffineMap whose rows are the
    # field rows [M; G], and it keeps one copy of them
    assert issubclass(sf.Piece, sf.AffineMap) and sf.Piece.__call__ is sf.AffineMap.__call__
    assert [f.name for f in fields(sf.Piece)] == [f.name for f in fields(sf.AffineMap)] + ["faces"]
    flow, z0 = _walk_flow(1)
    z = sf.integrate(flow, z0, sf.IntegratorConfig(step=0.05, horizon=2.0)).final_state
    _, lasso_flow, lasso_z = _lasso("shipped", tmp_path)
    box_piece, lasso_piece = flow.field.piece(z), lasso_transform(lasso_flow).piece(lasso_z)
    for piece, at in ((box_piece, z), (lasso_piece, lasso_z)):
        assert isinstance(piece, sf.AffineMap)
        assert not any(hasattr(piece, name) for name in ("M", "m", "G", "g"))
        assert piece.W.shape[0] > piece.dim  # signed rows below the field rows
        out = piece(at)
        assert out is not None and _agree(out, piece.W[: piece.dim] @ at + piece.w[: piece.dim])
    amap, again = box_piece.step_map(z, 0.05), box_piece.step_map(z, 0.05)
    assert amap.block(z, 8, np.empty(flows.BLOCK_MAX_ENTRIES), []).shape == (8, flow.dim)
    # identity hashes: each map is its own set member and dict key, and an equal copy is another
    maps = [box_piece, lasso_piece, amap, again]
    keys = {each: i for i, each in enumerate(maps)}
    assert len(set(maps)) == 4 and [keys[each] for each in maps] == [0, 1, 2, 3]
    twin = replace(box_piece)
    assert twin != box_piece and twin not in keys


@pytest.mark.parametrize("stage", ["z", "p4"])
def test_a_perturbed_lasso_step_map_fails_its_build_state_check(monkeypatch, tmp_path, stage):
    config, flow, z0 = _lasso("shipped", tmp_path)
    piece = lasso_transform(flow).piece(z0)
    assert piece.W.shape[0] > piece.dim  # KKT rows
    assert piece.step_map(z0, config.step) is not None  # unperturbed, it passes
    build = flows.AffineMap

    def perturbed(dim, W, w, floor):
        W[{"z": dim, "p4": -1}[stage], 0] += 1e-6  # the first KKT row at z, or the last at p4
        return build(dim, W, w, floor)

    monkeypatch.setattr(flows, "AffineMap", perturbed)
    with pytest.raises(ValueError, match="RK4 step map off the 4-stage step"):
        piece.step_map(z0, config.step)
    with pytest.raises(ValueError, match="RK4 step map off the 4-stage step"):
        sf.integrate(flow, z0, config)


@pytest.mark.parametrize("name", ["shipped", "bench_2024"])
def test_a_wrapped_lasso_field_records_the_same_trajectory(tmp_path, name):
    # a functools.wraps wrapper, as a tracer makes, is evaluated at all four
    # stages and still records the unwrapped run byte for byte
    config, flow, z0 = _lasso(name, tmp_path)
    calls = []

    def traced(z):
        calls.append(1)
        return flow.field(z)

    wrapped = replace(flow, field=functools.update_wrapper(traced, flow.field))
    records = []
    for k, run in enumerate((flow, wrapped, flow)):
        sf.integrate(run, z0, config).write_csv(tmp_path / f"{k}.csv")
        records.append((tmp_path / f"{k}.csv").read_bytes())
    assert records[0] == records[1] == records[2]
    assert len(calls) == 4 * round(config.horizon / config.step)


@pytest.mark.parametrize("seed", [2024, 31337])
def test_lasso_runs_evaluate_the_field_rarely_and_solve_no_more_box_qps(monkeypatch, tmp_path, seed):
    calls, solves = [], []
    field, solve = transforms.LassoDualProx.field, transforms.projected_concave_max
    monkeypatch.setattr(transforms.LassoDualProx, "field", lambda self, z: calls.append(1) or field(self, z))
    monkeypatch.setattr(transforms, "projected_concave_max", lambda *a, **k: solves.append(1) or solve(*a, **k))
    config, flow, z0 = _lasso(f"bench_{seed}", tmp_path)
    mapped = sf.integrate(flow, z0, config)
    counts = len(calls), len(solves)
    del calls[:], solves[:]
    # every step at all four stages, through the field's kept pieces: the
    # path that ran before the Lasso's steps were maps
    four_stage = sf.integrate(replace(flow, field=lambda z: flow.field(z)), z0, config)
    assert len(calls) == 4 * 375 == 1500
    assert counts[0] < 100 and counts[1] <= len(solves)
    scale = AGREE * (1.0 + np.linalg.norm(four_stage.states, axis=1))
    assert np.all(np.abs(mapped.states - four_stage.states).max(axis=1) <= scale)


def _owners(tmp_path):
    """(name, integrator config, flow, z0, owner of the pieces) of each shipped box config and of the Lasso."""
    for name, config, flow in _shipped_affine():
        if flow.feasible is not None:
            yield name, config, flow, flow.feasible.clamp(np.ones(flow.dim)), flow.field
    config, flow, z0 = _lasso("shipped", tmp_path)
    yield "lasso_pipeline", config, flow, z0, lasso_transform(flow)


def test_where_a_piece_holds_the_field_gives_that_piece(tmp_path):
    # integrate takes a 4-stage step without asking the field for its piece
    # where its current piece's own rows hold at the state; there the field's
    # piece, found afresh, has the same key
    for name, config, flow, z0, owner in _owners(tmp_path):
        states = sf.integrate(flow, z0, config).states
        pieces = {}
        for z in states:
            for cache in flow.caches:
                cache.clear()
            piece = owner.piece(z)
            pieces.setdefault(piece.key, piece)
        held = 0
        for z in states:
            for key, piece in pieces.items():
                if piece(z) is not None:
                    for cache in flow.caches:
                        cache.clear()
                    assert owner.piece(z).key == key, name
                    held += 1
        assert held >= 0.9 * len(states), name


def test_a_bench_min_cost_flow_run_asks_the_field_only_for_new_pieces(monkeypatch, tmp_path):
    # the benchmark's seed-2024 mincostflow_augmented run visits 9 pieces; it
    # asked for a piece 15 times when a failed one-step map went to the field
    # before trying the current piece
    bench_inputs().write_inputs("projected_direct", 2024, tmp_path)
    cfg = load_config(tmp_path / "mincostflow_augmented.ini")
    flow = build_setup(cfg).flow
    keys = []
    piece = sf.AffineField.piece

    def logging(self, z):
        keys.append((new := piece(self, z)).key)
        return new

    monkeypatch.setattr(sf.AffineField, "piece", logging)
    sf.integrate(flow, cfg.z0 if cfg.z0 is not None else np.ones(flow.dim), cfg.integrator)
    assert len(keys) == 9 and all(a != b for a, b in zip(keys, keys[1:]))


def _builds(monkeypatch) -> list:
    """(piece, state, map or None) of every ``Piece.step_map`` call."""
    builds = []
    build = sf.Piece.step_map

    def logging(self, z, h):
        amap = build(self, z, h)
        builds.append((self, z.copy(), amap))
        return amap

    monkeypatch.setattr(sf.Piece, "step_map", logging)
    return builds


def _bench_runs(tmp_path):
    """(name, integrator config, flow, z0) of every benchmark input at seed 2024."""
    inputs = bench_inputs()
    for workload in inputs.WORKLOADS:
        inputs.write_inputs(workload, 2024, tmp_path / workload)
        for path in sorted((tmp_path / workload).glob("*.ini")):
            cfg = load_config(path)
            flow = build_setup(cfg).flow
            yield f"{workload}/{path.stem}", cfg.integrator, flow, cfg.z0 if cfg.z0 is not None else np.ones(flow.dim)


def test_every_map_a_run_builds_passes_its_test_at_its_build_state(monkeypatch, tmp_path):
    walks = [(f"walk {seed}", sf.IntegratorConfig(step=0.05, horizon=60.0), *_walk_flow(seed)) for seed in (1, 2, 3)]
    builds = _builds(monkeypatch)
    built = refused = 0
    for name, config, flow, z0 in list(_bench_runs(tmp_path)) + walks:
        del builds[:]
        sf.integrate(flow, z0, config)
        for _, z, amap in builds:
            if amap is None:
                refused += 1
            else:
                built += 1
                assert amap(z) is not None, name
    assert built >= 50 and refused >= 10


def test_a_bench_min_cost_flow_run_builds_only_the_maps_that_hold(monkeypatch, tmp_path):
    # each of the benchmark's seed-2024 min-cost flows built 9 step maps when
    # every new piece built one, and 4 failed their test where they were built
    bench_inputs().write_inputs("projected_direct", 2024, tmp_path)
    builds = _builds(monkeypatch)
    for name in ("mincostflow_augmented", "mincostflow_canonical"):
        cfg = load_config(tmp_path / f"{name}.ini")
        flow = build_setup(cfg).flow
        del builds[:]
        sf.integrate(flow, cfg.z0 if cfg.z0 is not None else np.ones(flow.dim), cfg.integrator)
        assert len([amap for _, _, amap in builds if amap is not None]) == 5, name
        assert any(amap is None for _, _, amap in builds), name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_refused_piece_builds_its_map_where_its_rows_hold(monkeypatch, seed):
    # each walk starts where its piece's stage rows fail; the run takes
    # 4-stage steps there and builds the map at the first later state where
    # they hold
    flow, z0 = _walk_flow(seed)
    h = 0.05
    builds = _builds(monkeypatch)
    traj = sf.integrate(flow, z0, sf.IntegratorConfig(step=h, horizon=60.0))
    index = {z.tobytes(): t for t, z in enumerate(traj.states)}
    refused, later = {}, 0
    for piece, z, amap in builds:
        t = index[z.tobytes()]
        if amap is None:
            refused[piece.key] = t
            assert np.array_equal(traj.states[t + 1], _four_stage(flow, z, h))
        elif piece.key in refused:
            later += 1
            assert t == refused[piece.key] + 1 and piece(z) is not None and amap(z) is not None
    assert refused and later >= 1


def test_a_min_cost_flow_run_keeps_its_memory_peak_small():
    # configs/mincostflow_augmented.ini: dim 52 and 801 records (325 KB). The
    # blocks' temporaries live in one buffer of BLOCK_MAX_ENTRIES (128 KB).
    # The run peaked 531 KB above its records
    cfg = load_config(CONFIGS / "mincostflow_augmented.ini")
    flow = build_setup(cfg).flow
    z0 = cfg.z0 if cfg.z0 is not None else np.ones(flow.dim)
    tracemalloc.start()
    try:
        traj = sf.integrate(flow, z0, cfg.integrator)
        peak = tracemalloc.get_traced_memory()[1]
        z = traj.states[len(traj) // 2]
        amap, buf = flow.field.piece(z).step_map(z, cfg.integrator.step), np.empty(flows.BLOCK_MAX_ENTRIES)
        powers = []
        amap.block(z, amap.max_block, buf, powers)  # squares the powers
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        rows = amap.block(z, amap.max_block, buf, powers)
        block_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert flow.dim == 52 and peak < traj.states.nbytes + 2**20
    assert rows.shape[0] > 100 and block_peak < 2**17  # 97 KB, mostly numpy's comparison buffers
