"""RK4 step maps of affine fields against the 4-stage step they replace.

``integrate`` takes each full RK4 step of an ``AffineField`` as one
``AffineMap``: ``W @ z + w`` plus a sign test. These tests compare map steps
with 4-stage steps on the shipped affine configs and on seeded walks that
cross faces, check the build-state check, and pin down which steps take the
4-stage path.
"""

import functools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import saddleflow as sf
from saddleflow import flows
from saddleflow.cli import build_setup, load_config, main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
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
    """The clamped map step from z on the active set at z, or None if its test fails."""
    field = flow.field
    faces = field.faces(z)
    out = field.step_map(z, h, faces)(z)
    if out is None:
        return None, faces
    return (flow.feasible.clamp(out) if flow.feasible is not None else out), faces


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
    """(map, state, output) of every map call whose sign test passes."""
    taken = []
    call = sf.AffineMap.__call__

    def logging(self, z):
        out = call(self, z)
        if out is not None:
            taken.append((self, z.copy(), out))
        return out

    monkeypatch.setattr(sf.AffineMap, "__call__", logging)
    return taken


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_map_steps_agree_on_walks_that_cross_faces(monkeypatch, seed):
    flow, z0 = _walk_flow(seed)
    h = 0.05
    config = sf.IntegratorConfig(step=h, horizon=60.0)
    taken = _maps_taken(monkeypatch)
    fast = sf.integrate(flow, z0, config)
    slow = sf.integrate(replace(flow, field=lambda z: flow.field(z)), z0, config)
    # the state each step of the run got from the map that took it: a chunk or a one-step map
    index = {z.tobytes(): t for t, z in enumerate(fast.states)}
    took = {}
    for amap, z, out in taken:
        for j, row in zip(amap.records, out.reshape(len(amap.records), -1)):
            took[index[z.tobytes()] + j] = flow.feasible.clamp(row)
    assert any(amap.records[-1] > 1 for amap, _, _ in taken)
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

    def perturbed(faces, dim, W, w, floor):
        W[{"state": 0, "stage point": dim, "face": -1}[row], k] += 1e-6
        return build(faces, dim, W, w, floor)

    flow.field.step_map(z, 0.05, flow.field.faces(z))  # unperturbed, it passes
    monkeypatch.setattr(flows, "AffineMap", perturbed)
    with pytest.raises(ValueError, match="RK4 step map off the 4-stage step"):
        flow.field.step_map(z, 0.05, flow.field.faces(z))
    with pytest.raises(ValueError, match="RK4 step map off the 4-stage step"):
        sf.integrate(flow, z, sf.IntegratorConfig(step=0.05, horizon=1.0))


@pytest.mark.parametrize("row", ["final state", "intermediate state", "signed", "inner bound"])
def test_a_perturbed_chunk_fails_its_build_state_check(monkeypatch, row):
    flow, z0 = _walk_flow(1)
    traj = sf.integrate(flow, z0, sf.IntegratorConfig(step=0.05, horizon=3.0))
    z = next(z for z in traj.states if flow.field.faces(z)[:, :4].any())  # on a face
    k = int(np.argmax(np.abs(z)))
    field, dim = flow.field, flow.dim
    amap = field.step_map(z, 0.05, field.faces(z))
    chunk = field.chunk(amap, z, 1, 6)  # unperturbed, it passes
    assert chunk.records == (1, 2, 3, 4, 5, 6) and chunk.floor.shape[0] > 6 * amap.floor.shape[0]
    build = flows.AffineMap

    def perturbed(faces, dim_out, W, w, floor, records=(1,)):
        if records[-1] > 1:
            W[{"final state": dim_out - dim, "intermediate state": 0, "signed": dim_out, "inner bound": -1}[row], k] += 1e-6
        return build(faces, dim_out, W, w, floor, records=records)

    monkeypatch.setattr(flows, "AffineMap", perturbed)
    with pytest.raises(ValueError, match="RK4 chunk of 6 steps off its step map"):
        field.chunk(amap, z, 1, 6)
    with pytest.raises(ValueError, match="RK4 chunk of .* steps off its step map"):
        sf.integrate(flow, z, sf.IntegratorConfig(step=0.05, horizon=1.0))


def _chunked_and_one_step_runs(monkeypatch, flow, z0, config):
    taken = _maps_taken(monkeypatch)
    chunked = sf.integrate(flow, z0, config)
    assert any(amap.records[-1] > 1 for amap, _, _ in taken)  # chunks took steps
    with monkeypatch.context() as patch:
        patch.setattr(flows, "CHUNK_MAX_ENTRIES", 0)  # no chunk of two steps fits
        del taken[:]
        one_step = sf.integrate(flow, z0, config)
        assert taken and all(amap.records == (1,) for amap, _, _ in taken)
    return chunked, one_step


def _assert_same_run(chunked, one_step):
    assert np.array_equal(chunked.times, one_step.times)
    scale = 1e-13 * (1.0 + np.linalg.norm(one_step.states, axis=1))
    assert np.all(np.abs(chunked.states - one_step.states).max(axis=1) <= scale)


@pytest.mark.parametrize(
    "name, config, flow", list(_shipped_affine()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_chunked_runs_match_one_step_runs_on_shipped_configs(monkeypatch, name, config, flow):
    z0 = np.ones(flow.dim) if flow.feasible is None else flow.feasible.clamp(np.ones(flow.dim))
    _assert_same_run(*_chunked_and_one_step_runs(monkeypatch, flow, z0, config))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("every, horizon", [(1, 60.0), (3, 60.0), (10, 60.0), (7, 61.23)])
def test_chunked_runs_match_one_step_runs_on_walks(monkeypatch, seed, every, horizon):
    # 61.23 is 1224 steps of 0.05, not a multiple of 7, then a fractional step of 0.03
    flow, z0 = _walk_flow(seed)
    config = sf.IntegratorConfig(step=0.05, horizon=horizon, record_every=every)
    chunked, one_step = _chunked_and_one_step_runs(monkeypatch, flow, z0, config)
    _assert_same_run(chunked, one_step)
    assert chunked.times[-1] == horizon


def test_a_map_fails_once_a_face_coordinate_has_left_its_face():
    # coordinate 0 is on its lower face with an outward field, so the map
    # holds it there; off the face, with the field still outward, the
    # 4-stage step moves it and the map must not hold
    box = sf.FeasibleSet([0.0, -np.inf], [np.inf, np.inf])
    field = sf.AffineField(-np.eye(2), np.array([-1.0, 0.0]), box)
    z = np.array([0.0, 1.0])
    amap = field.step_map(z, 0.1, field.faces(z))
    assert amap(z)[0] == 0.0
    assert amap(np.array([0.05, 1.0])) is None


def _count_builds(monkeypatch) -> list:
    builds = []
    build = sf.AffineField.step_map

    def counting(self, z, h, faces):
        builds.append(faces.tobytes())
        return build(self, z, h, faces)

    monkeypatch.setattr(sf.AffineField, "step_map", counting)
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
