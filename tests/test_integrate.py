from dataclasses import replace

import numpy as np
import pytest

import saddleflow as sf
from saddleflow import flows
from saddleflow.integrate import IntegrationError


def _decay_flow():
    return sf.Flow(dim=1, field=lambda z: -z, equilibrium_hint=np.zeros(1), label="decay")


def test_scalar_linear_decay_matches_exponential():
    traj = sf.integrate(_decay_flow(), [1.0], sf.IntegratorConfig(step=0.01, horizon=1.0))
    assert traj.final_state[0] == pytest.approx(np.exp(-1.0), abs=1e-9)
    assert traj.times[-1] == 1.0


def test_rotation_returns_after_full_period():
    flow = sf.standard_flow(sf.make_bilinear([[1.0]]))
    traj = sf.integrate(
        flow, [1.0, 0.0],
        sf.IntegratorConfig(step=1e-3, horizon=2.0 * np.pi, record_every=1000),
    )
    assert np.linalg.norm(traj.final_state - np.array([1.0, 0.0])) <= 1e-6


def test_projection_pins_boundary_coordinate():
    fs = sf.FeasibleSet.nonnegative(1)
    raw = sf.Flow(dim=1, field=lambda z: np.array([-1.0]), label="outward")
    flow = sf.projected_flow(raw, fs)
    traj = sf.integrate(flow, [0.0], sf.IntegratorConfig(step=0.01, horizon=1.0))
    assert np.all(traj.states == 0.0)


def test_euler_method_first_order():
    cfg = sf.IntegratorConfig(method="euler", step=1e-4, horizon=1.0, record_every=1000)
    traj = sf.integrate(_decay_flow(), [1.0], cfg)
    assert traj.final_state[0] == pytest.approx(np.exp(-1.0), abs=1e-4)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        sf.IntegratorConfig(method="rk5")
    with pytest.raises(ValueError):
        sf.IntegratorConfig(step=0.0)
    with pytest.raises(ValueError):
        sf.IntegratorConfig(step=2.0, horizon=1.0)
    with pytest.raises(ValueError):
        sf.IntegratorConfig(record_every=0)
    with pytest.raises(ValueError, match="horizon must be finite"):
        sf.IntegratorConfig(horizon=np.inf)
    with pytest.raises(ValueError, match="step must be finite"):
        sf.IntegratorConfig(step=np.nan)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_state_reports_last_time():
    blow_up = sf.Flow(dim=1, field=lambda z: z**3, label="blowup")
    with pytest.raises(IntegrationError) as err:
        sf.integrate(blow_up, [10.0], sf.IntegratorConfig(step=0.01, horizon=5.0))
    assert err.value.t_last >= 0.0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("cap, every", [(300, 1), (300, 10), (None, 1)])
def test_a_divergent_affine_field_stops_where_one_step_maps_stop(monkeypatch, cap, every):
    # z' = 2z grows by e^0.2 a step and leaves the finite numbers near step 3550;
    # 300 entries make chunks of 50 (every 1) or 500 steps (every 10) that do
    # so inside a chunk, while the default cap makes one chunk of the whole run,
    # which is not finite at build
    flow = sf.Flow(dim=2, field=sf.AffineField(2.0 * np.eye(2), np.zeros(2)))
    config = sf.IntegratorConfig(step=0.1, horizon=400.0, record_every=every)
    outputs = []  # (map, output) of every map call
    call = sf.AffineMap.__call__

    def logging(amap, z):
        outputs.append((amap, call(amap, z)))
        return outputs[-1][1]

    monkeypatch.setattr(sf.AffineMap, "__call__", logging)

    def t_last():
        with pytest.raises(IntegrationError) as err:
            sf.integrate(flow, [1.0, 0.5], config)
        return err.value.t_last

    if cap is not None:
        monkeypatch.setattr(flows, "CHUNK_MAX_ENTRIES", cap)
    chunked = t_last()
    non_finite = [m for m, out in outputs if m.records[-1] > 1 and not np.isfinite(out).all()]
    assert len(non_finite) == (0 if cap is None else 1)  # then one-step maps, one by one
    monkeypatch.setattr(flows, "CHUNK_MAX_ENTRIES", 0)
    assert chunked == t_last() > 300.0


def test_initial_state_outside_set_warns_and_clamps():
    fs = sf.FeasibleSet.nonnegative(1)
    flow = sf.projected_flow(sf.Flow(dim=1, field=lambda z: np.array([0.0])), fs)
    with pytest.warns(UserWarning, match="clamping"):
        traj = sf.integrate(flow, [-0.5], sf.IntegratorConfig(step=0.01, horizon=0.1))
    assert traj.states[0][0] == 0.0


def test_clamped_run_stays_feasible_exactly():
    # inward spiral repeatedly pushed against the orthant boundary
    fs = sf.FeasibleSet.nonnegative(2)
    raw = sf.standard_flow(sf.make_bilinear([[1.0]]))
    flow = sf.projected_flow(raw, fs)
    traj = sf.integrate(flow, [1.0, 0.0], sf.IntegratorConfig(step=1e-3, horizon=8.0))
    assert np.all(traj.states >= 0.0)


def test_detect_equilibrium_cases():
    bil = sf.make_bilinear([[1.0]])
    rot = sf.standard_flow(bil)
    orbit = sf.integrate(rot, [1.0, 0.0], sf.IntegratorConfig(step=1e-3, horizon=3.0))
    assert sf.detect_equilibrium(rot, orbit, 1e-6) is None

    pinned = sf.integrate(rot, [0.0, 0.0], sf.IntegratorConfig(step=1e-3, horizon=0.5))
    assert np.array_equal(sf.detect_equilibrium(rot, pinned, 1e-6), np.zeros(2))

    aug = sf.standard_flow(sf.augment(bil, 0.5))
    traj = sf.integrate(aug, [1.0, 0.0, 0.0, 0.0],
                        sf.IntegratorConfig(step=0.02, horizon=80.0, record_every=100))
    z = sf.detect_equilibrium(aug, traj, 1e-6)
    assert z is not None and aug.residual(z) <= 1e-6


def test_distance_series_cases():
    flow = _decay_flow()
    traj = sf.integrate(flow, [1.0], sf.IntegratorConfig(step=0.01, horizon=2.0, record_every=10))
    series = sf.distance_series(traj, np.zeros(1))
    assert np.abs(series[:, 1] - np.exp(-series[:, 0])).max() <= 1e-9

    pinned = sf.Trajectory(np.array([0.0, 1.0]), np.array([[2.0], [2.0]]))
    assert np.all(sf.distance_series(pinned, np.array([2.0]))[:, 1] == 0.0)

    rot = sf.standard_flow(sf.make_bilinear([[1.0]]))
    orbit = sf.integrate(rot, [1.0, 0.0], sf.IntegratorConfig(step=1e-3, horizon=6.0, record_every=100))
    d = sf.distance_series(orbit, np.zeros(2))[:, 1]
    assert np.abs(d - 1.0).max() <= 1e-6


def test_lyapunov_series_cases():
    flow = _decay_flow()
    traj = sf.integrate(flow, [1.0], sf.IntegratorConfig(step=0.01, horizon=2.0, record_every=10))
    series = sf.lyapunov_series(traj, np.zeros(1))
    assert np.abs(series[:, 1] - 0.5 * np.exp(-2.0 * series[:, 0])).max() <= 1e-9
    assert sf.max_increment(series) <= 0.0

    pinned = sf.Trajectory(np.array([0.0, 1.0]), np.array([[2.0], [2.0]]))
    assert np.all(sf.lyapunov_series(pinned, np.array([2.0]))[:, 1] == 0.0)


def test_fit_rate_exact_exponential():
    t = np.linspace(0.0, 6.0, 400)
    rep = sf.fit_rate(np.column_stack((t, np.exp(-2.0 * t))))
    assert rep.c_fit == pytest.approx(2.0, abs=1e-6)
    assert rep.r_squared >= 1.0 - 1e-12
    assert rep.verdict == "no_bound"


def test_fit_rate_constant_series():
    t = np.linspace(0.0, 5.0, 50)
    rep = sf.fit_rate(np.column_stack((t, np.full(50, 0.7))))
    assert rep.c_fit == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_decoupled_quadratic_exact():
    # B = 0 decouples the blocks into plain linear decays at rates mu and q
    flow = sf.standard_flow(sf.make_quadratic_saddle(1.0, 2.0, [[0.0]]))
    traj = sf.integrate(flow, [1.0, 0.0], sf.IntegratorConfig(step=1e-3, horizon=15.0, record_every=10))
    rep = sf.fit_rate(sf.distance_series(traj, np.zeros(2)), c_bound=1.0)
    assert rep.c_fit == pytest.approx(1.0, abs=1e-5)
    assert rep.verdict == "pass"


def test_fit_rate_verdict_fail():
    t = np.linspace(0.0, 6.0, 100)
    rep = sf.fit_rate(np.column_stack((t, np.exp(-0.5 * t))), c_bound=1.0)
    assert rep.verdict == "fail"


def test_fit_rate_scale_invariance():
    t = np.linspace(0.0, 6.0, 100)
    d = np.exp(-1.3 * t)
    a = sf.fit_rate(np.column_stack((t, d)))
    b = sf.fit_rate(np.column_stack((t, 7.77 * d)))
    assert a.c_fit == pytest.approx(b.c_fit, rel=1e-12)


def test_fit_rate_too_few_samples():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    d = np.array([1.0, 1e-15, 1e-15, 1e-15])  # below the floor after one sample
    with pytest.raises(ValueError, match="too few"):
        sf.fit_rate(np.column_stack((t, d)))


def test_fit_rate_explicit_window():
    t = np.linspace(0.0, 10.0, 200)
    d = np.exp(-np.where(t < 5.0, 1.0, 2.0) * t + np.where(t < 5.0, 0.0, 5.0))
    rep = sf.fit_rate(np.column_stack((t, d)), window=(6.0, 10.0))
    assert rep.c_fit == pytest.approx(2.0, abs=1e-6)
    assert rep.window == (6.0, 10.0)


def test_envelope_check_cases():
    t = np.linspace(0.0, 5.0, 100)
    assert sf.envelope_check(np.column_stack((t, np.exp(-t))), c=1.0, K=1.0)
    assert not sf.envelope_check(np.column_stack((t, np.exp(-0.5 * t))), c=1.0, K=1.0)
    with pytest.raises(ValueError):
        sf.envelope_check(np.column_stack((t, np.exp(-t))), c=1.0, K=0.5)
    with pytest.raises(ValueError):
        sf.envelope_check(np.column_stack((t, np.exp(-t))), c=0.0, K=1.0)


def test_step_halving_consistency():
    rng = np.random.default_rng(2)
    flow = sf.standard_flow(sf.make_quadratic_saddle(1.0, 2.0, rng.standard_normal((2, 2)) * 0.5))
    z0 = rng.standard_normal(4)
    finals = []
    for step in (4e-3, 2e-3, 1e-3):
        cfg = sf.IntegratorConfig(step=step, horizon=2.0, record_every=10**6)
        finals.append(sf.integrate(flow, z0, cfg).final_state)
    d_coarse = np.linalg.norm(finals[0] - finals[1])
    d_fine = np.linalg.norm(finals[1] - finals[2])
    assert d_coarse <= 20.0 * d_fine + 1e-14


def test_trajectory_validation_and_csv(tmp_path):
    with pytest.raises(ValueError, match="increasing"):
        sf.Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)))
    traj = sf.integrate(_decay_flow(), [1.0], sf.IntegratorConfig(step=0.1, horizon=0.5))
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,state_0"
    data = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
    assert np.array_equal(data[:, 0], traj.times)
    assert np.abs(data[:, 1] - traj.states[:, 0]).max() == 0.0  # 17 digits round-trips
    # byte determinism
    path2 = tmp_path / "traj2.csv"
    sf.integrate(_decay_flow(), [1.0], sf.IntegratorConfig(step=0.1, horizon=0.5)).write_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_record_every_thins_samples():
    traj = sf.integrate(_decay_flow(), [1.0], sf.IntegratorConfig(step=0.01, horizon=1.0, record_every=25))
    assert len(traj) == 1 + 4
    assert traj.times[-1] == 1.0


def _reference_run(flow, z0, step, n_steps, method):
    """The fixed-step loop with np.clip stage and state clamps, every state kept."""
    fs, field = flow.feasible, flow.field
    z = np.asarray(z0, dtype=float)
    states = [z]
    for _ in range(n_steps):
        if method == "rk4":
            k1 = field(z)
            k2 = field(np.clip(z + (0.5 * step) * k1, fs.lower, fs.upper))
            k3 = field(np.clip(z + (0.5 * step) * k2, fs.lower, fs.upper))
            k4 = field(np.clip(z + step * k3, fs.lower, fs.upper))
            z = z + (step / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        else:
            z = z + step * field(z)
        z = np.clip(z, fs.lower, fs.upper)
        states.append(z)
    return np.array(states)


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_clamps_match_np_clip_bit_for_bit(method):
    # a rotation pushed into a box with an upper face, a pinned coordinate
    # and a free one, and the LP augmented flow on its orthant
    box = sf.FeasibleSet([0.0, -0.25, 0.5, -np.inf], [0.75, np.inf, 0.5, np.inf])
    rot = np.array([[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1.0], [0.0, 0.0, 0.0, -0.5]])
    lp = sf.LinearProgram(c=[1.0, 1.0], A=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], b=[-1.0, -0.5, 3.0])
    # the LP field runs as a plain callable: its 4-stage steps are the loop
    # compared here (tests/test_step_map.py compares its map steps with them)
    lp_flow = sf.standard_flow(sf.augment(sf.make_lp(lp), 0.5))
    cases = [
        (sf.projected_flow(sf.Flow(dim=4, field=lambda z: rot @ z + 0.3), box), [0.5, 0.0, 0.5, -0.0]),
        (replace(lp_flow, field=lambda z: lp_flow.field(z)), np.r_[np.ones(4), np.zeros(3), np.ones(3)]),
    ]
    step, n_steps = 0.125, 160
    for flow, z0 in cases:
        traj = sf.integrate(flow, z0, sf.IntegratorConfig(method=method, step=step, horizon=step * n_steps))
        ref = _reference_run(flow, z0, step, n_steps, method)
        assert traj.states.shape == ref.shape
        assert np.array_equal(traj.states, ref)
        assert np.array_equal(np.signbit(traj.states), np.signbit(ref))


def test_csv_bytes_match_per_value_formatting(tmp_path):
    # the rows as first written: one f-string per value
    def reference(traj, path):
        dim = traj.states.shape[1]
        with open(path, "w", newline="\n") as fh:
            fh.write("t," + ",".join(f"state_{j}" for j in range(dim)) + "\n")
            for t, row in zip(traj.times, traj.states):
                fh.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")

    rng = np.random.default_rng(5)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, -1.0 / 3.0, 0.1]
    for dim in (0, 1, 6):
        states = rng.standard_normal((7, dim)) * 10.0 ** rng.integers(-20, 20, (7, dim))
        if dim:
            states.flat[: len(special)] = special[: states.size]
        traj = sf.Trajectory(np.cumsum(rng.uniform(0.01, 3.0, 7)), states)
        traj.write_csv(tmp_path / "new.csv")
        reference(traj, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_fit_rate_of_a_flat_series_reports_no_r_squared():
    # ln d spans 1e-15 here: ss_tot is rounding, so r^2 would be noise
    t = np.linspace(0.0, 20.0, 201)
    noise = 1e-15 * np.cos(np.arange(201.0))
    rep = sf.fit_rate(np.column_stack((t, 1.0 + noise)), c_bound=1.0)
    assert np.isnan(rep.r_squared)
    assert abs(rep.c_fit) <= 1e-12 and rep.verdict == "fail" and rep.window == (0.0, 20.0)
    assert np.isnan(sf.fit_rate(np.column_stack((t, np.full(201, 0.7)))).r_squared)


def test_fit_rate_of_a_decaying_series_keeps_its_r_squared():
    t = np.linspace(0.0, 6.0, 120)
    d = np.exp(-0.8 * t) * (1.0 + 0.01 * np.cos(7.0 * t))
    rep = sf.fit_rate(np.column_stack((t, d)), window=(0.0, 6.0))
    logd = np.log(d)
    resid = logd - np.polyval(np.polyfit(t, logd, 1), t)
    expected = 1.0 - float(resid @ resid) / float(np.sum((logd - logd.mean()) ** 2))
    assert rep.r_squared == expected and 0.99 < expected < 1.0
