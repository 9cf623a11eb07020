import importlib
import math
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

import saddleflow as sf
from saddleflow import flows
from saddleflow.integrate import IntegrationError

integrate_mod = importlib.import_module("saddleflow.integrate")


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


def test_integrator_config_validation():
    # RK4 is the only method: a class constant, not a setting
    assert sf.IntegratorConfig.method == sf.IntegratorConfig().method == "rk4"
    assert [f.name for f in fields(sf.IntegratorConfig)] == ["step", "horizon", "record_every"]
    with pytest.raises(TypeError):
        sf.IntegratorConfig(method="rk4")
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


def test_a_non_integer_record_every_is_a_value_error():
    # it slices the record grid: a non-integer fails at construction, not in integrate
    for every in (2.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="record_every must be an integer"):
            sf.IntegratorConfig(step=0.01, horizon=1.0, record_every=every)
    for every in (25, np.int64(25), np.int32(25)):
        config = sf.IntegratorConfig(step=0.01, horizon=1.0, record_every=every)
        traj = sf.integrate(_decay_flow(), [1.0], config)
        assert np.array_equal(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_integrator_config_counts_steps_only_below_2_to_53():
    # int(horizon / step + 1e-9) counts the steps exactly below 2**53
    for step, horizon in ((1e-300, 1e10), (1e-290, 1.0), (1.0, 2.0**53)):
        with pytest.raises(ValueError, match=r"horizon / step must be < 2\*\*53"):
            sf.IntegratorConfig(step=step, horizon=horizon)
    assert sf.IntegratorConfig(step=1.0, horizon=2.0**53 - 2).horizon == 2.0**53 - 2


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_state_reports_last_time():
    # z' = z^2 from z0 = 1 blows up at t = 1; RK4 steps of 0.01 stay finite
    # up to t = 1.02, off the record grid of 10 and 100 steps
    blow_up = sf.Flow(dim=1, field=lambda z: z**2, label="blowup")
    for every in (1, 10, 100):
        config = sf.IntegratorConfig(step=0.01, horizon=5.0, record_every=every)
        with pytest.raises(IntegrationError) as err:
            sf.integrate(blow_up, [1.0], config)
        assert err.value.t_last == pytest.approx(1.02, abs=1e-12), every
        assert "(last finite time t=1.02)" in str(err.value)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("cap, every", [(300, 1), (300, 10), (None, 1)])
def test_a_divergent_affine_field_stops_where_one_step_maps_stop(monkeypatch, cap, every):
    # z' = 2z grows by e^0.2 a step and leaves the finite numbers near step 3550;
    # the map has no signed rows, so its blocks start at its max_block: 49
    # steps under a cap of 300 entries, and 2730 at dim 2 under the default.
    # One block stops short of a non-finite state, and one-step maps take the
    # steps from there
    flow = sf.Flow(dim=2, field=sf.AffineField(2.0 * np.eye(2), np.zeros(2)))
    config = sf.IntegratorConfig(step=0.1, horizon=400.0, record_every=every)
    blocks = []  # (steps asked, steps taken) of every block
    block = sf.AffineMap.block

    def logging(amap, z, steps, buf, powers):
        rows = block(amap, z, steps, buf, powers)
        blocks.append((steps, rows.shape[0]))
        return rows

    monkeypatch.setattr(sf.AffineMap, "block", logging)

    def t_last():
        with pytest.raises(IntegrationError) as err:
            sf.integrate(flow, [1.0, 0.5], config)
        return err.value.t_last

    if cap is not None:
        monkeypatch.setattr(flows, "BLOCK_MAX_ENTRIES", cap)
    in_blocks = t_last()
    assert max(steps for steps, _ in blocks) == (2730 if cap is None else 49)
    assert len([taken for steps, taken in blocks if taken < steps]) == 1
    monkeypatch.setattr(flows, "BLOCK_MAX_ENTRIES", 0)
    del blocks[:]
    assert in_blocks == t_last() == 354.8  # the failing step starts at step 3548
    assert blocks == []


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


def test_fit_rate_of_a_series_that_never_changes_is_plus_zero():
    # ln 1 = 0 at every time: the slope is 0.0, and its negation printed as -0
    rep = sf.fit_rate(np.column_stack((np.arange(5.0), np.ones(5))))
    assert rep.c_fit == 0.0 and not np.signbit(rep.c_fit)


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


def _reference_run(flow, z0, step, n_steps):
    """The fixed-step RK4 loop with np.clip stage and state clamps, every state kept."""
    fs, field = flow.feasible, flow.field
    z = np.asarray(z0, dtype=float)
    states = [z]
    for _ in range(n_steps):
        k1 = field(z)
        k2 = field(np.clip(z + (0.5 * step) * k1, fs.lower, fs.upper))
        k3 = field(np.clip(z + (0.5 * step) * k2, fs.lower, fs.upper))
        k4 = field(np.clip(z + step * k3, fs.lower, fs.upper))
        z = z + (step / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        z = np.clip(z, fs.lower, fs.upper)
        states.append(z)
    return np.array(states)


def test_clamps_match_np_clip_bit_for_bit():
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
        traj = sf.integrate(flow, z0, sf.IntegratorConfig(step=step, horizon=step * n_steps))
        ref = _reference_run(flow, z0, step, n_steps)
        assert traj.states.shape == ref.shape
        assert np.array_equal(traj.states, ref)
        assert np.array_equal(np.signbit(traj.states), np.signbit(ref))


def _near_midpoints():
    """Positive doubles v whose 17 digits are hard to round: S = v 10^(16-k) within ~1e-15 of N + 1/2.

    For v = M 2^(e-53), S = M C with C = 10^(16-k) 2^(e-53). A convergent p/q
    of the continued fraction of 2C has |2Cq - p| < 1/q'; with p odd, M = jq
    (j odd) puts S within j/(2q') of the midpoint jp/2. Only decades where
    10^(16-k) is not a double are searched: there S is computed inexactly.
    """
    found = []
    for k in [*range(17, 308, 5), *range(-7, -308, -5)]:
        e = math.floor(k * math.log2(10)) + 1
        c2 = 2 * Fraction(10) ** (16 - k) * Fraction(2) ** (e - 53)
        x, (p0, p1, q0, q1) = c2, (0, 1, 1, 0)
        while q1 < 1 << 53 and x.denominator != 1:
            a = math.floor(x)
            p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
            x = 1 / (x - a)
            for j in range(1, 64, 2):
                if j * q1 >= 1 << 53:
                    break
                if j * q1 >= 1 << 52 and j * p1 % 2 and 2 * 10**16 <= j * q1 * c2 < 2 * 10**17:
                    found.append(math.ldexp(j * q1, e - 53))
    return found


def test_csv_bytes_match_per_value_formatting(tmp_path):
    # the rows as first written: one f-string per value
    def reference(traj, path):
        dim = traj.states.shape[1]
        with open(path, "w", newline="\n") as fh:
            fh.write("t," + ",".join(f"state_{j}" for j in range(dim)) + "\n")
            for t, row in zip(traj.times, traj.states):
                fh.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row.tolist()) + "\n")

    def same_bytes(traj):
        traj.write_csv(tmp_path / "new.csv")
        reference(traj, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    rng = np.random.default_rng(5)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, -1.0 / 3.0, 0.1]
    for dim in (0, 1, 6):
        states = rng.standard_normal((7, dim)) * 10.0 ** rng.integers(-20, 20, (7, dim))
        if dim:
            states.flat[: len(special)] = special[: states.size]
        same_bytes(sf.Trajectory(np.cumsum(rng.uniform(0.01, 3.0, 7)), states))

    # tables large enough for the block formatter, several blocks each
    rng = np.random.default_rng(27)
    tens = np.array([float(f"1e{j}") for j in range(-320, 309)])
    near = np.array(_near_midpoints())
    decimals = rng.standard_normal(2000) * 10.0 ** rng.integers(-6, 9, 2000)
    values = np.concatenate([
        special, [2.2250738585072014e-308, 99999999999999999.0, 9.9999999999999999e16],
        [1e20, -1e20, 1e-299, 1e23, 0.5e-4, 1e-4, 1e16, 1e17],
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        near, np.nextafter(near, 0.0), np.nextafter(near, np.inf),
        rng.integers(-10**17, 10**17, 5000).astype(float),
        rng.integers(-10**6, 10**6, 5000) * 0.125,
        *(np.round(decimals, places) for places in range(17)),
    ])
    values = np.concatenate([values, -values])
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
    assert near.size > 500 and values.size > 10 * integrate_mod._CSV_BLOCK
    same_bytes(sf.Trajectory(np.arange(values.size) * 0.1, values[:, None]))
    rows = -(-bits.size // 53)
    same_bytes(sf.Trajectory(np.cumsum(rng.uniform(1e-3, 1.0, rows)), np.resize(bits, (rows, 53))))
    rows = 3 * integrate_mod._CSV_BLOCK
    same_bytes(sf.Trajectory(np.cumsum(rng.uniform(1e-9, 1e9, rows)), np.empty((rows, 0))))


def test_writing_a_trajectory_keeps_its_memory_peak_small(tmp_path):
    # the size of the benchmark's mincostflow_canonical run: 801 records of t
    # and 52 states. One numpy pass over the whole table peaks near 24 MB;
    # blocks of rows keep the peak under 1 MB
    rng = np.random.default_rng(31)
    states = rng.standard_normal((801, 52)) * 10.0 ** rng.integers(-12, 2, (801, 52))
    traj = sf.Trajectory(np.arange(801) * 0.05, states)
    traj.write_csv(tmp_path / "warm.csv")  # the formatter's tables: built once per process
    tracemalloc.start()
    try:
        traj.write_csv(tmp_path / "traj.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
