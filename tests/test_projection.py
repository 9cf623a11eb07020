import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddleflow import FeasibleSet, project_point, project_vector_field
from saddleflow.projection import SNAP_TOL


def test_project_point_orthant_clamp():
    fs = FeasibleSet.nonnegative(2)
    assert np.allclose(project_point(fs, [-1.0, 2.0]), [0.0, 2.0])


def test_project_point_interior_identity():
    fs = FeasibleSet([0.0], [1.0])
    assert project_point(fs, [0.5])[0] == 0.5


def test_project_point_corner_clamp():
    fs = FeasibleSet([0.0, 0.0], [1.0, 1.0])
    assert np.allclose(project_point(fs, [2.0, -3.0]), [1.0, 0.0])


def test_vector_field_projection_orthant_face():
    fs = FeasibleSet.nonnegative(2)
    out = project_vector_field(fs, [0.0, 1.0], [-3.0, -3.0])
    assert np.allclose(out, [0.0, -3.0])


def test_vector_field_projection_inward_unchanged():
    fs = FeasibleSet.nonnegative(1)
    assert project_vector_field(fs, [0.0], [2.0])[0] == 2.0


def test_vector_field_projection_upper_face():
    fs = FeasibleSet([0.0], [1.0])
    assert project_vector_field(fs, [1.0], [0.7])[0] == 0.0


def test_vector_field_projection_outside_raises():
    fs = FeasibleSet.nonnegative(1)
    with pytest.raises(ValueError, match="outside"):
        project_vector_field(fs, [-1e-6], [1.0])


def test_vector_field_projection_snaps_tiny_violation():
    fs = FeasibleSet.nonnegative(1)
    out = project_vector_field(fs, [-5e-13], [-1.0])
    assert out[0] == 0.0


def test_pinned_coordinate_is_frozen():
    fs = FeasibleSet([1.0], [1.0])
    assert project_vector_field(fs, [1.0], [3.0])[0] == 0.0
    assert project_vector_field(fs, [1.0], [-3.0])[0] == 0.0


def test_empty_set_rejected():
    with pytest.raises(ValueError, match="empty"):
        FeasibleSet([1.0], [0.0])


def test_stack_concatenates_blocks():
    fs = FeasibleSet.stack(FeasibleSet.free(2), FeasibleSet.nonnegative(1))
    assert fs.dim == 3
    assert fs.lower[2] == 0.0 and np.isinf(fs.lower[0])


def _random_case(rng, dim):
    lower = np.where(rng.random(dim) < 0.3, -np.inf, rng.uniform(-2, 0, dim))
    upper = np.where(rng.random(dim) < 0.3, np.inf, rng.uniform(0.5, 2, dim))
    fs = FeasibleSet(lower, upper)
    # mix of interior points and points pinned to faces
    p = project_point(fs, rng.uniform(-3, 3, dim))
    p_star = project_point(fs, rng.uniform(-3, 3, dim))
    s = rng.uniform(-4, 4, dim)
    return fs, p, p_star, s


def test_inner_product_inequality_random():
    rng = np.random.default_rng(101)
    for _ in range(2000):
        fs, p, p_star, s = _random_case(rng, int(rng.integers(1, 7)))
        proj = project_vector_field(fs, p, s)
        assert float((p_star - p) @ (s - proj)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(-2, 0), st.floats(0.5, 2),
            st.floats(-3, 3), st.floats(-3, 3), st.floats(-4, 4),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_inner_product_inequality_hypothesis(data):
    lower = np.array([row[0] for row in data])
    upper = np.array([row[1] for row in data])
    fs = FeasibleSet(lower, upper)
    p = project_point(fs, np.array([row[2] for row in data]))
    p_star = project_point(fs, np.array([row[3] for row in data]))
    s = np.array([row[4] for row in data])
    proj = project_vector_field(fs, p, s)
    assert float((p_star - p) @ (s - proj)) <= 1e-12


def test_interior_point_passes_field_through():
    rng = np.random.default_rng(7)
    for _ in range(200):
        dim = int(rng.integers(1, 6))
        fs = FeasibleSet(np.full(dim, -1.0), np.full(dim, 1.0))
        p = rng.uniform(-0.9, 0.9, dim)
        s = rng.uniform(-5, 5, dim)
        assert np.array_equal(project_vector_field(fs, p, s), s)


def test_limit_consistency_with_point_projection():
    # the vector field projection is the one-sided derivative of the clamp;
    # face-crossing error dominates at large delta, pure rounding (~eps/delta)
    # at small delta, hence the slack on monotonicity
    rng = np.random.default_rng(23)
    for _ in range(300):
        fs, p, _, s = _random_case(rng, int(rng.integers(1, 7)))
        proj = project_vector_field(fs, p, s)
        errs = []
        for delta in (1e-4, 1e-6, 1e-8):
            quotient = (project_point(fs, p + delta * s) - p) / delta
            errs.append(float(np.linalg.norm(quotient - proj)))
        assert errs[1] <= errs[0] + 1e-7
        assert errs[2] <= errs[1] + 1e-7
        assert errs[2] <= 1e-6


def _reference_project_vector_field(fs, p, s):
    """The rule as first written: validate, clip onto the set, compare with ==."""
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    viol = fs.violation(p)
    if viol > SNAP_TOL:
        raise ValueError(f"point outside the feasible set by {viol:.3e} (> {SNAP_TOL:.0e})")
    p = np.clip(p, fs.lower, fs.upper)
    out = np.where(p == fs.lower, np.maximum(s, 0.0), s)
    return np.where(p == fs.upper, np.minimum(out, 0.0), out)


def _same_bits(a, b) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


_EDGE = st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])
_FINITE = st.floats(-5, 5)
# distance outside a face: none, inside the snap tolerance, around it, or past it
_OFFSET = st.sampled_from([0.0, 0.0, 1e-16, 5e-13, SNAP_TOL, 2e-12, 1e-6])


@st.composite
def _box_coordinate(draw):
    """(lower, upper, point) of one coordinate; bounds may be infinite or equal."""
    lo = draw(st.sampled_from([-np.inf, 0.0, -0.0]) | _FINITE)
    kind = draw(st.sampled_from(["inf", "equal", "finite"]))
    if kind == "inf":
        up = np.inf
    elif kind == "equal":
        up = lo if np.isfinite(lo) else draw(_FINITE)
        lo = up
    else:
        up = draw(st.floats(lo if np.isfinite(lo) else -5.0, 6.0))
    where = draw(st.sampled_from(["lower", "upper", "inside", "edge"]))
    if where == "lower":
        p = lo - draw(_OFFSET)
    elif where == "upper":
        p = up + draw(_OFFSET)
    elif where == "inside":
        a, b = max(lo, -10.0), min(up, 10.0)
        p = a + draw(st.floats(0.0, 1.0)) * (b - a)
    else:
        p = draw(_EDGE)
    return lo, up, p


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@settings(max_examples=500, deadline=None)
@given(
    coords=st.lists(_box_coordinate(), min_size=1, max_size=8),
    directions=st.lists(_EDGE | st.floats(-4, 4), min_size=8, max_size=8),
)
def test_vector_field_projection_matches_clip_rule_bit_for_bit(coords, directions):
    lower, upper, p = (np.array(col, dtype=float) for col in zip(*coords))
    s = np.array(directions[: lower.shape[0]])
    fs = FeasibleSet(lower, upper)
    try:
        ref = _reference_project_vector_field(fs, p, s)
    except ValueError as err:
        with pytest.raises(ValueError) as new_err:
            project_vector_field(fs, p, s)
        assert str(new_err.value) == str(err)
        return
    assert _same_bits(project_vector_field(fs, p, s), ref)


def test_pinned_coordinate_snapped_from_outside_is_frozen():
    # lower == upper: the clipped point sits on both faces from either side
    fs = FeasibleSet([1.0, 1.0], [1.0, 1.0])
    p = np.array([1.0 + 4e-13, 1.0 - 4e-13])
    for s in ([3.0, 3.0], [-3.0, -3.0]):
        assert np.array_equal(project_vector_field(fs, p, s), [0.0, 0.0])


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@settings(max_examples=500, deadline=None)
@given(
    coords=st.lists(_box_coordinate(), min_size=1, max_size=8),
    shifts=st.lists(_EDGE | st.floats(-1e3, 1e3), min_size=8, max_size=8),
)
def test_clamp_is_np_clip_bit_for_bit(coords, shifts):
    lower, upper, p = (np.array(col, dtype=float) for col in zip(*coords))
    fs = FeasibleSet(lower, upper)
    for point in (p, p + np.array(shifts[: p.shape[0]])):
        assert _same_bits(fs.clamp(point), np.clip(point, lower, upper))
        assert _same_bits(project_point(fs, point), np.clip(point, lower, upper))


@settings(max_examples=500, deadline=None)
@given(coords=st.lists(_box_coordinate(), min_size=1, max_size=8))
def test_on_faces_are_the_faces_of_the_clipped_point(coords):
    lower, upper, p = (np.array(col, dtype=float) for col in zip(*coords))
    fs = FeasibleSet(lower, upper)
    clipped = np.clip(p, lower, upper)
    # a clipped coordinate is on a face where it equals the bound, a pinned one on both
    assert np.array_equal(fs.on_faces(clipped), np.stack((clipped <= lower, clipped >= upper)))
    assert np.array_equal(fs.on_faces(p), fs.on_faces(clipped))


def test_bounds_are_read_only_copies():
    lower, upper = np.array([0.0, 1.0]), np.array([1.0, 1.0])
    fs = FeasibleSet(lower, upper)
    lower[0] = 5.0  # the caller's array is not the set's
    assert fs.lower[0] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        fs.upper[1] = 2.0
    assert np.array_equal(project_vector_field(fs, [0.5, 1.0], [1.0, 1.0]), [1.0, 0.0])


@settings(max_examples=300, deadline=None)
@given(coords=st.lists(_box_coordinate(), min_size=1, max_size=8))
def test_the_face_thresholds_are_the_bounds_but_infinite_where_pinned(coords):
    lower, upper, _ = (np.array(col, dtype=float) for col in zip(*coords))
    fs = FeasibleSet(lower, upper)
    pinned = lower == upper
    expected = (lower, upper, np.where(pinned, np.inf, lower), np.where(pinned, -np.inf, upper))
    for got, want in zip((fs.lower, fs.upper, fs._lower_face, fs._upper_face), expected):
        assert _same_bits(got, want) and not got.flags.writeable
    assert fs._has_upper_face == bool((expected[3] < np.inf).any())


def test_a_set_checks_its_bounds():
    assert FeasibleSet(0.0, 1.0).dim == 1 and FeasibleSet([0.0], 1.0).dim == 1  # a scalar is one coordinate
    for lower, upper, message in (
        ([0.0, 1.0], [1.0, 2.0, 3.0], r"bounds must be 1-d of equal length, got \(2,\) and \(3,\)"),
        ([[0.0, 1.0]], [[1.0, 2.0]], r"bounds must be 1-d of equal length, got \(1, 2\) and \(1, 2\)"),
        ([0.0, np.nan], [1.0, 1.0], "bounds must not contain NaN"),
        ([0.0, 2.0], [1.0, 1.0], r"empty set: lower\[1\]=2.0 > upper\[1\]=1.0"),
    ):
        with pytest.raises(ValueError, match=message):
            FeasibleSet(lower, upper)
