import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from colavmpc.core import SMALL_WRAP, TimeGrid, VelocityTrajectory, cumtrapz, wrap_angle

angles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def test_wrap_angle_examples():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2, abs=1e-12)
    assert wrap_angle(-math.pi) == -math.pi  # lower boundary included
    # one ulp below -pi the remainder rounds up to 2*pi; the result is
    # still the lower boundary, never +pi
    assert wrap_angle(math.nextafter(-math.pi, -4.0)) == -math.pi


def test_wrap_angle_range_and_array():
    vals = wrap_angle(np.linspace(-20.0, 20.0, 1001))
    assert np.all(vals >= -math.pi) and np.all(vals < math.pi)
    below = math.nextafter(-math.pi, -4.0)
    assert wrap_angle(np.array([below]))[0] == -math.pi
    assert wrap_angle(np.array(below)) == -math.pi
    # both neighbours of odd multiples of pi, scalar and array alike
    near = [
        math.nextafter(k * math.pi, toward)
        for k in (-7, -5, -3, -1, 1, 3, 5, 7)
        for toward in (-math.inf, math.inf)
    ]
    scalars = [wrap_angle(a) for a in near]
    assert all(-math.pi <= w < math.pi for w in scalars)
    assert wrap_angle(np.array(near)).tolist() == scalars

    # the add-or-subtract-2pi path gives np.mod's bits: k*pi for
    # |k| <= 5 and both float neighbours, a = +-3pi and their neighbours
    # (w = a + pi at the range edges -2pi and 4pi), and -0.0
    edges = [
        x
        for k in list(range(-5, 6)) + [-3, 3]
        for x in (math.nextafter(k * math.pi, -math.inf), k * math.pi, math.nextafter(k * math.pi, math.inf))
    ] + [-0.0]
    for a in edges:
        expected = oracles.mod_wrap(np.array([a]))
        assert wrap_angle(np.array([a])).tobytes() == expected.tobytes()
        assert np.array(wrap_angle(np.array(a))).tobytes() == expected[0].tobytes()
    # in-range values mixed with out-of-range ones take the np.mod path
    mixed = np.array(edges + [-20.0, 13.0, 1e6, -1e6])
    assert wrap_angle(mixed).tobytes() == oracles.mod_wrap(mixed).tobytes()
    assert wrap_angle(np.array(edges)).tobytes() == oracles.mod_wrap(np.array(edges)).tobytes()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            wrap_angle(np.array([0.0, 1.0, bad]))


def test_wrap_angle_small_arrays_take_the_array_paths_bits():
    # 1-D arrays up to SMALL_WRAP elements wrap in plain floats; on each
    # side of that size they give np.mod's bits and those of the array
    # path, which a 2-D input always takes. The edge set: k*pi for
    # |k| <= 5 with both float neighbours, +-3pi, -0.0, and values out
    # of the add-or-subtract range, which fall back to np.mod
    edges = [
        x
        for k in list(range(-5, 6)) + [-3, 3]
        for x in (math.nextafter(k * math.pi, -math.inf), k * math.pi, math.nextafter(k * math.pi, math.inf))
    ] + [-0.0, -20.0, 13.0, 1e6]
    for size in (1, 2, 3, SMALL_WRAP - 1, SMALL_WRAP, SMALL_WRAP + 1):
        for offset in range(len(edges)):
            a = np.array([edges[(offset + i) % len(edges)] for i in range(size)])
            got = wrap_angle(a)
            assert got.shape == a.shape
            assert got.tobytes() == oracles.mod_wrap(a).tobytes()
            assert got.tobytes() == wrap_angle(a[None, :])[0].tobytes()
    assert wrap_angle(np.array([])).shape == (0,)
    for bad in (math.nan, math.inf, -math.inf):
        for size in (1, 2, 3):
            for at in range(size):
                a = np.zeros(size)
                a[at] = bad
                with pytest.raises(ValueError):
                    wrap_angle(a)


def test_wrap_angle_in_range_arrays_give_the_remainder_bits():
    # an array whose w = a + pi all lies in [0, 2*pi) skips the corrections;
    # it, the boundaries w = 0, just below 2*pi and exactly 2*pi, arrays
    # out of that range and empty arrays all give np.mod's bits
    rng = np.random.default_rng(7)
    below = [math.nextafter(math.pi, 0.0), math.nextafter(math.nextafter(math.pi, 0.0), 0.0)]
    boundary = [-math.pi, *below, math.pi]
    assert below[1] + math.pi == math.nextafter(2.0 * math.pi, 0.0)  # w just below 2*pi
    cases = [
        rng.uniform(-math.pi, math.pi, (225, 11)),
        rng.uniform(-math.pi, math.pi, 75),
        np.array(boundary * 20),
        np.array([-math.pi] * 40),  # w = 0 everywhere
        np.array([*below] * 20).reshape(4, 10),
        np.array([math.pi] * 40),  # w = 2*pi: out of range
        rng.uniform(-3.0 * math.pi, 3.0 * math.pi, (3, 50)),
        rng.uniform(-50.0, 50.0, (61, 5)),
        np.zeros((0,)), np.zeros((0, 3)), np.zeros((3, 0)),
    ]
    for a in cases:
        got = wrap_angle(a)
        assert got.shape == a.shape
        assert got.tobytes() == oracles.mod_wrap(a).tobytes()
        assert np.all(got >= -math.pi) and np.all(got < math.pi)


def test_wrap_angle_rejects_non_finite():
    with pytest.raises(ValueError):
        wrap_angle(math.inf)
    with pytest.raises(ValueError):
        wrap_angle(np.array([0.0, math.nan]))


@given(angles)
def test_wrap_angle_idempotent(a):
    assert wrap_angle(wrap_angle(a)) == pytest.approx(wrap_angle(a), abs=1e-12)


@given(st.floats(min_value=-100.0, max_value=100.0), st.integers(min_value=-10, max_value=10))
def test_wrap_angle_periodic(a, k):
    assert wrap_angle(a + 2 * math.pi * k) == pytest.approx(wrap_angle(a), abs=1e-12)


def test_time_grid_invariants():
    with pytest.raises(ValueError):
        TimeGrid(0.0, -0.1, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.1, 1)
    g = TimeGrid.from_span(2.0, 5.0, 0.5)
    assert g.n == 11 and g.t_end == pytest.approx(7.0)
    assert TimeGrid(0.0, 0.1, np.int64(3)).times().shape == (3,)
    with pytest.raises(ValueError):
        TimeGrid.from_span(0.0, 5.2, 0.5)


@pytest.mark.parametrize(
    "t0,dt,n,message",
    [
        (math.nan, 0.1, 5, "t0 must be finite, got nan"),
        (math.inf, 0.1, 5, "t0 must be finite, got inf"),
        (0.0, math.nan, 5, "dt must be finite and > 0, got nan"),
        (0.0, math.inf, 5, "dt must be finite and > 0, got inf"),
        (0.0, 0.0, 5, "dt must be finite and > 0, got 0.0"),
        (0.0, 0.1, 2.5, "n must be an integer >= 2, got 2.5"),
        (0.0, 0.1, 2.0, "n must be an integer >= 2, got 2.0"),
        (0.0, 0.1, True, "n must be an integer >= 2, got True"),
        (0.0, 0.1, 1, "n must be an integer >= 2, got 1"),
    ],
)
def test_time_grid_rejects_a_non_finite_or_fractional_grid(t0, dt, n, message):
    with pytest.raises(ValueError) as err:
        TimeGrid(t0, dt, n)
    assert str(err.value) == message


def test_cumtrapz_matches_numpy_trapezoid():
    rng = np.random.default_rng(3)
    y = rng.normal(size=(4, 17))
    out = cumtrapz(y, 0.25)
    assert out.shape == y.shape
    assert np.allclose(out[:, -1], np.trapezoid(y, dx=0.25, axis=-1))
    assert np.all(out[:, 0] == 0.0)


def _ramp_trajectory():
    """11 points from t = 2 in steps of 0.1, every channel a distinct ramp."""
    grid = TimeGrid(2.0, 0.1, 11)
    ramp = np.linspace(0.0, 1.0, 11)
    return VelocityTrajectory(
        grid=grid,
        sog=4.0 + ramp,
        rot=0.1 + 0.01 * ramp,
        course=0.5 * ramp,
        sog_acc=0.2 - 0.1 * ramp,
        rot_acc=-0.03 + ramp,
    )


def _channels(traj):
    return np.stack([traj.sog, traj.rot, traj.course, traj.sog_acc, traj.rot_acc])


def test_window_reads_grid_points():
    traj = _ramp_trajectory()
    channels = _channels(traj)
    np.testing.assert_array_equal(traj.window(2.0, 11), channels)
    # t is a planner clock: 2.0 + 3 * 0.1 is 2.3000000000000003
    np.testing.assert_array_equal(traj.window(2.0 + 3 * 0.1, 4), channels[:, 3:7])
    assert traj.window(2.9, 1).shape == (5, 1)


def test_resample_identity():
    # reading the whole grid back is the interpolating oracle on the
    # trajectory's own grid: every channel exactly as stored
    traj = _ramp_trajectory()
    out = traj.window(traj.grid.t0, traj.grid.n)
    np.testing.assert_array_equal(out, _channels(traj))
    np.testing.assert_array_equal(out, _channels(oracles.resample(traj, traj.grid)))


def test_resample_reproduces_source_points():
    traj = _ramp_trajectory()
    sub = TimeGrid(2.2, 0.1, 6)  # source points 2..7
    out = traj.window(sub.t0, sub.n)
    np.testing.assert_array_equal(out, _channels(traj)[:, 2:8])
    np.testing.assert_allclose(out, _channels(oracles.resample(traj, sub)), rtol=0.0, atol=1e-12)


def test_window_strided():
    traj = _ramp_trajectory()
    channels = _channels(traj)
    np.testing.assert_array_equal(traj.window(2.1, 4, stride=3), channels[:, 1:11:3])
    # an evaluation step over the integration step, as a float ratio
    np.testing.assert_array_equal(traj.window(2.0, 3, 0.5 / 0.1), channels[:, ::5])


def test_window_holds_past_the_end():
    traj = _ramp_trajectory()
    channels = _channels(traj)
    out = traj.window(2.8, 6)  # points 8, 9, 10, then three past the end
    np.testing.assert_array_equal(out[:, :3], channels[:, 8:])
    assert np.all(out[0, 3:] == traj.sog[-1])
    assert np.all(out[2, 3:] == traj.course[-1])
    assert np.all(out[[1, 3, 4], 3:] == 0.0)
    # wholly past the end, strided
    far = traj.window(5.0, 3, stride=5)
    np.testing.assert_array_equal(far, [[traj.sog[-1]] * 3, [0.0] * 3, [traj.course[-1]] * 3, [0.0] * 3, [0.0] * 3])


@pytest.mark.parametrize(
    "t,stride",
    [(1.9, 1), (2.0 - 1e-6, 1), (2.05, 1), (3.0001, 1), (2.0, 1.5), (2.0, 0), (2.0, -1)],
)
def test_window_rejects_reads_off_the_grid(t, stride):
    # before t0, between grid points, or a stride that is no whole
    # number of steps
    with pytest.raises(ValueError):
        _ramp_trajectory().window(t, 3, stride)


def test_trajectory_length_validation():
    grid = TimeGrid(0.0, 0.5, 4)
    with pytest.raises(ValueError):
        VelocityTrajectory(
            grid=grid,
            sog=np.zeros(3),
            rot=np.zeros(4),
            course=np.zeros(4),
            sog_acc=np.zeros(4),
            rot_acc=np.zeros(4),
        )
