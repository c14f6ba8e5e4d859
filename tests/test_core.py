import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from colavmpc.core import TimeGrid, VelocityTrajectory, cumtrapz, wrap_angle

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
    with pytest.raises(ValueError):
        TimeGrid.from_span(0.0, 5.2, 0.5)


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
