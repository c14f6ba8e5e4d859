import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colavmpc.core import TimeGrid, cumtrapz, wrap_angle
from colavmpc.guidance import DesiredTrajectory, LosParams, desired_acceleration, los_targets
from colavmpc.primitives import TreeParams, course_profile_unit, sog_profile_unit

PARAMS = LosParams(lookahead=500.0, along_track_gain=0.005, epsilon=0.05, u_max_los=18.0)


def test_los_params_need_a_speed_cap():
    # the cap is the vessel's top speed, which only the config knows
    with pytest.raises(TypeError):
        LosParams(lookahead=500.0, along_track_gain=0.005)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_los_params_reject_non_finite_values(bad):
    # a NaN lookahead passed the `<= 0` check, and the first planner call
    # then failed in wrap_angle, naming no field
    for field in ("lookahead", "along_track_gain", "u_max_los", "epsilon"):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            dataclasses.replace(PARAMS, **{field: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_desired_trajectory_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="^speed must be finite and > 0"):
        DesiredTrajectory.line(0.0, 0.0, 0.0, bad)
    with pytest.raises(ValueError, match="^line_course must be finite"):
        DesiredTrajectory.line(0.0, 0.0, bad, 5.0)
    with pytest.raises(ValueError, match="^points must be finite"):
        DesiredTrajectory.line(bad, 0.0, 0.0, 5.0)
    with pytest.raises(ValueError, match="^points must be finite"):
        DesiredTrajectory.waypoints([(0.0, 0.0), (100.0, bad)], 5.0)


STEP = TreeParams((5.0,), (5,), (5,), t_ramp=1.0, t_sog=5.0, t_course=5.0, tc_sog=5.0, tc_course=5.0)


def test_line_trajectory_geometry():
    line = DesiredTrajectory.line(0.0, 0.0, math.pi / 2, 4.0)
    n, e = line.position(10.0)
    assert n == pytest.approx(0.0, abs=1e-12)
    assert e == pytest.approx(40.0, abs=1e-12)
    assert line.course(3.0) == pytest.approx(math.pi / 2)


def test_waypoint_trajectory_corner():
    track = DesiredTrajectory.waypoints([[0.0, 0.0], [100.0, 0.0], [100.0, 200.0]], 5.0)
    assert track.course(1.0) == pytest.approx(0.0)
    assert track.course(30.0) == pytest.approx(math.pi / 2)  # 150 m along, past corner
    n, e = track.position(30.0)
    assert (n, e) == (pytest.approx(100.0), pytest.approx(50.0))
    # beyond the end: extrapolate along the last segment
    n, e = track.position(100.0)
    assert (n, e) == (pytest.approx(100.0), pytest.approx(400.0))


def test_waypoint_degenerate_segments_filtered():
    track = DesiredTrajectory.waypoints([[0.0, 0.0], [0.0, 0.0], [50.0, 0.0]], 5.0)
    assert track.course(0.0) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        DesiredTrajectory.waypoints([[1.0, 1.0], [1.0, 1.0]], 5.0)


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


def test_pose_has_the_bits_of_position_and_course():
    # at every waypoint breakpoint cum_len[i] / speed, its float
    # neighbours, 0 and past the end of the track, on a waypoint track
    # and on a line
    points = np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 200.0], [-30.0, 250.0], [-31.5, 260.25]])
    cum_len = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(points, axis=0).T))])
    cases = [
        (DesiredTrajectory.waypoints(points, 3.0), cum_len, 3.0),
        (DesiredTrajectory.line(10.0, -5.0, 0.7, 4.0), [0.0, 1.0], 4.0),
    ]
    for dtraj, breaks, speed in cases:
        times = [0.0, 1e4, 1e7]
        for arc in breaks:
            t = arc / speed
            times += [math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]
        for t in times:
            pose = dtraj.pose(t)
            assert all(type(x) is float for x in pose)
            north, east = dtraj.position(np.array([t]))
            assert _bits(*pose) == _bits(north[0], east[0], dtraj.course(np.array([t]))[0])
            assert _bits(*pose) == _bits(*dtraj.position(t), dtraj.course(t))


def test_speed_target_keeps_np_clips_signed_zero():
    # exactly one along-track gain's worth ahead and sailing against the
    # path, the unclipped speed target is 0.0 / -1.0 = -0.0; np.clip to
    # [0, u_max_los] keeps it, and so does the wrapper-free clip
    line = DesiredTrajectory.line(0.0, 0.0, 0.0, 5.0)
    u_d, _ = los_targets(line, np.array([1000.0, 1000.0]), np.zeros(2), np.array([math.pi, 0.0]), 0.0, PARAMS)
    assert u_d.tobytes() == np.clip(np.array([-0.0, 0.0]), 0.0, PARAMS.u_max_los).tobytes()
    u_d, _ = los_targets(line, 1000.0, 0.0, math.pi, 0.0, PARAMS)
    assert np.asarray(u_d).tobytes() == np.clip(-0.0, 0.0, PARAMS.u_max_los).tobytes()


def test_on_path_equilibrium():
    line = DesiredTrajectory.line(0.0, 0.0, 0.0, 5.0)
    u_d, chi_d = los_targets(line, 50.0, 0.0, 0.0, 10.0, PARAMS)
    assert chi_d == pytest.approx(0.0, abs=1e-12)
    assert u_d == pytest.approx(5.0, abs=1e-12)


def test_cross_track_equal_to_lookahead():
    # vessel a full lookahead to starboard: course target is path - pi/4
    line = DesiredTrajectory.line(0.0, 0.0, 0.0, 5.0)
    _, chi_d = los_targets(line, 0.0, PARAMS.lookahead, 0.0, 0.0, PARAMS)
    assert chi_d == pytest.approx(-math.pi / 4, abs=1e-12)


def test_perpendicular_guard():
    line = DesiredTrajectory.line(0.0, 0.0, 0.0, 5.0)
    u_d, chi_d = los_targets(line, 0.0, 0.0, math.pi / 2, 0.0, PARAMS)
    assert math.isfinite(u_d) and math.isfinite(chi_d)
    assert 0.0 <= u_d <= PARAMS.u_max_los
    assert u_d == pytest.approx(min(5.0 / PARAMS.epsilon, PARAMS.u_max_los))


def test_ahead_of_schedule_slows_down():
    line = DesiredTrajectory.line(0.0, 0.0, 0.0, 5.0)
    u_d, _ = los_targets(line, 200.0, 0.0, 0.0, 0.0, PARAMS)  # 200 m ahead
    assert u_d == pytest.approx(5.0 - 0.005 * 200.0, abs=1e-12)


def test_speed_target_saturated():
    line = DesiredTrajectory.line(0.0, 0.0, 0.0, 5.0)
    u_d, _ = los_targets(line, -1e5, 0.0, 0.0, 0.0, PARAMS)
    assert u_d == PARAMS.u_max_los
    u_d, _ = los_targets(line, 1e5, 0.0, 0.0, 0.0, PARAMS)
    assert u_d == 0.0


def test_targets_elementwise_over_arrays():
    # one call over node arrays equals one call per node
    track = DesiredTrajectory.waypoints([[0.0, 0.0], [100.0, 0.0], [100.0, 200.0]], 5.0)
    north = np.array([10.0, 150.0, -30.0, 80.0])
    east = np.array([-20.0, 60.0, 5.0, 600.0])
    course = np.array([0.1, 2.0, -3.0, 1.5])
    u_d, chi_d = los_targets(track, north, east, course, 30.0, PARAMS)
    du, dr = desired_acceleration((u_d, chi_d), (np.full(4, 5.0), course), STEP)
    assert u_d.shape == chi_d.shape == du.shape == dr.shape == (4,)
    for i in range(4):
        u_i, chi_i = los_targets(track, north[i], east[i], course[i], 30.0, PARAMS)
        assert (u_d[i], chi_d[i]) == (u_i, chi_i)
        assert (du[i], dr[i]) == desired_acceleration((u_i, chi_i), (5.0, course[i]), STEP)


def test_desired_acceleration_examples():
    assert desired_acceleration((5.0, 0.3), (5.0, 0.3), STEP) == (0.0, 0.0)
    du, _ = desired_acceleration((9.0, 0.0), (5.0, 0.0), STEP)
    assert du == pytest.approx(1.0, abs=1e-12)  # 4 m/s over (5-1) s
    _, dr = desired_acceleration((5.0, 0.15), (5.0, 0.0), STEP)
    assert dr == pytest.approx(0.05, abs=1e-12)  # 0.15 rad over 1*(5-2) s^2


def test_desired_acceleration_wraps_course_difference():
    _, dr = desired_acceleration((5.0, math.pi - 0.1), (5.0, -math.pi + 0.1), STEP)
    assert dr == pytest.approx(-0.2 / 3.0, abs=1e-12)


@given(
    st.floats(min_value=0.0, max_value=18.0),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=18.0),
    st.floats(min_value=-10.0, max_value=10.0),
    st.integers(min_value=5, max_value=20),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
)
@settings(max_examples=100, deadline=None)
def test_round_trip_reproduces_targets(u0, chi0, u_los, chi_los, kr, eu, ec):
    dt = 0.1
    t_ramp = kr * dt
    t_sog = 2 * t_ramp + eu * dt
    t_course = 4 * t_ramp + ec * dt
    t_total = max(t_sog, t_course)
    p = TreeParams((t_total,), (5,), (5,), t_ramp, t_sog, t_course, tc_sog=5.0, tc_course=5.0)
    t_rel = TimeGrid.from_span(0.0, t_total, dt).times()
    du, dr = desired_acceleration((u_los, chi_los), (u0, chi0), p)
    sog = u0 + cumtrapz(du * sog_profile_unit(t_rel, p), dt)
    rot = cumtrapz(dr * course_profile_unit(t_rel, p), dt)
    course = chi0 + cumtrapz(rot, dt)
    assert sog[-1] == pytest.approx(u_los, abs=1e-9)
    assert wrap_angle(course[-1] - chi_los) == pytest.approx(0.0, abs=1e-9)
