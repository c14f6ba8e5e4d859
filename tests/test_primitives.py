import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colavmpc.core import TimeGrid, VesselState, cumtrapz
from colavmpc.primitives import (
    ErrorModel,
    StepParams,
    course_profile_unit,
    possible_accelerations,
    sample_accelerations,
    sog_profile_unit,
)
from colavmpc.tree import TreeParams, generate_tree
from colavmpc.vessel import default_model

MODEL = default_model()
EM = ErrorModel(5.0, 5.0)
P = StepParams(t_total=5.0, t_ramp=1.0, t_sog=5.0, t_course=5.0, n_sog=5, n_course=5)
GRID = TimeGrid.from_span(0.0, 5.0, 0.1)


def _one_level(step, n_sog, n_course, sog=5.0, course=0.0, rot=0.0, desired=None, dt=0.1):
    """Candidates of a one-level tree from a vessel at (sog, course, rot),
    seeded from the desired (sog, course), by default the actual one, and
    evaluated on their integration grid: the first maneuver is the whole
    tree, so first_sog/first_course are the full desired reference."""
    state = VesselState(0.0, 0.0, course, sog, rot)
    tau0 = np.clip(MODEL.damping(sog, rot), MODEL.tau_min, MODEL.tau_max)
    params = TreeParams((step,), (n_sog,), (n_course,), 1.0, 5.0, 5.0)
    return generate_tree(params, MODEL, EM, state, 0.0, desired or (sog, course), tau0, None, dt, dt)


def _rates(sog, rot, tau):
    du, dr = MODEL.rates(sog, rot, tau[0], tau[1])
    return float(du), float(dr)


def test_sat_examples():
    # the actuator input reachable within one ramp is clamped to the limits
    # from above and below, and passes through unclamped inside them
    _, sog_max, _, rot_max = possible_accelerations(MODEL, 10.0, 0.0, MODEL.tau_max, 1.0)
    assert (sog_max, rot_max) == pytest.approx(_rates(10.0, 0.0, MODEL.tau_max), abs=1e-12)
    sog_min, _, rot_min, _ = possible_accelerations(MODEL, 10.0, 0.0, MODEL.tau_min, 1.0)
    assert (sog_min, rot_min) == pytest.approx(_rates(10.0, 0.0, MODEL.tau_min), abs=1e-12)
    sog_min, sog_max, rot_min, rot_max = possible_accelerations(MODEL, 10.0, 0.0, [0.5, 0.0], 0.5)
    assert (sog_max, rot_max) == pytest.approx(_rates(10.0, 0.0, (0.75, 0.25)), abs=1e-12)
    assert (sog_min, rot_min) == pytest.approx(_rates(10.0, 0.0, (0.25, -0.25)), abs=1e-12)


def test_sat_shape_mismatch():
    # an actuator input that is not one value per actuator is rejected
    with pytest.raises(ValueError):
        possible_accelerations(MODEL, 5.0, 0.0, np.full(3, 0.5), 1.0)


def test_step_params_invariants():
    with pytest.raises(ValueError):
        StepParams(5.0, 1.0, 1.5, 5.0, 1, 1)  # t_sog < 2 t_ramp
    with pytest.raises(ValueError):
        StepParams(5.0, 1.0, 5.0, 3.0, 1, 1)  # t_course < 4 t_ramp
    with pytest.raises(ValueError):
        StepParams(4.0, 1.0, 5.0, 5.0, 1, 1)  # t_total < maneuvers


def test_possible_accelerations_saturated_upper_edge():
    # already at full throttle: the upper edge is the max-throttle rate
    _, sog_max, _, _ = possible_accelerations(MODEL, 10.0, 0.0, MODEL.tau_max, 1.0)
    du_max, _ = MODEL.rates(10.0, 0.0, MODEL.tau_max[0], MODEL.tau_max[1])
    assert sog_max == pytest.approx(float(du_max), abs=1e-12)


def test_possible_accelerations_symmetric_iff_limits_symmetric():
    # pick an equilibrium where the reachable tau range stays interior
    tau0 = np.array([0.5, 0.0])
    d1, d2 = MODEL.d_u1, MODEL.d_u2
    sog0 = (-d1 + math.sqrt(d1**2 + 4 * d2 * tau0[0])) / (2 * d2)
    sog_min, sog_max, rot_min, rot_max = possible_accelerations(MODEL, sog0, 0.0, tau0, 0.5)
    assert sog_max + sog_min == pytest.approx(0.0, abs=1e-12)
    assert rot_max + rot_min == pytest.approx(0.0, abs=1e-12)


def test_possible_accelerations_top_speed_pinned():
    _, sog_max, _, _ = possible_accelerations(MODEL, 18.0, 0.0, [1.0, 0.0], 1.0)
    assert abs(sog_max) < 1e-6


BOUNDS = (-1.0, 1.0, -1.0, 1.0)


def test_sample_uniform_grid():
    sog, rot = sample_accelerations(BOUNDS, 5, 5)
    np.testing.assert_allclose(sog, [-1.0, -0.5, 0.0, 0.5, 1.0], atol=1e-15)
    np.testing.assert_allclose(rot, [-1.0, -0.5, 0.0, 0.5, 1.0], atol=1e-15)


def test_sample_desired_substitution():
    sog, _ = sample_accelerations(BOUNDS, 5, 1, desired=(0.4, None))
    # 0.5 is nearer to 0.4 than 0 is, so it gets replaced
    np.testing.assert_allclose(sog, [-1.0, -0.5, 0.0, 0.4, 1.0], atol=1e-15)


def test_sample_desired_outside_box_ignored():
    sog, rot = sample_accelerations(BOUNDS, 5, 3, desired=(2.0, -1.5))
    np.testing.assert_allclose(sog, [-1.0, -0.5, 0.0, 0.5, 1.0], atol=1e-15)
    np.testing.assert_allclose(rot, [-1.0, 0.0, 1.0], atol=1e-15)


def test_sample_tie_breaks_low_index():
    sog, _ = sample_accelerations(BOUNDS, 3, 1, desired=(0.5, None))
    # 0.5 is equidistant from samples 0.0 and 1.0; the lower index moves
    np.testing.assert_allclose(sog, [-1.0, 0.5, 1.0], atol=1e-15)


def test_sample_single_prefers_zero():
    sog, rot = sample_accelerations((-1.0, 1.0, 0.2, 0.6), 1, 1)
    assert sog[0] == 0.0
    assert rot[0] == 0.2  # nearest endpoint when 0 unreachable


def test_sample_single_ignores_desired():
    # a single-sample channel stays the constant-hold sample
    sog, rot = sample_accelerations(BOUNDS, 1, 1, desired=(0.4, -0.3))
    assert sog.tolist() == [0.0]
    assert rot.tolist() == [0.0]


def test_sample_rows_match_per_node_calls():
    # per-node ranges and desired values sample row by row, exactly as
    # one call per node does
    bounds = tuple(np.array(pair) for pair in ([-1.0, -0.2], [1.0, 0.6], [-0.1, -0.3], [0.1, 0.2]))
    desired = (np.array([0.4, 0.7]), np.array([-0.05, 0.1]))
    sog, rot = sample_accelerations(bounds, 5, 3, desired)
    assert sog.shape == (2, 5) and rot.shape == (2, 3)
    for node in range(2):
        one = sample_accelerations(
            tuple(b[node] for b in bounds), 5, 3, tuple(d[node] for d in desired)
        )
        np.testing.assert_array_equal(sog[node], one[0])
        np.testing.assert_array_equal(rot[node], one[1])
    assert sog[0, 3] == 0.4  # substituted
    np.testing.assert_array_equal(sog[1], np.linspace(-0.2, 0.6, 5))  # 0.7 is out of range
    assert rot[1, 2] == 0.1  # replaces the upper edge 0.2, the sample nearest to it


def test_sog_primitive_mid_ramp_and_area():
    acc = 1.0 * sog_profile_unit(GRID.times(), P)
    mid = int(round((P.t_ramp / 2) / GRID.dt))
    assert acc[mid] == pytest.approx(0.5, abs=1e-12)
    # trapezoid area: ramp up 1 s, hold until 4 s, ramp down by 5 s
    assert np.trapezoid(acc, dx=GRID.dt) == pytest.approx(1.0 * (5.0 - 1.0), abs=1e-12)
    assert np.all(0.0 * sog_profile_unit(GRID.times(), P) == 0.0)


def test_course_primitive_zero_integral_and_peak():
    acc = 0.05 * course_profile_unit(GRID.times(), P)
    assert abs(np.trapezoid(acc, dx=GRID.dt)) < 1e-12
    rot = cumtrapz(acc, GRID.dt)
    peak_idx = int(round(2 * P.t_ramp / GRID.dt))
    assert rot[peak_idx] == pytest.approx(0.05 * P.t_ramp, abs=1e-12)
    # net course change 0.05 * 1 * (5 - 2) = 0.15 rad
    assert cumtrapz(rot, GRID.dt)[-1] == pytest.approx(0.15, abs=1e-12)


def test_integrate_primitives_identity_maneuver():
    cands = _one_level(5.0, 1, 1, sog=5.0, course=0.7)
    assert len(cands) == 1
    traj = cands.trajectory(0)
    assert np.all(traj.sog == 5.0)
    assert np.all(traj.rot == 0.0)
    assert np.all(traj.course == 0.7)


def test_integrate_primitives_cross_product_count():
    cands = _one_level(5.0, 5, 5)
    assert len(cands) <= 25
    pairs = {tuple(path[0]) for path in cands.sample_path.tolist()}
    assert len(pairs) == len(cands)  # every kept (sog, rot) sample pair once


def test_integrate_primitives_filters_overspeed():
    # seeded 0.5 m/s below the top speed from a 10 m/s vessel: the largest
    # speed samples would end above u_max and are dropped
    cands = _one_level(5.0, 3, 1, sog=10.0, desired=(MODEL.u_max - 0.5, 0.0))
    assert 0 < len(cands) < 3
    assert np.all(cands.first_sog[:, -1] <= MODEL.u_max + 1e-9)
    assert 2 not in cands.sample_path[:, 0, 0]


def test_integrate_primitives_all_infeasible():
    cands = _one_level(5.0, 2, 1, sog=5.0, desired=(30.0, 0.0))
    assert len(cands) == 0
    assert not cands


def test_integrate_primitives_requires_zero_rot():
    # maneuvers start at zero desired ROT at every level, even from a
    # vessel that is turning
    state = VesselState(0.0, 0.0, 0.0, 5.0, 0.05)
    tau0 = np.clip(MODEL.damping(5.0, 0.05), MODEL.tau_min, MODEL.tau_max)
    params = TreeParams((5.0, 20.0, 30.0), (5, 1, 1), (5, 3, 3), 1.0, 5.0, 5.0)
    cands = generate_tree(params, MODEL, EM, state, 0.0, (5.0, 0.0), tau0, None, 0.1, 0.5)
    starts = [0, 50, 250]  # level boundaries on the 0.1 s grid
    assert all(np.all(cands.trajectory(leaf).rot[starts] == 0.0) for leaf in range(len(cands)))


def test_maneuvers_start_and_end_at_zero_rot():
    cands = _one_level(5.0, 1, 5)
    rot = np.array([cands.trajectory(leaf).rot for leaf in range(len(cands))])
    assert np.all(rot[:, 0] == 0.0)
    assert np.all(np.abs(rot[:, -1]) < 1e-12)


@given(
    st.integers(min_value=5, max_value=20),  # t_ramp in dt units of 0.1
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-0.2, max_value=0.2),
)
@settings(max_examples=50, deadline=None)
def test_acceleration_slew_bounded_by_ramp_slope(kr, extra_u, extra_c, a_u, a_r):
    dt = 0.1
    t_ramp = kr * dt
    t_sog = 2 * t_ramp + extra_u * dt
    t_course = 4 * t_ramp + extra_c * dt
    t_total = max(t_sog, t_course)
    p = StepParams(t_total, t_ramp, t_sog, t_course, 1, 1)
    t_rel = TimeGrid.from_span(0.0, t_total, dt).times()
    sog_acc = a_u * sog_profile_unit(t_rel, p)
    rot_acc = a_r * course_profile_unit(t_rel, p)
    assert np.max(np.abs(np.diff(sog_acc))) <= abs(a_u) / t_ramp * dt + 1e-9
    assert np.max(np.abs(np.diff(rot_acc))) <= abs(a_r) / t_ramp * dt + 1e-9


def test_predict_zero_error_passthrough():
    # the vessel is on its reference: the prediction is the reference
    cands = _one_level(5.0, 5, 5, sog=5.0, course=0.1)
    np.testing.assert_array_equal(cands.pred_course, cands.first_course)
    dt = cands.grid.dt
    north = cumtrapz(cands.first_sog * np.cos(cands.first_course), dt)
    east = cumtrapz(cands.first_sog * np.sin(cands.first_course), dt)
    np.testing.assert_allclose(cands.pred_north, north, atol=1e-12)
    np.testing.assert_allclose(cands.pred_east, east, atol=1e-12)


def test_predict_exponential_decay_value():
    # initial errors decay with the 5 s time constants: 0.1 rad of course
    # error is down to 0.1/e after 5 s
    cands = _one_level(10.0, 1, 1, sog=5.0, course=0.1, desired=(5.0, 0.0))
    idx = int(round(5.0 / cands.grid.dt))
    assert cands.pred_course[0, idx] - cands.first_course[0, idx] == pytest.approx(0.1 * math.exp(-1.0), abs=1e-12)
    # 1 m/s of speed error shows as the distance gained over a vessel on
    # its reference, the integral of exp(-t/5) over 5 s
    fast = _one_level(10.0, 1, 1, sog=6.0, course=0.0, desired=(5.0, 0.0))
    on_ref = _one_level(10.0, 1, 1, sog=5.0, course=0.0, desired=(5.0, 0.0))
    gained = fast.pred_north[0, idx] - on_ref.pred_north[0, idx]
    assert gained == pytest.approx(5.0 * (1.0 - math.exp(-1.0)), abs=1e-3)


def test_predict_decays_to_reference():
    cands = _one_level(60.0, 1, 1, sog=5.0, course=0.2, desired=(5.0, 0.0), dt=0.5)
    assert abs(cands.pred_course[0, -1] - cands.first_course[0, -1]) < 1e-5


def test_rollout_straight_lines():
    north = _one_level(10.0, 1, 1, sog=5.0, course=0.0)
    assert north.pred_north[0, -1] == pytest.approx(50.0, abs=1e-9)
    assert north.pred_east[0, -1] == pytest.approx(0.0, abs=1e-12)
    east = _one_level(10.0, 1, 1, sog=5.0, course=math.pi / 2)
    assert east.pred_north[0, -1] == pytest.approx(0.0, abs=1e-9)
    assert east.pred_east[0, -1] == pytest.approx(50.0, abs=1e-9)


def test_rollout_constant_turn_matches_circle():
    # analytic arc: radius U/r, swept angle r*T, against the trapezoidal
    # quadrature of (cos, sin)(course) * sog the tree rolls positions out with
    sog_val, rot_val, t_end = 5.0, 0.1, 10.0
    grid = TimeGrid.from_span(0.0, t_end, 0.1)
    course = rot_val * grid.times()
    north = cumtrapz(sog_val * np.cos(course), grid.dt)
    east = cumtrapz(sog_val * np.sin(course), grid.dt)
    radius = sog_val / rot_val
    exact_n = radius * math.sin(rot_val * t_end)
    exact_e = radius * (1.0 - math.cos(rot_val * t_end))
    err = math.hypot(north[-1] - exact_n, east[-1] - exact_e)
    assert err / math.hypot(exact_n, exact_e) < 0.005
