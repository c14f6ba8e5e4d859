import math

import numpy as np
import pytest

from colavmpc.core import Pose, TimeGrid, Velocity2, VesselState, wrap_angle
from colavmpc.guidance import DesiredTrajectory, LosParams, desired_acceleration, los_targets
import oracles
from colavmpc.primitives import ErrorModel, possible_accelerations, sample_accelerations
from colavmpc.tree import TreeParams, generate_tree
from colavmpc.vessel import default_model, inverse_model

MODEL = default_model()
EM = ErrorModel(5.0, 5.0)
DT = 0.1

TABLE_PARAMS = TreeParams(
    step_times=(5.0, 20.0, 30.0), n_sog=(5, 1, 1), n_course=(5, 3, 3),
    t_ramp=1.0, t_sog=5.0, t_course=5.0,
)


def _state(north=0.0, east=0.0, course=0.0, sog=5.0, rot=0.0, time=0.0):
    return VesselState(Pose(north, east, course), Velocity2(sog, rot), time)


def _tau0(state):
    return np.clip(inverse_model(MODEL, state.vel), MODEL.tau_min, MODEL.tau_max)


def _los_hook(dtraj, los):
    def hook(t, north, east, course, desired, step):
        targets = los_targets(dtraj, north, east, course, t, los)
        return desired_acceleration(targets, desired, step)

    return hook


def test_tree_params_validation():
    with pytest.raises(ValueError):
        TreeParams((5.0, 20.0), (5, 1, 1), (5, 3, 3), 1.0, 5.0, 5.0)
    with pytest.raises(ValueError):
        TreeParams((3.0,), (1,), (1,), 1.0, 5.0, 5.0)  # step below maneuver time


def test_table_configuration_shape():
    state = _state()
    cands = generate_tree(TABLE_PARAMS, MODEL, EM, state, (5.0, 0.0), _tau0(state), None, DT)
    assert len(cands) <= 225
    assert len(cands) == 225  # all feasible from a benign state
    assert cands.sample_path.shape == (225, 3, 2)
    assert cands.grid.span == pytest.approx(55.0)
    for channel in (cands.sog, cands.course, cands.pred_north, cands.pred_course):
        assert channel.shape == (225, cands.grid.n)
    assert (cands.n_first - 1) * cands.grid.dt == pytest.approx(5.0)


def test_three_level_span_25s():
    params = TreeParams((5.0, 10.0, 10.0), (1, 1, 1), (5, 3, 3), 1.0, 5.0, 5.0)
    state = _state()
    cands = generate_tree(params, MODEL, EM, state, (5.0, 0.0), _tau0(state), None, DT)
    assert len(cands) == 45
    assert cands.grid.span == pytest.approx(25.0)


def test_degenerate_tree_continues_current_velocity():
    params = TreeParams((5.0,), (1,), (1,), 1.0, 5.0, 5.0)
    state = _state(course=0.4, sog=6.0)
    cands = generate_tree(params, MODEL, EM, state, (6.0, 0.4), _tau0(state), None, DT)
    assert len(cands) == 1
    np.testing.assert_allclose(cands.sog[0], 6.0, atol=1e-12)
    np.testing.assert_allclose(cands.course[0], 0.4, atol=1e-12)


def test_candidate_channels_continuous_across_levels():
    state = _state(sog=5.3, course=0.2, rot=0.01)
    cands = generate_tree(TABLE_PARAMS, MODEL, EM, state, (5.0, 0.25), _tau0(state), None, DT)
    # candidates integrate from the previous commanded values exactly,
    # which is what keeps the reference continuous across replans
    assert np.all(cands.sog[:, 0] == 5.0)
    assert np.all(cands.course[:, 0] == 0.25)
    assert np.all(cands.rot[:, 0] == 0.0)
    for leaf in range(0, len(cands), max(len(cands) // 9, 1)):
        max_rot = np.max(np.abs(cands.rot[leaf]))
        max_acc = np.max(np.abs(cands.sog_acc[leaf]))
        assert np.max(np.abs(np.diff(cands.course[leaf]))) <= max_rot * DT + 1e-9
        assert np.max(np.abs(np.diff(cands.sog[leaf]))) <= max_acc * DT + 1e-9
        # position steps bounded by the fastest predicted speed
        step = np.hypot(np.diff(cands.pred_north[leaf]), np.diff(cands.pred_east[leaf]))
        assert np.max(step) <= (np.max(cands.sog[leaf]) + 1.0) * DT


def test_first_maneuver_matches_full_prefix():
    # each candidate's first n_first points are exactly the level-0 maneuver
    # a one-level tree generates for the same samples, and the winner's
    # trajectory carries the full rows
    state = _state()
    cands = generate_tree(TABLE_PARAMS, MODEL, EM, state, (5.0, 0.0), _tau0(state), None, DT)
    first_params = TreeParams((5.0,), (5,), (5,), 1.0, 5.0, 5.0)
    firsts = generate_tree(first_params, MODEL, EM, state, (5.0, 0.0), _tau0(state), None, DT)
    assert firsts.grid.n == cands.n_first
    by_samples = {tuple(path[0]): j for j, path in enumerate(firsts.sample_path.tolist())}
    for leaf in range(0, len(cands), 37):
        j = by_samples[tuple(cands.sample_path[leaf, 0].tolist())]
        n = cands.n_first
        np.testing.assert_array_equal(cands.sog[leaf, :n], firsts.sog[j])
        np.testing.assert_array_equal(cands.course[leaf, :n], firsts.course[j])
        traj = cands.trajectory(leaf)
        assert traj.grid == cands.grid
        np.testing.assert_array_equal(traj.sog, cands.sog[leaf])
        np.testing.assert_array_equal(traj.rot_acc, cands.rot_acc[leaf])


def test_tree_deterministic():
    state = _state(sog=4.8, course=-0.3)
    a = generate_tree(TABLE_PARAMS, MODEL, EM, state, (5.0, -0.3), _tau0(state), None, DT)
    b = generate_tree(TABLE_PARAMS, MODEL, EM, state, (5.0, -0.3), _tau0(state), None, DT)
    assert len(a) == len(b)
    np.testing.assert_array_equal(a.sample_path, b.sample_path)
    np.testing.assert_array_equal(a.sog, b.sog)
    np.testing.assert_array_equal(a.pred_north, b.pred_north)


def test_level0_matches_single_step_primitives():
    # one-level tree channels equal the standalone single-step op
    params = TreeParams((5.0,), (5,), (5,), 1.0, 5.0, 5.0)
    state = _state(sog=5.0)
    tau0 = _tau0(state)
    cands = generate_tree(params, MODEL, EM, state, (5.0, 0.0), tau0, None, DT)
    bounds = possible_accelerations(MODEL, state.vel.sog, state.vel.rot, tau0, 1.0)
    sog_s, rot_s = sample_accelerations(bounds, 5, 5)
    grid = TimeGrid.from_span(0.0, 5.0, DT)
    trajs = oracles.integrate_primitives(MODEL, sog_s, rot_s, (5.0, 0.0), params.step_params(0), grid)
    assert len(cands) == len(trajs)
    for leaf, traj in enumerate(trajs):
        np.testing.assert_array_equal(cands.sog[leaf], traj.sog)
        np.testing.assert_array_equal(cands.rot[leaf], traj.rot)
        np.testing.assert_array_equal(cands.course[leaf], traj.course)


def test_guidance_seeded_candidate_hits_targets():
    # with the hook active, some candidate's first maneuver ends exactly on
    # the LOS targets evaluated at the root
    dtraj = DesiredTrajectory.line(0.0, 0.0, 0.3, 5.5)
    los = LosParams(lookahead=500.0, along_track_gain=0.005, u_max_los=MODEL.u_max)
    state = _state(north=5.0, east=-40.0, course=0.1, sog=5.0)
    targets = los_targets(dtraj, state.pose.north, state.pose.east, state.pose.course, 0.0, los)
    cands = generate_tree(
        TABLE_PARAMS, MODEL, EM, state, (5.0, 0.1), _tau0(state), _los_hook(dtraj, los), DT
    )
    end_sog = cands.sog[:, cands.n_first - 1]
    end_course = cands.course[:, cands.n_first - 1]
    hit = (np.abs(end_sog - targets[0]) < 1e-9) & (
        np.abs(wrap_angle(end_course - targets[1])) < 1e-9
    )
    assert np.any(hit)


def test_guidance_seeded_child_hits_targets_below_root():
    # every level-1 node whose LOS course target, evaluated at the node's
    # predicted state at the end of level 0, lies within its children's
    # course range has a child whose level-1 maneuver ends exactly on it.
    # The path turns between t = 0 and the level-1 start, and the vessel
    # starts off its desired course, so the target depends on the level
    # time and on the node's own desired course
    dtraj = DesiredTrajectory.waypoints([[0.0, -40.0], [20.0, -40.0], [1000.0, 300.0]], 5.5)
    los = LosParams(lookahead=500.0, along_track_gain=0.005, u_max_los=MODEL.u_max)
    state = _state(north=5.0, east=-40.0, course=0.1, sog=5.0)
    cands = generate_tree(
        TABLE_PARAMS, MODEL, EM, state, (5.0, 0.0), _tau0(state), _los_hook(dtraj, los), DT
    )
    node_end = cands.n_first - 1
    child_end = node_end + int(round(TABLE_PARAMS.step_times[1] / DT))
    nodes = {}
    for leaf, path in enumerate(cands.sample_path.tolist()):
        nodes.setdefault(tuple(path[0]), []).append(leaf)
    assert len(nodes) == 25
    reachable = 0
    for leaves in nodes.values():
        node = leaves[0]
        _, chi_los = los_targets(
            dtraj, cands.pred_north[node, node_end], cands.pred_east[node, node_end],
            cands.pred_course[node, node_end], TABLE_PARAMS.step_times[0], los,
        )
        # course changes relative to the node's desired course
        node_course = cands.course[node, node_end]
        changes = cands.course[leaves, child_end] - node_course
        target = wrap_angle(chi_los - node_course)
        if changes.min() - 1e-9 <= target <= changes.max() + 1e-9:
            reachable += 1
            assert np.abs(changes - target).min() < 1e-9
    assert reachable >= 10


def test_guidance_hook_called_once_per_level():
    dtraj = DesiredTrajectory.line(0.0, 0.0, 0.0, 5.0)
    los = LosParams(lookahead=500.0, along_track_gain=0.005, u_max_los=MODEL.u_max)
    los_hook = _los_hook(dtraj, los)
    calls = []

    def hook(t, north, east, course, desired, step):
        calls.append((t, len(north)))
        return los_hook(t, north, east, course, desired, step)

    state = _state()
    cands = generate_tree(TABLE_PARAMS, MODEL, EM, state, (5.0, 0.0), _tau0(state), hook, DT)
    assert len(cands) == 225
    assert calls == [(0.0, 1), (5.0, 25), (25.0, 75)]


def test_select_prefers_guidance_seeded_candidate_without_obstacles():
    from colavmpc.core import VelocityTrajectory
    from colavmpc.objective import ObjectiveWeights, PenaltyGeometry, select

    dtraj = DesiredTrajectory.line(0.0, 0.0, 0.0, 5.0)
    los = LosParams(lookahead=500.0, along_track_gain=0.005, u_max_los=MODEL.u_max)
    state = _state()
    cands = generate_tree(
        TABLE_PARAMS, MODEL, EM, state, (5.0, 0.0), _tau0(state), _los_hook(dtraj, los), DT
    )
    prev = VelocityTrajectory.constant(TimeGrid.from_span(0.0, 5.0, 0.5), 5.0, 0.0)
    weights = ObjectiveWeights(w_align=1.0, w_avoid=6000.0, w_tran=4200.0, w_course=100.0)
    geom = PenaltyGeometry.circular((25.0, 75.0, 125.0), 0.1)
    table = select(cands, dtraj, [], geom, weights, prev, 0.5)
    # on-path start: the winner is the hold-course candidate seeded by the
    # guidance hook, with zero align and zero transitional cost
    targets = los_targets(dtraj, state.pose.north, state.pose.east, state.pose.course, 0.0, los)
    best, end = table.selected, cands.n_first - 1
    assert abs(cands.sog[best, end] - targets[0]) < 1e-9
    assert abs(wrap_angle(cands.course[best, end] - targets[1])) < 1e-9
    assert table.align[best] == pytest.approx(0.0, abs=1e-9)
    assert table.tran[best] == 0.0


def test_single_sample_levels_hold_speed():
    state = _state()
    dtraj = DesiredTrajectory.line(0.0, 0.0, 0.0, 8.0)  # wants to speed up
    los = LosParams(lookahead=500.0, along_track_gain=0.005, u_max_los=MODEL.u_max)
    cands = generate_tree(
        TABLE_PARAMS, MODEL, EM, state, (5.0, 0.0), _tau0(state), _los_hook(dtraj, los), DT
    )
    for leaf in range(0, len(cands), 37):
        # levels 1 and 2 have n_sog=1: speed stays at the level-0 terminal value
        tail = cands.sog[leaf, cands.n_first - 1 :]
        np.testing.assert_allclose(tail, tail[0], atol=1e-9)


def test_empty_tree_when_all_level0_infeasible():
    state = _state(sog=25.0)
    cands = generate_tree(
        TABLE_PARAMS, MODEL, EM, state, (50.0, 0.0), np.array([1.0, 0.0]), None, DT
    )
    assert len(cands) == 0
    assert not cands


def test_tree_rejects_tau0_outside_limits():
    state = _state()
    with pytest.raises(ValueError, match="outside actuator limits"):
        generate_tree(TABLE_PARAMS, MODEL, EM, state, (5.0, 0.0), np.array([1.5, 0.0]), None, DT)


def test_prediction_feedback_decays_initial_error():
    state = _state(sog=6.0, course=0.15)  # one m/s and 0.15 rad off the desired
    cands = generate_tree(TABLE_PARAMS, MODEL, EM, state, (5.0, 0.0), _tau0(state), None, DT)
    # at t0 the predicted pose course equals the actual course, not the desired
    assert cands.pred_course[0, 0] == pytest.approx(0.15, abs=1e-12)
    # far into the horizon the prediction hugs the desired course
    assert abs(
        cands.pred_course[0, -1] - cands.course[0, -1]
    ) < 0.15 * math.exp(-50.0 / 5.0) + 1e-9
