import math

import numpy as np
import pytest

from colavmpc.core import TimeGrid, VesselState, wrap_angle
from colavmpc.guidance import DesiredTrajectory, LosParams, desired_acceleration, los_targets
import oracles
from colavmpc.primitives import ErrorModel, possible_accelerations, sample_accelerations
from colavmpc import tree as tree_mod
from colavmpc.tree import TreeParams, generate_tree
from colavmpc.vessel import default_model

MODEL = default_model()
EM = ErrorModel(5.0, 5.0)
DT = 0.1
EVAL_DT = 0.5

TABLE_PARAMS = TreeParams(
    step_times=(5.0, 20.0, 30.0), n_sog=(5, 1, 1), n_course=(5, 3, 3),
    t_ramp=1.0, t_sog=5.0, t_course=5.0,
)


def _state(north=0.0, east=0.0, course=0.0, sog=5.0, rot=0.0):
    return VesselState(north, east, course, sog, rot)


def _tau0(state):
    return np.clip(MODEL.damping(state.sog, state.rot), MODEL.tau_min, MODEL.tau_max)


def _grow(state, desired, hook=None, params=TABLE_PARAMS, tau0=None, t=0.0):
    """Candidates grown from state at time t, seeded from the desired (sog, course)."""
    tau0 = _tau0(state) if tau0 is None else tau0
    return generate_tree(params, MODEL, EM, state, t, desired, tau0, hook, DT, EVAL_DT)


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
    cands = _grow(state, (5.0, 0.0))
    assert len(cands) <= 225
    assert len(cands) == 225  # all feasible from a benign state
    assert cands.sample_path.shape == (225, 3, 2)
    assert cands.grid.span == pytest.approx(55.0)
    assert cands.grid.dt == EVAL_DT
    for channel in (cands.pred_north, cands.pred_east, cands.pred_course):
        assert channel.shape == (225, cands.grid.n)
        assert channel.flags.c_contiguous
    for channel in (cands.first_sog, cands.first_course):
        assert channel.shape == (225, cands.first_grid.n)
    assert cands.first_grid.span == pytest.approx(5.0)
    assert cands.accelerations.shape == (225, 3, 2)
    assert cands.trajectory(0).grid == TimeGrid(0.0, DT, 551)


def test_three_level_span_25s():
    params = TreeParams((5.0, 10.0, 10.0), (1, 1, 1), (5, 3, 3), 1.0, 5.0, 5.0)
    state = _state()
    cands = _grow(state, (5.0, 0.0), params=params)
    assert len(cands) == 45
    assert cands.grid.span == pytest.approx(25.0)


def test_degenerate_tree_continues_current_velocity():
    params = TreeParams((5.0,), (1,), (1,), 1.0, 5.0, 5.0)
    state = _state(course=0.4, sog=6.0)
    cands = _grow(state, (6.0, 0.4), params=params)
    assert len(cands) == 1
    traj = cands.trajectory(0)
    np.testing.assert_allclose(traj.sog, 6.0, atol=1e-12)
    np.testing.assert_allclose(traj.course, 0.4, atol=1e-12)


def test_candidate_channels_continuous_across_levels():
    state = _state(sog=5.3, course=0.2, rot=0.01)
    cands = _grow(state, (5.0, 0.25))
    # candidates integrate from the previous commanded values exactly,
    # which is what keeps the reference continuous across replans
    assert np.all(cands.first_sog[:, 0] == 5.0)
    assert np.all(cands.first_course[:, 0] == 0.25)
    assert all(cands.trajectory(leaf).rot[0] == 0.0 for leaf in range(len(cands)))
    for leaf in range(0, len(cands), max(len(cands) // 9, 1)):
        traj = cands.trajectory(leaf)
        max_rot = np.max(np.abs(traj.rot))
        max_acc = np.max(np.abs(traj.sog_acc))
        assert np.max(np.abs(np.diff(traj.course))) <= max_rot * DT + 1e-9
        assert np.max(np.abs(np.diff(traj.sog))) <= max_acc * DT + 1e-9
        # position steps bounded by the fastest predicted speed
        step = np.hypot(np.diff(cands.pred_north[leaf]), np.diff(cands.pred_east[leaf]))
        assert np.max(step) <= (np.max(traj.sog) + 1.0) * EVAL_DT


def test_first_maneuver_matches_full_prefix():
    # each candidate's first maneuver is exactly the level-0 maneuver a
    # one-level tree generates for the same samples, and its first_sog /
    # first_course are its trajectory on the evaluation grid
    state = _state()
    cands = _grow(state, (5.0, 0.0))
    first_params = TreeParams((5.0,), (5,), (5,), 1.0, 5.0, 5.0)
    firsts = _grow(state, (5.0, 0.0), params=first_params)
    assert firsts.grid == cands.first_grid
    stride = int(round(EVAL_DT / DT))
    by_samples = {tuple(path[0]): j for j, path in enumerate(firsts.sample_path.tolist())}
    for leaf in range(0, len(cands), 37):
        j = by_samples[tuple(cands.sample_path[leaf, 0].tolist())]
        np.testing.assert_array_equal(cands.first_sog[leaf], firsts.first_sog[j])
        np.testing.assert_array_equal(cands.first_course[leaf], firsts.first_course[j])
        traj, first = cands.trajectory(leaf), firsts.trajectory(j)
        n = first.grid.n
        assert traj.grid == TimeGrid(0.0, DT, 551)
        # the next level starts on the boundary sample, at the same sog and
        # course but from zero ROT and acceleration
        for name in ("rot", "sog_acc", "rot_acc"):
            np.testing.assert_array_equal(getattr(traj, name)[: n - 1], getattr(first, name)[:-1])
        np.testing.assert_array_equal(traj.sog[:n], first.sog)
        np.testing.assert_array_equal(traj.course[:n], first.course)
        np.testing.assert_array_equal(traj.sog[:n:stride], cands.first_sog[leaf])
        np.testing.assert_array_equal(traj.course[:n:stride], cands.first_course[leaf])


def test_leaf_rows_follow_their_ancestors():
    # the leaves of a tree cut after level k are the level-k edges of the
    # full tree: every full-tree leaf whose sample path starts with a cut
    # leaf's path repeats its prediction over levels 0..k, and ends level k
    # where the cut leaf ends
    dtraj = DesiredTrajectory.line(0.0, 0.0, 0.3, 5.5)
    los = LosParams(lookahead=500.0, along_track_gain=0.005, u_max_los=MODEL.u_max)
    state = _state(north=5.0, east=-40.0, course=0.1, sog=5.0)
    hook = _los_hook(dtraj, los)
    full = _grow(state, (5.0, 0.1), hook)
    for k in (1, 2):
        cut = _grow(state, (5.0, 0.1), hook, params=TreeParams(
            TABLE_PARAMS.step_times[:k], TABLE_PARAMS.n_sog[:k], TABLE_PARAMS.n_course[:k],
            1.0, 5.0, 5.0,
        ))
        by_prefix = {tuple(map(tuple, path)): j for j, path in enumerate(cut.sample_path.tolist())}
        end = cut.grid.n - 1
        stride = int(round(EVAL_DT / DT))
        for leaf, path in enumerate(full.sample_path.tolist()):
            j = by_prefix[tuple(map(tuple, path[:k]))]
            np.testing.assert_array_equal(full.accelerations[leaf, :k], cut.accelerations[j])
            for name in ("pred_north", "pred_east", "pred_course"):
                np.testing.assert_array_equal(getattr(full, name)[leaf, :end], getattr(cut, name)[j, :end])
            assert full.pred_north[leaf, end] == pytest.approx(cut.pred_north[j, end], abs=1e-9)
            assert full.pred_east[leaf, end] == pytest.approx(cut.pred_east[j, end], abs=1e-9)
            np.testing.assert_array_equal(full.trajectory(leaf).sog[: end * stride + 1], cut.trajectory(j).sog)


def test_tree_deterministic():
    state = _state(sog=4.8, course=-0.3)
    a = _grow(state, (5.0, -0.3))
    b = _grow(state, (5.0, -0.3))
    assert len(a) == len(b)
    np.testing.assert_array_equal(a.sample_path, b.sample_path)
    np.testing.assert_array_equal(a.first_sog, b.first_sog)
    np.testing.assert_array_equal(a.pred_north, b.pred_north)


def test_level0_matches_single_step_primitives():
    # one-level tree channels equal the standalone single-step op
    params = TreeParams((5.0,), (5,), (5,), 1.0, 5.0, 5.0)
    state = _state(sog=5.0)
    tau0 = _tau0(state)
    cands = _grow(state, (5.0, 0.0), params=params)
    bounds = possible_accelerations(MODEL, state.sog, state.rot, tau0, 1.0)
    sog_s, rot_s = sample_accelerations(bounds, 5, 5)
    grid = TimeGrid.from_span(0.0, 5.0, DT)
    trajs = oracles.integrate_primitives(MODEL, sog_s, rot_s, (5.0, 0.0), params.step_params(0), grid)
    assert len(cands) == len(trajs)
    for leaf, traj in enumerate(trajs):
        rebuilt = cands.trajectory(leaf)
        assert rebuilt.grid == traj.grid
        for name in ("sog", "rot", "course", "sog_acc", "rot_acc"):
            np.testing.assert_array_equal(getattr(rebuilt, name), getattr(traj, name))


def test_guidance_seeded_candidate_hits_targets():
    # with the hook active, some candidate's first maneuver ends exactly on
    # the LOS targets evaluated at the root
    dtraj = DesiredTrajectory.line(0.0, 0.0, 0.3, 5.5)
    los = LosParams(lookahead=500.0, along_track_gain=0.005, u_max_los=MODEL.u_max)
    state = _state(north=5.0, east=-40.0, course=0.1, sog=5.0)
    targets = los_targets(dtraj, state.north, state.east, state.course, 0.0, los)
    cands = _grow(state, (5.0, 0.1), _los_hook(dtraj, los))
    end_sog = cands.first_sog[:, -1]
    end_course = cands.first_course[:, -1]
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
    cands = _grow(state, (5.0, 0.0), _los_hook(dtraj, los))
    node_end = cands.first_grid.n - 1
    child_end = int(round((TABLE_PARAMS.step_times[0] + TABLE_PARAMS.step_times[1]) / DT))
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
        node_course = cands.first_course[node, -1]
        changes = np.array([cands.trajectory(leaf).course[child_end] for leaf in leaves]) - node_course
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
    cands = _grow(state, (5.0, 0.0), hook)
    assert len(cands) == 225
    assert calls == [(0.0, 1), (5.0, 25), (25.0, 75)]


def test_select_prefers_guidance_seeded_candidate_without_obstacles():
    from colavmpc.core import VelocityTrajectory
    from colavmpc.objective import ObjectiveWeights, PenaltyGeometry, select

    dtraj = DesiredTrajectory.line(0.0, 0.0, 0.0, 5.0)
    los = LosParams(lookahead=500.0, along_track_gain=0.005, u_max_los=MODEL.u_max)
    state = _state()
    cands = _grow(state, (5.0, 0.0), _los_hook(dtraj, los))
    prev = VelocityTrajectory.constant(TimeGrid.from_span(0.0, 5.0, 0.5), 5.0, 0.0)
    weights = ObjectiveWeights(w_align=1.0, w_avoid=6000.0, w_tran=4200.0, w_course=100.0)
    geom = PenaltyGeometry.circular((25.0, 75.0, 125.0), 0.1)
    table = select(cands, dtraj, [], geom, weights, prev)
    # on-path start: the winner is the hold-course candidate seeded by the
    # guidance hook, with zero align and zero transitional cost
    targets = los_targets(dtraj, state.north, state.east, state.course, 0.0, los)
    best = table.selected
    assert abs(cands.first_sog[best, -1] - targets[0]) < 1e-9
    assert abs(wrap_angle(cands.first_course[best, -1] - targets[1])) < 1e-9
    assert table.align[best] == pytest.approx(0.0, abs=1e-9)
    assert table.tran[best] == 0.0


def test_single_sample_levels_hold_speed():
    state = _state()
    dtraj = DesiredTrajectory.line(0.0, 0.0, 0.0, 8.0)  # wants to speed up
    los = LosParams(lookahead=500.0, along_track_gain=0.005, u_max_los=MODEL.u_max)
    cands = _grow(state, (5.0, 0.0), _los_hook(dtraj, los))
    for leaf in range(0, len(cands), 37):
        # levels 1 and 2 have n_sog=1: speed stays at the level-0 terminal value
        tail = cands.trajectory(leaf).sog[cands.levels[0].grid.n - 1 :]
        np.testing.assert_allclose(tail, tail[0], atol=1e-9)


def test_empty_tree_when_all_level0_infeasible():
    state = _state(sog=25.0)
    cands = _grow(state, (50.0, 0.0), tau0=np.array([1.0, 0.0]))
    assert len(cands) == 0
    assert not cands
    assert cands.pred_north.shape == (0, cands.grid.n)
    assert cands.first_sog.shape == (0, cands.first_grid.n)
    assert cands.sample_path.shape == cands.accelerations.shape == (0, 3, 2)


@pytest.mark.parametrize("first_rejected", [2, 3])
def test_empty_tree_when_a_level_below_the_root_is_infeasible(monkeypatch, first_rejected):
    # every sample is rejected from level 1 (2nd call) or level 2 (3rd call) on
    nodes = []

    def hook(t, north, east, course, desired, step):
        assert len(north) == len(east) == len(course) == len(desired[0])
        nodes.append(len(north))
        return None

    full = _grow(_state(), (5.0, 0.0), hook)
    full_nodes, nodes[:] = list(nodes), []
    assert len(full) > 0 and min(full_nodes) > 0
    real = tree_mod.terminal_sog_feasible
    calls = []

    def feasible(model, sog_terminal):
        calls.append(1)
        mask = real(model, sog_terminal)
        return mask if len(calls) < first_rejected else np.zeros_like(mask)

    monkeypatch.setattr(tree_mod, "terminal_sog_feasible", feasible)
    cands = _grow(_state(), (5.0, 0.0), hook)
    assert len(calls) == 3
    # the levels below the emptied one see zero nodes
    assert nodes == full_nodes[:first_rejected] + [0] * (3 - first_rejected)
    assert len(cands) == 0
    assert not cands
    assert cands.grid == full.grid and cands.first_grid == full.first_grid
    for arr in (cands.pred_north, cands.pred_east, cands.pred_course):
        assert arr.shape == (0, cands.grid.n)
    assert cands.first_sog.shape == cands.first_course.shape == (0, cands.first_grid.n)
    assert cands.sample_path.shape == cands.accelerations.shape == (0, 3, 2)


def test_tree_rejects_tau0_outside_limits():
    state = _state()
    with pytest.raises(ValueError, match="outside actuator limits"):
        _grow(state, (5.0, 0.0), tau0=np.array([1.5, 0.0]))


def test_prediction_feedback_decays_initial_error():
    state = _state(sog=6.0, course=0.15)  # one m/s and 0.15 rad off the desired
    cands = _grow(state, (5.0, 0.0))
    # at t0 the predicted pose course equals the actual course, not the desired
    assert cands.pred_course[0, 0] == pytest.approx(0.15, abs=1e-12)
    # far into the horizon the prediction hugs the desired course
    assert abs(
        cands.pred_course[0, -1] - cands.trajectory(0).course[-1]
    ) < 0.15 * math.exp(-50.0 / 5.0) + 1e-9
