import dataclasses
import math
import re

import numpy as np
import pytest

from colavmpc.core import TimeGrid, VesselState, wrap_angle
from colavmpc.guidance import DesiredTrajectory, LosParams, desired_acceleration, los_targets
import oracles
from colavmpc.primitives import possible_accelerations, sample_accelerations
from colavmpc import scenarios, sim
from colavmpc import tree as tree_mod
from colavmpc.tree import TreeParams, build_levels, generate_tree
from colavmpc.vessel import default_model

MODEL = default_model()
DT = 0.1
EVAL_DT = 0.5

TABLE_PARAMS = TreeParams(
    step_times=(5.0, 20.0, 30.0), n_sog=(5, 1, 1), n_course=(5, 3, 3),
    t_ramp=1.0, t_sog=5.0, t_course=5.0, tc_sog=5.0, tc_course=5.0,
)


def _state(north=0.0, east=0.0, course=0.0, sog=5.0, rot=0.0):
    return VesselState(north, east, course, sog, rot)


def _tau0(state):
    return np.clip(MODEL.damping(state.sog, state.rot), MODEL.tau_min, MODEL.tau_max)


def _grow(state, desired, hook=None, params=TABLE_PARAMS, tau0=None, t=0.0):
    """Candidates grown from state at time t, seeded from the desired (sog, course)."""
    tau0 = _tau0(state) if tau0 is None else tau0
    return generate_tree(build_levels(params, DT, EVAL_DT), MODEL, state, t, desired, tau0, hook)


def _los_hook(dtraj, los):
    def hook(t, north, east, course, desired):
        targets = los_targets(dtraj, north, east, course, t, los)
        return desired_acceleration(targets, desired, TABLE_PARAMS)

    return hook


def test_tree_params_validation():
    with pytest.raises(ValueError):
        TreeParams((5.0, 20.0), (5, 1, 1), (5, 3, 3), 1.0, 5.0, 5.0, 5.0, 5.0)
    with pytest.raises(ValueError):
        TreeParams((3.0,), (1,), (1,), 1.0, 5.0, 5.0, 5.0, 5.0)  # step below maneuver time


def test_table_configuration_shape():
    state = _state()
    cands = _grow(state, (5.0, 0.0))
    assert len(cands) <= 225
    assert len(cands) == 225  # all feasible from a benign state
    assert cands.grid.t_end - cands.grid.t0 == pytest.approx(55.0)
    assert cands.grid.dt == EVAL_DT
    # each edge once, on the columns its level owns: 10 + 40 + 61 = grid.n
    assert [(position.shape, course.shape) for position, course in cands.edges] == [
        ((2, 25, 10), (25, 10)), ((2, 75, 40), (75, 40)), ((2, 225, 61), (225, 61)),
    ]
    assert cands.grid.n == 10 + 40 + 61
    # and each edge's samples once, one row per edge
    for rows, samples, n_edges in zip(cands.ancestors, cands.samples, (25, 75, 225), strict=True):
        assert rows.shape == (225,) and rows.min() == 0 and rows.max() == n_edges - 1
        assert [array.shape for array in samples] == [(n_edges,)] * 4
    for channel in oracles.leaf_rows(cands):
        assert channel.shape == (225, cands.grid.n)
    for channel in (cands.first_sog, cands.first_course):
        assert channel.shape == (25, cands.first_grid.n)
    assert cands.first_grid.t_end - cands.first_grid.t0 == pytest.approx(5.0)
    for array in oracles.leaf_samples(cands):
        assert array.shape == (225, 3, 2)
    assert cands.trajectory(0).grid == TimeGrid(0.0, DT, 551)


def test_three_level_span_25s():
    params = TreeParams((5.0, 10.0, 10.0), (1, 1, 1), (5, 3, 3), 1.0, 5.0, 5.0, 5.0, 5.0)
    state = _state()
    cands = _grow(state, (5.0, 0.0), params=params)
    assert len(cands) == 45
    assert cands.grid.t_end - cands.grid.t0 == pytest.approx(25.0)


def test_degenerate_tree_continues_current_velocity():
    params = TreeParams((5.0,), (1,), (1,), 1.0, 5.0, 5.0, 5.0, 5.0)
    state = _state(course=0.4, sog=6.0)
    cands = _grow(state, (6.0, 0.4), params=params)
    assert len(cands) == 1
    traj = cands.trajectory(0)
    np.testing.assert_allclose(traj.sog, 6.0, atol=1e-12)
    np.testing.assert_allclose(traj.course, 0.4, atol=1e-12)


def test_candidate_channels_continuous_across_levels():
    state = _state(sog=5.3, course=0.2, rot=0.01)
    cands = _grow(state, (5.0, 0.25))
    pred_north, pred_east, _ = oracles.leaf_rows(cands)
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
        step = np.hypot(np.diff(pred_north[leaf]), np.diff(pred_east[leaf]))
        assert np.max(step) <= (np.max(traj.sog) + 1.0) * EVAL_DT


def test_first_maneuver_matches_full_prefix():
    # each candidate's first maneuver is exactly the level-0 maneuver a
    # one-level tree generates for the same samples, and its first_sog /
    # first_course are its trajectory on the evaluation grid
    state = _state()
    cands = _grow(state, (5.0, 0.0))
    first_params = TreeParams((5.0,), (5,), (5,), 1.0, 5.0, 5.0, 5.0, 5.0)
    firsts = _grow(state, (5.0, 0.0), params=first_params)
    assert firsts.grid == cands.first_grid
    stride = int(round(EVAL_DT / DT))
    paths, first_paths = oracles.leaf_samples(cands)[0], oracles.leaf_samples(firsts)[0]
    (first_sog, first_course), (firsts_sog, firsts_course) = oracles.leaf_firsts(cands), oracles.leaf_firsts(firsts)
    by_samples = {tuple(path[0]): j for j, path in enumerate(first_paths.tolist())}
    for leaf in range(0, len(cands), 37):
        j = by_samples[tuple(paths[leaf, 0].tolist())]
        np.testing.assert_array_equal(first_sog[leaf], firsts_sog[j])
        np.testing.assert_array_equal(first_course[leaf], firsts_course[j])
        traj, first = cands.trajectory(leaf), firsts.trajectory(j)
        n = first.grid.n
        assert traj.grid == TimeGrid(0.0, DT, 551)
        # the next level starts on the boundary sample, at the same sog and
        # course but from zero ROT and acceleration
        for name in ("rot", "sog_acc", "rot_acc"):
            np.testing.assert_array_equal(getattr(traj, name)[: n - 1], getattr(first, name)[:-1])
        np.testing.assert_array_equal(traj.sog[:n], first.sog)
        np.testing.assert_array_equal(traj.course[:n], first.course)
        np.testing.assert_array_equal(traj.sog[:n:stride], first_sog[leaf])
        np.testing.assert_array_equal(traj.course[:n:stride], first_course[leaf])


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
            1.0, 5.0, 5.0, 5.0, 5.0,
        ))
        cut_paths, cut_accelerations = oracles.leaf_samples(cut)
        full_paths, full_accelerations = oracles.leaf_samples(full)
        by_prefix = {tuple(map(tuple, path)): j for j, path in enumerate(cut_paths.tolist())}
        end = cut.grid.n - 1
        stride = int(round(EVAL_DT / DT))
        full_rows, cut_rows = oracles.leaf_rows(full), oracles.leaf_rows(cut)
        for leaf, path in enumerate(full_paths.tolist()):
            j = by_prefix[tuple(map(tuple, path[:k]))]
            np.testing.assert_array_equal(full_accelerations[leaf, :k], cut_accelerations[j])
            for full_channel, cut_channel in zip(full_rows, cut_rows):
                np.testing.assert_array_equal(full_channel[leaf, :end], cut_channel[j, :end])
            assert full_rows[0][leaf, end] == pytest.approx(cut_rows[0][j, end], abs=1e-9)
            assert full_rows[1][leaf, end] == pytest.approx(cut_rows[1][j, end], abs=1e-9)
            np.testing.assert_array_equal(full.trajectory(leaf).sog[: end * stride + 1], cut.trajectory(j).sog)


def _trim_last_level(cands):
    return cands.edges[:-1] + (tuple(channel[..., :-1] for channel in cands.edges[-1]),)


@pytest.mark.parametrize(
    "change,message",
    [
        (lambda c: {"edges": _trim_last_level(c)}, "the levels own [10, 40, 60] columns, which do not add up to grid.n 111"),
        (lambda c: {"ancestors": c.ancestors[:-1]}, "3 levels of edges, 3 of samples, 2 of ancestors"),
        (lambda c: {"samples": c.samples[:-1]}, "3 levels of edges, 2 of samples, 3 of ancestors"),
        (lambda c: {"samples": (c.samples[0], (*c.samples[1][:3], c.samples[1][3][:-1]), c.samples[2])},
         "level 1's per-edge arrays have [75, 75, 75, 75, 74] rows for 75 edges"),
        (lambda c: {"first_course": c.first_course[:-1]}, "level 0's per-edge arrays have [25, 25, 25, 25, 25, 25, 24] rows for 25 edges"),
        (lambda c: {"ancestors": (c.ancestors[0], c.ancestors[1][:-1], c.ancestors[2])}, "ancestors[1] has 224 rows for 225 leaves"),
        (lambda c: {"ancestors": (c.ancestors[0], c.ancestors[1] + 1, c.ancestors[2])}, "ancestors[1] indexes outside level 1's 75 edges"),
        (lambda c: {"ancestors": (c.ancestors[0] - 1, *c.ancestors[1:])}, "ancestors[0] indexes outside level 0's 25 edges"),
    ],
)
def test_candidate_set_rejects_a_layout_select_would_slice_wrongly(change, message):
    cands = _grow(_state(), (5.0, 0.0))
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(cands, **change(cands))


def test_tree_deterministic():
    state = _state(sog=4.8, course=-0.3)
    a = _grow(state, (5.0, -0.3))
    b = _grow(state, (5.0, -0.3))
    assert len(a) == len(b)
    np.testing.assert_array_equal(oracles.leaf_samples(a)[0], oracles.leaf_samples(b)[0])
    np.testing.assert_array_equal(a.first_sog, b.first_sog)
    for a_rows, b_rows, a_edges, b_edges in zip(a.ancestors, b.ancestors, a.edges, b.edges):
        np.testing.assert_array_equal(a_rows, b_rows)
        for a_channel, b_channel in zip(a_edges, b_edges):
            np.testing.assert_array_equal(a_channel, b_channel)


def test_level0_matches_single_step_primitives():
    # one-level tree channels equal the standalone single-step op
    params = TreeParams((5.0,), (5,), (5,), 1.0, 5.0, 5.0, 5.0, 5.0)
    state = _state(sog=5.0)
    tau0 = _tau0(state)
    cands = _grow(state, (5.0, 0.0), params=params)
    bounds = possible_accelerations(MODEL, state.sog, state.rot, tau0, 1.0)
    sog_s, rot_s = sample_accelerations(bounds, 5, 5)
    grid = TimeGrid.from_span(0.0, 5.0, DT)
    trajs = oracles.integrate_primitives(MODEL, sog_s, rot_s, (5.0, 0.0), params, grid)
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
    pred_north, pred_east, pred_course = oracles.leaf_rows(cands)
    node_end = cands.first_grid.n - 1
    child_end = int(round((TABLE_PARAMS.step_times[0] + TABLE_PARAMS.step_times[1]) / DT))
    nodes = {}
    for leaf, path in enumerate(oracles.leaf_samples(cands)[0].tolist()):
        nodes.setdefault(tuple(path[0]), []).append(leaf)
    assert len(nodes) == 25
    reachable = 0
    for leaves in nodes.values():
        node = leaves[0]
        _, chi_los = los_targets(
            dtraj, pred_north[node, node_end], pred_east[node, node_end],
            pred_course[node, node_end], TABLE_PARAMS.step_times[0], los,
        )
        # course changes relative to the node's desired course
        node_course = oracles.leaf_firsts(cands)[1][node, -1]
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

    def hook(t, north, east, course, desired):
        calls.append((t, len(north)))
        return los_hook(t, north, east, course, desired)

    state = _state()
    cands = _grow(state, (5.0, 0.0), hook)
    assert len(cands) == 225
    assert calls == [(0.0, 1), (5.0, 25), (25.0, 75)]
    # a transit-shaped tree: the second level's three nodes take one sog
    # and one rot sample each, which ignore a desired acceleration, so the
    # hook is not called there; both levels run the float node stage
    calls.clear()
    transit = dataclasses.replace(TABLE_PARAMS, step_times=(5.0, 20.0), n_sog=(1, 1), n_course=(3, 1))
    assert 3 <= tree_mod.SMALL_NODES
    assert len(_grow(state, (5.0, 0.0), hook, params=transit)) == 3
    assert calls == [(0.0, 1)]


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
    first_sog, first_course = oracles.leaf_firsts(cands)
    assert abs(first_sog[best, -1] - targets[0]) < 1e-9
    assert abs(wrap_angle(first_course[best, -1] - targets[1])) < 1e-9
    assert table.align[best] == pytest.approx(0.0, abs=1e-9)
    assert table.tran[best] == 0.0


def test_single_sample_levels_hold_speed():
    state = _state()
    dtraj = DesiredTrajectory.line(0.0, 0.0, 0.0, 8.0)  # wants to speed up
    los = LosParams(lookahead=500.0, along_track_gain=0.005, u_max_los=MODEL.u_max)
    cands = _grow(state, (5.0, 0.0), _los_hook(dtraj, los))
    for leaf in range(0, len(cands), 37):
        # levels 1 and 2 have n_sog=1: speed stays at the level-0 terminal value
        tail = cands.trajectory(leaf).sog[len(cands.levels[0].cum_s) - 1 :]
        np.testing.assert_allclose(tail, tail[0], atol=1e-9)


def test_empty_tree_when_all_level0_infeasible():
    state = _state(sog=25.0)
    cands = _grow(state, (50.0, 0.0), tau0=np.array([1.0, 0.0]))
    assert len(cands) == 0
    assert not cands
    for arr in oracles.leaf_rows(cands):
        assert arr.shape == (0, cands.grid.n)
    assert [rows.shape for rows in cands.ancestors] == [(0,)] * 3
    assert cands.first_sog.shape == (0, cands.first_grid.n)
    assert [array.shape for samples in cands.samples for array in samples] == [(0,)] * 12
    for array in oracles.leaf_samples(cands):
        assert array.shape == (0, 3, 2)


@pytest.mark.parametrize("first_rejected", [2, 3])
def test_empty_tree_when_a_level_below_the_root_is_infeasible(monkeypatch, first_rejected):
    # every sample is rejected from level 1 (2nd call) or level 2 (3rd call) on
    nodes = []

    def hook(t, north, east, course, desired):
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
    for arr in oracles.leaf_rows(cands):
        assert arr.shape == (0, cands.grid.n)
    assert [rows.shape for rows in cands.ancestors] == [(0,)] * 3
    # the first maneuvers are level 0's edges, which the emptied level leaves
    assert cands.first_sog.shape == cands.first_course.shape == (full_nodes[1], cands.first_grid.n)
    for array in oracles.leaf_firsts(cands):
        assert array.shape == (0, cands.first_grid.n)
    for array in oracles.leaf_samples(cands):
        assert array.shape == (0, 3, 2)


def test_tree_rejects_tau0_outside_limits():
    # above tau_max or below tau_min, raised from the root's float node stage
    state = _state()
    for tau0 in ([1.5, 0.0], [0.0, 0.0]):
        with pytest.raises(ValueError, match=re.escape(f"tau0 {tau0} outside actuator limits")):
            _grow(state, (5.0, 0.0), tau0=np.array(tau0))


def test_prediction_feedback_decays_initial_error():
    state = _state(sog=6.0, course=0.15)  # one m/s and 0.15 rad off the desired
    cands = _grow(state, (5.0, 0.0))
    pred_course = oracles.leaf_rows(cands)[2]
    # at t0 the predicted pose course equals the actual course, not the desired
    assert pred_course[0, 0] == pytest.approx(0.15, abs=1e-12)
    # far into the horizon the prediction hugs the desired course
    assert abs(
        pred_course[0, -1] - cands.trajectory(0).course[-1]
    ) < 0.15 * math.exp(-50.0 / 5.0) + 1e-9


def _shipped_calls(monkeypatch, scenario, noise):
    """The generate_tree arguments of every planner call of one shipped
    run: real states, and the LOS hook as sim.plan_step wires it."""
    calls = []

    def recording(*args):
        calls.append(args)
        return generate_tree(*args)

    monkeypatch.setattr(sim, "generate_tree", recording)
    sim.run(scenarios.build_scenario(scenario, noise=noise))
    return calls


@pytest.mark.parametrize("scenario,noise", [("head_on", "radar"), ("crossing_port", "none")])
def test_prediction_on_the_evaluation_grid_stays_near_the_full_resolution_oracle(monkeypatch, scenario, noise):
    # the prediction integrates on the eval_dt grid. Against the same
    # prediction integrated on the dt grid and then thinned, it moves by
    # at most 3.4 cm over the planner calls of the eight shipped runs
    # (crossing_port, none) and 3.1 cm here (head_on, radar), so 5 cm
    # leaves a margin of about 1.5x. The desired channels and level 0's
    # course do not depend on the integration, so they keep their bits
    calls = _shipped_calls(monkeypatch, scenario, noise)
    assert len(calls) >= 40
    params = scenarios.build_scenario(scenario, noise=noise).tree
    worst = 0.0
    for args in calls:
        levels, *rest = args
        cands = generate_tree(*args)
        oracle = oracles.full_resolution_tree(params, *rest, levels[0].dt, levels[0].eval_dt)
        np.testing.assert_array_equal(oracles.leaf_samples(cands)[0], oracles.leaf_samples(oracle)[0])
        np.testing.assert_array_equal(cands.first_sog, oracle.first_sog)
        np.testing.assert_array_equal(cands.first_course, oracle.first_course)
        n0 = cands.first_grid.n
        (north, east, course), (o_north, o_east, o_course) = oracles.leaf_rows(cands), oracles.leaf_rows(oracle)
        np.testing.assert_array_equal(course[:, :n0], o_course[:, :n0])
        worst = max(worst, np.max(np.hypot(north - o_north, east - o_east)))
    assert 0.0 < worst <= 0.05


def test_prediction_with_eval_dt_equal_to_dt_is_the_full_resolution_oracle(monkeypatch):
    params = scenarios.build_scenario("head_on", noise="radar").tree
    for levels, *rest in _shipped_calls(monkeypatch, "head_on", "radar")[::8]:
        dt = levels[0].dt
        cands = generate_tree(build_levels(params, dt, dt), *rest)
        oracle = oracles.full_resolution_tree(params, *rest, dt, dt)
        assert cands.grid == oracle.grid and cands.desired0 == oracle.desired0
        for name in ("first_sog", "first_course"):
            np.testing.assert_array_equal(getattr(cands, name), getattr(oracle, name), err_msg=name)
        for k, (edges, o_edges) in enumerate(zip(cands.edges, oracle.edges, strict=True)):
            np.testing.assert_array_equal(cands.ancestors[k], oracle.ancestors[k], err_msg=f"ancestors[{k}]")
            for name, channel, o_channel in zip(("i_sog", "i_rot", "a_u", "a_r"), cands.samples[k], oracle.samples[k]):
                np.testing.assert_array_equal(channel, o_channel, err_msg=f"samples[{k}] {name}")
            for name, channel, o_channel in zip(("(north, east)", "course"), edges, o_edges):
                np.testing.assert_array_equal(channel, o_channel, err_msg=f"edges[{k}] {name}")
        for level, full in zip(cands.levels, oracle.levels):
            np.testing.assert_array_equal(level.decay_s, full.decay_s)
            np.testing.assert_array_equal(level.decay_c, full.decay_c)


@pytest.mark.parametrize(
    "step_times,eval_dt,message",
    [
        ((5.0, 20.0, 30.0), 0.25, "eval_dt 0.25 must be an integer multiple of dt 0.1"),
        ((5.0, 20.0, 30.0), 0.0, "eval_dt 0.0 must be an integer multiple of dt 0.1"),
        ((5.0, 20.0, 30.0), math.nan, "eval_dt nan must be an integer multiple of dt 0.1"),
        ((5.0, 20.0, 30.0), math.inf, "eval_dt inf must be an integer multiple of dt 0.1"),
        ((6.0, 12.0), 5.0, "eval_dt 5.0 must divide every step time, but step time 6.0 is no multiple of it (dt 0.1)"),
    ],
)
def test_tree_names_the_eval_dt_rule_it_breaks(step_times, eval_dt, message):
    n = len(step_times)
    params = TreeParams(step_times, (1,) * n, (3,) * n, 1.0, 5.0, 5.0, 5.0, 5.0)
    with pytest.raises(ValueError, match=re.escape(message)):
        build_levels(params, DT, eval_dt)


def test_levels_built_once_match_the_per_start_time_formula():
    # build_levels takes a level's relative times as dt * arange(n), the
    # per-start-time formula as grid.times() - t0, which rounds
    # differently for each t0. Over t0 = 0..1800 s in 5 s steps, the
    # unit profiles differ by at most 9.2e-14 of their peak and the
    # integrals by 7.1e-15 of theirs, and the decays are equal; the
    # bounds leave about 2x. At t0 = 0 both formulas give the same bits
    config = scenarios.build_scenario("head_on")
    dt, stride = config.integration_dt, round(config.eval_dt / config.integration_dt)
    for t0 in np.arange(0.0, 1805.0, 5.0):
        for k, level in enumerate(config.levels):
            for name, expected in oracles.level_at(config.tree, k, float(t0), dt, stride).items():
                got, where = getattr(level, name), f"level {k} {name} at t0 {t0}"
                if t0 == 0.0 or name.startswith("decay"):
                    np.testing.assert_array_equal(got, expected, err_msg=where)
                else:
                    bound = (2e-13 if name.startswith("unit") else 2e-14) * np.abs(expected).max()
                    np.testing.assert_allclose(got, expected, rtol=0.0, atol=bound, err_msg=where)
