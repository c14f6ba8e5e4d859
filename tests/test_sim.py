import math

import numpy as np
import pytest

from colavmpc import config as cfgm
from colavmpc import scenarios
from colavmpc.core import TimeGrid, VelocityTrajectory, VesselState
from colavmpc.objective import PenaltyGeometry
from colavmpc.sim import (
    Metrics,
    ObstacleSeries,
    PlannerSeries,
    RunLog,
    classify_situation,
    compute_metrics,
    plan_step,
    run,
    runlog_to_csv,
)

GEOM = PenaltyGeometry.elliptical((50.0, 150.0, 250.0), (25.0, 75.0, 125.0), 100.0, 0.1)


def _own(course=0.0, sog=5.0):
    """Ownship (north, east, course, sog) at the origin."""
    return 0.0, 0.0, course, sog


def _obstacle_at(bearing_deg, course, sog, dist=500.0):
    """Obstacle (north, east, sog, course) at a bearing from the origin."""
    b = math.radians(bearing_deg)
    return dist * math.cos(b), dist * math.sin(b), sog, course


# 4 situations x 4 bearings, all converging, ownship north-bound at 5 m/s
FIXTURE = [
    # head-on: nearly reciprocal courses, obstacle in the forward sector
    (_obstacle_at(0.0, math.pi, 2.5), "head_on"),
    (_obstacle_at(10.0, math.pi - 0.05, 2.5), "head_on"),
    (_obstacle_at(-10.0, math.pi + 0.05, 2.5), "head_on"),
    (_obstacle_at(20.0, math.pi, 2.5), "head_on"),
    # crossing from starboard: we give way
    (_obstacle_at(90.0, -math.pi / 2, 2.5), "crossing_give_way"),
    (_obstacle_at(45.0, -math.pi / 2, 2.5), "crossing_give_way"),
    (_obstacle_at(70.0, -3 * math.pi / 4, 2.5), "crossing_give_way"),
    (_obstacle_at(110.0, -math.pi / 2, 2.5), "crossing_give_way"),
    # crossing from port: we stand on
    (_obstacle_at(-90.0, math.pi / 2, 2.5), "crossing_stand_on"),
    (_obstacle_at(-45.0, math.pi / 2, 2.5), "crossing_stand_on"),
    (_obstacle_at(-70.0, 3 * math.pi / 4, 2.5), "crossing_stand_on"),
    (_obstacle_at(-110.0, math.pi / 2, 2.5), "crossing_stand_on"),
    # overtaking: we approach a slower vessel from abaft its beam
    (_obstacle_at(0.0, 0.0, 1.0), "overtaking"),
    (_obstacle_at(15.0, math.radians(20.0), 1.5), "overtaking"),
    (_obstacle_at(-15.0, math.radians(-20.0), 1.5), "overtaking"),
    (_obstacle_at(30.0, math.radians(55.0), 1.0), "overtaking"),
]


@pytest.mark.parametrize("obstacle,expected", FIXTURE)
def test_classification_fixture(obstacle, expected):
    assert classify_situation(*_own(), *obstacle) == expected


def test_classification_requires_motion_and_convergence():
    assert classify_situation(*_own(), *_obstacle_at(0.0, math.pi, 0.1)) == "none"
    assert classify_situation(*_own(sog=0.1), *_obstacle_at(0.0, math.pi, 2.5)) == "none"
    # diverging: obstacle ahead sailing away faster
    assert classify_situation(*_own(), *_obstacle_at(0.0, 0.0, 8.0)) == "none"


def test_classification_overtaken():
    # faster vessel approaching from our abaft sector
    assert classify_situation(*_own(), *_obstacle_at(170.0, 0.0, 9.0)) == "overtaken"


def test_classification_over_arrays():
    # one call over stacked geometries labels each element as the scalar
    # call does; coincident positions are unlabelled
    obstacles = [obstacle for obstacle, _ in FIXTURE] + [(0.0, 0.0, 2.5, math.pi)]
    expected = [label for _, label in FIXTURE] + ["none"]
    n = len(obstacles)
    obs_north, obs_east, obs_sog, obs_course = (np.array(col) for col in zip(*obstacles))
    labels = classify_situation(
        np.zeros(n), np.zeros(n), np.zeros(n), np.full(n, 5.0),
        obs_north, obs_east, obs_sog, obs_course,
    )
    assert labels.tolist() == expected


def _synthetic_log(east_offset=214.0, obstacle_course=0.0, n=481, dt=0.5):
    t = dt * np.arange(n)
    own_north = -600.0 + 5.0 * t
    zeros = np.zeros(n)
    ser = ObstacleSeries(
        true_north=zeros.copy(),
        true_east=zeros.copy(),
        true_sog=zeros.copy(),
        true_course=np.full(n, obstacle_course),
        est_north=zeros.copy(),
        est_east=zeros.copy(),
        est_sog=zeros.copy(),
        est_course=np.full(n, obstacle_course),
        est_time=t.copy(),
    )
    planner = PlannerSeries(
        t=np.zeros(0), candidate=np.zeros(0, dtype=int), n_candidates=np.zeros(0, dtype=int),
        align=np.zeros(0), avoid=np.zeros(0), tran=np.zeros(0), total=np.zeros(0),
        failsafe=np.zeros(0, dtype=bool), course_change=np.zeros(0), sog_change=np.zeros(0),
    )
    return RunLog(
        name="synthetic", seed=0, dt=dt, t=t,
        own_north=own_north, own_east=np.full(n, east_offset),
        own_course=zeros.copy(), own_sog=np.full(n, 5.0), own_rot=zeros.copy(),
        tau_m=zeros.copy(), tau_delta=zeros.copy(),
        ref_sog=np.full(n, 5.0), ref_rot=zeros.copy(), ref_course=zeros.copy(),
        ref_sog_acc=zeros.copy(), ref_rot_acc=zeros.copy(),
        selected=np.zeros(n, dtype=int),
        obstacles={"target": ser},
        planner=planner,
    )


def test_metrics_abeam_pass_margin_only():
    # a 214 m pass down the obstacle's starboard side: inside the 225 m
    # extended margin boundary near the beam, outside the 175 m safety one
    log = _synthetic_log(east_offset=214.0)
    metrics = compute_metrics(log, GEOM)
    m = metrics.obstacles["target"]
    assert m.min_distance == pytest.approx(214.0, abs=0.2)
    assert m.margin_time > 0.0
    assert m.safety_time == 0.0
    assert m.collision_time == 0.0
    assert m.passing_side == "starboard"


def test_metrics_port_mirror_pass_clear():
    # the same offset on the port side never enters the 125 m margin
    log = _synthetic_log(east_offset=-214.0)
    m = compute_metrics(log, GEOM).obstacles["target"]
    assert m.margin_time == 0.0
    assert m.passing_side == "port"


def test_metrics_incursion_nesting_and_monotonicity():
    log = _synthetic_log(east_offset=60.0)
    base = compute_metrics(log, GEOM).obstacles["target"]
    assert base.collision_time <= base.safety_time <= base.margin_time
    scale = 1.5
    bigger = PenaltyGeometry.elliptical(
        tuple(a * scale for a in GEOM.a), tuple(b * scale for b in GEOM.b),
        GEOM.d_colregs * scale, GEOM.gamma1,
    )
    grown = compute_metrics(log, bigger).obstacles["target"]
    assert grown.margin_time >= base.margin_time
    assert grown.safety_time >= base.safety_time
    assert grown.collision_time >= base.collision_time


def test_metrics_situation_is_first_label():
    # unlabelled while the obstacle lies still, head-on once it heads
    # south, crossing after it turns west: the first label wins
    log = _synthetic_log(east_offset=0.0)
    ser = log.obstacles["target"]
    ser.true_north[:] = 600.0
    ser.true_sog[100:] = 2.5
    ser.true_course[100:] = math.pi
    ser.true_course[200:] = -math.pi / 2
    assert compute_metrics(log, GEOM).obstacles["target"].situation == "head_on"


def test_metrics_no_incursions_when_far():
    log = _synthetic_log(east_offset=5000.0)
    m = compute_metrics(log, GEOM).obstacles["target"]
    assert m.margin_time == m.safety_time == m.collision_time == 0.0


def test_run_tracks_desired_without_obstacles():
    d = scenarios.build_config_dict("head_on")
    d["obstacles"] = []
    d["duration"] = 120.0
    log, metrics = run(cfgm.from_dict(d))
    assert np.max(np.abs(log.own_east)) < 5.0
    assert metrics.switch_count == 0
    assert metrics.failsafe_count == 0


def test_run_head_on_clears_collision_boundary():
    log, metrics = run(scenarios.build_scenario("head_on"))
    m = metrics.obstacles["target"]
    assert m.collision_time == 0.0
    assert m.min_clearance > 0.0
    assert m.situation == "head_on"


def test_run_head_on_with_ais_preset():
    # exact estimates on a slow 10 s update period, as in a transponder feed
    _, metrics = run(scenarios.build_scenario("head_on", noise="ais"))
    m = metrics.obstacles["target"]
    assert m.collision_time == 0.0
    assert m.compliance == "compliant"


def test_run_deterministic_with_noise():
    cfg1 = scenarios.build_scenario("head_on", seed=7, noise="radar")
    cfg2 = scenarios.build_scenario("head_on", seed=7, noise="radar")
    log1, _ = run(cfg1)
    log2, _ = run(cfg2)
    assert runlog_to_csv(log1) == runlog_to_csv(log2)


def test_run_failsafe_holds_and_completes():
    # desired velocity far above the envelope: every solve is infeasible,
    # the planner holds the initial reference and logs the failsafe
    d = scenarios.build_config_dict("head_on")
    d["ownship"]["sog"] = 25.0
    d["obstacles"] = []
    d["duration"] = 30.0
    log, metrics = run(cfgm.from_dict(d))
    assert metrics.failsafe_count == metrics.planner_calls > 0
    assert np.all(log.selected == -1)
    assert np.all(log.ref_sog == 25.0)  # held reference


def test_run_two_obstacles():
    d = scenarios.build_config_dict("head_on")
    d["obstacles"].append(
        {"id": "ferry", "north": 900.0, "east": 450.0, "sog": 2.5, "course": -math.pi / 2}
    )
    _, metrics = run(cfgm.from_dict(d))
    assert set(metrics.obstacles) == {"target", "ferry"}
    for m in metrics.obstacles.values():
        assert m.collision_time == 0.0
        assert m.min_distance > 50.0


def test_run_waypoint_track():
    d = scenarios.build_config_dict("head_on")
    d["desired"] = {
        "kind": "waypoints",
        "speed": 5.0,
        "points": [
            {"north": 0.0, "east": 0.0},
            {"north": 400.0, "east": 0.0},
            {"north": 800.0, "east": 200.0},
        ],
    }
    d["obstacles"] = []
    d["duration"] = 150.0
    log, _ = run(cfgm.from_dict(d))
    from colavmpc.guidance import DesiredTrajectory

    track = DesiredTrajectory.waypoints([[0, 0], [400, 0], [800, 200]], 5.0)
    ref_n, ref_e = track.position(log.t)
    err = np.hypot(log.own_north - ref_n, log.own_east - ref_e)
    assert err[-1] < 10.0  # converges back after the corner
    assert err.max() < 80.0


def test_run_scripted_course_change():
    d = scenarios.build_config_dict("crossing_starboard")
    d["obstacles"][0]["events"] = [{"t": 60.0, "course": -2.3}]
    _, metrics = run(cfgm.from_dict(d))
    m = metrics.obstacles["target"]
    assert m.collision_time == 0.0
    # the obstacle turns away, so the pass is wider than the nominal crossing
    assert m.min_distance > 150.0


def test_prediction_matches_closed_loop_plant():
    # the planner's feedback-corrected prediction should stay close to what
    # the controller + plant actually do, else the avoidance geometry lies
    from colavmpc.primitives import ErrorModel
    from colavmpc.tree import TreeParams, generate_tree
    from colavmpc.vessel import control_law, default_gains, default_model, step_plant

    model = default_model()
    params = TreeParams((5.0, 20.0, 30.0), (5, 1, 1), (5, 3, 3), 1.0, 5.0, 5.0)
    state = VesselState(0.0, 0.0, 0.1, 5.5, 0.0)
    tau0 = np.clip(model.damping(5.5, 0.0), model.tau_min, model.tau_max)
    # evaluated on the integration grid, so pred_* has a point per plant step
    cands = generate_tree(params, model, ErrorModel(5.0, 5.0), state, 0.0, (5.0, 0.0), tau0, None, 0.1, 0.1)
    for pick in (0, len(cands) // 2, len(cands) - 1):
        desired = cands.trajectory(pick)
        gains = default_gains()
        s = state
        integral = (0.0, 0.0)
        dt = 0.1
        for k in range(desired.grid.n - 1):
            ref = (
                desired.sog[k], desired.rot[k], desired.course[k],
                desired.sog_acc[k], desired.rot_acc[k],
            )
            tau, integral = control_law(model, gains, s, ref, integral, dt)
            s = step_plant(model, s, tau, dt)
            north, east, course, _, _ = s
            pos_err = math.hypot(
                north - cands.pred_north[pick, k + 1], east - cands.pred_east[pick, k + 1]
            )
            course_err = abs(
                (course - cands.pred_course[pick, k + 1] + math.pi) % (2 * math.pi) - math.pi
            )
            assert pos_err < 10.0
            assert course_err < math.radians(3.0)


def test_plan_step_plans_on_its_own_clock():
    # 350 plant steps of 0.1 s sum to a time that differs from 350 * 0.1 in
    # the last bits; the state carries no clock, and the candidates'
    # evaluation grid starts exactly at the planner's t
    from colavmpc.obstacles import observe
    from colavmpc.vessel import step_plant

    config = scenarios.build_scenario("head_on")
    dt, n = config.integration_dt, 350
    state = config.ownship
    tau = config.vessel.damping(state.sog, state.rot)
    for _ in range(n):
        state = VesselState(*step_plant(config.vessel, state, tau, dt))
    t = n * dt
    commanded = VelocityTrajectory.constant(
        TimeGrid.from_span(0.0, t + config.planner_period, dt), state.sog, state.course
    )
    rng = np.random.default_rng(0)
    estimates = [observe(s, config.noise, t, rng) for s in config.obstacles]
    candidates, table = plan_step(config, t, state, commanded, tau, estimates)
    assert table is not None
    assert candidates.grid == TimeGrid.from_span(t, config.tree.horizon, config.eval_dt)
    assert candidates.grid.t0 == t and candidates.first_grid.t0 == t
    assert candidates.trajectory(table.selected).grid.t0 == t


def test_commanded_reference_continuous_across_replans():
    log, _ = run(scenarios.build_scenario("head_on"))
    # the commanded channels may kink at replans but never jump
    dcourse = np.abs(np.diff(log.ref_course))
    dsog = np.abs(np.diff(log.ref_sog))
    assert np.max(dcourse) < 0.3 * log.dt + 1e-9  # bounded by max rot
    assert np.max(dsog) < 1.0 * log.dt + 1e-9


def test_ground_truth_log_follows_script_events():
    # a course change between steps, a speed change exactly on step 300,
    # and two events at one time, the later one applied last
    from colavmpc.obstacles import ground_truth

    d = scenarios.build_config_dict("crossing_starboard")
    d["duration"] = 60.0
    d["obstacles"][0]["events"] = [
        {"t": 12.34, "course": -2.0},
        {"t": 30.0, "sog": 4.0},
        {"t": 45.0, "course": 2.5},
        {"t": 45.0, "course": -3.0, "sog": 1.5},
    ]
    config = cfgm.from_dict(d)
    log, _ = run(config)
    (script,) = config.obstacles
    ser = log.obstacles["target"]
    for k in range(len(log.t)):
        expected = ground_truth(script, k * log.dt)
        logged = (ser.true_north[k], ser.true_east[k], ser.true_sog[k], ser.true_course[k])
        assert logged == expected, k
    # an event applies from its own time on
    assert 300 * log.dt == 30.0 and 450 * log.dt == 45.0
    assert (ser.true_sog[299], ser.true_sog[300]) == (2.5, 4.0)
    assert ser.true_course[123] == -math.pi / 2 and ser.true_course[124] == -2.0
    assert (ser.true_sog[449], ser.true_course[449]) == (4.0, -2.0)
    assert (ser.true_sog[450], ser.true_course[450]) == (1.5, -3.0)
    # continuous position across every event
    step = np.hypot(np.diff(ser.true_north), np.diff(ser.true_east))
    assert step.max() <= 4.0 * log.dt + 1e-9


def _recorded_observe(monkeypatch):
    """Wrap sim.observe; return the list of (t, estimate) of every call."""
    from colavmpc import sim

    real = sim.observe
    calls = []

    def observe(script, noise, t, rng):
        est = real(script, noise, t, rng)
        calls.append((t, est))
        return est

    monkeypatch.setattr(sim, "observe", observe)
    return calls


def _assert_estimates_held(log, calls):
    """Every step logs the last tracker update at or before it."""
    for obs_id, ser in log.obstacles.items():
        mine = [(t, e) for t, e in calls if e.id == obs_id]
        for k, t in enumerate(log.t):
            _, est = [c for c in mine if c[0] <= t][-1]
            logged = (ser.est_north[k], ser.est_east[k], ser.est_sog[k], ser.est_course[k])
            assert logged == (est.north, est.east, est.sog, est.course), (obs_id, k)
            assert ser.est_time[k] == est.timestamp


@pytest.mark.parametrize("period", [0.35, 0.04])
def test_logged_estimates_hold_the_last_update(monkeypatch, period):
    # 0.35 s is no multiple of the 0.1 s step; 0.04 s puts two or three
    # updates into one step, and the step logs the last of them
    d = scenarios.build_config_dict("head_on")
    d["duration"] = 12.0
    d["obstacles"].append(
        {"id": "ferry", "north": 900.0, "east": 450.0, "sog": 2.5, "course": -math.pi / 2}
    )
    d["noise"] = {
        "pos_std": 10.0, "sog_std": 0.3, "course_std": 0.2, "latency": 0.0, "period": period,
    }
    calls = _recorded_observe(monkeypatch)
    log, _ = run(cfgm.from_dict(d))
    updates_per_step = len(calls) / len(log.obstacles) / len(log.t)
    assert (updates_per_step > 2.0) if period < 0.1 else (updates_per_step < 1.0)
    _assert_estimates_held(log, calls)


def _reject_from_call(monkeypatch, first_rejected):
    """Make tree.terminal_sog_feasible reject every sample from its
    first_rejected-th call on."""
    from colavmpc import tree

    real = tree.terminal_sog_feasible
    calls = []

    def feasible(model, sog_terminal):
        calls.append(1)
        mask = real(model, sog_terminal)
        return mask if len(calls) < first_rejected else np.zeros_like(mask)

    monkeypatch.setattr(tree, "terminal_sog_feasible", feasible)


def test_plan_step_holds_when_a_level_below_the_root_empties(monkeypatch):
    config = scenarios.build_scenario("head_on")
    state = config.ownship
    from colavmpc.obstacles import observe

    commanded = VelocityTrajectory.constant(
        TimeGrid.from_span(0.0, config.planner_period, config.integration_dt),
        state.sog, state.course,
    )
    estimates = [observe(s, config.noise, 0.0, np.random.default_rng(0)) for s in config.obstacles]
    _reject_from_call(monkeypatch, 2)
    candidates, table = plan_step(
        config, 0.0, state, commanded, config.vessel.damping(state.sog, state.rot), estimates
    )
    assert table is None
    assert not candidates


def test_run_holds_the_committed_reference_on_failsafe(monkeypatch):
    # the first tree grows; from the second on, level 1 (then level 0)
    # rejects everything, so every later call holds the first winner,
    # past its 55 s horizon at its final values
    d = scenarios.build_config_dict("head_on")
    d["duration"] = 70.0
    d["noise"] = {
        "pos_std": 10.0, "sog_std": 0.3, "course_std": 0.2, "latency": 0.0, "period": 0.35,
    }
    from colavmpc import sim

    real_plan_step = sim.plan_step
    plans = []

    def recorded_plan_step(*args):
        plans.append(real_plan_step(*args))
        return plans[-1]

    monkeypatch.setattr(sim, "plan_step", recorded_plan_step)
    calls = _recorded_observe(monkeypatch)
    _reject_from_call(monkeypatch, 5)
    log, metrics = run(cfgm.from_dict(d))

    assert metrics.planner_calls == 14
    assert list(log.planner.failsafe) == [False] + [True] * 13
    assert all(table is None and not cands for cands, table in plans[1:])
    candidates, table = plans[0]
    winner = candidates.trajectory(table.selected)
    assert np.all(log.selected[:50] == table.selected) and np.all(log.selected[50:] == -1)
    n = winner.grid.n
    for name in ("sog", "rot", "course", "sog_acc", "rot_acc"):
        held = getattr(log, f"ref_{name}")
        np.testing.assert_array_equal(held[:n], getattr(winner, name))
        final = getattr(winner, name)[-1] if name in ("sog", "course") else 0.0
        assert np.all(held[n:] == final), name
    _assert_estimates_held(log, calls)


def test_run_recovers_after_a_failsafe_streak_past_the_horizon(monkeypatch):
    # the first tree grows; every tree from 5 s to 65 s is rejected, a
    # 65 s hold that outlasts the first winner's 55 s horizon; from 70 s
    # on the trees grow again, from the held reference
    from colavmpc import sim, tree

    d = scenarios.build_config_dict("head_on")
    d["duration"] = 80.0
    real_plan_step, real_feasible = sim.plan_step, tree.terminal_sog_feasible
    plans = []
    rejecting = False

    def feasible(model, sog_terminal):
        mask = real_feasible(model, sog_terminal)
        return np.zeros_like(mask) if rejecting else mask

    def recorded_plan_step(config, t, *args):
        nonlocal rejecting
        rejecting = 2.5 < t < 67.5
        plans.append(real_plan_step(config, t, *args))
        return plans[-1]

    monkeypatch.setattr(tree, "terminal_sog_feasible", feasible)
    monkeypatch.setattr(sim, "plan_step", recorded_plan_step)
    log, _ = run(cfgm.from_dict(d))

    assert list(log.planner.failsafe) == [False] + [True] * 13 + [False] * 2
    first, first_table = plans[0]
    winner = first.trajectory(first_table.selected)
    held = (winner.sog[-1], winner.course[-1])
    # the first new winner starts from the held sog and course
    recovered, table = plans[14]
    assert recovered.desired0 == held
    new = recovered.trajectory(table.selected)
    assert (new.sog[0], new.course[0]) == held
    # through the hold, from past the first winner's end to the
    # recovery at 70 s, sog and course hold and the rest is 0
    end, k = winner.grid.n, 700
    assert log.t[k] == 70.0 and np.all(log.selected[end:k] == -1)
    assert np.all(log.ref_sog[end:k] == held[0]) and np.all(log.ref_course[end:k] == held[1])
    for name in ("rot", "sog_acc", "rot_acc"):
        assert np.all(getattr(log, f"ref_{name}")[end:k] == 0.0), name
    # and the reference stays continuous into the new winner
    assert (log.ref_sog[k], log.ref_course[k]) == held
    assert np.max(np.abs(np.diff(log.ref_course))) < 0.3 * log.dt + 1e-9
    assert np.max(np.abs(np.diff(log.ref_sog))) < 1.0 * log.dt + 1e-9


def test_plan_step_reads_the_committed_reference_at_its_grid_points(monkeypatch):
    # the tree starts from the committed reference at t, and the
    # transitional cost compares against it on the first maneuver's
    # evaluation grid; both reads equal interpolating it there, exactly
    import oracles
    from colavmpc import sim

    real_plan_step, real_select = sim.plan_step, sim.select
    committed, compared = [], []

    def recorded_plan_step(config, t, state, commanded, *args):
        committed.append(commanded)
        return real_plan_step(config, t, state, commanded, *args)

    def recorded_select(candidates, *args):
        compared.append((candidates, args[-1]))
        return real_select(candidates, *args)

    monkeypatch.setattr(sim, "plan_step", recorded_plan_step)
    monkeypatch.setattr(sim, "select", recorded_select)
    _, metrics = run(scenarios.build_scenario("head_on", seed=0, noise="radar"))
    assert metrics.failsafe_count == 0 and len(compared) == len(committed) == 40
    for commanded, (candidates, previous_first) in zip(committed, compared):
        expected = oracles.resample(commanded, candidates.first_grid)
        assert previous_first.grid == expected.grid
        for name in ("sog", "rot", "course", "sog_acc", "rot_acc"):
            np.testing.assert_array_equal(getattr(previous_first, name), getattr(expected, name))
        assert candidates.desired0 == (expected.sog[0], expected.course[0])
