import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from colavmpc import config as cfgm
from colavmpc import scenarios
from colavmpc.cli import write_outputs
from colavmpc.core import TimeGrid, VelocityTrajectory, VesselState, _outputs, wrap_angle
from colavmpc.grading import Metrics, _compliance, classify_situation, compute_metrics, situation_labels
from colavmpc.objective import PenaltyGeometry
from colavmpc.sim import (
    CSV_BLOCK_ROWS,
    ObstacleSeries,
    PlannerSeries,
    RunLog,
    _csv_blocks,
    first_solve,
    plan_step,
    planner_csv_blocks,
    planner_to_csv,
    run,
    runlog_csv_blocks,
    runlog_to_csv,
)
from golden.make_golden import GOLDEN

GOLDEN_CASES = sorted(json.loads((GOLDEN / "digests.json").read_text()))
GEOM = PenaltyGeometry.elliptical((50.0, 150.0, 250.0), (25.0, 75.0, 125.0), 100.0, 0.1)
GEOM_CIRC = PenaltyGeometry.circular((25.0, 75.0, 125.0), 0.1)


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
    # an obstacle at rest at the origin, estimated exactly
    ser = ObstacleSeries(*(zeros.copy() for _ in dataclasses.fields(ObstacleSeries)))
    ser.true_course[:] = ser.est_course[:] = obstacle_course
    ser.est_time[:] = t
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


def _onto_obstacle_log():
    """The ownship runs north onto an obstacle 600 m ahead and ends on it;
    the obstacle lies still, then heads south, then west."""
    log = _synthetic_log(east_offset=0.0)
    ser = log.obstacles["target"]
    ser.true_north[:] = 600.0
    ser.true_sog[100:] = 2.5
    ser.true_course[100:] = math.pi
    ser.true_course[200:] = -math.pi / 2
    return log


def test_metrics_situation_is_first_label():
    # unlabelled while the obstacle lies still, head-on once it heads
    # south, crossing after it turns west: the first label wins
    assert compute_metrics(_onto_obstacle_log(), GEOM).obstacles["target"].situation == "head_on"


def test_levels_are_read_only_and_shared_by_every_call(monkeypatch):
    from colavmpc import sim

    # from_dict builds the levels with the config, before any planner call
    config = scenarios.build_scenario("head_on", noise="radar")
    assert "levels" in vars(config)
    assert first_solve(config).candidates.levels is config.levels
    for level in config.levels:
        for f in dataclasses.fields(level):
            if isinstance(getattr(level, f.name), np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(level, f.name)[0] = 1.0
    real_generate_tree, seen = sim.generate_tree, []

    def recording(*args):
        candidates = real_generate_tree(*args)
        seen.append(candidates.levels)
        return candidates

    monkeypatch.setattr(sim, "generate_tree", recording)
    config = scenarios.build_scenario("head_on", noise="radar")
    run(config)
    assert len(seen) == 40 and all(levels is config.levels for levels in seen)
    # a replaced config builds its own levels, here on the integration grid
    fine = dataclasses.replace(config, eval_dt=config.integration_dt).levels
    assert fine is not config.levels and len(fine[0].decay_s) == len(fine[0].cum_s)
    # and a broken grid fails at the replace call itself
    with pytest.raises(ValueError, match="eval_dt 0.25 must be an integer multiple of dt"):
        dataclasses.replace(config, eval_dt=0.25)


@pytest.mark.parametrize("case", ["head_on-none", "transit_0"])
def test_levels_carry_the_tree_params_floats(case):
    # generate_tree reads each level's step time and ramp time from the
    # level; they are TreeParams' own floats, not re-derived from the grid
    # (3 * 0.1 is not 0.3), since the LOS hook's times accumulate them
    config = _golden_config(case)
    assert len(config.levels) == len(config.tree.step_times)
    for level, step_time in zip(config.levels, config.tree.step_times):
        assert level.step_time.hex() == step_time.hex()
        assert level.t_ramp.hex() == config.tree.t_ramp.hex()


def test_metrics_collision_is_noncompliant():
    # the ownship ends on the obstacle of a head-on encounter: a closest
    # approach on the obstacle's course line reads "port", but collision
    # time grades it noncompliant
    m = compute_metrics(_onto_obstacle_log(), GEOM).obstacles["target"]
    assert (m.situation, m.passing_side, m.collision_time) == ("head_on", "port", 5.0)
    assert m.compliance == "noncompliant"


# today's grade of every (situation, passing side, ahead, collided), by
# situation in the order (port, starboard) x (behind, ahead) x (clear,
# collided): c compliant, n noncompliant, a aware_noncompliant, - not_applicable
_GRADES = {
    "head_on": "cncnanan",
    "crossing_give_way": "cnancnan",
    "overtaking": "cncnanan",
    "crossing_stand_on": "--------",
    "overtaken": "--------",
    "none": "--------",
}
_GRADE_NAMES = {"c": "compliant", "n": "noncompliant", "a": "aware_noncompliant", "-": "not_applicable"}
_PASSES = list(itertools.product(("port", "starboard"), (False, True), (False, True)))


@pytest.mark.parametrize("situation,side,ahead,collided,grade", [
    (situation, *flags, _GRADE_NAMES[grade])
    for situation, grades in _GRADES.items() for flags, grade in zip(_PASSES, grades, strict=True)
])
def test_compliance_grade_of_every_situation_side_and_flag(situation, side, ahead, collided, grade):
    # a wrong-side head-on, give-way or overtaking pass grades
    # aware_noncompliant without collision time, noncompliant with it
    assert _compliance(situation, side, ahead, collided) == grade


@pytest.mark.parametrize("geom", [GEOM, GEOM_CIRC])
def test_metrics_coincident_step(geom):
    # on the obstacle (d = 0) the clearance is minus the collision region's
    # longest semi-axis, with no 0/0 (a RuntimeWarning fails the test), and
    # the step is collision time
    m = compute_metrics(_onto_obstacle_log(), geom).obstacles["target"]
    assert (m.min_distance, m.min_clearance) == (0.0, -125.0 if geom is GEOM else -geom.radii[0])
    log = _synthetic_log(east_offset=0.0, n=1)
    log.obstacles["target"].true_north[:] = -600.0
    m = compute_metrics(log, geom).obstacles["target"]
    assert (m.min_clearance, m.collision_time) == (-max(geom.semi_axes(0)), log.dt)


def test_frame_metrics_equal_bearing_oracle():
    # straight passes of an obstacle at the origin, each on its own course,
    # heading and offset, against region times, side and ahead flag from
    # the relative bearing; on course 0 some steps sit exactly on the sector
    # boundary bearings 0, +-pi/2 and pi, at random distances
    rng = np.random.default_rng(7)
    for course in [0.0, 0.0, 0.0, math.pi / 2, -math.pi / 2, math.pi, *rng.uniform(-math.pi, math.pi, 6)]:
        log = _synthetic_log(n=201)
        heading, offset = rng.uniform(-math.pi, math.pi), rng.uniform(-300.0, 300.0)
        along = 5.0 * (log.t - 50.0)
        x = along * math.cos(heading) - offset * math.sin(heading)
        y = along * math.sin(heading) + offset * math.cos(heading)
        if course == 0.0:
            steps, r = rng.choice(len(x), 12, replace=False), rng.uniform(0.0, 300.0, 12)
            x[steps], y[steps] = r * np.tile([1.0, 0.0, 0.0, -1.0], 3), r * np.tile([0.0, 1.0, -1.0, 0.0], 3)
        log.own_north = x * math.cos(course) - y * math.sin(course)
        log.own_east = x * math.sin(course) + y * math.cos(course)
        log.obstacles["target"].true_course[:] = course
        d = np.hypot(log.own_north, log.own_east)
        beta = oracles.relative_bearing(log.own_north, log.own_east, 0.0, 0.0, course)
        cpa = int(np.argmin(d))
        for geom in (GEOM, GEOM_CIRC):
            m = compute_metrics(log, geom).obstacles["target"]
            radii = [oracles.region_radius(geom, k, beta) for k in range(3)]
            times = [np.count_nonzero(d < r) * log.dt for r in radii[::-1]]
            assert [m.margin_time, m.safety_time, m.collision_time] == times
            assert m.passing_side == ("starboard" if 0.0 < beta[cpa] < math.pi else "port")
            assert m.passed_ahead == (abs(beta[cpa]) < math.pi / 2)
            clearance = (d - radii[0]).min()
            assert abs(m.min_clearance - clearance) <= 4 * np.spacing(abs(clearance))


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


def _failsafe_config():
    # desired velocity far above the envelope: every solve is infeasible
    d = scenarios.build_config_dict("head_on")
    d["ownship"]["sog"] = 25.0
    d["obstacles"] = []
    d["duration"] = 30.0
    return cfgm.from_dict(d)


def test_run_failsafe_holds_and_completes():
    # the planner holds the initial reference and logs the failsafe
    log, metrics = run(_failsafe_config())
    assert metrics.failsafe_count == metrics.planner_calls > 0
    assert np.all(log.selected == -1)
    assert np.all(log.ref_sog == 25.0)  # held reference


def test_failsafe_planner_rows_bytes():
    # no golden case holds; pin the bytes of a fail-safe planner.csv row
    log, _ = run(_failsafe_config())
    header, *lines = planner_to_csv(log).splitlines()
    assert header == (
        "t_s,candidate,n_candidates,align,avoid,tran,total,failsafe,"
        "course_change_rad,sog_change_mps"
    )
    assert lines == [f"{t:.12g},-1,0,nan,nan,nan,nan,1,0,0" for t in np.arange(6) * 5.0]


# float cells whose %.12g text has a form of its own
SPECIAL = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300, 1.5, -2.25, 1.0 / 3.0])


def _special_columns(n):
    """(name, column) pairs of n rows: int, bool and float columns, the
    float ones cycling through SPECIAL from different offsets."""
    return [
        ("i", np.arange(n) - 1), ("b", np.arange(n) % 3 == 0),
        *((f"f{k}", np.roll(np.resize(SPECIAL, n), k)) for k in range(3)),
    ]


def _noisy_log(n, n_calls):
    """_synthetic_log's schema with random floats in every float column
    and _special_columns in the planner's n_calls rows."""
    log = _synthetic_log(n=n, dt=0.1)
    rng = np.random.default_rng(0)
    for record in (log, *log.obstacles.values()):
        for _, col in _outputs(record):
            if col.dtype.kind == "f":
                col[:] = rng.normal(scale=1000.0, size=n)
    log.selected[:] = rng.integers(-1, 225, size=n)
    (_, i), (_, b), (_, f0), (_, f1), (_, f2) = _special_columns(n_calls)
    log.planner = PlannerSeries(
        t=f0, candidate=i, n_candidates=i + 1, align=f1, avoid=f2, tran=f0, total=f1,
        failsafe=b, course_change=f2, sog_change=f0,
    )
    return log


@pytest.mark.parametrize(
    "n", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1]
)
def test_csv_blocks_join_to_the_whole_table_text(n):
    # the header, then one string per CSV_BLOCK_ROWS rows, the last one
    # shorter; joined, the text the whole-table writer gives
    columns = _special_columns(n)
    for chosen in (columns, columns[:1], columns[1:2], columns[2:]):
        header, *blocks = _csv_blocks(chosen)
        assert [block.count("\n") for block in blocks] == [
            min(CSV_BLOCK_ROWS, n - start) for start in range(0, n, CSV_BLOCK_ROWS)
        ]
        assert header + "".join(blocks) == oracles.whole_table_csv(chosen)
    log = _noisy_log(n, n)
    trajectory_columns = _outputs(log) + [
        (f"obs_target_{name}", col) for name, col in _outputs(log.obstacles["target"])
    ]
    assert "".join(runlog_csv_blocks(log)) == runlog_to_csv(log) == oracles.whole_table_csv(trajectory_columns)
    assert "".join(planner_csv_blocks(log)) == planner_to_csv(log) == oracles.whole_table_csv(_outputs(log.planner))


def _traced_peak(call) -> int:
    """The peak of the memory Python allocates while call runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writers_peak_memory(tmp_path):
    # a 30 min run at 0.1 s: runlog_to_csv holds its blocks and their
    # join, twice its text; write_outputs a few blocks, not a whole file
    log = _noisy_log(18_001, 360)
    metrics = Metrics(0, 0, 0, 0.0, 0.0, 0, {})
    size = len(runlog_to_csv(log))
    assert _traced_peak(lambda: runlog_to_csv(log)) <= 2.1 * size
    assert _traced_peak(lambda: write_outputs(tmp_path, log, metrics)) <= 0.25 * size
    assert (tmp_path / "trajectory.csv").stat().st_size == size


def _golden_config(case):
    path = GOLDEN / case / "config.json"
    if path.is_file():
        return cfgm.load(path)
    scenario, noise = case.rsplit("-", 1)
    return scenarios.build_scenario(scenario, seed=0, noise=noise)


def test_situation_labels_are_the_log_columns_classified():
    # one label per logged step of each obstacle, from the true series;
    # an obstacle's situation is its first label that is not "none"
    log, metrics = run(_golden_config("head_on-radar"))
    labels = situation_labels(log)
    assert labels.keys() == log.obstacles.keys() == metrics.obstacles.keys()
    for obs_id, ser in log.obstacles.items():
        expected = classify_situation(
            log.own_north, log.own_east, log.own_course, log.own_sog,
            ser.true_north, ser.true_east, ser.true_sog, ser.true_course,
        )
        assert labels[obs_id].shape == log.t.shape
        assert np.array_equal(labels[obs_id], expected)
        first = next(str(label) for label in labels[obs_id] if label != "none")
        assert metrics.obstacles[obs_id].situation == first == "head_on"


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_first_solve_is_runs_first_call(case):
    # one planner period, so run makes exactly the one call
    config = _golden_config(case)
    config = dataclasses.replace(config, duration=config.planner_period)
    log, _ = run(config)
    assert len(log.planner.t) == 1
    row = first_solve(config).row()
    assert row.keys() == {f.name for f in dataclasses.fields(PlannerSeries)}
    for name, value in row.items():
        assert value == getattr(log.planner, name)[0], name


def test_first_solve_holds_when_nothing_is_feasible():
    solve = first_solve(_failsafe_config())
    assert solve.table is None and solve.selected == -1
    assert solve.row()["failsafe"]


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


@pytest.mark.parametrize("noise", ["none", "radar"])
def test_run_stationary_obstacle_on_the_desired_track(noise):
    # the head_on target lies still, dead ahead on the desired line
    d = scenarios.build_config_dict("head_on", seed=0, noise=noise)
    d["obstacles"][0]["sog"] = 0.0
    log, metrics = run(cfgm.from_dict(d))
    series = [log, log.planner, *log.obstacles.values()]
    for name, values in (item for record in series for item in _outputs(record)):
        assert np.all(np.isfinite(values)), name
    assert metrics.failsafe_count == 0
    assert metrics.obstacles["target"].collision_time == 0.0


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
    from colavmpc.tree import TreeParams, build_levels, generate_tree
    from colavmpc.vessel import control_law, default_gains, default_model, step_plant

    model = default_model()
    params = TreeParams((5.0, 20.0, 30.0), (5, 1, 1), (5, 3, 3), 1.0, 5.0, 5.0, 5.0, 5.0)
    state = VesselState(0.0, 0.0, 0.1, 5.5, 0.0)
    tau0 = np.clip(model.damping(5.5, 0.0), model.tau_min, model.tau_max)
    # evaluated on the integration grid, so the prediction has a point per plant step
    cands = generate_tree(build_levels(params, 0.1, 0.1), model, state, 0.0, (5.0, 0.0), tau0, None)
    pred_north, pred_east, pred_course = oracles.leaf_rows(cands)
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
                north - pred_north[pick, k + 1], east - pred_east[pick, k + 1]
            )
            course_err = abs(
                (course - pred_course[pick, k + 1] + math.pi) % (2 * math.pi) - math.pi
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
    solve = plan_step(config, t, state, commanded, tau, estimates)
    candidates, table = solve.candidates, solve.table
    assert table is not None
    assert candidates.grid == TimeGrid.from_span(t, sum(config.tree.step_times), config.eval_dt)
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
    d["duration"] = 15.0
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


def test_the_obstacle_side_of_a_run_is_open_loop():
    # the tracker sees the scripts, the noise and the seed, never the
    # plan: with and without the transitional term (noise_study.sweep's
    # pair) the ownship's path differs and every obstacle column keeps its bits
    d = scenarios.build_config_dict("head_on", seed=3)
    d["duration"] = 100.0
    d["obstacles"].append(
        {"id": "ferry", "north": 900.0, "east": 450.0, "sog": 2.5, "course": -math.pi / 2}
    )
    d["noise"] = {
        "pos_std": 10.0, "sog_std": 0.3, "course_std": 0.2, "latency": 0.0, "period": 0.35,
    }
    logs = []
    for w_tran in (4200.0, 0.0):
        d["weights"]["tran"] = w_tran
        logs.append(run(cfgm.from_dict(d))[0])
    with_tran, without = logs
    assert with_tran.obstacles.keys() == without.obstacles.keys() == {"target", "ferry"}
    for obs_id in with_tran.obstacles:
        for (name, col), (_, other) in zip(_outputs(with_tran.obstacles[obs_id]), _outputs(without.obstacles[obs_id])):
            assert col.tobytes() == other.tobytes(), (obs_id, name)
    for name in VesselState._fields:
        assert not np.array_equal(getattr(with_tran, f"own_{name}"), getattr(without, f"own_{name}")), name


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
    _reject_from_call(monkeypatch, 2)
    solve = first_solve(scenarios.build_scenario("head_on"))
    assert solve.table is None
    assert not solve.candidates


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
    assert all(plan.table is None and not plan.candidates for plan in plans[1:])
    candidates, table = plans[0].candidates, plans[0].table
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
    first, first_table = plans[0].candidates, plans[0].table
    winner = first.trajectory(first_table.selected)
    held = (winner.sog[-1], winner.course[-1])
    # the first new winner starts from the held sog and course
    recovered, table = plans[14].candidates, plans[14].table
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
    # the tree starts from the committed reference at t, and select is
    # handed that reference and reads it on the first maneuver's
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
    for commanded, (candidates, reference) in zip(committed, compared):
        assert reference is commanded
        fgrid = candidates.first_grid
        expected = oracles.resample(commanded, fgrid)
        window = commanded.window(fgrid.t0, fgrid.n, fgrid.dt / commanded.grid.dt)
        for name, channel in zip(("sog", "rot", "course", "sog_acc", "rot_acc"), window, strict=True):
            np.testing.assert_array_equal(channel, getattr(expected, name))
        assert candidates.desired0 == (expected.sog[0], expected.course[0])


def _rotated(name, angle):
    """The shipped scenario's config dict turned by angle about the origin:
    positions rotated, ownship and obstacle courses wrapped, and the desired
    line's course left unwrapped, so a turn by pi plans a +pi line from a
    -pi ownship."""
    data = scenarios.build_config_dict(name, noise="none")
    cos, sin = math.cos(angle), math.sin(angle)
    for item in (data["ownship"], data["desired"], *data["obstacles"]):
        item["north"], item["east"] = cos * item["north"] - sin * item["east"], sin * item["north"] + cos * item["east"]
    for item in (data["ownship"], *data["obstacles"]):
        item["course"] = float(wrap_angle(item["course"] + angle))
    data["desired"]["course"] += angle
    return data


@pytest.mark.parametrize("name", scenarios.SCENARIO_NAMES)
def test_a_run_turned_about_the_origin_plans_the_same_encounter(name):
    # every shipped geometry heads near north, so only a turned copy
    # crosses the +-pi seam in the tree, the LOS hook and the align term;
    # radar is left out, since its north/east noise draws do not turn
    def outcome(metrics):
        m = metrics.obstacles["target"]
        return (m.situation, m.compliance, m.passing_side, m.passed_ahead,
                metrics.switch_count, metrics.failsafe_count, metrics.observable_maneuvers)

    _, north = run(scenarios.build_scenario(name, noise="none"))
    for angle in (math.pi, math.pi / 2, -math.pi / 2, 3.0):
        _, turned = run(cfgm.from_dict(_rotated(name, angle)))
        assert outcome(turned) == outcome(north), angle
        assert abs(turned.obstacles["target"].min_distance - north.obstacles["target"].min_distance) <= 1e-6, angle


@pytest.mark.parametrize("noise", ["none", "radar"])
@pytest.mark.parametrize("name", scenarios.SCENARIO_NAMES)
def test_one_period_prediction_error_is_bounded(name, noise, monkeypatch):
    # each winner's predicted position one planner period on, the first
    # column of its level-1 edge, against where the next call finds the
    # ownship; pairs that touch a hold are skipped. The largest error is
    # 0.19-0.46 m over these runs; a plant with twice the planner's m_u0
    # and m_r0 reads 2.2-4.3 m. tc_course at 1 s or 30 s reads 0.19-0.49 m,
    # so this bound does not see the prediction's time constants
    from colavmpc import sim

    real_plan_step, calls = sim.plan_step, []

    def recorded_plan_step(config, t, state, *args):
        calls.append((t, state, real_plan_step(config, t, state, *args)))
        return calls[-1][2]

    monkeypatch.setattr(sim, "plan_step", recorded_plan_step)
    run(scenarios.build_scenario(name, noise=noise))
    errors = []
    for (_, _, solve), (t, state, after) in itertools.pairwise(calls):
        if solve.table is None or after.table is None:
            continue
        cands = solve.candidates
        assert cands.grid.times()[cands.edges[0][1].shape[1]] == pytest.approx(t, abs=1e-9)
        predicted = cands.edges[1][0][:, cands.ancestors[1][solve.selected], 0]
        errors.append(math.hypot(predicted[0] - state[0], predicted[1] - state[1]))
    assert len(errors) >= 38
    assert max(errors) <= 1.0
