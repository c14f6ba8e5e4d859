"""The closed loop on seeded random encounters (random_encounters.py): 12
radar configs, seeds 0-11, fixed before the first run. A config that
shows collision-region time is a defect to report, never a seed to drop."""

import math

import numpy as np
import pytest

import oracles
from colavmpc import config as cfgm
from colavmpc import sim
from colavmpc.core import TimeGrid, VelocityTrajectory, _outputs
from random_encounters import START_MIN, encounter


def test_encounters_keep_their_rules():
    # over many seeds: the heading spans the circle, 1-3 obstacles each
    # start at least START_MIN out and, on a straight course, meet the
    # ownship's desired position at t_c in [50, 150] s; about 10% lie
    # still and about 30% change course once before meeting
    headings, counts, still, turns = [], [], [], []
    for seed in range(300):
        data = encounter(seed)
        assert data == encounter(seed) and data["seed"] == seed and data["noise"] == {"preset": "radar"}
        heading, speed = data["desired"]["course"], data["desired"]["speed"]
        assert math.isclose(math.cos(heading), math.cos(data["ownship"]["course"]), abs_tol=1e-12)
        headings.append(data["ownship"]["course"])
        counts.append(len(data["obstacles"]))
        for obs in data["obstacles"]:
            assert math.hypot(obs["north"], obs["east"]) >= START_MIN
            # the relative motion's closest approach is a meeting
            rel = np.array([obs["north"], obs["east"]])
            vel = obs["sog"] * np.array([math.cos(obs["course"]), math.sin(obs["course"])])
            vel -= speed * np.array([math.cos(heading), math.sin(heading)])
            t_c = -rel @ vel / (vel @ vel)
            assert 50.0 - 1e-9 <= t_c <= 150.0 + 1e-9 and np.hypot(*(rel + vel * t_c)) < 1e-6
            still.append(obs["sog"] == 0.0)
            events = obs.get("events", [])
            turns.append(bool(events))
            assert all(0.0 < event["t"] <= t_c for event in events)
    assert sorted(set(counts)) == [1, 2, 3]
    assert min(headings) < -3.0 and max(headings) > 3.0
    assert 0.05 < np.mean(still) < 0.15 and 0.25 < np.mean(turns) < 0.35


@pytest.mark.parametrize("seed", range(12))
def test_random_encounter_runs_clear_and_repeats(seed):
    config = cfgm.from_dict(encounter(seed))
    solves, (log, metrics) = oracles.every_solve(config)

    # finite logs; a fail-safe row's costs are NaN by design, and so is
    # the prediction error of the first call and of each call after a hold
    for name, column in _outputs(log) + [column for ser in log.obstacles.values() for column in _outputs(ser)]:
        assert np.isfinite(column).all(), name
    planner = dict(_outputs(log.planner))
    assert np.isnan(planner.pop("pred_error_m")).tolist() == [True, *log.planner.failsafe[:-1]]
    for name, column in planner.items():
        assert np.isfinite(column[~log.planner.failsafe]).all(), name
    # every period follows the last committed reference: its call's
    # winner, or on a fail-safe hold the reference committed before
    every = round(config.planner_period / config.integration_dt)
    ref = np.array([log.ref_sog, log.ref_rot, log.ref_course, log.ref_sog_acc, log.ref_rot_acc])
    start = TimeGrid.from_span(0.0, config.planner_period, config.integration_dt)
    committed = VelocityTrajectory.constant(start, config.ownship.sog, config.ownship.course)  # the start's hold
    for k, solve in enumerate(solves):
        if solve.table is not None:
            committed = solve.candidates.trajectory(solve.selected)
        np.testing.assert_array_equal(ref[:, k * every:(k + 1) * every], committed.window(solve.t, every))
    # no time inside any obstacle's collision region
    assert {obs_id: m.collision_time for obs_id, m in metrics.obstacles.items()} == dict.fromkeys(log.obstacles, 0.0)
    # a rerun from the seed writes the same bytes
    again, _ = sim.run(cfgm.from_dict(encounter(seed)))
    assert sim.runlog_to_csv(again) == sim.runlog_to_csv(log)
    assert sim.planner_to_csv(again) == sim.planner_to_csv(log)
