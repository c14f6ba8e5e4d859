"""Grading of a closed-loop run from its log.

Labels each obstacle's COLREGs situation at every logged step, grades
the pass against rules 13-15, and derives the distance, incursion and
planner metrics that metrics.json writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _out, wrap_angle
from .objective import normalized_sq

SPEED_FLOOR = 0.2  # m/s, below this a vessel is not "moving" for COLREGs
HEAD_ON_COURSE_MARGIN = math.radians(6.0)
HEAD_ON_BEARING_LIMIT = math.radians(22.5)
ABAFT_BEAM = math.radians(112.5)  # 22.5 deg abaft the beam
OBSERVABLE_COURSE = math.radians(15.0)
OBSERVABLE_SOG = 1.0


@dataclass
class ObstacleMetrics:
    min_distance: float = _out("min_distance_m")
    # min over time of distance minus the collision boundary
    min_clearance: float = _out("min_clearance_m")
    margin_time: float = _out("margin_time_s")
    safety_time: float = _out("safety_time_s")
    collision_time: float = _out("collision_time_s")
    situation: str = _out("situation")
    passing_side: str = _out("passing_side")
    passed_ahead: bool = _out("passed_ahead")
    compliance: str = _out("compliance")


@dataclass
class Metrics:
    """Run-level counters and each obstacle's metrics, as metrics.json
    writes them."""

    switch_count: int = _out("switch_count")
    failsafe_count: int = _out("failsafe_count")
    planner_calls: int = _out("planner_calls")
    max_course_change: float = _out("max_course_change_rad")
    max_sog_change: float = _out("max_sog_change_mps")
    observable_maneuvers: int = _out("observable_maneuvers")
    obstacles: dict[str, ObstacleMetrics] = _out("obstacles")


def classify_situation(
    own_north, own_east, own_course, own_sog, obs_north, obs_east, obs_sog, obs_course
):
    """COLREGs encounter labels from instantaneous geometry.

    Takes the ownship and obstacle position, course and speed as scalars
    or arrays of one shape and returns a label per element (a str for
    scalars). Requires both vessels moving and converging, otherwise
    the label is "none". Overtaking is checked before head-on and
    crossing, head-on needs nearly reciprocal courses with the obstacle
    in the forward sector, and crossings split by which side the
    obstacle bears on.
    """
    dn = obs_north - own_north
    de = obs_east - own_east
    rel_vn = obs_sog * np.cos(obs_course) - own_sog * np.cos(own_course)
    rel_ve = obs_sog * np.sin(obs_course) - own_sog * np.sin(own_course)
    unlabelled = (
        (own_sog <= SPEED_FLOOR)
        | (obs_sog <= SPEED_FLOOR)
        | (np.hypot(dn, de) < 1e-6)
        | (dn * rel_vn + de * rel_ve >= 0.0)  # not converging
    )
    bearing_of_obstacle = wrap_angle(np.arctan2(de, dn) - own_course)
    bearing_of_ownship = wrap_angle(np.arctan2(-de, -dn) - obs_course)
    course_diff = np.abs(wrap_angle(obs_course - own_course))
    labels = np.select(
        [
            unlabelled,
            (np.abs(bearing_of_ownship) > ABAFT_BEAM) & (own_sog > obs_sog),
            (np.abs(bearing_of_obstacle) > ABAFT_BEAM) & (obs_sog > own_sog),
            (np.abs(course_diff - math.pi) <= HEAD_ON_COURSE_MARGIN)
            & (np.abs(bearing_of_obstacle) <= HEAD_ON_BEARING_LIMIT),
            bearing_of_obstacle > 0.0,
        ],
        ["none", "overtaking", "overtaken", "head_on", "crossing_give_way"],
        "crossing_stand_on",
    )
    return labels if labels.ndim else str(labels)


def situation_labels(log) -> dict[str, np.ndarray]:
    """Each obstacle's situation label at every step of a run's log
    (sim.RunLog), by obstacle id: classify_situation on the ownship's
    and the obstacle's true series."""
    return {
        obs_id: classify_situation(
            log.own_north, log.own_east, log.own_course, log.own_sog,
            ser.true_north, ser.true_east, ser.true_sog, ser.true_course,
        )
        for obs_id, ser in log.obstacles.items()
    }


def _compliance(situation: str, side: str, ahead: bool, collided: bool) -> str:
    if situation in ("head_on", "crossing_give_way", "overtaking"):
        wrong = ahead if situation == "crossing_give_way" else side != "port"
        return "noncompliant" if collided else "aware_noncompliant" if wrong else "compliant"
    return "not_applicable"


def compute_metrics(log, geom) -> Metrics:
    """Per-obstacle distance, region and COLREGs metrics, and the planner
    counts, from a run's log (sim.RunLog).

    Each step's offset from an obstacle is taken in its frame, x ahead and
    y to starboard, and is inside region k exactly when `penalty` says so:
    q_k = (x/A_k)^2 + (y/B_k)^2 < 1 (`normalized_sq`). The clearance is
    d - d/sqrt(q_0), the distance past the collision boundary along the
    offset; on the obstacle (d = 0) it is minus the collision region's
    longest semi-axis, and the step is collision time. The passing side
    and ahead flag are the signs of y and x at the closest approach. Any
    collision time grades a head-on, give-way or overtaking pass noncompliant.
    """
    labels_by_id = situation_labels(log)
    obstacles = {}
    for obs_id, ser in log.obstacles.items():
        dn, de = log.own_north - ser.true_north, log.own_east - ser.true_east
        d = np.hypot(dn, de)
        cos_c, sin_c = np.cos(ser.true_course), np.sin(ser.true_course)
        x, y = dn * cos_c + de * sin_c, de * cos_c - dn * sin_c
        q0, q1, q2 = (normalized_sq(x, y, geom.semi_axes(k)) for k in range(3))
        # the collision boundary's distance along each offset; q0 is 0 only on the obstacle
        boundary = np.divide(d, np.sqrt(q0), out=np.full(d.shape, max(geom.semi_axes(0))), where=q0 > 0.0)

        labels = labels_by_id[obs_id]
        labelled = np.flatnonzero(labels != "none")
        situation = str(labels[labelled[0]]) if len(labelled) else "none"

        cpa = int(np.argmin(d))
        side, ahead = ("starboard" if y[cpa] > 0.0 else "port"), bool(x[cpa] > 0.0)
        collision_time = float(np.count_nonzero(q0 < 1.0) * log.dt)
        obstacles[obs_id] = ObstacleMetrics(
            min_distance=float(d.min()),
            min_clearance=float((d - boundary).min()),
            margin_time=float(np.count_nonzero(q2 < 1.0) * log.dt),
            safety_time=float(np.count_nonzero(q1 < 1.0) * log.dt),
            collision_time=collision_time,
            situation=situation,
            passing_side=side,
            passed_ahead=ahead,
            compliance=_compliance(situation, side, ahead, collision_time > 0.0),
        )

    pl = log.planner
    ok = ~pl.failsafe
    switch_count = int(np.nansum(pl.tran[ok])) if len(pl.t) else 0
    observable = int(
        np.count_nonzero(
            (pl.course_change[ok] > OBSERVABLE_COURSE) | (np.abs(pl.sog_change[ok]) > OBSERVABLE_SOG)
        )
    )
    return Metrics(
        obstacles=obstacles,
        switch_count=switch_count,
        failsafe_count=int(np.count_nonzero(pl.failsafe)),
        max_course_change=float(pl.course_change[ok].max()) if np.any(ok) else 0.0,
        max_sog_change=float(np.abs(pl.sog_change[ok]).max()) if np.any(ok) else 0.0,
        observable_maneuvers=observable,
        planner_calls=len(pl.t),
    )
