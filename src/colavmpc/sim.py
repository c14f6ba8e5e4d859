"""Closed-loop scenario engine.

Steps the plant and controller on the integration clock, the synthetic
tracker on its update period, and the planner on its own period. Each
planner call (plan_step) grows the maneuver tree seeded from the
previously commanded desired velocity, predicts the observed obstacles
at constant velocity, scores the candidates and hands the winner to the
controller. Logs everything; derives distance/incursion metrics and
COLREGs situation labels from the log.
"""

from __future__ import annotations

import io
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .core import TimeGrid, VelocityTrajectory, VesselState, wrap_angle
from .guidance import desired_acceleration, los_targets
from .objective import CostTable, region_radius, relative_bearing, select
from .obstacles import ObstacleEstimate, ground_truth, observe, predict_obstacle
from .tree import CandidateSet, generate_tree
from .vessel import control_law, step_plant

SPEED_FLOOR = 0.2  # m/s, below this a vessel is not "moving" for COLREGs
HEAD_ON_COURSE_MARGIN = math.radians(6.0)
HEAD_ON_BEARING_LIMIT = math.radians(22.5)
ABAFT_BEAM = math.radians(112.5)  # 22.5 deg abaft the beam
OBSERVABLE_COURSE = math.radians(15.0)
OBSERVABLE_SOG = 1.0


@dataclass
class ObstacleSeries:
    true_north: np.ndarray
    true_east: np.ndarray
    true_sog: np.ndarray
    true_course: np.ndarray
    est_north: np.ndarray
    est_east: np.ndarray
    est_sog: np.ndarray
    est_course: np.ndarray
    est_time: np.ndarray


@dataclass
class PlannerSeries:
    t: np.ndarray
    candidate: np.ndarray
    n_candidates: np.ndarray
    align: np.ndarray
    avoid: np.ndarray
    tran: np.ndarray
    total: np.ndarray
    failsafe: np.ndarray
    course_change: np.ndarray
    sog_change: np.ndarray


@dataclass
class RunLog:
    name: str
    seed: int
    dt: float
    t: np.ndarray
    own_north: np.ndarray
    own_east: np.ndarray
    own_course: np.ndarray
    own_sog: np.ndarray
    own_rot: np.ndarray
    tau_m: np.ndarray
    tau_delta: np.ndarray
    ref_sog: np.ndarray
    ref_rot: np.ndarray
    ref_course: np.ndarray
    ref_sog_acc: np.ndarray
    ref_rot_acc: np.ndarray
    selected: np.ndarray
    obstacles: dict[str, ObstacleSeries]
    planner: PlannerSeries


@dataclass
class ObstacleMetrics:
    min_distance: float
    min_clearance: float  # min over time of distance minus the collision boundary
    margin_time: float
    safety_time: float
    collision_time: float
    situation: str
    passing_side: str
    passed_ahead: bool
    compliance: str


@dataclass
class Metrics:
    obstacles: dict[str, ObstacleMetrics]
    switch_count: int
    failsafe_count: int
    max_course_change: float
    max_sog_change: float
    observable_maneuvers: int
    planner_calls: int


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


def plan_step(
    config: ScenarioConfig,
    t: float,
    state: VesselState,
    commanded: VelocityTrajectory,
    tau,
    estimates: list[ObstacleEstimate],
) -> tuple[CandidateSet, CostTable | None]:
    """One planner call at time t, against the config's desired trajectory.

    Grows the tree from the vessel state (north, east, course, sog, rot)
    and the commanded reference's value at t, with the actuator input
    tau clipped to its limits and LOS guidance seeding one sample per
    node, for a whole tree level per call. Scores the candidates against
    constant-velocity predictions of the obstacle estimates, charging
    the transitional cost against the commanded reference over the
    first maneuver, which holds past its end (VelocityTrajectory.window).
    The winner is table.selected; table is None when no maneuver is
    feasible (the fail-safe hold).
    """
    model = config.vessel
    dt = config.integration_dt
    sog0, _, course0, _, _ = commanded.window(t, 1)[:, 0]
    tau0 = np.clip(tau, model.tau_min, model.tau_max)

    def hook(t_level, north, east, course, desired, step):
        targets = los_targets(config.desired, north, east, course, t_level, config.los)
        return desired_acceleration(targets, desired, step)

    candidates = generate_tree(
        config.tree, model, config.error_model, state, t, (sog0, course0), tau0, hook, dt,
        config.eval_dt,
    )
    if not candidates:
        return candidates, None
    predictions = [predict_obstacle(est, candidates.grid) for est in estimates]
    first_grid = candidates.first_grid
    previous_first = VelocityTrajectory(
        first_grid, *commanded.window(t, first_grid.n, config.eval_dt / dt)
    )
    table = select(
        candidates, config.desired, predictions, config.geometry, config.weights,
        previous_first,
    )
    return candidates, table


def run(config: ScenarioConfig) -> tuple[RunLog, Metrics]:
    """Simulate the scenario; deterministic for a given config and seed.

    The controller and plant step on plain floats: the plant state is
    (north, east, course, sog, rot), the planner's state too, and each
    planner period reads its reference rows once from the committed
    trajectory, held past its end. The ground truth and the held
    tracker estimates are logged after the loop.
    """
    model = config.vessel
    gains = config.gains
    dt = config.integration_dt
    n_steps = int(round(config.duration / dt))
    planner_every = int(round(config.planner_period / dt))
    rng = np.random.default_rng(config.tracker_seed)

    state = config.ownship
    tau = model.damping(state.sog, state.rot)
    integral = (0.0, 0.0)
    commanded = VelocityTrajectory.constant(
        TimeGrid.from_span(0.0, config.planner_period, dt), state.sog, state.course
    )
    selected_id = -1
    next_obs_t = 0.0

    n_rows = n_steps + 1
    ref_names = ("sog", "rot", "course", "sog_acc", "rot_acc")
    ref = np.zeros((len(ref_names), n_rows))
    selected_col = np.zeros(n_rows, dtype=int)
    # the tracker's updates: the step of each and its estimates; a step
    # logs the last update at or before it
    update_steps, update_estimates = [], []
    plant_names = (
        "own_north", "own_east", "own_course", "own_sog", "own_rot", "tau_m", "tau_delta"
    )
    plant_rows = array("d")  # every step's plant state and command, flat
    planner_rows = []

    for step_idx in range(n_rows):
        t = step_idx * dt

        while t >= next_obs_t - 1e-9:
            update_steps.append(step_idx)
            update_estimates.append([observe(s, config.noise, t, rng) for s in config.obstacles])
            next_obs_t += config.noise.period

        if step_idx % planner_every == 0 and step_idx < n_steps:
            candidates, table = plan_step(config, t, state, commanded, tau, update_estimates[-1])
            if table is None:  # hold the committed reference
                selected_id = -1
                planner_rows.append(
                    (t, -1, 0, math.nan, math.nan, math.nan, math.nan, True, 0.0, 0.0)
                )
            else:
                k = selected_id = table.selected
                commanded = candidates.trajectory(k)
                first_sog, first_course = candidates.first_sog[k], candidates.first_course[k]
                planner_rows.append(
                    (
                        t, k, len(candidates),
                        float(table.align[k]), float(table.avoid[k]),
                        float(table.tran[k]), float(table.total[k]), False,
                        float(abs(first_course[-1] - first_course[0])),
                        float(first_sog[-1] - first_sog[0]),
                    )
                )

        if step_idx % planner_every == 0:
            start, stop = step_idx, min(step_idx + planner_every, n_rows)
            ref[:, start:stop] = commanded.window(t, stop - start)
            selected_col[start:stop] = selected_id
            period_ref = ref[:, start:stop].T.tolist()

        if step_idx == n_steps:  # the last row holds the last command
            plant_rows.extend(state + tau)
            break
        tau, integral = control_law(model, gains, state, period_ref[step_idx - start], integral, dt)
        plant_rows.extend(state + tau)
        state = step_plant(model, state, tau, dt)

    pl = np.array(planner_rows, dtype=float) if planner_rows else np.zeros((0, 10))
    planner = PlannerSeries(
        t=pl[:, 0],
        candidate=pl[:, 1].astype(int),
        n_candidates=pl[:, 2].astype(int),
        align=pl[:, 3],
        avoid=pl[:, 4],
        tran=pl[:, 5],
        total=pl[:, 6],
        failsafe=pl[:, 7].astype(bool),
        course_change=pl[:, 8],
        sog_change=pl[:, 9],
    )
    t = dt * np.arange(n_rows)
    held = np.searchsorted(update_steps, np.arange(n_rows), side="right") - 1
    obstacles = {}
    for script, estimates in zip(config.obstacles, zip(*update_estimates)):
        est = np.array([(e.north, e.east, e.sog, e.course, e.timestamp) for e in estimates])
        obstacles[script.id] = ObstacleSeries(*ground_truth(script, t), *est[held].T)
    log = RunLog(
        name=config.name,
        seed=config.tracker_seed,
        dt=dt,
        t=t,
        **dict(zip(plant_names, np.frombuffer(plant_rows).reshape(n_rows, len(plant_names)).T)),
        **{f"ref_{name}": channel for name, channel in zip(ref_names, ref)},
        selected=selected_col,
        obstacles=obstacles,
        planner=planner,
    )
    return log, compute_metrics(log, config.geometry)


def _passing_geometry(log: RunLog, ser: ObstacleSeries, idx: int) -> tuple[str, bool]:
    """Obstacle-frame side ('port'/'starboard') and ahead flag at index idx."""
    dn = log.own_north[idx] - ser.true_north[idx]
    de = log.own_east[idx] - ser.true_east[idx]
    c = math.cos(ser.true_course[idx])
    s = math.sin(ser.true_course[idx])
    x_body = c * dn + s * de
    y_body = -s * dn + c * de
    return ("starboard" if y_body > 0.0 else "port"), bool(x_body > 0.0)


def _compliance(situation: str, side: str, ahead: bool) -> str:
    if situation == "head_on":
        return "compliant" if side == "port" else "noncompliant"
    if situation == "crossing_give_way":
        return "compliant" if not ahead else "aware_noncompliant"
    if situation == "overtaking":
        return "compliant" if side == "port" else "aware_noncompliant"
    return "not_applicable"


def compute_metrics(log: RunLog, geom) -> Metrics:
    obstacles = {}
    for obs_id, ser in log.obstacles.items():
        d = np.hypot(log.own_north - ser.true_north, log.own_east - ser.true_east)
        beta = relative_bearing(
            log.own_north, log.own_east, ser.true_north, ser.true_east, ser.true_course
        )
        d0 = region_radius(geom, 0, beta)
        d1 = region_radius(geom, 1, beta)
        d2 = region_radius(geom, 2, beta)
        margin_time = float(np.count_nonzero(d < d2) * log.dt)
        safety_time = float(np.count_nonzero(d < d1) * log.dt)
        collision_time = float(np.count_nonzero(d < d0) * log.dt)

        labels = classify_situation(
            log.own_north, log.own_east, log.own_course, log.own_sog,
            ser.true_north, ser.true_east, ser.true_sog, ser.true_course,
        )
        labelled = np.flatnonzero(labels != "none")
        situation = str(labels[labelled[0]]) if len(labelled) else "none"

        cpa = int(np.argmin(d))
        side, ahead = _passing_geometry(log, ser, cpa)
        obstacles[obs_id] = ObstacleMetrics(
            min_distance=float(d.min()),
            min_clearance=float((d - d0).min()),
            margin_time=margin_time,
            safety_time=safety_time,
            collision_time=collision_time,
            situation=situation,
            passing_side=side,
            passed_ahead=ahead,
            compliance=_compliance(situation, side, ahead),
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


def runlog_to_csv(log: RunLog) -> str:
    """Fixed-schema CSV, one row per integration step, unit-suffixed headers."""
    headers = [
        "t_s", "own_north_m", "own_east_m", "own_course_rad", "own_sog_mps",
        "own_rot_radps", "tau_m", "tau_delta", "ref_sog_mps", "ref_rot_radps",
        "ref_course_rad", "ref_sog_acc_mps2", "ref_rot_acc_radps2", "selected_candidate",
    ]
    columns = [
        log.t, log.own_north, log.own_east, log.own_course, log.own_sog,
        log.own_rot, log.tau_m, log.tau_delta, log.ref_sog, log.ref_rot,
        log.ref_course, log.ref_sog_acc, log.ref_rot_acc, log.selected,
    ]
    for obs_id in sorted(log.obstacles):
        ser = log.obstacles[obs_id]
        for suffix, arr in (
            ("true_north_m", ser.true_north), ("true_east_m", ser.true_east),
            ("true_sog_mps", ser.true_sog), ("true_course_rad", ser.true_course),
            ("est_north_m", ser.est_north), ("est_east_m", ser.est_east),
            ("est_sog_mps", ser.est_sog), ("est_course_rad", ser.est_course),
            ("est_time_s", ser.est_time),
        ):
            headers.append(f"obs_{obs_id}_{suffix}")
            columns.append(arr)
    return _csv(headers, columns)


def planner_to_csv(log: RunLog) -> str:
    headers = [
        "t_s", "candidate", "n_candidates", "align", "avoid", "tran", "total",
        "failsafe", "course_change_rad", "sog_change_mps",
    ]
    pl = log.planner
    columns = [
        pl.t, pl.candidate, pl.n_candidates, pl.align, pl.avoid, pl.tran, pl.total,
        pl.failsafe, pl.course_change, pl.sog_change,
    ]
    return _csv(headers, columns)


def _csv(headers: list[str], columns: list[np.ndarray]) -> str:
    """Header line, then one line per row: integer and boolean columns
    as integers, float columns with 12 significant digits."""
    template = ",".join("%d" if col.dtype.kind in "biu" else "%.12g" for col in columns) + "\n"
    buf = io.StringIO()
    buf.write(",".join(headers) + "\n")
    # row by row: turning every cell into a Python float at once
    # (tolist) or np.savetxt raised the peak memory of long runs
    for row in np.column_stack(columns):
        buf.write(template % tuple(row))
    return buf.getvalue()


def metrics_to_dict(metrics: Metrics) -> dict:
    return {
        "switch_count": metrics.switch_count,
        "failsafe_count": metrics.failsafe_count,
        "planner_calls": metrics.planner_calls,
        "max_course_change_rad": metrics.max_course_change,
        "max_sog_change_mps": metrics.max_sog_change,
        "observable_maneuvers": metrics.observable_maneuvers,
        "obstacles": {
            obs_id: {
                "min_distance_m": m.min_distance,
                "min_clearance_m": m.min_clearance,
                "margin_time_s": m.margin_time,
                "safety_time_s": m.safety_time,
                "collision_time_s": m.collision_time,
                "situation": m.situation,
                "passing_side": m.passing_side,
                "passed_ahead": m.passed_ahead,
                "compliance": m.compliance,
            }
            for obs_id, m in metrics.obstacles.items()
        },
    }
