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
from dataclasses import dataclass, field, fields

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


def _out(name: str, dtype=None):
    """A log field written to the outputs under name. dtype is the type
    of its array where sim.run builds it from the loop's rows."""
    return field(metadata={"out": name, "dtype": dtype})


def _outputs(record) -> list[tuple[str, object]]:
    """(written name, value) of each field of record that declares one,
    in field order."""
    return [
        (f.metadata["out"], getattr(record, f.name)) for f in fields(record) if "out" in f.metadata
    ]


@dataclass
class ObstacleSeries:
    """One obstacle's series; trajectory.csv prefixes its columns with
    obs_<id>_."""

    true_north: np.ndarray = _out("true_north_m")
    true_east: np.ndarray = _out("true_east_m")
    true_sog: np.ndarray = _out("true_sog_mps")
    true_course: np.ndarray = _out("true_course_rad")
    est_north: np.ndarray = _out("est_north_m")
    est_east: np.ndarray = _out("est_east_m")
    est_sog: np.ndarray = _out("est_sog_mps")
    est_course: np.ndarray = _out("est_course_rad")
    est_time: np.ndarray = _out("est_time_s")


@dataclass
class PlannerSeries:
    """One row per planner call, as planner.csv writes it."""

    t: np.ndarray = _out("t_s", float)
    candidate: np.ndarray = _out("candidate", int)
    n_candidates: np.ndarray = _out("n_candidates", int)
    align: np.ndarray = _out("align", float)
    avoid: np.ndarray = _out("avoid", float)
    tran: np.ndarray = _out("tran", float)
    total: np.ndarray = _out("total", float)
    failsafe: np.ndarray = _out("failsafe", bool)
    course_change: np.ndarray = _out("course_change_rad", float)
    sog_change: np.ndarray = _out("sog_change_mps", float)


@dataclass
class RunLog:
    """One row per integration step, as trajectory.csv writes it, then
    each obstacle's series; the planner's rows go to planner.csv."""

    name: str
    seed: int
    dt: float
    t: np.ndarray = _out("t_s")
    own_north: np.ndarray = _out("own_north_m")
    own_east: np.ndarray = _out("own_east_m")
    own_course: np.ndarray = _out("own_course_rad")
    own_sog: np.ndarray = _out("own_sog_mps")
    own_rot: np.ndarray = _out("own_rot_radps")
    tau_m: np.ndarray = _out("tau_m")
    tau_delta: np.ndarray = _out("tau_delta")
    ref_sog: np.ndarray = _out("ref_sog_mps")
    ref_rot: np.ndarray = _out("ref_rot_radps")
    ref_course: np.ndarray = _out("ref_course_rad")
    ref_sog_acc: np.ndarray = _out("ref_sog_acc_mps2")
    ref_rot_acc: np.ndarray = _out("ref_rot_acc_radps2")
    selected: np.ndarray = _out("selected_candidate")
    obstacles: dict[str, ObstacleSeries]
    planner: PlannerSeries


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
    plant_names = [f"own_{name}" for name in VesselState._fields] + ["tau_m", "tau_delta"]
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
                planner_rows.append(dict(
                    t=t, candidate=-1, n_candidates=0, align=math.nan, avoid=math.nan,
                    tran=math.nan, total=math.nan, failsafe=True, course_change=0.0, sog_change=0.0,
                ))
            else:
                k = selected_id = table.selected
                commanded = candidates.trajectory(k)
                first_sog, first_course = candidates.first_sog[k], candidates.first_course[k]
                planner_rows.append(dict(
                    t=t, candidate=k, n_candidates=len(candidates), align=table.align[k],
                    avoid=table.avoid[k], tran=table.tran[k], total=table.total[k], failsafe=False,
                    course_change=abs(first_course[-1] - first_course[0]),
                    sog_change=first_sog[-1] - first_sog[0],
                ))

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

    planner = PlannerSeries(**{
        f.name: np.array([row[f.name] for row in planner_rows], dtype=f.metadata["dtype"])
        for f in fields(PlannerSeries)
    })
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
    """Fixed-schema CSV, one row per integration step, unit-suffixed
    headers: the log's columns, then each obstacle's by sorted id."""
    columns = _outputs(log)
    for obs_id in sorted(log.obstacles):
        columns += [(f"obs_{obs_id}_{name}", col) for name, col in _outputs(log.obstacles[obs_id])]
    return _csv(columns)


def planner_to_csv(log: RunLog) -> str:
    return _csv(_outputs(log.planner))


def _csv(columns: list[tuple[str, np.ndarray]]) -> str:
    """Header line of the names, then one line per row: integer and
    boolean columns as integers, float columns with 12 significant
    digits."""
    names, arrays = zip(*columns)
    template = ",".join("%d" if col.dtype.kind in "biu" else "%.12g" for col in arrays) + "\n"
    buf = io.StringIO()
    buf.write(",".join(names) + "\n")
    # row by row: turning every cell into a Python float at once
    # (tolist) or np.savetxt raised the peak memory of long runs
    for row in np.column_stack(arrays):
        buf.write(template % tuple(row))
    return buf.getvalue()


def metrics_to_dict(metrics: Metrics) -> dict:
    """metrics.json's content: each field under its written name, each
    obstacle's metrics likewise under its id."""
    return {
        name: {obs_id: dict(_outputs(m)) for obs_id, m in value.items()}
        if isinstance(value, dict) else value
        for name, value in _outputs(metrics)
    }
