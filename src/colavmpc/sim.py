"""Closed-loop scenario engine.

Draws the synthetic tracker's updates first, then plans once per planner
period and steps the plant and controller through it on the integration
clock. Each planner call (plan_step) grows the maneuver tree seeded from
the previously commanded desired velocity, predicts the observed
obstacles at constant velocity, scores the candidates and hands the
winner to the controller. Logs everything, grades the log with
grading.compute_metrics and writes the outputs.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .config import ScenarioConfig
from .core import TimeGrid, VelocityTrajectory, VesselState, _out, _outputs
from .grading import Metrics, compute_metrics
from .guidance import desired_acceleration, los_targets
from .objective import CostTable, select
from .obstacles import ObstacleEstimate, ground_truth, observe, predict_obstacle
from .tree import CandidateSet, generate_tree
from .vessel import control_law, step_plant


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

    t: np.ndarray = _out("t_s")
    candidate: np.ndarray = _out("candidate")
    n_candidates: np.ndarray = _out("n_candidates")
    align: np.ndarray = _out("align")
    avoid: np.ndarray = _out("avoid")
    tran: np.ndarray = _out("tran")
    total: np.ndarray = _out("total")
    failsafe: np.ndarray = _out("failsafe")
    course_change: np.ndarray = _out("course_change_rad")
    sog_change: np.ndarray = _out("sog_change_mps")


@dataclass(frozen=True)
class Solve:
    """One planner call at time t; table is None on a fail-safe hold."""

    t: float
    candidates: CandidateSet
    table: CostTable | None

    @property
    def selected(self) -> int:
        return -1 if self.table is None else self.table.selected

    def row(self) -> dict:
        """This call's planner.csv row, by PlannerSeries field."""
        k, table = self.selected, self.table
        if table is None:  # no costs, no change
            return dict(
                t=self.t, candidate=-1, n_candidates=0, align=math.nan, avoid=math.nan,
                tran=math.nan, total=math.nan, failsafe=True, course_change=0.0, sog_change=0.0,
            )
        first = self.candidates.ancestors[0][k]
        sog, course = self.candidates.first_sog[first], self.candidates.first_course[first]
        return dict(
            t=self.t, candidate=k, n_candidates=len(self.candidates), align=table.align[k],
            avoid=table.avoid[k], tran=table.tran[k], total=table.total[k], failsafe=False,
            course_change=abs(course[-1] - course[0]), sog_change=sog[-1] - sog[0],
        )


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


def plan_step(
    config: ScenarioConfig,
    t: float,
    state: VesselState,
    commanded: VelocityTrajectory,
    tau,
    estimates: list[ObstacleEstimate],
) -> Solve:
    """One planner call at time t, against the config's desired trajectory.

    Grows the tree from the vessel state (north, east, course, sog, rot)
    and the commanded reference's value at t, with the actuator input
    tau clipped to its limits and LOS guidance seeding one sample per
    node, for a whole tree level per call. Scores the candidates against
    constant-velocity predictions of the obstacle estimates, charging
    the transitional cost against the commanded reference over the
    first maneuver, which holds past its end (VelocityTrajectory.window).
    The table is None when no maneuver is feasible (the fail-safe hold).
    """
    model = config.vessel
    sog0, _, course0, _, _ = commanded.window(t, 1)[:, 0]

    def hook(t_level, north, east, course, desired):
        targets = los_targets(config.desired, north, east, course, t_level, config.los)
        return desired_acceleration(targets, desired, config.tree)

    tau0 = model.saturate(tau)
    candidates = generate_tree(config.levels, model, state, t, (sog0, course0), tau0, hook)
    if not candidates:
        return Solve(t, candidates, None)
    predictions = [predict_obstacle(est, candidates.grid) for est in estimates]
    table = select(candidates, config.desired, predictions, config.geometry, config.weights, commanded)
    return Solve(t, candidates, table)


def _start(config: ScenarioConfig):
    """run's start: the ownship at its steady actuator input, the hold
    reference over one planner period, and the tracker, seeded once."""
    state = config.ownship
    tau = config.vessel.damping(state.sog, state.rot)
    grid = TimeGrid.from_span(0.0, config.planner_period, config.integration_dt)
    rng = np.random.default_rng(config.seed)

    def track(t: float) -> list[ObstacleEstimate]:
        return [observe(s, config.noise, t, rng) for s in config.obstacles]

    return state, tau, VelocityTrajectory.constant(grid, state.sog, state.course), track


def first_solve(config: ScenarioConfig) -> Solve:
    """run's first planner call, at t = 0."""
    state, tau, commanded, track = _start(config)
    return plan_step(config, 0.0, state, commanded, tau, track(0.0))


def run(config: ScenarioConfig) -> tuple[RunLog, Metrics]:
    """Simulate the scenario; deterministic for a given config and seed.

    The tracker never sees the plan, so its updates are drawn first. Each
    planner period then plans from the last update at or before its start,
    reads its reference rows once from the committed trajectory, held past
    its end, and steps the controller and plant through them on plain
    floats (north, east, course, sog, rot). The ground truth and the held
    tracker estimates are logged after the loop.
    """
    model = config.vessel
    dt = config.integration_dt
    n_steps = int(round(config.duration / dt))
    planner_every = int(round(config.planner_period / dt))
    state, tau, commanded, track = _start(config)
    integral = (0.0, 0.0)

    n_rows = n_steps + 1
    # the tracker's updates: the step of each and its estimates; a step
    # holds the last update at or before it
    update_steps, update_estimates = [], []
    next_obs_t = 0.0
    for step_idx in range(n_rows):
        t = step_idx * dt
        while t >= next_obs_t - 1e-9:
            update_steps.append(step_idx)
            update_estimates.append(track(t))
            next_obs_t += config.noise.period
    held = np.searchsorted(update_steps, np.arange(n_rows), side="right") - 1

    ref_names = ("sog", "rot", "course", "sog_acc", "rot_acc")
    ref = np.zeros((len(ref_names), n_rows))
    plant_names = [f"own_{name}" for name in VesselState._fields] + ["tau_m", "tau_delta"]
    plant_rows = array("d")  # every step's plant state and command, flat
    planner_rows = []  # rows, not Solves: each holds its CandidateSet

    for start in range(0, n_steps, planner_every):  # whole periods (ScenarioConfig)
        t = start * dt
        solve = plan_step(config, t, state, commanded, tau, update_estimates[held[start]])
        planner_rows.append(solve.row())
        if solve.table is not None:  # a hold keeps the committed reference
            commanded = solve.candidates.trajectory(solve.selected)
        stop = start + planner_every
        ref[:, start:stop] = commanded.window(t, planner_every)
        for row in ref[:, start:stop].T.tolist():
            tau, integral = control_law(model, config.gains, state, row, integral, dt)
            plant_rows.extend(state + tau)
            state = step_plant(model, state, tau, dt)
    # the last row (t = duration) holds the last command
    ref[:, n_steps] = commanded.window(n_steps * dt, 1)[:, 0]
    plant_rows.extend(state + tau)

    planner = PlannerSeries(**{
        f.name: np.array([row[f.name] for row in planner_rows]) for f in fields(PlannerSeries)
    })
    t = dt * np.arange(n_rows)
    obstacles = {}
    for script, estimates in zip(config.obstacles, zip(*update_estimates)):
        est = np.array([(e.north, e.east, e.sog, e.course, e.timestamp) for e in estimates])
        obstacles[script.id] = ObstacleSeries(*ground_truth(script, t), *est[held].T)
    log = RunLog(
        name=config.name,
        seed=config.seed,
        dt=dt,
        t=t,
        **dict(zip(plant_names, np.frombuffer(plant_rows).reshape(n_rows, len(plant_names)).T)),
        **{f"ref_{name}": channel for name, channel in zip(ref_names, ref)},
        # each step logs the winner of the last call at or before it
        selected=planner.candidate[np.minimum(np.arange(n_rows) // planner_every, len(planner.t) - 1)],
        obstacles=obstacles,
        planner=planner,
    )
    return log, compute_metrics(log, config.geometry)


CSV_BLOCK_ROWS = 1024  # rows per block of runlog_csv_blocks and planner_csv_blocks


def runlog_csv_blocks(log: RunLog) -> Iterator[str]:
    """trajectory.csv's text in blocks: the header line, then the rows
    CSV_BLOCK_ROWS at a time. Fixed schema, one row per integration
    step, unit-suffixed headers: the log's columns, then each
    obstacle's by sorted id."""
    columns = _outputs(log)
    for obs_id in sorted(log.obstacles):
        columns += [(f"obs_{obs_id}_{name}", col) for name, col in _outputs(log.obstacles[obs_id])]
    return _csv_blocks(columns)


def planner_csv_blocks(log: RunLog) -> Iterator[str]:
    """planner.csv's text in blocks, as runlog_csv_blocks: one row per
    planner call."""
    return _csv_blocks(_outputs(log.planner))


def runlog_to_csv(log: RunLog) -> str:
    """trajectory.csv's whole text: runlog_csv_blocks joined."""
    return "".join(runlog_csv_blocks(log))


def planner_to_csv(log: RunLog) -> str:
    """planner.csv's whole text: planner_csv_blocks joined."""
    return "".join(planner_csv_blocks(log))


def _csv_blocks(columns: list[tuple[str, np.ndarray]]) -> Iterator[str]:
    """Header line of the names, then one string per CSV_BLOCK_ROWS
    rows: integer and boolean columns as integers, float columns with
    12 significant digits.

    Each block is stacked from its own slice of the columns and
    formatted one row at a time, so a caller that writes the blocks out
    holds no whole-table array or text. The faster layouts measured
    (tolist rows, one % per block) raised the peak memory of long runs."""
    names, arrays = zip(*columns)
    template = ",".join("%d" if col.dtype.kind in "biu" else "%.12g" for col in arrays) + "\n"
    yield ",".join(names) + "\n"
    for start in range(0, len(arrays[0]), CSV_BLOCK_ROWS):
        block = np.column_stack([col[start:start + CSV_BLOCK_ROWS] for col in arrays])
        yield "".join([template % tuple(row) for row in block])


def metrics_to_dict(metrics: Metrics) -> dict:
    """metrics.json's content: each field under its written name, each
    obstacle's metrics likewise under its id."""
    return {
        name: {obs_id: dict(_outputs(m)) for obs_id, m in value.items()}
        if isinstance(value, dict) else value
        for name, value in _outputs(metrics)
    }
