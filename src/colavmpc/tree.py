"""Multi-level maneuver tree.

Chains single-step maneuver generation into candidate trajectories of B
maneuvers. Nodes carry vessel states, edges carry sub-trajectories;
every root-to-leaf path becomes one row of a struct-of-arrays
CandidateSet on the evaluation grid. Desired channels integrate from
the parent edge's terminal desired values (so the commanded reference
stays continuous), while prediction feedback re-seeds from the parent
edge's terminal predicted state.

Expansion is vectorized per level: with the acceleration profiles fixed
per level, every channel is an affine function of the sampled
acceleration, so all of a level's (node, sample) edges broadcast
straight onto the level grid at once. Each level keeps its edges'
parent nodes and predictions; the leaf rows are gathered once at the
end, and one candidate's full-resolution reference is rebuilt on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeGrid, VelocityTrajectory, VesselState, cumtrapz, wrap_angle
from .primitives import (
    ErrorModel,
    StepParams,
    course_profile_unit,
    possible_accelerations,
    sample_accelerations,
    sog_profile_unit,
    terminal_sog_feasible,
)
from .vessel import VesselModel


@dataclass(frozen=True)
class TreeParams:
    """Per-level step times and sample counts; shared maneuver timing."""

    step_times: tuple[float, ...]
    n_sog: tuple[int, ...]
    n_course: tuple[int, ...]
    t_ramp: float
    t_sog: float
    t_course: float

    def __post_init__(self):
        if not (len(self.step_times) == len(self.n_sog) == len(self.n_course)):
            raise ValueError("per-level sequences must share length")
        if len(self.step_times) < 1:
            raise ValueError("at least one level required")
        for level in range(self.levels):
            self.step_params(level)  # validates invariants

    @property
    def levels(self) -> int:
        return len(self.step_times)

    @property
    def horizon(self) -> float:
        return float(sum(self.step_times))

    def step_params(self, level: int) -> StepParams:
        return StepParams(
            t_total=self.step_times[level],
            t_ramp=self.t_ramp,
            t_sog=self.t_sog,
            t_course=self.t_course,
            n_sog=self.n_sog[level],
            n_course=self.n_course[level],
        )


@dataclass(frozen=True, eq=False)
class Level:
    """One tree level's unit maneuver profiles on its integration grid.

    Every maneuver of a level is affine in its sampled accelerations
    (a_u, a_r): sog = u_d + a_u * cum_s, course = chi_d + a_r * cum2_c,
    rot = a_r * cum_c, sog_acc = a_u * unit_s, rot_acc = a_r * unit_c.
    """

    grid: TimeGrid
    step: StepParams
    unit_s: np.ndarray
    unit_c: np.ndarray
    cum_s: np.ndarray
    cum_c: np.ndarray
    cum2_c: np.ndarray

    @staticmethod
    def build(t0: float, step: StepParams, dt: float) -> "Level":
        grid = TimeGrid.from_span(t0, step.t_total, dt)
        t_rel = grid.times() - t0
        unit_s = sog_profile_unit(t_rel, step)
        unit_c = course_profile_unit(t_rel, step)
        cum_c = cumtrapz(unit_c, dt)
        return Level(grid, step, unit_s, unit_c, cumtrapz(unit_s, dt), cum_c, cumtrapz(cum_c, dt))

    def reference(self, u_d, chi_d, a_u, a_r):
        """Desired (sog, course) of the maneuvers started from (u_d, chi_d)."""
        return u_d + a_u * self.cum_s, chi_d + a_r * self.cum2_c


@dataclass(frozen=True)
class CandidateSet:
    """Every root-to-leaf path of one tree, one row per leaf.

    grid is the evaluation grid. pred_north, pred_east and pred_course,
    (n_leaves, grid.n), are the feedback-corrected prediction on it;
    first_sog and first_course, (n_leaves, first_grid.n), the desired
    reference over the first maneuver. sample_path[leaf, level] is the
    (sog, rot) sample index the path takes at that level and
    accelerations[leaf, level] the sampled (sog, rot) accelerations.
    levels and desired0, the root's desired (sog, course), rebuild one
    candidate's reference on the integration grid. A tree with no
    feasible level-0 maneuver has no leaves and is falsy.
    """

    grid: TimeGrid
    pred_north: np.ndarray
    pred_east: np.ndarray
    pred_course: np.ndarray
    first_sog: np.ndarray
    first_course: np.ndarray
    sample_path: np.ndarray
    accelerations: np.ndarray
    levels: tuple[Level, ...]
    desired0: tuple[float, float]

    def __len__(self) -> int:
        return len(self.sample_path)

    @property
    def first_grid(self) -> TimeGrid:
        """The evaluation grid over the first maneuver."""
        return TimeGrid(self.grid.t0, self.grid.dt, self.first_sog.shape[1])

    def trajectory(self, leaf: int) -> VelocityTrajectory:
        """The desired reference of one candidate over the whole horizon,
        on the integration grid."""
        u_d, chi_d = self.desired0
        parts = []
        for level, (a_u, a_r) in zip(self.levels, self.accelerations[leaf]):
            sog, course = level.reference(u_d, chi_d, a_u, a_r)
            rot, sog_acc, rot_acc = a_r * level.cum_c, a_u * level.unit_s, a_r * level.unit_c
            parts.append(np.stack([sog, rot, course, sog_acc, rot_acc]))
            u_d, chi_d = sog[-1], course[-1]
        channels = _join(parts)
        grid = TimeGrid(self.grid.t0, self.levels[0].grid.dt, channels.shape[1])
        return VelocityTrajectory(grid, *channels)


def _join(blocks: list[np.ndarray]) -> np.ndarray:
    """Per-level blocks joined along the last axis. Levels share their
    boundary sample; the later level's value wins."""
    return np.concatenate([block[..., :-1] for block in blocks] + [blocks[-1][..., -1:]], axis=-1)


def generate_tree(
    params: TreeParams,
    model: VesselModel,
    error_model: ErrorModel,
    state: VesselState,
    t: float,
    desired_vel0: tuple[float, float],
    tau0,
    guidance_hook,
    dt: float,
    eval_dt: float,
) -> CandidateSet:
    """Breadth-first expansion from the state (north, east, course, sog,
    rot) at time t to the configured depth, one level at a time.

    guidance_hook(t, north, east, course, desired, step) -> (sog_acc,
    rot_acc), or None, supplies the desired-acceleration substitution
    for all nodes of a level at once: t is the level's start time,
    north/east/course the nodes' predicted poses and desired their
    (sog, course) reference values, all (n_nodes,) arrays. tau0 must
    lie within the actuator limits. Channels integrate on the dt grid
    and are kept on the eval_dt grid, which must take every k-th point
    of every level. Returns the candidates in deterministic order
    (node, then SOG sample, then ROT sample), with no leaves if some
    level has no feasible maneuver; the hook then sees zero nodes.
    """
    levels = []
    t_level = t
    for level_idx in range(params.levels):
        step = params.step_params(level_idx)
        levels.append(Level.build(t_level, step, dt))
        t_level += step.t_total
    ratio = eval_dt / dt
    stride = int(round(ratio))
    if abs(ratio - stride) > 1e-9 or stride < 1 or any((lv.grid.n - 1) % stride for lv in levels):
        raise ValueError("eval_dt must be an integer multiple of dt dividing every step time")
    grid = TimeGrid(t, eval_dt, sum((lv.grid.n - 1) // stride for lv in levels) + 1)
    desired0 = (float(desired_vel0[0]), float(desired_vel0[1]))

    # the nodes of the previous level (the root to begin with): desired
    # sog/course and predicted sog/course/north/east
    u_d, chi_d = np.array([desired0[0]]), np.array([desired0[1]])
    north0, east0, course0, sog0, rot0 = state
    u_bar, chi_bar = np.array([float(sog0)]), np.array([float(course0)])
    north, east = np.array([float(north0)]), np.array([float(east0)])
    # per level: each edge's parent node, its (sog, rot) samples and
    # accelerations, and its prediction on the evaluation grid
    parents, samples, accels, preds = [], [], [], []

    for level_idx, level in enumerate(levels):
        step = level.step
        t_rel = level.grid.times() - level.grid.t0
        decay_s = np.exp(-t_rel / error_model.tc_sog)
        decay_c = np.exp(-t_rel / error_model.tc_course)

        # below the root nodes sit at the end of a maneuver: zero ROT,
        # steady-state actuator input
        node_sog = np.maximum(u_bar, 0.0)
        if level_idx == 0:
            node_rot, node_tau = float(rot0), tau0
        else:
            node_rot = 0.0
            node_tau = np.clip(
                np.stack(model.damping(node_sog, 0.0), axis=-1), model.tau_min, model.tau_max
            )
        desired_acc = None
        if guidance_hook is not None:
            desired_acc = guidance_hook(level.grid.t0, north, east, chi_bar, (u_d, chi_d), step)
        sog_samples, rot_samples = sample_accelerations(
            possible_accelerations(model, node_sog, node_rot, node_tau, step.t_ramp),
            step.n_sog, step.n_course, desired_acc,
        )
        feasible = terminal_sog_feasible(model, u_d[:, None] + sog_samples * level.cum_s[-1])
        node, i_sog, i_rot = np.nonzero(
            np.broadcast_to(feasible[:, :, None], feasible.shape + (step.n_course,))
        )
        # a level with no feasible maneuver leaves no nodes: the levels
        # below run on zero-row arrays, down to a set with no leaves
        a_u = sog_samples[node, i_sog]
        a_r = rot_samples[node, i_rot]
        sog, course = level.reference(u_d[node, None], chi_d[node, None], a_u[:, None], a_r[:, None])
        sog_bar = (u_bar - u_d)[node, None] * decay_s + sog
        course_bar = wrap_angle(chi_bar - chi_d)[node, None] * decay_c + course
        pred_north = north[node, None] + cumtrapz(sog_bar * np.cos(course_bar), dt)
        pred_east = east[node, None] + cumtrapz(sog_bar * np.sin(course_bar), dt)
        if level_idx == 0:
            first_sog, first_course = sog[:, ::stride], course[:, ::stride]
        parents.append(node)
        samples.append(np.stack([i_sog, i_rot], axis=1))
        accels.append(np.stack([a_u, a_r], axis=1))
        preds.append(np.stack([p[:, ::stride] for p in (pred_north, pred_east, course_bar)]))
        u_d, chi_d = sog[:, -1], course[:, -1]
        u_bar, chi_bar = sog_bar[:, -1], course_bar[:, -1]
        north, east = pred_north[:, -1], pred_east[:, -1]

    # each leaf's ancestor edge at every level, from the leaves up
    ancestors = [np.arange(len(parents[-1]))]
    for parent in parents[:0:-1]:
        ancestors.insert(0, parent[ancestors[0]])
    pred = _join([np.take(p, rows, axis=1) for p, rows in zip(preds, ancestors)])
    return CandidateSet(
        grid=grid,
        pred_north=pred[0],
        pred_east=pred[1],
        pred_course=pred[2],
        first_sog=first_sog[ancestors[0]],
        first_course=first_course[ancestors[0]],
        sample_path=np.stack([s[rows] for s, rows in zip(samples, ancestors)], axis=1),
        accelerations=np.stack([a[rows] for a, rows in zip(accels, ancestors)], axis=1),
        levels=tuple(levels),
        desired0=desired0,
    )
