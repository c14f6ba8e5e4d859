"""Multi-level maneuver tree.

Chains single-step maneuver generation into candidate trajectories of B
maneuvers. Nodes carry vessel states, edges carry sub-trajectories;
every root-to-leaf path becomes one candidate of a CandidateSet, whose
edges sit once each on the evaluation grid. Desired channels integrate from
the parent edge's terminal desired values (so the commanded reference
stays continuous), while prediction feedback re-seeds from the parent
edge's terminal predicted state.

Expansion is vectorized per level: with the acceleration profiles fixed
per level and built once per config (build_levels), every channel is an
affine function of the sampled acceleration, so all of a level's (node,
sample) edges broadcast straight onto the evaluation grid, where the
prediction integrates.
Each level keeps its edges' parents, samples and predictions, each leaf
its ancestor edges; one candidate's dt-grid reference is rebuilt on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeGrid, VelocityTrajectory, VesselState, cumtrapz, is_multiple, wrap_angle
from .primitives import (
    TreeParams, course_profile_unit, level_samples, node_samples, sog_profile_unit, terminal_sog_feasible,
)
from .vessel import VesselModel

SMALL_NODES = 8  # levels of at most this many nodes run their node stage in plain floats (measured crossover)


@dataclass(frozen=True, eq=False)
class Level:
    """One tree level's step time, ramp time, sample counts and read-only
    unit maneuver profiles at the times t_rel = dt * arange(n) from the
    level's start. step_time and t_ramp are TreeParams' own floats.

    Every maneuver of a level is affine in its sampled accelerations
    (a_u, a_r): sog = u_d + a_u * cum_s, course = chi_d + a_r * cum2_c,
    rot = a_r * cum_c, sog_acc = a_u * unit_s, rot_acc = a_r * unit_c.
    On the eval_dt grid, cum_s_eval and cum2_c_eval are cum_s and cum2_c,
    and the prediction's error decays: decay_s = exp(-t_rel / tc_sog), decay_c likewise.
    """

    dt: float
    eval_dt: float
    step_time: float
    t_ramp: float
    n_sog: int
    n_course: int
    unit_s: np.ndarray
    unit_c: np.ndarray
    cum_s: np.ndarray
    cum_c: np.ndarray
    cum2_c: np.ndarray
    cum_s_eval: np.ndarray
    cum2_c_eval: np.ndarray
    decay_s: np.ndarray
    decay_c: np.ndarray

    def reference(self, u_d, chi_d, a_u, a_r):
        """Desired (sog, course) of the maneuvers started from (u_d, chi_d)."""
        return u_d + a_u * self.cum_s, chi_d + a_r * self.cum2_c


def build_levels(params: TreeParams, dt: float, eval_dt: float) -> tuple[Level, ...]:
    """Every level of the tree, integrated on the dt grid and predicted on
    the eval_dt grid. The one check of the planner-grid rules: eval_dt must
    be a positive integer multiple of dt and divide every step time (a
    ValueError otherwise). The profiles depend on params, dt and eval_dt only."""
    stride = round(eval_dt / dt) if is_multiple(eval_dt, dt) else 0
    if stride < 1:
        raise ValueError(f"eval_dt {eval_dt} must be an integer multiple of dt {dt} and > 0")
    levels = []
    for index, step_time in enumerate(params.step_times):
        if round(step_time / dt) % stride:
            raise ValueError(f"eval_dt {eval_dt} must divide every step time, but step time {step_time} is no multiple of it (dt {dt})")
        t_rel = dt * np.arange(TimeGrid.from_span(0.0, step_time, dt).n)
        unit_s, unit_c = sog_profile_unit(t_rel, params), course_profile_unit(t_rel, params)
        cum_s, cum_c = cumtrapz(np.array([unit_s, unit_c]), dt)
        cum2_c = cumtrapz(cum_c, dt)
        profiles = (
            unit_s, unit_c, cum_s, cum_c, cum2_c, cum_s[::stride].copy(), cum2_c[::stride].copy(),
            np.exp(-t_rel[::stride] / params.tc_sog), np.exp(-t_rel[::stride] / params.tc_course),
        )
        for profile in profiles:
            profile.setflags(write=False)
        levels.append(Level(dt, eval_dt, step_time, params.t_ramp, params.n_sog[index], params.n_course[index], *profiles))
    return tuple(levels)


@dataclass(frozen=True)
class CandidateSet:
    """Every root-to-leaf path of one tree, one candidate per leaf.

    grid is the evaluation grid. edges[k] is level k's edges' feedback-
    corrected prediction, (north, east) as one (2, n_edges, width) array
    and course (n_edges, width), on the grid columns the level owns: all
    of its own but the last, which the next level's first overrides, and
    all of the last level's. samples[k] is level k's edges' (sog, rot)
    sample indices and sampled (sog, rot) accelerations, (i_sog, i_rot,
    a_u, a_r). first_sog and first_course, (level 0's n_edges,
    first_grid.n), are the desired reference over each first maneuver.
    Every array but ancestors holds one row per edge of its level. The
    leaves are the last level's edges; ancestors[k], (n_leaves,), is each
    leaf's edge index at level k, through which it reaches those rows.
    levels, shared by every call of a config, and desired0, the root's
    desired (sog, course), rebuild one candidate's reference on the
    integration grid. A tree with no feasible level-0 maneuver has no
    leaves and is falsy.
    """

    grid: TimeGrid
    edges: tuple[tuple[np.ndarray, np.ndarray], ...]
    samples: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    ancestors: tuple[np.ndarray, ...]
    first_sog: np.ndarray
    first_course: np.ndarray
    levels: tuple[Level, ...]
    desired0: tuple[float, float]

    def __post_init__(self):
        owned = [course.shape[1] for _, course in self.edges]
        if sum(owned) != self.grid.n:
            raise ValueError(f"the levels own {owned} columns, which do not add up to grid.n {self.grid.n}")
        if not len(self.samples) == len(self.ancestors) == len(self.edges):
            raise ValueError(f"{len(self.edges)} levels of edges, {len(self.samples)} of samples, {len(self.ancestors)} of ancestors")
        for k, ((position, course), samples, rows) in enumerate(zip(self.edges, self.samples, self.ancestors)):
            per_edge = [len(a) for a in (position[0], *samples, *((self.first_sog, self.first_course) if k == 0 else ()))]
            if set(per_edge) - {len(course)}:
                raise ValueError(f"level {k}'s per-edge arrays have {per_edge} rows for {len(course)} edges")
            if len(rows) != len(self):
                raise ValueError(f"ancestors[{k}] has {len(rows)} rows for {len(self)} leaves")
            if len(rows) and not 0 <= rows.min() <= rows.max() < len(course):
                raise ValueError(f"ancestors[{k}] indexes outside level {k}'s {len(course)} edges")

    def __len__(self) -> int:
        return len(self.edges[-1][1])

    @property
    def first_grid(self) -> TimeGrid:
        """The evaluation grid over the first maneuver."""
        return TimeGrid(self.grid.t0, self.grid.dt, self.first_sog.shape[1])

    def trajectory(self, leaf: int) -> VelocityTrajectory:
        """The desired reference of one candidate over the whole horizon,
        on the integration grid."""
        u_d, chi_d = self.desired0
        parts = []
        for level, (_, _, a_u, a_r), rows in zip(self.levels, self.samples, self.ancestors):
            a_u, a_r = a_u[rows[leaf]], a_r[rows[leaf]]
            sog, course = level.reference(u_d, chi_d, a_u, a_r)
            rot, sog_acc, rot_acc = a_r * level.cum_c, a_u * level.unit_s, a_r * level.unit_c
            parts.append(np.stack([sog, rot, course, sog_acc, rot_acc]))
            u_d, chi_d = sog[-1], course[-1]
        channels = _join(parts)
        return VelocityTrajectory(TimeGrid(self.grid.t0, self.levels[0].dt, channels.shape[1]), channels)


def _join(blocks: list[np.ndarray]) -> np.ndarray:
    """Per-level blocks joined along the last axis. Levels share their
    boundary sample; the later level's value wins."""
    return np.concatenate([block[..., :-1] for block in blocks] + [blocks[-1][..., -1:]], axis=-1)


def generate_tree(
    levels: tuple[Level, ...], model: VesselModel, state: VesselState, t: float,
    desired_vel0: tuple[float, float], tau0, guidance_hook,
) -> CandidateSet:
    """Breadth-first expansion from the state (north, east, course, sog,
    rot) at time t through the levels (build_levels), one at a time; the
    prediction integrates on the eval_dt grid.

    guidance_hook(t, north, east, course, desired) -> (sog_acc, rot_acc),
    or None, supplies the desired-acceleration substitution for all
    nodes of a level at once: t is the level's start time,
    north/east/course the nodes' predicted poses and desired their
    (sog, course) reference values, all (n_nodes,) arrays. It is called
    only at levels that sample more than one acceleration per node, the
    only ones that use it. tau0 must lie within the actuator limits.
    A level of at most SMALL_NODES nodes computes its reachable ranges
    and sample grids node by node in plain floats (node_samples), with
    the bits of the array stage the larger levels use (level_samples).
    Returns the candidates in deterministic order (node, then SOG sample,
    then ROT sample), with no leaves if some level has no feasible
    maneuver; the hook then sees zero nodes.
    """
    eval_dt = levels[0].eval_dt
    grid = TimeGrid(t, eval_dt, sum(len(level.decay_s) - 1 for level in levels) + 1)
    desired0 = (float(desired_vel0[0]), float(desired_vel0[1]))

    # the nodes of the previous level (the root to begin with): desired
    # sog/course, predicted sog/course and predicted (north, east)
    u_d, chi_d = np.array([desired0[0]]), np.array([desired0[1]])
    north0, east0, course0, sog0, rot0 = state
    u_bar, chi_bar = np.array([float(sog0)]), np.array([float(course0)])
    position = np.array([[float(north0)], [float(east0)]])
    # per level: each edge's parent node, (sog, rot) sample indices and
    # accelerations, and its prediction on the columns the level owns
    parents, samples, edges = [], [], []
    t_level = t
    for level_idx, level in enumerate(levels):
        # a level with one sog and one rot sample ignores desired accelerations
        desired_acc = None
        if guidance_hook is not None and level.n_sog * level.n_course > 1:
            desired_acc = guidance_hook(t_level, *position, chi_bar, (u_d, chi_d))
        # below the root nodes sit at the end of a maneuver: zero ROT,
        # steady-state actuator input
        n_nodes = len(u_bar)
        if n_nodes <= SMALL_NODES:  # the root always: the array stage's bits, node by node
            node_rot, node_tau = (float(rot0), tau0) if level_idx == 0 else (0.0, None)
            # np.maximum(u_bar, 0.0)'s bits, -0.0 and NaN included
            node_sog = [0.0 if 0.0 >= u else u for u in u_bar.tolist()]
            wanted = [None] * n_nodes if desired_acc is None else zip(
                *(np.asarray(acc, dtype=float).tolist() for acc in desired_acc)
            )
            grids = [
                node_samples(model, sog, node_rot, node_tau, level.t_ramp, level.n_sog, level.n_course, acc)
                for sog, acc in zip(node_sog, wanted)
            ]
            sog_samples = np.array([sog for sog, _ in grids]).reshape(n_nodes, level.n_sog)
            rot_samples = np.array([rot for _, rot in grids]).reshape(n_nodes, level.n_course)
        else:
            sog_samples, rot_samples = level_samples(
                model, np.maximum(u_bar, 0.0), level.t_ramp, level.n_sog, level.n_course, desired_acc,
            )
        feasible = terminal_sog_feasible(model, u_d[:, None] + sog_samples * level.cum_s[-1])
        node, i_sog, i_rot = np.nonzero(feasible[:, :, None].repeat(level.n_course, axis=2))
        # a level with no feasible maneuver leaves no nodes: the levels
        # below run on zero-row arrays, down to a set with no leaves
        a_u = sog_samples[node, i_sog]
        a_r = rot_samples[node, i_rot]
        sog = u_d[node, None] + a_u[:, None] * level.cum_s_eval
        course = chi_d[node, None] + a_r[:, None] * level.cum2_c_eval
        sog_bar = (u_bar - u_d)[node, None] * level.decay_s + sog
        course_bar = wrap_angle(chi_bar - chi_d)[node, None] * level.decay_c + course
        # north and east velocity in one buffer, integrated in one pass
        vel = np.empty((2,) + course_bar.shape)
        np.cos(course_bar, out=vel[0])
        np.sin(course_bar, out=vel[1])
        vel *= sog_bar
        track = cumtrapz(vel, eval_dt)
        track += position[:, node, None]
        if level_idx == 0:
            first_sog, first_course = sog, course
        parents.append(node)
        samples.append((i_sog, i_rot, a_u, a_r))
        width = None if level_idx == len(levels) - 1 else -1
        edges.append((track[..., :width], course_bar[:, :width]))
        u_d, chi_d = sog[:, -1], course[:, -1]
        u_bar, chi_bar = sog_bar[:, -1], course_bar[:, -1]
        position = track[..., -1]
        t_level += level.step_time

    # each leaf's ancestor edge at every level, from the leaves up
    ancestors = [np.arange(len(parents[-1]))]
    for parent in parents[:0:-1]:
        ancestors.insert(0, parent[ancestors[0]])
    return CandidateSet(
        grid=grid,
        edges=tuple(edges),
        samples=tuple(samples),
        ancestors=tuple(ancestors),
        first_sog=first_sog,
        first_course=first_course,
        levels=tuple(levels),
        desired0=desired0,
    )
