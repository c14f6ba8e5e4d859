"""Multi-level maneuver tree.

Chains single-step maneuver generation into candidate trajectories of B
maneuvers. Nodes carry vessel states, edges carry sub-trajectories;
every root-to-leaf path flattens into one row of a struct-of-arrays
CandidateSet. Desired channels integrate from the parent edge's
terminal desired values (so the commanded reference stays continuous),
while prediction feedback re-seeds from the parent edge's terminal
predicted state.

Expansion is vectorized per node: with the acceleration profiles fixed
per level, every channel is an affine function of the sampled
acceleration, so sample grids broadcast straight onto the level grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Pose, TimeGrid, Velocity2, VelocityTrajectory, VesselState, cumtrapz, wrap_angle
from .primitives import (
    ErrorModel,
    StepParams,
    course_profile_unit,
    possible_accelerations,
    sample_accelerations,
    sog_profile_unit,
    terminal_sog_feasible,
)
from .vessel import VesselModel, inverse_model

# desired reference, then the feedback-corrected prediction; all but
# pred_sog reach the CandidateSet under these names
_CHANNELS = (
    "sog", "rot", "course", "sog_acc", "rot_acc",
    "pred_sog", "pred_course", "pred_north", "pred_east",
)


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


def input_blocking_check(params: TreeParams, sample_period: float) -> bool:
    """True iff every level's step time is an integer multiple of the period."""
    for t in params.step_times:
        ratio = t / sample_period
        if abs(ratio - round(ratio)) > 1e-9:
            return False
    return True


@dataclass(frozen=True)
class CandidateSet:
    """Every root-to-leaf path of one tree, one row per leaf.

    The channel arrays are (n_leaves, grid.n) on the integration grid:
    the desired reference (sog, rot, course, sog_acc, rot_acc) and the
    feedback-corrected prediction (pred_north, pred_east, pred_course).
    sample_path[leaf, level] is the (sog, rot) sample index the path
    takes at that level. The first maneuver spans the first n_first grid
    points. A tree with no feasible level-0 maneuver has no leaves and
    is falsy.
    """

    grid: TimeGrid
    n_first: int
    sog: np.ndarray
    rot: np.ndarray
    course: np.ndarray
    sog_acc: np.ndarray
    rot_acc: np.ndarray
    pred_north: np.ndarray
    pred_east: np.ndarray
    pred_course: np.ndarray
    sample_path: np.ndarray

    def __len__(self) -> int:
        return len(self.sample_path)

    def trajectory(self, leaf: int) -> VelocityTrajectory:
        """The desired reference of one candidate over the whole horizon."""
        return VelocityTrajectory(
            grid=self.grid,
            sog=self.sog[leaf],
            rot=self.rot[leaf],
            course=self.course[leaf],
            sog_acc=self.sog_acc[leaf],
            rot_acc=self.rot_acc[leaf],
        )


class _Level:
    """Stacked edge data for one tree level."""

    def __init__(self, grid: TimeGrid):
        self.grid = grid
        self.parent: np.ndarray = np.empty(0, dtype=int)
        self.samples: np.ndarray = np.empty((0, 2), dtype=int)
        self.channels: dict[str, np.ndarray] = {}
        self._parts: dict[str, list[np.ndarray]] = {name: [] for name in _CHANNELS}
        self._parent_parts: list[np.ndarray] = []
        self._sample_parts: list[np.ndarray] = []

    def add_node_block(self, parent_idx, i_sog, i_rot, blocks):
        n = len(i_sog)
        self._parent_parts.append(np.full(n, parent_idx, dtype=int))
        self._sample_parts.append(np.stack([i_sog, i_rot], axis=1))
        for name in _CHANNELS:
            self._parts[name].append(blocks[name])

    def seal(self) -> bool:
        if not self._parent_parts:
            return False
        self.parent = np.concatenate(self._parent_parts)
        self.samples = np.concatenate(self._sample_parts, axis=0)
        for name in _CHANNELS:
            self.channels[name] = np.concatenate(self._parts[name], axis=0)
        self._parts = self._parent_parts = self._sample_parts = None
        return True

    @property
    def count(self) -> int:
        return len(self.parent)

    def terminal(self, name: str) -> np.ndarray:
        return self.channels[name][:, -1]


def generate_tree(
    params: TreeParams,
    model: VesselModel,
    error_model: ErrorModel,
    state: VesselState,
    desired_vel0: tuple[float, float],
    tau0,
    guidance_hook,
    dt: float,
) -> CandidateSet:
    """Breadth-first expansion to the configured depth.

    guidance_hook(node_state, node_desired, step) -> (sog_acc, rot_acc)
    or None supplies the desired-acceleration substitution per node.
    Channels with a single sample are forced to zero acceleration so
    constant speed/course stays representable. tau0 must lie within the
    actuator limits. Returns the candidates in deterministic sample
    order, with no leaves if no level-0 maneuver is feasible.
    """
    levels: list[_Level] = []
    t_level = state.time

    # per-node scalars of the previous level (the root to begin with)
    node_u_d = np.array([float(desired_vel0[0])])
    node_chi_d = np.array([float(desired_vel0[1])])
    node_u_bar = np.array([float(state.vel.sog)])
    node_chi_bar = np.array([float(state.pose.course)])
    node_north = np.array([float(state.pose.north)])
    node_east = np.array([float(state.pose.east)])

    for level_idx in range(params.levels):
        step = params.step_params(level_idx)
        grid = TimeGrid.from_span(t_level, step.t_total, dt)
        t_rel = grid.times() - t_level
        unit_s = sog_profile_unit(t_rel, step)
        unit_c = course_profile_unit(t_rel, step)
        cum_s = cumtrapz(unit_s, dt)
        cum_c = cumtrapz(unit_c, dt)
        cum2_c = cumtrapz(cum_c, dt)
        decay_s = np.exp(-t_rel / error_model.tc_sog)
        decay_c = np.exp(-t_rel / error_model.tc_course)

        level = _Level(grid)
        for node in range(len(node_u_d)):
            if level_idx == 0:
                node_vel = Velocity2(max(node_u_bar[node], 0.0), float(state.vel.rot))
                node_tau = tau0
            else:
                node_vel = Velocity2(max(node_u_bar[node], 0.0), 0.0)
                node_tau = np.clip(
                    inverse_model(model, node_vel), model.tau_min, model.tau_max
                )
            box = possible_accelerations(model, node_vel, node_tau, step.t_ramp)

            desired_acc = None
            if guidance_hook is not None:
                node_state = VesselState(
                    pose=Pose(node_north[node], node_east[node], wrap_angle(node_chi_bar[node])),
                    vel=node_vel,
                    time=t_level,
                )
                desired_acc = guidance_hook(
                    node_state, (node_u_d[node], node_chi_d[node]), step
                )
            if desired_acc is not None:
                du, dr = desired_acc
                if step.n_sog == 1:
                    du = 0.0
                if step.n_course == 1:
                    dr = 0.0
                desired_acc = (du, dr)
            sog_samples, rot_samples = sample_accelerations(
                box, step.n_sog, step.n_course, desired_acc
            )

            feas = np.flatnonzero(
                terminal_sog_feasible(model, node_u_d[node] + sog_samples * cum_s[-1])
            )
            if len(feas) == 0:
                continue
            a_u = sog_samples[feas][:, None]
            a_r = rot_samples[:, None]
            n_s, n_r = len(feas), len(rot_samples)

            sog = node_u_d[node] + a_u * cum_s
            sog_bar = (node_u_bar[node] - node_u_d[node]) * decay_s + sog
            course = node_chi_d[node] + a_r * cum2_c
            err_c = wrap_angle(node_chi_bar[node] - node_chi_d[node])
            course_bar = err_c * decay_c + course
            vel_n = sog_bar[:, None, :] * np.cos(course_bar)[None, :, :]
            vel_e = sog_bar[:, None, :] * np.sin(course_bar)[None, :, :]
            north = node_north[node] + cumtrapz(vel_n, dt)
            east = node_east[node] + cumtrapz(vel_e, dt)

            n_t = grid.n
            rep = lambda arr: np.repeat(arr, n_r, axis=0)  # (n_s, t) -> (n_s*n_r, t)
            tile = lambda arr: np.tile(arr, (n_s, 1))  # (n_r, t) -> (n_s*n_r, t)
            level.add_node_block(
                parent_idx=node,
                i_sog=np.repeat(feas, n_r),
                i_rot=np.tile(np.arange(n_r), n_s),
                blocks={
                    "sog": rep(sog),
                    "sog_acc": rep(a_u * unit_s),
                    "pred_sog": rep(sog_bar),
                    "rot": tile(a_r * cum_c),
                    "rot_acc": tile(a_r * unit_c),
                    "course": tile(course),
                    "pred_course": tile(course_bar),
                    "pred_north": north.reshape(n_s * n_r, n_t),
                    "pred_east": east.reshape(n_s * n_r, n_t),
                },
            )

        if not level.seal():
            return _assemble_candidates(params, [], state.time, dt)
        levels.append(level)
        node_u_d = level.terminal("sog")
        node_chi_d = level.terminal("course")
        node_u_bar = level.terminal("pred_sog")
        node_chi_bar = level.terminal("pred_course")
        node_north = level.terminal("pred_north")
        node_east = level.terminal("pred_east")
        t_level += step.t_total

    return _assemble_candidates(params, levels, state.time, dt)


def _assemble_candidates(
    params: TreeParams, levels: list[_Level], t0: float, dt: float
) -> CandidateSet:
    """Join each leaf's edges into full-horizon rows; no levels, no leaves."""
    full_grid = TimeGrid.from_span(t0, params.horizon, dt)
    n_leaves = levels[-1].count if levels else 0

    # edge index of each leaf's path at every level, leaves in level order
    path_idx = [np.arange(n_leaves)]
    for level in reversed(levels[1:]):
        path_idx.append(level.parent[path_idx[-1]])
    path_idx.reverse()

    full = {name: np.empty((n_leaves, full_grid.n)) for name in _CHANNELS if name != "pred_sog"}
    sample_path = np.empty((n_leaves, params.levels, 2), dtype=int)
    offset = 0
    for k, (level, idx) in enumerate(zip(levels, path_idx)):
        n_t = level.grid.n
        for name, arr in full.items():
            arr[:, offset : offset + n_t] = level.channels[name][idx]
        sample_path[:, k] = level.samples[idx]
        offset += n_t - 1  # levels share their boundary sample
    return CandidateSet(
        grid=full_grid,
        n_first=TimeGrid.from_span(t0, params.step_times[0], dt).n,
        sample_path=sample_path,
        **full,
    )
