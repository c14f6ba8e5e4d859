"""Multi-level maneuver tree.

Chains single-step maneuver generation into candidate trajectories of B
maneuvers. Nodes carry vessel states, edges carry sub-trajectories;
every root-to-leaf path flattens into one row of a struct-of-arrays
CandidateSet. Desired channels integrate from the parent edge's
terminal desired values (so the commanded reference stays continuous),
while prediction feedback re-seeds from the parent edge's terminal
predicted state.

Expansion is vectorized per level: with the acceleration profiles fixed
per level, every channel is an affine function of the sampled
acceleration, so all of a level's (node, sample) edges broadcast
straight onto the level grid at once.
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

# the CandidateSet channels: desired reference, then the
# feedback-corrected prediction
_CHANNELS = ("sog", "rot", "course", "sog_acc", "rot_acc", "pred_north", "pred_east", "pred_course")


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
    """Breadth-first expansion to the configured depth, one level at a time.

    guidance_hook(t, north, east, course, desired, step) -> (sog_acc,
    rot_acc), or None, supplies the desired-acceleration substitution
    for all nodes of a level at once: t is the level's start time,
    north/east/course the nodes' predicted poses and desired their
    (sog, course) reference values, all (n_nodes,) arrays. tau0 must
    lie within the actuator limits. Returns the candidates in
    deterministic order (node, then SOG sample, then ROT sample), with
    no leaves if some level has no feasible maneuver.
    """
    t_level = state.time
    full_grid = TimeGrid.from_span(state.time, params.horizon, dt)
    n_first = TimeGrid.from_span(state.time, params.step_times[0], dt).n
    # each edge's path from the root so far: channel rows, levels sharing
    # their boundary sample (the later level's value wins), and samples;
    # the root's one-sample rows vanish under the first level
    rows = {name: np.zeros((1, 1)) for name in _CHANNELS}
    sample_path = np.zeros((1, 0, 2), dtype=int)

    # the nodes of the previous level (the root to begin with): desired
    # sog/course and predicted sog/course/north/east
    u_d = np.array([float(desired_vel0[0])])
    chi_d = np.array([float(desired_vel0[1])])
    u_bar = np.array([float(state.vel.sog)])
    chi_bar = np.array([float(state.pose.course)])
    north = np.array([float(state.pose.north)])
    east = np.array([float(state.pose.east)])

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

        # below the root nodes sit at the end of a maneuver: zero ROT,
        # steady-state actuator input
        node_sog = np.maximum(u_bar, 0.0)
        if level_idx == 0:
            node_rot, node_tau = float(state.vel.rot), tau0
        else:
            node_rot = 0.0
            node_tau = np.clip(
                np.stack(model.damping(node_sog, 0.0), axis=-1), model.tau_min, model.tau_max
            )
        desired_acc = None
        if guidance_hook is not None:
            desired_acc = guidance_hook(t_level, north, east, chi_bar, (u_d, chi_d), step)
        sog_samples, rot_samples = sample_accelerations(
            possible_accelerations(model, node_sog, node_rot, node_tau, step.t_ramp),
            step.n_sog, step.n_course, desired_acc,
        )
        feasible = terminal_sog_feasible(model, u_d[:, None] + sog_samples * cum_s[-1])
        node, i_sog, i_rot = np.nonzero(
            np.broadcast_to(feasible[:, :, None], feasible.shape + (step.n_course,))
        )
        if len(node) == 0:  # no feasible maneuver: no leaves
            rows = {name: np.empty((0, full_grid.n)) for name in _CHANNELS}
            sample_path = np.empty((0, params.levels, 2), dtype=int)
            break

        a_u = sog_samples[node, i_sog][:, None]
        a_r = rot_samples[node, i_rot][:, None]
        sog = u_d[node, None] + a_u * cum_s
        sog_bar = (u_bar - u_d)[node, None] * decay_s + sog
        course = chi_d[node, None] + a_r * cum2_c
        course_bar = wrap_angle(chi_bar - chi_d)[node, None] * decay_c + course
        channels = {
            "sog": sog,
            "rot": a_r * cum_c,
            "course": course,
            "sog_acc": a_u * unit_s,
            "rot_acc": a_r * unit_c,
            "pred_north": north[node, None] + cumtrapz(sog_bar * np.cos(course_bar), dt),
            "pred_east": east[node, None] + cumtrapz(sog_bar * np.sin(course_bar), dt),
            "pred_course": course_bar,
        }
        rows = {
            name: np.concatenate([rows[name][node, :-1], channel], axis=1)
            for name, channel in channels.items()
        }
        sample_path = np.concatenate(
            [sample_path[node], np.stack([i_sog, i_rot], axis=1)[:, None]], axis=1
        )
        u_d, chi_d = sog[:, -1], course[:, -1]
        u_bar, chi_bar = sog_bar[:, -1], course_bar[:, -1]
        north, east = channels["pred_north"][:, -1], channels["pred_east"][:, -1]
        t_level += step.t_total

    return CandidateSet(full_grid, n_first, sample_path=sample_path, **rows)
