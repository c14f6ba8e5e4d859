"""Single-step maneuver generation.

A maneuver is a pair of piecewise-linear acceleration profiles:

* SOG: ramp up over t_ramp, hold, ramp down, then zero until the step
  ends. Net speed change = accel * (t_sog - t_ramp).
* course: an antisymmetric pair of triangular ROT-acceleration pulses,
  so every maneuver starts and ends at zero turn rate. Net course
  change = accel * t_ramp * (t_course - 2 * t_ramp).

Sampled accelerations are bounded by what the actuators can reach
within one ramp time, mapped through the vessel model. The tree
integrates the unit profiles into reference, prediction and position
channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import is_multiple, require_finite
from .vessel import VesselModel


@dataclass(frozen=True)
class TreeParams:
    """The maneuver tree's settings: per level a step time and (sog,
    course) sample counts; the maneuver timing all levels share; and
    the first-order closed-loop error time constants of the prediction
    (seconds)."""

    step_times: tuple[float, ...]
    n_sog: tuple[int, ...]
    n_course: tuple[int, ...]
    t_ramp: float
    t_sog: float
    t_course: float
    tc_sog: float
    tc_course: float

    def __post_init__(self):
        require_finite(self)
        if not (len(self.step_times) == len(self.n_sog) == len(self.n_course)):
            raise ValueError("per-level sequences must share length")
        if len(self.step_times) < 1:
            raise ValueError("at least one level required")
        if self.t_ramp <= 0.0:
            raise ValueError("t_ramp must be > 0")
        if self.t_sog < 2.0 * self.t_ramp:
            raise ValueError("t_sog must be >= 2 * t_ramp")
        if self.t_course < 4.0 * self.t_ramp:
            raise ValueError("t_course must be >= 4 * t_ramp")
        if min(self.step_times) < max(self.t_sog, self.t_course):
            raise ValueError("every step time must cover both maneuver lengths")
        if not all(is_multiple(t, self.step_times[0]) for t in self.step_times):
            raise ValueError(f"step_times must be integer multiples of the first step time, got {self.step_times}")
        if min(self.n_sog + self.n_course) < 1:
            raise ValueError("sample counts must be >= 1")
        if self.tc_sog <= 0.0 or self.tc_course <= 0.0:
            raise ValueError("time constants must be > 0")


def possible_accelerations(model: VesselModel, sog, rot, tau0, t_ramp: float):
    """Acceleration ranges reachable from tau0 within one ramp time.

    sog and rot are node velocities (scalars or arrays); tau0 holds one
    (tau_m, tau_delta) input along its last axis, shared or per node.
    Returns (sog_min, sog_max, rot_min, rot_max) shaped like the nodes.
    """
    tau0 = np.asarray(tau0, dtype=float)
    lo = np.asarray(model.tau_min)
    hi = np.asarray(model.tau_max)
    if tau0.shape[-1:] != lo.shape:
        raise ValueError(f"tau0 needs one value per actuator, got shape {tau0.shape}")
    if ((tau0 < lo - 1e-9) | (tau0 > hi + 1e-9)).any():
        raise ValueError(f"tau0 {tau0.tolist()} outside actuator limits")
    # the inputs reachable in one ramp, (..., bound, actuator), low bound first
    ramp = t_ramp * np.array([model.tau_rate_min, model.tau_rate_max])
    tau = model.saturate(tau0[..., None, :] + ramp)
    sog, rot = np.asarray(sog)[..., None], np.asarray(rot)[..., None]
    du, dr = model.rates(sog, rot, tau[..., 0], tau[..., 1])
    return du[..., 0], du[..., 1], dr[..., 0], dr[..., 1]


def _sample_channel(lo, hi, n: int, desired) -> np.ndarray:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if n == 1:
        # keep constant speed/course representable: 0 if reachable,
        # else the range edge nearest zero; a desired value is ignored
        return np.minimum(np.maximum(0.0, lo), hi)[..., None]
    samples = lo[..., None] + np.arange(n) * ((hi - lo) / (n - 1))[..., None]
    samples[..., -1] = hi
    if desired is not None:
        desired = np.asarray(desired, dtype=float)
        nearest = np.abs(samples - desired[..., None]).argmin(axis=-1)
        hit = ((lo <= desired) & (desired <= hi))[..., None] & (np.arange(n) == nearest[..., None])
        samples = np.where(hit, desired[..., None], samples)
    return samples


def sample_accelerations(
    bounds, n_sog: int, n_course: int, desired=None
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform endpoint-inclusive sample grids over the reachable ranges.

    bounds is (sog_min, sog_max, rot_min, rot_max) as returned by
    possible_accelerations; the samples run along a new last axis. A
    channel with more than one sample whose desired acceleration lies
    inside its range has the sample nearest to it replaced by it (ties
    toward the lower index).
    """
    if n_sog < 1 or n_course < 1:
        raise ValueError("sample counts must be >= 1")
    sog_min, sog_max, rot_min, rot_max = bounds
    d_sog = d_rot = None
    if desired is not None:
        d_sog, d_rot = desired
    sog = _sample_channel(sog_min, sog_max, n_sog, d_sog)
    rot = _sample_channel(rot_min, rot_max, n_course, d_rot)
    return sog, rot


def node_samples(
    model: VesselModel, sog: float, rot: float, tau0, t_ramp: float, n_sog: int, n_course: int, desired=None,
) -> tuple[list[float], list[float]]:
    """One node's sample grids in plain floats: the operations, order and
    bits of sample_accelerations(possible_accelerations(...)) at that node,
    and the same ValueErrors.

    tau0 is the node's (tau_m, tau_delta), or None for the input that
    holds (sog, rot), saturated to the limits; desired is None or one
    (sog, rot) desired acceleration. Returns (sog samples, rot samples).
    """
    if n_sog < 1 or n_course < 1:
        raise ValueError("sample counts must be >= 1")
    (lo_m, lo_d), (hi_m, hi_d) = model.tau_min, model.tau_max
    s_sog, s_rot = model.damping(sog, rot)
    if tau0 is None:
        tau_m, tau_d = _clip(s_sog, lo_m, hi_m), _clip(s_rot, lo_d, hi_d)
    else:
        tau = np.asarray(tau0, dtype=float)
        if tau.shape != (2,):
            raise ValueError(f"tau0 needs one value per actuator, got shape {tau.shape}")
        tau_m, tau_d = tau.tolist()
        if tau_m < lo_m - 1e-9 or tau_m > hi_m + 1e-9 or tau_d < lo_d - 1e-9 or tau_d > hi_d + 1e-9:
            raise ValueError(f"tau0 {[tau_m, tau_d]} outside actuator limits")
    # the inputs reachable in one ramp, low bound first: each rate limit
    # times t_ramp added to tau0, then saturated
    (rate_m_lo, rate_d_lo), (rate_m_hi, rate_d_hi) = model.tau_rate_min, model.tau_rate_max
    m_sog, m_rot = model.mass(sog)
    d_sog, d_rot = (None, None) if desired is None else desired
    return (
        _node_channel(
            (_clip(tau_m + t_ramp * rate_m_lo, lo_m, hi_m) - s_sog) / m_sog,
            (_clip(tau_m + t_ramp * rate_m_hi, lo_m, hi_m) - s_sog) / m_sog, n_sog, d_sog,
        ),
        _node_channel(
            (_clip(tau_d + t_ramp * rate_d_lo, lo_d, hi_d) - s_rot) / m_rot,
            (_clip(tau_d + t_ramp * rate_d_hi, lo_d, hi_d) - s_rot) / m_rot, n_course, d_rot,
        ),
    )


def _clip(x: float, lo: float, hi: float) -> float:
    """np.minimum(np.maximum(x, lo), hi) on floats, as numpy's x86 kernels
    give it: NaN propagates and a tie returns the second operand, so
    signed zeros keep numpy's bits."""
    x = lo if lo >= x or lo != lo else x
    return hi if hi <= x or hi != hi else x


def _node_channel(lo: float, hi: float, n: int, desired) -> list[float]:
    """_sample_channel for one node in plain floats."""
    if n == 1:
        return [_clip(0.0, lo, hi)]
    step = (hi - lo) / (n - 1)
    samples = [lo + i * step for i in range(n)]
    samples[-1] = hi
    if desired is not None and lo <= desired <= hi:
        gaps = [abs(s - desired) for s in samples]
        samples[gaps.index(min(gaps))] = desired
    return samples


def sog_profile_unit(t_rel: np.ndarray, p: TreeParams) -> np.ndarray:
    """SOG acceleration trapezoid with unit plateau on relative times."""
    t = np.asarray(t_rel, dtype=float)
    return np.clip(np.minimum(t / p.t_ramp, (p.t_sog - t) / p.t_ramp), 0.0, 1.0)


def course_profile_unit(t_rel: np.ndarray, p: TreeParams) -> np.ndarray:
    """Antisymmetric double pulse with unit peaks on relative times."""
    t = np.asarray(t_rel, dtype=float)
    up = np.minimum(t / p.t_ramp, (2.0 * p.t_ramp - t) / p.t_ramp)
    down = np.minimum((t - (p.t_course - 2.0 * p.t_ramp)) / p.t_ramp, (p.t_course - t) / p.t_ramp)
    return np.clip(up, 0.0, 1.0) - np.clip(down, 0.0, 1.0)


def terminal_sog_feasible(model: VesselModel, sog_terminal) -> np.ndarray:
    """Steady-state feasibility of terminal speeds (terminal ROT is zero)."""
    sog_terminal = np.asarray(sog_terminal, dtype=float)
    tau_m, _ = model.damping(sog_terminal, 0.0)
    eps = 1e-9
    ok_speed = (sog_terminal >= model.u_min - eps) & (sog_terminal <= model.u_max + eps)
    ok_tau = (tau_m >= model.tau_min[0] - eps) & (tau_m <= model.tau_max[0] + eps)
    return ok_speed & ok_tau
