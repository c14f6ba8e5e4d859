"""Line-of-sight guidance against a time-parameterized desired trajectory.

The reference point (path particle) is pinned to the desired position
for the current time; cross-track error steers the course target
through a lookahead arctan, and the along-track offset scales the
speed target so the vessel catches up or holds back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import wrap_angle
from .primitives import StepParams


class DesiredTrajectory:
    """Planar C1 trajectory traversed at the constant `speed` (m/s).

    Either an infinite straight line from a start point, or a
    piecewise-linear waypoint track (extrapolated along its last
    segment beyond the end).
    """

    def __init__(self, points: np.ndarray, speed: float, line_course: float | None = None):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or len(points) < 1:
            raise ValueError("points must be an (n, 2) array")
        if speed <= 0.0:
            raise ValueError("speed must be > 0")
        if len(points) == 1:
            if line_course is None:
                raise ValueError("a single-point trajectory needs a course")
            direction = np.array([math.cos(line_course), math.sin(line_course)])
            points = np.vstack([points[0], points[0] + direction])
        seg = np.diff(points, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        keep = seg_len > 1e-9
        if not np.any(keep):
            raise ValueError("trajectory needs at least one non-degenerate segment")
        self._points = np.vstack([points[:-1][keep], points[-1]])
        seg = np.diff(self._points, axis=0)
        self._seg_len = np.hypot(seg[:, 0], seg[:, 1])
        self._seg_course = np.arctan2(seg[:, 1], seg[:, 0])
        self._cum_len = np.concatenate([[0.0], np.cumsum(self._seg_len)])
        self.speed = float(speed)

    @staticmethod
    def line(north: float, east: float, course: float, speed: float) -> "DesiredTrajectory":
        return DesiredTrajectory(np.array([[north, east]]), speed, line_course=course)

    @staticmethod
    def waypoints(points, speed: float) -> "DesiredTrajectory":
        return DesiredTrajectory(np.asarray(points, dtype=float), speed)

    def _segment_index(self, arc):
        idx = np.searchsorted(self._cum_len, arc, side="right") - 1
        return np.clip(idx, 0, len(self._seg_len) - 1)

    def position(self, t):
        """Desired position at time(s) t as (north, east) arrays."""
        arc = self.speed * np.asarray(t, dtype=float)
        idx = self._segment_index(arc)
        frac = arc - self._cum_len[idx]
        course = self._seg_course[idx]
        north = self._points[idx, 0] + frac * np.cos(course)
        east = self._points[idx, 1] + frac * np.sin(course)
        return north, east

    def course(self, t):
        """Path tangent course at time(s) t."""
        arc = self.speed * np.asarray(t, dtype=float)
        out = self._seg_course[self._segment_index(arc)]
        if out.ndim == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class LosParams:
    lookahead: float
    along_track_gain: float
    u_max_los: float
    epsilon: float = 0.05

    def __post_init__(self):
        if self.lookahead <= 0.0 or self.along_track_gain <= 0.0:
            raise ValueError("lookahead and along_track_gain must be > 0")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")


def los_targets(dtraj: DesiredTrajectory, north, east, course, t: float, p: LosParams):
    """Speed and course targets from LOS guidance at time t.

    north, east and course locate the vessel (scalars or arrays of the
    same shape); the targets come back shaped like them. Cross-track
    error is positive when the vessel sits to starboard of the path
    direction, so the arctan term steers back to port. The speed target
    is scaled by the projection of the vessel course onto the path and
    saturated to [0, u_max_los]; a small epsilon guards the
    perpendicular singularity.
    """
    pd_n, pd_e = dtraj.position(t)
    chi_path = dtraj.course(t)
    dn = north - pd_n
    de = east - pd_e
    along = np.cos(chi_path) * dn + np.sin(chi_path) * de
    cross = -np.sin(chi_path) * dn + np.cos(chi_path) * de
    chi_d = wrap_angle(chi_path + np.arctan(-cross / p.lookahead))
    c = np.cos(wrap_angle(course - chi_path))
    denom = np.where(np.abs(c) > p.epsilon, c, p.epsilon)
    u_d = (dtraj.speed - p.along_track_gain * along) / denom
    return np.clip(u_d, 0.0, p.u_max_los), chi_d


def desired_acceleration(targets, current_desired, p: StepParams):
    """Accelerations whose primitives end exactly at the LOS targets.

    Inverts the maneuver net-change identities: a SOG primitive changes
    speed by a * (t_sog - t_ramp) and a course primitive changes course
    by a * t_ramp * (t_course - 2 * t_ramp). Scalars or arrays.
    """
    u_los, chi_los = targets
    u_d0, chi_d0 = current_desired
    sog_acc = (u_los - u_d0) / (p.t_sog - p.t_ramp)
    rot_acc = wrap_angle(chi_los - chi_d0) / (p.t_ramp * (p.t_course - 2.0 * p.t_ramp))
    return sog_acc, rot_acc
