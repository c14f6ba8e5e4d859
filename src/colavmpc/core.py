"""Shared domain types, angle arithmetic and the uniform time grid.

Positions live in a local NED plane (north/east, meters). Courses are
NED angles in radians: 0 points north, pi/2 east, positive clockwise
seen from above. Course channels inside trajectories are stored
unwrapped; wrapping happens only when two angles are compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(a):
    """Map an angle (scalar or array, radians) to [-pi, pi)."""
    if isinstance(a, (float, int)):
        if not math.isfinite(a):
            raise ValueError("wrap_angle requires finite input")
        return (a + math.pi) % TWO_PI - math.pi
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("wrap_angle requires finite input")
    wrapped = np.mod(a + math.pi, TWO_PI) - math.pi
    if wrapped.ndim == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class Pose:
    """Planar pose: position in meters, course normalized to [-pi, pi)."""

    north: float
    east: float
    course: float

    def __post_init__(self):
        object.__setattr__(self, "course", wrap_angle(self.course))


@dataclass(frozen=True)
class Velocity2:
    """Speed over ground (m/s, >= 0) and rate of turn (rad/s)."""

    sog: float
    rot: float

    def __post_init__(self):
        if self.sog < 0.0:
            raise ValueError(f"sog must be >= 0, got {self.sog}")


@dataclass(frozen=True)
class VesselState:
    pose: Pose
    vel: Velocity2


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid covering [t0, t0 + (n - 1) * dt]."""

    t0: float
    dt: float
    n: int

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")

    @property
    def t_end(self) -> float:
        return self.t0 + (self.n - 1) * self.dt

    @property
    def span(self) -> float:
        return (self.n - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    @staticmethod
    def from_span(t0: float, span: float, dt: float) -> "TimeGrid":
        """Grid over [t0, t0 + span]; span must be an integer multiple of dt."""
        steps = span / dt
        n = int(round(steps))
        if abs(steps - n) > 1e-9:
            raise ValueError(f"span {span} is not an integer multiple of dt {dt}")
        return TimeGrid(t0, dt, n + 1)


@dataclass(frozen=True)
class VelocityTrajectory:
    """Desired velocity trajectory on a grid.

    Channels: sog (m/s), rot (rad/s), course (rad, unwrapped), and the
    accelerations sog_acc (m/s^2), rot_acc (rad/s^2) that generated them.
    """

    grid: TimeGrid
    sog: np.ndarray
    rot: np.ndarray
    course: np.ndarray
    sog_acc: np.ndarray
    rot_acc: np.ndarray

    def __post_init__(self):
        for name in ("sog", "rot", "course", "sog_acc", "rot_acc"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.grid.n,):
                raise ValueError(f"{name} must have length grid.n={self.grid.n}")
            object.__setattr__(self, name, arr)

    @staticmethod
    def constant(grid: TimeGrid, sog: float, course: float) -> "VelocityTrajectory":
        """Hold a fixed speed and course over the grid (zero ROT)."""
        zeros = np.zeros(grid.n)
        return VelocityTrajectory(
            grid=grid,
            sog=np.full(grid.n, float(sog)),
            rot=zeros,
            course=np.full(grid.n, float(course)),
            sog_acc=zeros,
            rot_acc=zeros,
        )


def cumtrapz(y: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoidal integral along the last axis, starting at 0."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    np.cumsum(0.5 * dt * (y[..., 1:] + y[..., :-1]), axis=-1, out=out[..., 1:])
    return out


def resample(traj: VelocityTrajectory, grid: TimeGrid) -> VelocityTrajectory:
    """Linearly interpolate a velocity trajectory onto a target grid.

    The target grid must lie within the source span. Course is
    interpolated directly (channels are stored unwrapped).
    """
    src = traj.grid
    tol = 1e-9
    if grid.t0 < src.t0 - tol or grid.t_end > src.t_end + tol:
        raise ValueError(
            f"target grid [{grid.t0}, {grid.t_end}] outside source span "
            f"[{src.t0}, {src.t_end}]"
        )
    ts = src.times()
    tq = np.clip(grid.times(), src.t0, src.t_end)
    return VelocityTrajectory(
        grid=grid,
        sog=np.interp(tq, ts, traj.sog),
        rot=np.interp(tq, ts, traj.rot),
        course=np.interp(tq, ts, traj.course),
        sog_acc=np.interp(tq, ts, traj.sog_acc),
        rot_acc=np.interp(tq, ts, traj.rot_acc),
    )
