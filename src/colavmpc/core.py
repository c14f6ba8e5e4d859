"""Shared domain types, angle arithmetic and the uniform time grid.

Positions live in a local NED plane (north/east, meters). Courses are
NED angles in radians: 0 points north, pi/2 east, positive clockwise
seen from above. Course channels inside trajectories are stored
unwrapped; wrapping happens only when two angles are compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(a):
    """Map an angle (scalar or array, radians) to [-pi, pi).

    Just below an odd multiple of -pi, the remainder rounds up to 2*pi;
    that result is -pi, not +pi.
    """
    if isinstance(a, (float, int)):
        if not math.isfinite(a):
            raise ValueError("wrap_angle requires finite input")
        wrapped = (a + math.pi) % TWO_PI - math.pi
        return -math.pi if wrapped == math.pi else wrapped
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("wrap_angle requires finite input")
    wrapped = np.mod(a + math.pi, TWO_PI) - math.pi
    wrapped = np.where(wrapped == math.pi, -math.pi, wrapped)
    if wrapped.ndim == 0:
        return float(wrapped)
    return wrapped


class VesselState(NamedTuple):
    """The plant's state: position (m), course (rad, in [-pi, pi)),
    speed over ground (m/s, >= 0) and rate of turn (rad/s)."""

    north: float
    east: float
    course: float
    sog: float
    rot: float


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

    def window(self, t: float, n: int, stride=1) -> np.ndarray:
        """The (sog, rot, course, sog_acc, rot_acc) channels at t,
        t + stride * dt, ..., n points, as a (5, n) array.

        t must be a point of the grid and stride a whole number of steps.
        Past the last point the trajectory holds: sog and course keep
        their final values, and rot, sog_acc and rot_acc are 0.
        """
        steps = (t - self.grid.t0) / self.grid.dt
        start, step = round(steps), round(stride)
        if start < 0 or step < 1 or abs(steps - start) > 1e-9 or abs(stride - step) > 1e-9:
            raise ValueError(
                f"t={t} in steps of {stride} is not on the grid from {self.grid.t0} "
                f"in steps of {self.grid.dt}"
            )
        rows = start + step * np.arange(n)
        past = rows >= self.grid.n
        rows[past] = self.grid.n - 1
        channels = (self.sog, self.rot, self.course, self.sog_acc, self.rot_acc)
        out = np.array([channel[rows] for channel in channels])
        out[np.ix_((1, 3, 4), past)] = 0.0
        return out


def cumtrapz(y: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoidal integral along the last axis, starting at 0."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    np.cumsum(0.5 * dt * (y[..., 1:] + y[..., :-1]), axis=-1, out=out[..., 1:])
    return out
