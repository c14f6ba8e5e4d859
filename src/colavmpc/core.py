"""Shared domain types, angle arithmetic and the uniform time grid.

Positions live in a local NED plane (north/east, meters). Courses are
NED angles in radians: 0 points north, pi/2 east, positive clockwise
seen from above. Course channels inside trajectories are stored
unwrapped; wrapping happens only when two angles are compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Integral
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi
SMALL_WRAP = 32  # 1-D arrays up to this size wrap in plain floats


def wrap_angle(a):
    """Map an angle (scalar or array, radians) to [-pi, pi).

    A scalar takes the float remainder of a + pi by 2*pi. An array whose
    w = a + pi lies in [0, 2*pi) is its own remainder; one in [-2*pi,
    4*pi) adds or subtracts 2*pi once, which is the remainder's own
    arithmetic there (w - 2*pi is exact); other arrays, NaN or inf
    included, take np.mod. A 1-D array of at most
    SMALL_WRAP elements does the same add-or-subtract in plain floats,
    element by element, with the same bits. Just below an odd multiple
    of -pi the remainder rounds up to 2*pi; that result is -pi, not +pi.
    """
    if isinstance(a, (float, int)):
        if not math.isfinite(a):
            raise ValueError("wrap_angle requires finite input")
        wrapped = (a + math.pi) % TWO_PI - math.pi
        return -math.pi if wrapped == math.pi else wrapped
    a = np.asarray(a, dtype=float)
    if a.ndim == 1 and a.size <= SMALL_WRAP:
        w = [x + math.pi for x in a.tolist()]
        if all(-TWO_PI <= x < 2.0 * TWO_PI for x in w):  # NaN fails: np.mod below raises
            w = [(x - TWO_PI if x >= TWO_PI else x + TWO_PI if x < 0.0 else x) - math.pi for x in w]
            return np.array([-math.pi if x == math.pi else x for x in w])
    w = np.asarray(a + math.pi)
    lo, hi = (np.minimum.reduce(w, axis=None), np.maximum.reduce(w, axis=None)) if w.size else (0.0, 0.0)
    if 0.0 <= lo and hi < TWO_PI:  # w is its own remainder
        pass
    elif -TWO_PI <= lo and hi < 2.0 * TWO_PI:
        np.subtract(w, TWO_PI, out=w, where=w >= TWO_PI)
        np.add(w, TWO_PI, out=w, where=w < 0.0)
    elif not np.all(np.isfinite(a)):
        raise ValueError("wrap_angle requires finite input")
    else:
        np.mod(w, TWO_PI, out=w)
    w -= math.pi
    w[w == math.pi] = -math.pi
    return float(w) if w.ndim == 0 else w


def _out(name: str):
    """A record field written to the outputs under name."""
    return field(metadata={"out": name})


def _outputs(record) -> list[tuple[str, object]]:
    """(written name, value) of each field of record that declares one,
    in field order."""
    return [
        (f.metadata["out"], getattr(record, f.name)) for f in fields(record) if "out" in f.metadata
    ]


def require_finite(record, names=None) -> None:
    """Raise a ValueError naming the first of the named fields (default:
    all) of the dataclass record, or element of a tuple field, that is
    not a finite number. A None field is absent and passes."""
    for name in names or [f.name for f in fields(record)]:
        value = getattr(record, name)
        items = enumerate(value) if isinstance(value, tuple) else [(None, value)]
        for i, x in items:
            if x is not None and not math.isfinite(x):
                label = name if i is None else f"{name}[{i}]"
                raise ValueError(f"{label} must be finite, got {x}")


def is_multiple(value: float, unit: float) -> bool:
    """Whether value is a whole number of units, to 1e-9 of a unit."""
    ratio = value / unit
    return math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9


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
        if not math.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if isinstance(self.n, bool) or not isinstance(self.n, Integral) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")

    @property
    def t_end(self) -> float:
        return self.t0 + (self.n - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    @staticmethod
    def from_span(t0: float, span: float, dt: float) -> "TimeGrid":
        """Grid over [t0, t0 + span]; span must be an integer multiple of dt."""
        if not is_multiple(span, dt):
            raise ValueError(f"span {span} is not an integer multiple of dt {dt}")
        return TimeGrid(t0, dt, round(span / dt) + 1)


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
        # the first point past the end, if any: rows from there on hold
        past = min(n, max(0, -((start - self.grid.n) // step)))
        rows = start + step * np.arange(n)
        rows[past:] = self.grid.n - 1
        channels = (self.sog, self.rot, self.course, self.sog_acc, self.rot_acc)
        out = np.array(channels)[:, rows]
        out[[1, 3, 4], past:] = 0.0
        return out


def cumtrapz(y: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoidal integral along the last axis, starting at 0."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    out[..., 0] = 0.0
    step = np.add(y[..., 1:], y[..., :-1], out=out[..., 1:])
    step *= 0.5 * dt
    step.cumsum(axis=-1, out=step)
    return out
