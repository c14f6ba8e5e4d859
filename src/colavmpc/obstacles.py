"""Scripted obstacle motion and a synthetic noisy tracker.

Ground truth follows piecewise constant-velocity scripts. Estimates
emulate a radar tracking pipeline: delayed by a latency, refreshed on
a fixed period, and perturbed by independent Gaussian noise per field.
Predictions extrapolate an estimate at constant speed and course.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import TimeGrid, require_finite, wrap_angle
from .objective import ObstaclePrediction


@dataclass(frozen=True)
class ScriptEvent:
    """Timed change of course and/or speed."""

    t: float
    sog: float | None = None
    course: float | None = None

    def __post_init__(self):
        require_finite(self)


@dataclass(frozen=True)
class ObstacleScript:
    id: str
    north: float
    east: float
    sog: float
    course: float
    events: tuple[ScriptEvent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        require_finite(self, ("north", "east", "sog", "course"))
        # the id names the obstacle's trajectory.csv columns
        if any(c in self.id for c in ",\r\n"):
            raise ValueError(f"id must not contain a comma, CR or LF, got {self.id!r}")
        if self.sog < 0.0:
            raise ValueError("sog must be >= 0")
        for i, ev in enumerate(self.events):
            if ev.sog is not None and ev.sog < 0.0:
                raise ValueError(f"events[{i}].sog must be >= 0, got {ev.sog}")
        ts = [ev.t for ev in self.events]
        if any(t < 0 for t in ts) or ts != sorted(ts):
            raise ValueError("events must be sorted with t >= 0")


@dataclass(frozen=True)
class EstimateNoise:
    pos_std: float = 0.0
    sog_std: float = 0.0
    course_std: float = 0.0
    latency: float = 0.0
    period: float = 2.5

    def __post_init__(self):
        require_finite(self)
        if min(self.pos_std, self.sog_std, self.course_std, self.latency) < 0.0:
            raise ValueError("noise parameters must be >= 0")
        if self.period <= 0.0:
            raise ValueError("update period must be > 0")


NOISE_PRESETS = {
    "radar": EstimateNoise(
        pos_std=10.0, sog_std=0.3, course_std=math.radians(15.0), latency=2.5, period=2.5
    ),
    "ais": EstimateNoise(period=10.0),
    "none": EstimateNoise(period=2.5),
}


@dataclass(frozen=True)
class ObstacleEstimate:
    id: str
    north: float
    east: float
    sog: float
    course: float
    timestamp: float


def _segments(script: ObstacleScript):
    """Each constant-velocity segment (t0, t1, north, east, v_north, v_east,
    sog, course) of the script: it holds on [t0, t1) from (north, east)."""
    t0, north, east, sog, course = 0.0, script.north, script.east, script.sog, script.course
    for ev in (*script.events, None):
        t1 = math.inf if ev is None else ev.t
        v_north, v_east = sog * math.cos(course), sog * math.sin(course)
        yield t0, t1, north, east, v_north, v_east, sog, course
        if ev is not None:
            north, east = north + v_north * (t1 - t0), east + v_east * (t1 - t0)
            t0 = t1
            sog = sog if ev.sog is None else ev.sog
            course = course if ev.course is None else ev.course


def ground_truth(script: ObstacleScript, t):
    """True (north, east, sog, course) at time t >= 0.

    t is a float, which gives four floats, or an array whose shape the
    four results then take. An event applies from its own time on. A NaN
    time lies in no segment and gives NaN.
    """
    times = np.asarray(t, dtype=float)
    if (times < 0.0).any():
        raise ValueError("t must be >= 0")
    out = np.full((4,) + times.shape, math.nan)
    for t0, t1, north, east, v_north, v_east, sog, course in _segments(script):
        at = (times >= t0) & (times < t1)
        dt = times[at] - t0
        out[0, at] = north + v_north * dt
        out[1, at] = east + v_east * dt
        out[2, at] = sog
        out[3, at] = wrap_angle(course)
    return tuple(out.tolist() if times.ndim == 0 else out)


def observe(
    script: ObstacleScript, noise: EstimateNoise, t: float, rng: np.random.Generator
) -> ObstacleEstimate:
    """Noisy estimate of the script at time t.

    The underlying truth is sampled one latency in the past (clamped at
    the scenario start); position, speed and course get independent
    zero-mean Gaussian perturbations. Deterministic for a given rng
    state.
    """
    t_data = max(t - noise.latency, 0.0)
    north, east, sog, course = ground_truth(script, t_data)
    north += noise.pos_std * rng.standard_normal()
    east += noise.pos_std * rng.standard_normal()
    sog = max(sog + noise.sog_std * rng.standard_normal(), 0.0)
    course = wrap_angle(course + noise.course_std * rng.standard_normal())
    return ObstacleEstimate(
        id=script.id, north=north, east=east, sog=sog, course=course, timestamp=t_data
    )


def predict_obstacle(est: ObstacleEstimate, grid: TimeGrid) -> ObstaclePrediction:
    """Constant-velocity extrapolation of an estimate onto a grid."""
    if grid.t0 < est.timestamp - 1e-9:
        raise ValueError("prediction grid starts before the estimate timestamp")
    dt_rel = grid.times() - est.timestamp
    return ObstaclePrediction(
        grid=grid,
        north=est.north + est.sog * math.cos(est.course) * dt_rel,
        east=est.east + est.sog * math.sin(est.course) * dt_rel,
        course=est.course,
    )
