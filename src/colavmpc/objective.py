"""Trajectory scoring: alignment, obstacle avoidance, transitional cost.

Obstacle penalties live on nested collision/safety/margin regions.
Regions are either circles or a COLREGs-aware shape stitched from
three ellipses and a circle, larger ahead of the obstacle and extended
on its starboard side. The penalty takes the OWNSHIP's offset in the
obstacle's frame: x ahead of the obstacle and y to its starboard. The
relative bearing of the region radii is 0 dead ahead of the obstacle
and +pi/2 on its starboard beam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TimeGrid, VelocityTrajectory, wrap_angle
from .guidance import DesiredTrajectory
from .tree import CandidateSet

TRAN_TOL = 1e-6


@dataclass(frozen=True)
class PenaltyGeometry:
    """Collision (k=0), safety (k=1) and margin (k=2) region parameters.

    circular: radii[k] are plain radii. elliptical_colregs: a[k]/b[k]
    are the fore major and aft/port minor axes; the starboard minor
    axis is b[k] + d_colregs. gamma1 sets the penalty level at the
    safety boundary.
    """

    kind: str
    gamma1: float
    radii: tuple[float, float, float] | None = None
    a: tuple[float, float, float] | None = None
    b: tuple[float, float, float] | None = None
    d_colregs: float | None = None

    def __post_init__(self):
        for name in ("gamma1", "radii", "a", "b", "d_colregs"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 < self.gamma1 < 1.0:
            raise ValueError("gamma1 must be in (0, 1)")
        if self.kind == "circular":
            if self.radii is None:
                raise ValueError("circular geometry needs radii")
            d0, d1, d2 = self.radii
            if not 0.0 < d0 < d1 < d2:
                raise ValueError("radii must satisfy 0 < D0 < D1 < D2")
        elif self.kind == "elliptical_colregs":
            if self.a is None or self.b is None or self.d_colregs is None:
                raise ValueError("elliptical geometry needs a, b and d_colregs")
            if self.d_colregs <= 0.0:
                raise ValueError("d_colregs must be > 0")
            for k in range(3):
                if not 0.0 < self.b[k] < self.a[k]:
                    raise ValueError("each region needs 0 < b_k < a_k")
            if not (self.a[0] < self.a[1] < self.a[2] and self.b[0] < self.b[1] < self.b[2]):
                raise ValueError("regions must be strictly nested")
        else:
            raise ValueError(f"unknown penalty kind {self.kind!r}")

    @property
    def reach(self) -> float:
        """Distance at and beyond which the penalty is exactly 0: the
        margin region's longest semi-axis, widened by 1e-12 relative, as
        the region test can round a few ulps past it, where the penalty
        is still (barely) above 0."""
        return max(self.semi_axes(2)) * (1.0 + 1e-12)

    def semi_axes(self, k: int) -> tuple[float, float, float, float]:
        """Fore, aft, starboard and port semi-axes of region k in the
        obstacle's frame; the aft-port quarter is the circle of radius b[k]."""
        if self.kind == "circular":
            return (self.radii[k],) * 4
        a, b = self.a[k], self.b[k]
        return a, b, b + self.d_colregs, b

    @staticmethod
    def circular(radii, gamma1: float) -> "PenaltyGeometry":
        return PenaltyGeometry(kind="circular", gamma1=gamma1, radii=tuple(radii))

    @staticmethod
    def elliptical(a, b, d_colregs: float, gamma1: float) -> "PenaltyGeometry":
        return PenaltyGeometry(
            kind="elliptical_colregs", gamma1=gamma1, a=tuple(a), b=tuple(b), d_colregs=d_colregs
        )


@dataclass(frozen=True)
class ObjectiveWeights:
    w_align: float
    w_avoid: float
    w_tran: float
    w_course: float

    def __post_init__(self):
        if min(self.w_align, self.w_avoid, self.w_tran) < 0.0:
            raise ValueError("term weights must be >= 0")
        if self.w_course <= 0.0:
            raise ValueError("w_course must be > 0")


@dataclass(frozen=True)
class ObstaclePrediction:
    """Constant-velocity obstacle track on a grid; every value finite."""

    grid: TimeGrid
    north: np.ndarray
    east: np.ndarray
    course: float

    def __post_init__(self):
        if not math.isfinite(self.course):
            raise ValueError(f"course must be finite, got {self.course}")
        for name in ("north", "east"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.grid.n,):
                raise ValueError(f"{name} must have length grid.n")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)


def _ellipse_radius(a, b, cos_b, sin_b):
    """Polar radius of an axis-aligned ellipse (major a along beta=0)."""
    return a * b / np.sqrt((b * cos_b) ** 2 + (a * sin_b) ** 2)


def _sectors(beta):
    """Masks fore (-pi/2 <= beta < pi/2), starboard (beta >= 0), aft-port (beta < -pi/2)."""
    return (beta >= -np.pi / 2) & (beta < np.pi / 2), beta >= 0.0, beta < -np.pi / 2


def _sector_radius(geom: PenaltyGeometry, k: int, sectors, cos_b, sin_b):
    """Elliptical region k's boundary, one ellipse per point: major axis
    a fore and b aft, minor axis b + d_colregs to starboard and b to
    port; aft-port, the circle of radius b."""
    fore, starboard, aft_port = sectors
    a, b = geom.a[k], geom.b[k]
    major = np.where(fore, a, b)
    minor = np.where(starboard, b + geom.d_colregs, b)
    return np.where(aft_port, b, _ellipse_radius(major, minor, cos_b, sin_b))


def region_radius(geom: PenaltyGeometry, k: int, beta):
    """Region boundary distance at relative bearing beta; accepts arrays."""
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1 or 2")
    beta = np.asarray(beta, dtype=float)
    if geom.kind == "circular":
        out = np.full(beta.shape, geom.radii[k])
    else:
        out = _sector_radius(geom, k, _sectors(beta), np.cos(beta), np.sin(beta))
    return float(out) if out.ndim == 0 else out


def _quarter_sq(v, ahead, behind, out=None, tmp=None):
    """(v / semi-axis)^2 with `ahead` where v >= 0 and `behind` where v < 0:
    as ahead >= behind, that quotient is the smaller of the two."""
    out = np.multiply(v, 1.0 / ahead, out=out)
    np.minimum(out, np.multiply(v, 1.0 / behind, out=tmp), out=out)
    return np.square(out, out=out)


def _normalized_sq(x, y, axes):
    """(x/A)^2 + (y/B)^2 for obstacle-frame offsets, A and B the semi-axes of
    each point's quarter; below 1 exactly inside the region."""
    fore, aft, starboard, port = axes
    return _quarter_sq(x, fore, aft) + _quarter_sq(y, starboard, port)


def _ramp(q_in, q_out, at_in, at_out):
    """Linear in distance d from at_in on one region's boundary to at_out on
    the next one's, from q = (d/r)^2 of each: with s = d/r, the fraction
    (d - r_in) / (r_out - r_in) is s_out (s_in - 1) / (s_in - s_out)."""
    s_in, s_out = np.sqrt(q_in), np.sqrt(q_out)
    return at_in + (at_out - at_in) * (s_out * (s_in - 1.0) / (s_in - s_out))


def _inner_penalty(geom: PenaltyGeometry, x, y):
    """Extra cost inside the COLREGs collision region, at its points.

    The core boundary is the plain fore ellipse / aft circle of semi-axes
    a[0] and b[0], where the cost is 1. Beyond it on the starboard side it
    ramps down with the lateral distance y - y_boundary at fixed x.
    """
    a0, b0 = geom.a[0], geom.b[0]
    y_boundary = b0 * np.sqrt(np.maximum(1.0 - _quarter_sq(x, a0, b0), 0.0))
    return np.clip(1.0 - (y - y_boundary) / geom.d_colregs, 0.0, 1.0)


def penalty(geom: PenaltyGeometry, x, y):
    """Penalty at obstacle-frame offsets x (ahead) and y (to starboard); arrays ok.

    Region k's test and ramps use q_k = (x/A_k)^2 + (y/B_k)^2 = (d/r_k)^2,
    A_k the fore or aft semi-axis on x's side and B_k the starboard or port
    one on y's (`PenaltyGeometry.semi_axes`): no bearing, no trig. It is 1
    inside region 0 and ramps linearly in distance to gamma1 at region 1's
    boundary and to 0 at region 2's, so it is exactly 0 wherever d >=
    geom.reach. The elliptical shape adds the inner term inside region 0.
    Each region is tested only inside the next one out.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    x, y = (x, y) if x.shape == y.shape else np.broadcast_arrays(x, y)
    out = np.zeros(x.shape)
    x, y, flat = x.ravel(), y.ravel(), out.reshape(-1)
    q2 = _normalized_sq(x, y, geom.semi_axes(2))
    near = np.flatnonzero(q2 < 1.0)
    if near.size:
        if near.size < x.size:
            x, y, q2 = x[near], y[near], q2[near]
        q1 = _normalized_sq(x, y, geom.semi_axes(1))
        value = np.empty(near.size)
        band, inside = np.flatnonzero(q1 >= 1.0), np.flatnonzero(q1 < 1.0)
        value[band] = _ramp(q1[band], q2[band], geom.gamma1, 0.0)
        x, y, q1 = x[inside], y[inside], q1[inside]
        q0 = _normalized_sq(x, y, geom.semi_axes(0))
        inside_value = np.ones(inside.size)
        ring, core = np.flatnonzero(q0 >= 1.0), np.flatnonzero(q0 < 1.0)
        inside_value[ring] = _ramp(q0[ring], q1[ring], 1.0, geom.gamma1)
        if geom.kind == "elliptical_colregs":
            inside_value[core] += _inner_penalty(geom, x[core], y[core])
        value[inside] = inside_value
        flat[near] = value
    return float(out) if out.ndim == 0 else out


def relative_bearing(own_north, own_east, obs_north, obs_east, obs_course):
    """Bearing of the ownship seen from the obstacle, relative to its course."""
    return wrap_angle(
        np.arctan2(
            np.asarray(own_east) - np.asarray(obs_east),
            np.asarray(own_north) - np.asarray(obs_north),
        )
        - obs_course
    )


def _trapz(values: np.ndarray, dt: float):
    """np.trapezoid(values, dx=dt, axis=-1)'s own expression, without its wrapper."""
    return (dt * (values[..., 1:] + values[..., :-1]) / 2.0).sum(axis=-1)


@dataclass(frozen=True)
class CostTable:
    align: np.ndarray
    avoid: np.ndarray
    tran: np.ndarray
    total: np.ndarray
    selected: int


def select(
    candidates: CandidateSet,
    dtraj: DesiredTrajectory,
    obstacles: list[ObstaclePrediction],
    geom: PenaltyGeometry,
    weights: ObjectiveWeights,
    previous_first: VelocityTrajectory | None,
) -> CostTable:
    """Per-candidate cost breakdown and the index of the weighted minimum.

    Every term integrates on the candidates' evaluation grid, which must
    be the grid of every obstacle prediction and, over the first
    maneuver, of the previous reference. With no previous reference the
    transitional term is zero. Ties break toward the lowest index.
    """
    if not candidates:
        raise ValueError("empty candidate set")
    grid = candidates.grid
    times = grid.times()
    cand_n, cand_e, cand_chi = candidates.pred_north, candidates.pred_east, candidates.pred_course

    ref_n, ref_e = dtraj.position(times)
    ref_chi = dtraj.course(times)
    dist, err_e = cand_n - ref_n, cand_e - ref_e
    dist *= dist
    dist += np.square(err_e, out=err_e)
    align_err = np.sqrt(dist, out=dist)
    err_chi = np.abs(wrap_angle(cand_chi - ref_chi))
    err_chi *= weights.w_course
    align_err += err_chi
    align = _trapz(align_err, grid.dt)

    # The penalty is evaluated only inside the margin region, and is
    # exactly 0 elsewhere. The region is culled on the columns whose
    # candidate box comes within reach (widened by 1e-12 relative), by
    # penalty's own region test. Each kept value is summed into its
    # candidate's avoid with its trapezoid weight, dt and dt/2 on the
    # grid's first and last column.
    avoid = np.zeros(len(candidates))
    step = np.full(grid.n, grid.dt)
    step[[0, -1]] = grid.dt / 2.0
    lo_n, hi_n, lo_e, hi_e = cand_n.min(axis=0), cand_n.max(axis=0), cand_e.min(axis=0), cand_e.max(axis=0)
    fore, aft, starboard, port = geom.semi_axes(2)
    for obs in obstacles:
        if obs.grid != grid:
            raise ValueError(f"prediction grid {obs.grid} is not the evaluation grid {grid}")
        gap_n = np.maximum(np.maximum(lo_n - obs.north, obs.north - hi_n), 0.0)
        gap_e = np.maximum(np.maximum(lo_e - obs.east, obs.east - hi_e), 0.0)
        near = np.flatnonzero(np.hypot(gap_n, gap_e) < geom.reach * (1.0 + 1e-12))
        if not near.size:
            penalty(geom, np.zeros(0), np.zeros(0))
            continue
        cols = slice(near[0], near[-1] + 1)
        off_n, off_e = cand_n[:, cols] - obs.north[cols], cand_e[:, cols] - obs.east[cols]
        # In place on the window: x ahead and y to starboard of the obstacle,
        # then penalty's margin test, (x/A)^2 + (y/B)^2 < 1, with its operations.
        cos_c, sin_c = math.cos(obs.course), math.sin(obs.course)
        x, y, tmp = off_n * cos_c, off_e * cos_c, off_e * sin_c
        x += tmp
        y -= np.multiply(off_n, sin_c, out=tmp)
        q = _quarter_sq(x, fore, aft, out=off_n, tmp=off_e)
        q += _quarter_sq(y, starboard, port, out=tmp, tmp=off_e)
        kept = np.flatnonzero(q < 1.0)
        values = penalty(geom, x.ravel()[kept], y.ravel()[kept])
        if kept.size:
            rows, col = np.divmod(kept, x.shape[1])
            avoid += np.bincount(rows, values * step[cols][col], minlength=len(candidates))

    if previous_first is None:
        tran = np.zeros(len(candidates))
    else:
        prev, fgrid = previous_first, candidates.first_grid
        if prev.grid != fgrid:
            raise ValueError(f"previous grid {prev.grid} is not the first maneuver's {fgrid}")
        dev_sog = _trapz(np.abs(candidates.first_sog - prev.sog), fgrid.dt)
        dev_chi = _trapz(np.abs(wrap_angle(candidates.first_course - prev.course)), fgrid.dt)
        keep = (dev_sog <= dev_sog.min() + TRAN_TOL) & (dev_chi <= dev_chi.min() + TRAN_TOL)
        tran = np.where(keep, 0.0, 1.0)
    total = weights.w_align * align + weights.w_avoid * avoid + weights.w_tran * tran
    return CostTable(align=align, avoid=avoid, tran=tran, total=total, selected=int(total.argmin()))


def penalty_field(
    geom: PenaltyGeometry, obstacle_course: float, half_extent: float, cell: float
):
    """Rasterized penalty around an obstacle at the origin.

    Returns (x, y, value) flat arrays: x north offset, y east offset.
    """
    axis = np.arange(-half_extent, half_extent + cell / 2, cell)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    cos_c, sin_c = math.cos(obstacle_course), math.sin(obstacle_course)
    value = penalty(geom, x * cos_c + y * sin_c, y * cos_c - x * sin_c)
    return x.ravel(), y.ravel(), value.ravel()
