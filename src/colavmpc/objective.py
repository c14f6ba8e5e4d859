"""Trajectory scoring: alignment, obstacle avoidance, transitional cost.

Obstacle penalties live on nested collision/safety/margin regions.
Regions are either circles or a COLREGs-aware shape stitched from
three ellipses and a circle, larger ahead of the obstacle and extended
on its starboard side. The relative bearing used throughout locates
the OWNSHIP in the obstacle's frame: 0 dead ahead of the obstacle,
+pi/2 on its starboard beam.
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
        """Distance at and beyond which the penalty is exactly 0.

        For the elliptical shape this is the longest semi-axis of the
        margin region, widened by 1e-12 relative: near that axis's
        bearing the computed boundary radius can round a few ulps past
        it, where the penalty is still (barely) above 0.
        """
        if self.kind == "circular":
            return self.radii[2]
        return max(self.a[2], self.b[2] + self.d_colregs) * (1.0 + 1e-12)

    @property
    def margin_axes(self) -> tuple[float, float, float, float]:
        """Fore, aft, starboard and port semi-axes of the margin region in the
        obstacle's frame, widened by 1e-9 relative against rounding."""
        if self.kind == "circular":
            return (self.radii[2] * (1.0 + 1e-9),) * 4
        a, b = self.a[2], self.b[2]
        return tuple(r * (1.0 + 1e-9) for r in (a, b, b + self.d_colregs, b))

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


def _outer_penalty(d, d0, d1, d2, gamma1):
    """1 inside d0, linear ramps to gamma1 at d1 and to 0 at d2; each only on its points."""
    d, d0, d1, d2 = np.broadcast_arrays(d, d0, d1, d2)
    out = np.zeros(d.shape)
    core, inside1 = d < d0, d < d1
    out[core] = 1.0
    on = inside1 & ~core
    out[on] = 1.0 + (gamma1 - 1.0) / (d1[on] - d0[on]) * (d[on] - d0[on])
    on = (d < d2) & ~inside1 & ~core
    out[on] = gamma1 - gamma1 / (d2[on] - d1[on]) * (d[on] - d1[on])
    return out


def _inner_penalty(geom: PenaltyGeometry, d, beta, cos_b, sin_b, d0):
    """Extra cost inside the COLREGs collision region.

    The core boundary D0* is the plain fore ellipse / aft circle; the
    cost ramps down with the obstacle-frame lateral distance from that
    boundary, measured along the body y-axis at fixed body x.
    """
    a0, b0 = geom.a[0], geom.b[0]
    d0_star = np.where(np.abs(beta) < np.pi / 2, _ellipse_radius(a0, b0, cos_b, sin_b), b0)
    x_body = d * cos_b
    y_body = d * sin_b
    y_boundary = np.where(
        x_body >= 0.0,
        b0 * np.sqrt(np.clip(1.0 - (np.minimum(x_body, a0) / a0) ** 2, 0.0, None)),
        np.sqrt(np.clip(b0**2 - x_body**2, 0.0, None)),
    )
    y_off = np.maximum(y_body - y_boundary, 0.0)
    ramp = np.clip(1.0 - y_off / geom.d_colregs, 0.0, 1.0)
    return np.select([d < d0_star, d < d0], [np.ones_like(d), ramp], 0.0)


def penalty(geom: PenaltyGeometry, d, beta):
    """Penalty value at distance d and relative bearing beta; arrays ok.

    It is exactly 0 wherever d >= geom.reach. For the elliptical shape
    the sectors and margin radius are computed at every point, the
    safety and collision radii only inside the margin region and the
    inner term only inside the collision region; one formula per point.
    """
    d, beta = np.asarray(d, dtype=float), np.asarray(beta, dtype=float)
    d, beta = (d, beta) if d.shape == beta.shape else np.broadcast_arrays(d, beta)
    if (d < 0.0).any():
        raise ValueError("distance must be >= 0")
    if geom.kind == "circular":
        out = _outer_penalty(d, *geom.radii, geom.gamma1)
    elif d.size == 0:
        out = np.zeros(d.shape)
    else:
        cos_b, sin_b, sectors = np.cos(beta), np.sin(beta), _sectors(beta)
        d2 = _sector_radius(geom, 2, sectors, cos_b, sin_b)
        out = np.zeros(d.shape)
        near = d < d2
        d, beta, cos_b, sin_b = d[near], beta[near], cos_b[near], sin_b[near]
        sectors = tuple(mask[near] for mask in sectors)
        d0, d1 = (_sector_radius(geom, k, sectors, cos_b, sin_b) for k in range(2))
        outer = _outer_penalty(d, d0, d1, d2[near], geom.gamma1)
        core = d < d0
        outer[core] += _inner_penalty(
            geom, d[core], beta[core], cos_b[core], sin_b[core], d0[core]
        )
        out[near] = outer
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
    align_err = np.hypot(cand_n - ref_n, cand_e - ref_e) + (
        weights.w_course * np.abs(wrap_angle(cand_chi - ref_chi))
    )
    align = _trapz(align_err, grid.dt)

    # The penalty is evaluated only where d < reach inside the margin
    # region, and is exactly 0 elsewhere. The region is culled on the
    # columns whose candidate box comes within reach (widened by 1e-12
    # relative); the full-grid integral keeps the dense summation order.
    avoid = np.zeros(len(candidates))
    lo_n, hi_n, lo_e, hi_e = cand_n.min(axis=0), cand_n.max(axis=0), cand_e.min(axis=0), cand_e.max(axis=0)
    fore, aft, starboard, port = geom.margin_axes
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
        # each over its quarter's semi-axis (the smaller quotient, as fore >= aft
        # and starboard >= port), summed as squares: below 1 inside the region.
        cos_c, sin_c = math.cos(obs.course), math.sin(obs.course)
        x, y, tmp = off_n * cos_c, off_e * cos_c, off_e * sin_c
        x += tmp
        y -= np.multiply(off_n, sin_c, out=tmp)
        for v, ahead, behind in ((x, fore, aft), (y, starboard, port)):
            np.multiply(v, 1.0 / behind, out=tmp)
            v *= 1.0 / ahead
            np.minimum(v, tmp, out=v)
            np.square(v, out=v)
        x += y
        inside = x < 1.0
        kept = np.flatnonzero(inside)
        off_n, off_e = off_n.ravel()[kept], off_e.ravel()[kept]
        d = np.hypot(off_n, off_e)
        in_reach = d < geom.reach
        beta = relative_bearing(off_n[in_reach], off_e[in_reach], 0.0, 0.0, obs.course)
        values = np.zeros(kept.size)
        values[in_reach] = penalty(geom, d[in_reach], beta)
        if kept.size:
            dense = np.zeros(cand_n.shape)
            dense[:, cols][inside] = values
            avoid += _trapz(dense, grid.dt)

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
    d = np.hypot(x, y)
    beta = relative_bearing(x, y, 0.0, 0.0, obstacle_course)
    value = penalty(geom, d, beta)
    return x.ravel(), y.ravel(), value.ravel()
