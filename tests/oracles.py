"""Independent one-candidate-at-a-time references for the stacked planner.

The library grows and scores all candidates of a tree as stacked
arrays. These scalar versions do the same job for one candidate at a
time, with plain loops and one trajectory per call, and are what the
tests compare the stacked results against. `resample` reads a
trajectory at any times inside its span by linear interpolation, where
the library reads only grid points (`VelocityTrajectory.window`).
`py_region`/`py_penalty` are the penalty geometry in plain `math`
arithmetic, one point at a time.
"""

import math

import numpy as np

from colavmpc.core import TimeGrid, VelocityTrajectory, cumtrapz, wrap_angle
from colavmpc.objective import TRAN_TOL, penalty, relative_bearing
from colavmpc.primitives import course_profile_unit, sog_profile_unit, terminal_sog_feasible


def _trapz(values, dt):
    return np.trapezoid(values, dx=dt, axis=-1)


def align_cost(grid: TimeGrid, north, east, course, dtraj, w_course) -> float:
    """Time integral of weighted position and course error vs the reference."""
    times = grid.times()
    ref_n, ref_e = dtraj.position(times)
    ref_course = dtraj.course(times)
    err_pos = np.hypot(north - ref_n, east - ref_e)
    err_course = np.abs(wrap_angle(course - ref_course))
    return float(_trapz(err_pos + w_course * err_course, grid.dt))


def avoid_cost(grid: TimeGrid, north, east, obstacles, geom) -> float:
    """Penalty integral summed over obstacles along one predicted path;
    every obstacle is predicted on the path's grid."""
    total = 0.0
    for obs in obstacles:
        assert obs.grid == grid
        d = np.hypot(north - obs.north, east - obs.east)
        beta = relative_bearing(north, east, obs.north, obs.east, obs.course)
        total += float(_trapz(penalty(geom, d, beta), grid.dt))
    return total


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


def tran_deviation(first: VelocityTrajectory, previous_first: VelocityTrajectory) -> tuple[float, float]:
    """Integrated |SOG| and |course| deviation from the previous reference."""
    prev = previous_first
    if (prev.grid.t0, prev.grid.dt, prev.grid.n) != (first.grid.t0, first.grid.dt, first.grid.n):
        prev = resample(previous_first, first.grid)
    dt = first.grid.dt
    e_sog = float(_trapz(np.abs(first.sog - prev.sog), dt))
    e_course = float(_trapz(np.abs(wrap_angle(first.course - prev.course)), dt))
    return e_sog, e_course


def tran_cost(firsts: list[VelocityTrajectory], previous_first: VelocityTrajectory) -> np.ndarray:
    """0 for the candidates closest (in both channels) to the previous
    first maneuver, 1 for every other one."""
    devs = np.array([tran_deviation(f, previous_first) for f in firsts])
    e_min = devs.min(axis=0)
    keep = (devs[:, 0] <= e_min[0] + TRAN_TOL) & (devs[:, 1] <= e_min[1] + TRAN_TOL)
    return np.where(keep, 0.0, 1.0)


def integrate_primitives(model, sog_accs, rot_accs, initial, p, grid: TimeGrid) -> list[VelocityTrajectory]:
    """Cross product of SOG and course primitives as velocity trajectories.

    Channels integrate from (sog0, course0) at zero ROT; SOG samples
    whose terminal steady state the actuators cannot hold are dropped.
    """
    sog0, course0 = initial
    t_rel = grid.times() - grid.t0
    unit_s = sog_profile_unit(t_rel, p)
    unit_c = course_profile_unit(t_rel, p)
    cum_s = cumtrapz(unit_s, grid.dt)
    cum_c = cumtrapz(unit_c, grid.dt)
    cum2_c = cumtrapz(cum_c, grid.dt)
    feasible = terminal_sog_feasible(model, sog0 + np.asarray(sog_accs) * cum_s[-1])
    out = []
    for a_u, ok in zip(sog_accs, feasible):
        if not ok:
            continue
        for a_r in rot_accs:
            out.append(
                VelocityTrajectory(
                    grid=grid,
                    sog=sog0 + a_u * cum_s,
                    rot=a_r * cum_c,
                    course=course0 + a_r * cum2_c,
                    sog_acc=a_u * unit_s,
                    rot_acc=a_r * unit_c,
                )
            )
    return out


def py_region(geom, k, b):
    """Boundary distance of region k at relative bearing b; geom is a dict
    with the PenaltyGeometry fields (kind, gamma1, radii or a, b, d_colregs)."""
    if geom["kind"] == "circular":
        return geom["radii"][k]
    a_k = geom["a"][k]
    b_k = geom["b"][k]
    c_k = b_k + geom["d_colregs"]
    def ell(a, bb):
        return a * bb / math.sqrt((bb * math.cos(b)) ** 2 + (a * math.sin(b)) ** 2)
    if b < -math.pi / 2:
        return b_k
    if b < 0.0:
        return ell(a_k, b_k)
    if b < math.pi / 2:
        return ell(a_k, c_k)
    return ell(b_k, c_k)


def py_penalty(geom, d, b):
    """Penalty at distance d and relative bearing b, outer ramp plus the
    elliptical geometry's inner core term."""
    g1 = geom["gamma1"]
    d0, d1, d2 = (py_region(geom, k, b) for k in range(3))
    if d < d0:
        outer = 1.0
    elif d < d1:
        outer = 1.0 + (g1 - 1.0) / (d1 - d0) * (d - d0)
    elif d < d2:
        outer = g1 - g1 / (d2 - d1) * (d - d1)
    else:
        outer = 0.0
    if geom["kind"] == "circular":
        return outer
    a0, b0 = geom["a"][0], geom["b"][0]
    if abs(b) < math.pi / 2:
        d0_star = a0 * b0 / math.sqrt((b0 * math.cos(b)) ** 2 + (a0 * math.sin(b)) ** 2)
    else:
        d0_star = b0
    if d < d0_star:
        inner = 1.0
    elif d < d0:
        x = d * math.cos(b)
        y = d * math.sin(b)
        if x >= 0.0:
            y_bnd = b0 * math.sqrt(max(1.0 - (min(x, a0) / a0) ** 2, 0.0))
        else:
            y_bnd = math.sqrt(max(b0 * b0 - x * x, 0.0))
        inner = min(max(1.0 - max(y - y_bnd, 0.0) / geom["d_colregs"], 0.0), 1.0)
    else:
        inner = 0.0
    return outer + inner
