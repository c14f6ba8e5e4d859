"""Independent one-candidate-at-a-time references for the stacked planner.

The library grows and scores all candidates of a tree as stacked
arrays. These scalar versions do the same job for one candidate at a
time, with plain loops and one trajectory per call, and are what the
tests compare the stacked results against. `resample` reads a
trajectory at any times inside its span by linear interpolation, where
the library reads only grid points (`VelocityTrajectory.window`).
`py_region`/`py_penalty` are the penalty geometry in plain `math`
arithmetic, one point at a time, from distance and relative bearing.
`dense_penalty` is the same geometry on arrays: every region radius
from the bearing and every penalty formula at every point, picked per
point with `np.where` and `np.select`. The library's `penalty` takes
obstacle-frame offsets and no bearing, and must agree with both to
rounding; `penalty_at` calls it at a distance and bearing. `mod_wrap`
wraps angles with `np.mod` alone: the library skips `np.mod` where
adding or subtracting 2*pi once is exact, and must give the same bits.
`full_resolution_tree` grows the tree with the prediction integrated on
the integration grid and then thinned to the evaluation grid, where the
library integrates it on the evaluation grid directly.
"""

import math

import numpy as np

from colavmpc.core import TWO_PI, TimeGrid, VelocityTrajectory, cumtrapz, wrap_angle
from colavmpc.objective import (
    TRAN_TOL,
    PenaltyGeometry,
    _ellipse_radius,
    penalty,
    relative_bearing,
)
from colavmpc.primitives import (
    course_profile_unit,
    possible_accelerations,
    sample_accelerations,
    sog_profile_unit,
    terminal_sog_feasible,
)
from colavmpc.tree import CandidateSet, Level


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


def avoid_cost(grid: TimeGrid, north, east, obstacles, geom, scale=1.0) -> float:
    """Penalty integral summed over obstacles along one predicted path, at
    distances multiplied by `scale`; every obstacle is predicted on the
    path's grid."""
    total = 0.0
    for obs in obstacles:
        assert obs.grid == grid
        d = np.hypot(north - obs.north, east - obs.east) * scale
        beta = relative_bearing(north, east, obs.north, obs.east, obs.course)
        total += float(_trapz(dense_penalty(geom, d, beta), grid.dt))
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


def mod_wrap(a) -> np.ndarray:
    """Angles mapped to [-pi, pi) by np.mod of a + pi, with a result of
    +pi (the remainder rounded up to 2*pi) mapped to -pi."""
    wrapped = np.mod(np.asarray(a, dtype=float) + math.pi, TWO_PI) - math.pi
    return np.where(wrapped == math.pi, -math.pi, wrapped)


def dense_sector_radius(geom, k, beta, cos_b, sin_b):
    """Elliptical region k's boundary at every point, each sector's
    ellipse picked per point with np.where."""
    a, b = geom.a[k], geom.b[k]
    fore = (beta >= -np.pi / 2) & (beta < np.pi / 2)
    major = np.where(fore, a, b)
    minor = np.where(beta >= 0.0, b + geom.d_colregs, b)
    return np.where(beta < -np.pi / 2, b, _ellipse_radius(major, minor, cos_b, sin_b))


def dense_outer_penalty(d, d0, d1, d2, gamma1):
    """Both linear ramps evaluated at every point, picked per point."""
    return np.select(
        [d < d0, d < d1, d < d2],
        [
            np.ones_like(d),
            1.0 + (gamma1 - 1.0) / (d1 - d0) * (d - d0),
            gamma1 - gamma1 / (d2 - d1) * (d - d1),
        ],
        0.0,
    )


def dense_inner_penalty(geom, d, beta, cos_b, sin_b, d0):
    """Extra cost inside the COLREGs collision region at every point.

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


def dense_penalty(geom, d, beta):
    """Penalty with every region radius and both terms evaluated at
    every point, then selected per point."""
    d = np.asarray(d, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if geom.kind == "circular":
        d0, d1, d2 = geom.radii
        out = dense_outer_penalty(d, d0, d1, d2, geom.gamma1)
    else:
        cos_b, sin_b = np.cos(beta), np.sin(beta)
        d0, d1, d2 = (dense_sector_radius(geom, k, beta, cos_b, sin_b) for k in range(3))
        out = dense_outer_penalty(d, d0, d1, d2, geom.gamma1) + dense_inner_penalty(
            geom, d, beta, cos_b, sin_b, d0
        )
    return float(out) if out.ndim == 0 else out


def penalty_at(geom, d, beta):
    """The library's penalty at distance d and relative bearing beta: the
    obstacle-frame offsets d cos(beta) ahead and d sin(beta) to starboard."""
    d, beta = np.asarray(d, dtype=float), np.asarray(beta, dtype=float)
    return penalty(geom, d * np.cos(beta), d * np.sin(beta))


def outer_penalty_at(d, d0, d1, d2, gamma1):
    """The library's outer ramps at distance d between region radii d0, d1
    and d2, element by element: the penalty of the circular geometry with
    those radii, which has no inner term."""
    args = np.broadcast_arrays(d, d0, d1, d2)
    return np.reshape([
        penalty(PenaltyGeometry.circular(radii, gamma1), di, 0.0) for di, *radii in zip(*(a.ravel() for a in args))
    ], args[0].shape)


def full_resolution_tree(params, model, state, t, desired_vel0, tau0, guidance_hook, dt, eval_dt) -> CandidateSet:
    """tree.generate_tree with every edge's prediction (sog, course, the
    cos/sin velocity and its integral) computed at every dt point and
    only then thinned to every stride-th point; same arguments."""
    stride = int(round(eval_dt / dt))
    levels, t_level = [], t
    for level_idx, step_time in enumerate(params.step_times):
        levels.append(Level.build(params, level_idx, t_level, dt, 1))
        t_level += step_time
    grid = TimeGrid(t, eval_dt, sum((lv.grid.n - 1) // stride for lv in levels) + 1)
    desired0 = (float(desired_vel0[0]), float(desired_vel0[1]))
    u_d, chi_d = np.array([desired0[0]]), np.array([desired0[1]])
    north0, east0, course0, sog0, rot0 = state
    u_bar, chi_bar = np.array([float(sog0)]), np.array([float(course0)])
    position = np.array([[float(north0)], [float(east0)]])
    parents, kept = [], []
    for level_idx, level in enumerate(levels):
        node_sog = np.maximum(u_bar, 0.0)
        if level_idx == 0:
            node_rot, node_tau = float(rot0), tau0
        else:
            node_rot = 0.0
            node_tau = model.saturate(np.array(model.damping(node_sog, 0.0)).T)
        desired_acc = None if guidance_hook is None else guidance_hook(
            level.grid.t0, *position, chi_bar, (u_d, chi_d)
        )
        sog_samples, rot_samples = sample_accelerations(
            possible_accelerations(model, node_sog, node_rot, node_tau, params.t_ramp),
            level.n_sog, level.n_course, desired_acc,
        )
        feasible = terminal_sog_feasible(model, u_d[:, None] + sog_samples * level.cum_s[-1])
        node, i_sog, i_rot = np.nonzero(feasible[:, :, None].repeat(level.n_course, axis=2))
        a_u = sog_samples[node, i_sog]
        a_r = rot_samples[node, i_rot]
        sog, course = level.reference(u_d[node, None], chi_d[node, None], a_u[:, None], a_r[:, None])
        sog_bar = (u_bar - u_d)[node, None] * level.decay_s + sog
        course_bar = wrap_angle(chi_bar - chi_d)[node, None] * level.decay_c + course
        track = cumtrapz(np.array([sog_bar * np.cos(course_bar), sog_bar * np.sin(course_bar)]), dt)
        track += position[:, node, None]
        if level_idx == 0:
            first_sog, first_course = sog[:, ::stride], course[:, ::stride]
        parents.append(node)
        kept.append((i_sog, i_rot, a_u, a_r, track[..., ::stride], course_bar[:, ::stride]))
        u_d, chi_d = sog[:, -1], course[:, -1]
        u_bar, chi_bar = sog_bar[:, -1], course_bar[:, -1]
        position = track[..., -1]
    ancestors = [np.arange(len(parents[-1]))]
    for parent in parents[:0:-1]:
        ancestors.insert(0, parent[ancestors[0]])
    # the leaf rows level by level; at a shared boundary the later level wins
    pred = np.empty((3, len(ancestors[0]), grid.n))
    sample_path = np.empty((len(ancestors[0]), len(levels), 2), dtype=np.intp)
    accelerations = np.empty(sample_path.shape)
    col = 0
    for k, (rows, (i_sog, i_rot, a_u, a_r, track, course_k)) in enumerate(zip(ancestors, kept)):
        cols = slice(col, col + course_k.shape[1])
        pred[:2, :, cols] = track[:, rows]
        pred[2, :, cols] = course_k[rows]
        col = cols.stop - 1
        sample_path[:, k, 0], sample_path[:, k, 1] = i_sog[rows], i_rot[rows]
        accelerations[:, k, 0], accelerations[:, k, 1] = a_u[rows], a_r[rows]
    return CandidateSet(
        grid, pred[0], pred[1], pred[2], first_sog[ancestors[0]], first_course[ancestors[0]],
        sample_path, accelerations, tuple(levels), desired0,
    )
