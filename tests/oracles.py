"""Independent one-candidate-at-a-time references for the stacked planner.

The library grows and scores all candidates of a tree as stacked
arrays. These scalar versions do the same job for one candidate at a
time, with plain loops and one trajectory per call, and are what the
tests compare the stacked results against. `resample` reads a
trajectory at any times inside its span by linear interpolation, where
the library reads only grid points (`VelocityTrajectory.window`).
The bearing forms live only here: `relative_bearing`, and
`region_radius`, a region's boundary at a relative bearing.
`py_region`/`py_penalty` are the penalty geometry in plain `math`
arithmetic, one point at a time, from distance and relative bearing.
`dense_penalty` is the same geometry on arrays: every region radius
from the bearing and every penalty formula at every point, picked per
point with `np.where` and `np.select`. The library's `penalty` takes
obstacle-frame offsets and no bearing, and must agree with both to
rounding; `penalty_at` calls it at a distance and bearing. `mod_wrap`
wraps angles with `np.mod` alone: the library skips `np.mod` where
adding or subtracting 2*pi once is exact, and must give the same bits.
`possible_accelerations` and `sample_accelerations` are the node stage's
generic array form, at any ROT and any shared or per-node actuator
input, where the library keeps one form for nodes at rest
(`primitives.level_samples`) and one for a single node in plain floats
(`primitives.node_samples`); both must give its bits.
`full_resolution_tree` grows the tree with the prediction integrated on
the integration grid and then thinned to the evaluation grid, where the
library integrates it on the evaluation grid directly. `level_at` builds
a tree level's profiles from its absolute start time t0, which the
profiles the library builds once per config must match at any t0. `leaf_rows`
gathers each candidate's prediction over the whole grid from its
ancestor edges, which the library scores one edge at a time;
`leaf_samples` and `leaf_firsts` gather its samples and its first
maneuver, which the library keeps once per edge.
`whole_table_csv` formats a CSV from one array of the whole table,
which the library writes in row blocks (`sim.runlog_csv_blocks`).
`every_solve` keeps every `Solve` of a closed-loop run, which `sim.run`
drops once its row is logged.
"""

import io
import math

import numpy as np

from colavmpc.core import TWO_PI, TimeGrid, VelocityTrajectory, cumtrapz, wrap_angle
from colavmpc.objective import TRAN_TOL, PenaltyGeometry, penalty
from colavmpc.primitives import course_profile_unit, sog_profile_unit, terminal_sog_feasible
from colavmpc.sim import solves
from colavmpc.tree import CandidateSet, build_levels
from colavmpc.vessel import VesselModel


def _trapz(values, dt):
    return np.trapezoid(values, dx=dt, axis=-1)


def align_cost(grid: TimeGrid, north, east, course, dtraj, w_course) -> float:
    """Time integral of weighted position and course error vs the reference."""
    times = grid.times()
    ref_n, ref_e, ref_course = dtraj.poses(times)
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
    ts, tq = src.times(), grid.times()
    if grid.t0 < src.t0 - tol or tq[-1] > ts[-1] + tol:
        raise ValueError(
            f"target grid [{grid.t0}, {tq[-1]}] outside source span "
            f"[{src.t0}, {ts[-1]}]"
        )
    tq = np.clip(tq, src.t0, ts[-1])
    return VelocityTrajectory(grid, [np.interp(tq, ts, channel) for channel in traj.channels])


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
            channels = [sog0 + a_u * cum_s, a_r * cum_c, course0 + a_r * cum2_c, a_u * unit_s, a_r * unit_c]
            out.append(VelocityTrajectory(grid, channels))
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


def relative_bearing(own_north, own_east, obs_north, obs_east, obs_course):
    """Bearing of the ownship seen from the obstacle, relative to its course."""
    return wrap_angle(np.arctan2(np.subtract(own_east, obs_east), np.subtract(own_north, obs_north)) - obs_course)


def ellipse_radius(a, b, cos_b, sin_b):
    """Polar radius of an axis-aligned ellipse (major a along beta=0)."""
    return a * b / np.sqrt((b * cos_b) ** 2 + (a * sin_b) ** 2)


def dense_sector_radius(geom, k, beta, cos_b, sin_b):
    """Elliptical region k's boundary at every point, each sector's
    ellipse picked per point with np.where."""
    a, b = geom.a[k], geom.b[k]
    fore = (beta >= -np.pi / 2) & (beta < np.pi / 2)
    major = np.where(fore, a, b)
    minor = np.where(beta >= 0.0, b + geom.d_colregs, b)
    return np.where(beta < -np.pi / 2, b, ellipse_radius(major, minor, cos_b, sin_b))


def region_radius(geom, k, beta):
    """Region k's boundary distance at relative bearing beta; accepts arrays."""
    beta = np.asarray(beta, dtype=float)
    if geom.kind == "circular":
        out = np.full(beta.shape, geom.radii[k])
    else:
        out = dense_sector_radius(geom, k, beta, np.cos(beta), np.sin(beta))
    return float(out) if out.ndim == 0 else out


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
    d0_star = np.where(np.abs(beta) < np.pi / 2, ellipse_radius(a0, b0, cos_b, sin_b), b0)
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
    d, beta = np.asarray(d, dtype=float), np.asarray(beta, dtype=float)
    d0, d1, d2 = (region_radius(geom, k, beta) for k in range(3))
    out = dense_outer_penalty(d, d0, d1, d2, geom.gamma1)
    if geom.kind == "elliptical_colregs":
        out = out + dense_inner_penalty(geom, d, beta, np.cos(beta), np.sin(beta), d0)
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


def level_at(params, index, t0, dt, stride) -> dict[str, np.ndarray]:
    """Tree level index's profiles, by tree.Level field, on its absolute
    dt grid from t0: relative times are grid.times() - t0, which round
    differently for each t0, where tree.build_levels takes dt * arange(n)."""
    grid = TimeGrid.from_span(t0, params.step_times[index], dt)
    t_rel = grid.times() - t0
    unit_s = sog_profile_unit(t_rel, params)
    unit_c = course_profile_unit(t_rel, params)
    cum_s, cum_c = cumtrapz(np.array([unit_s, unit_c]), dt)
    cum2_c = cumtrapz(cum_c, dt)
    return dict(
        unit_s=unit_s, unit_c=unit_c, cum_s=cum_s, cum_c=cum_c, cum2_c=cum2_c,
        cum_s_eval=cum_s[::stride], cum2_c_eval=cum2_c[::stride],
        decay_s=np.exp(-t_rel[::stride] / params.tc_sog), decay_c=np.exp(-t_rel[::stride] / params.tc_course),
    )


def full_resolution_tree(params, model, state, t, desired_vel0, tau0, guidance_hook, dt, eval_dt) -> CandidateSet:
    """tree.generate_tree with every edge's prediction (sog, course, the
    cos/sin velocity and its integral) computed at every dt point and
    only then thinned to every stride-th point, from the levels
    build_levels(params, dt, dt); the arguments dt and eval_dt in place
    of the levels."""
    stride = int(round(eval_dt / dt))
    levels = build_levels(params, dt, dt)
    grid = TimeGrid(t, eval_dt, sum((len(lv.cum_s) - 1) // stride for lv in levels) + 1)
    desired0 = (float(desired_vel0[0]), float(desired_vel0[1]))
    u_d, chi_d = np.array([desired0[0]]), np.array([desired0[1]])
    north0, east0, course0, sog0, rot0 = state
    u_bar, chi_bar = np.array([float(sog0)]), np.array([float(course0)])
    position = np.array([[float(north0)], [float(east0)]])
    parents, kept, edges = [], [], []
    t_level = t
    for level_idx, (level, step_time) in enumerate(zip(levels, params.step_times)):
        node_sog = np.maximum(u_bar, 0.0)
        if level_idx == 0:
            node_rot, node_tau = float(rot0), tau0
        else:
            node_rot = 0.0
            node_tau = model.saturate(np.array(model.damping(node_sog, 0.0)).T)
        desired_acc = None if guidance_hook is None else guidance_hook(
            t_level, *position, chi_bar, (u_d, chi_d)
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
        kept.append((i_sog, i_rot, a_u, a_r))
        track, course_bar = track[..., ::stride], course_bar[:, ::stride]
        width = None if level_idx == len(levels) - 1 else -1
        edges.append((track[..., :width], course_bar[:, :width]))
        u_d, chi_d = sog[:, -1], course[:, -1]
        u_bar, chi_bar = sog_bar[:, -1], course_bar[:, -1]
        position = track[..., -1]
        t_level += step_time
    ancestors = [np.arange(len(parents[-1]))]
    for parent in parents[:0:-1]:
        ancestors.insert(0, parent[ancestors[0]])
    return CandidateSet(grid, tuple(edges), tuple(kept), tuple(ancestors), first_sog, first_course, tuple(levels), desired0)


def leaf_rows(cands: CandidateSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each candidate's predicted (north, east, course) over the whole
    evaluation grid, (n_leaves, grid.n) each: its ancestors' edges, level
    by level, joined on the columns each level owns."""
    (north, east), course = (
        np.concatenate([channel[..., rows, :] for channel, rows in zip(channels, cands.ancestors)], axis=-1)
        for channels in zip(*cands.edges)
    )
    return north, east, course


def leaf_samples(cands: CandidateSet) -> tuple[np.ndarray, np.ndarray]:
    """Each candidate's (sog, rot) sample indices and sampled (sog, rot)
    accelerations at every level, (n_leaves, n_levels, 2) each: its
    ancestors' samples, level by level."""
    i_sog, i_rot, a_u, a_r = (
        np.stack([channel[rows] for channel, rows in zip(channels, cands.ancestors)], axis=1)
        for channels in zip(*cands.samples)
    )
    return np.stack([i_sog, i_rot], axis=-1), np.stack([a_u, a_r], axis=-1)


def leaf_firsts(cands: CandidateSet) -> tuple[np.ndarray, np.ndarray]:
    """Each candidate's desired (sog, course) over the first maneuver,
    (n_leaves, first_grid.n) each: its level-0 ancestor's."""
    return cands.first_sog[cands.ancestors[0]], cands.first_course[cands.ancestors[0]]


def whole_table_csv(columns: list[tuple[str, np.ndarray]]) -> str:
    """The CSV text of (name, column) pairs: the header line, then every
    row of np.column_stack of all the columns at once, integer and
    boolean columns with %d and float columns with %.12g."""
    names, arrays = zip(*columns)
    template = ",".join("%d" if col.dtype.kind in "biu" else "%.12g" for col in arrays) + "\n"
    buf = io.StringIO()
    buf.write(",".join(names) + "\n")
    for row in np.column_stack(arrays):
        buf.write(template % tuple(row))
    return buf.getvalue()


def every_solve(config) -> tuple[list, tuple]:
    """Each Solve that sim.solves(config) yields, in order, and its return
    value, run's (log, metrics)."""
    calls, taken = solves(config), []
    while True:
        try:
            taken.append(next(calls))
        except StopIteration as done:
            return taken, done.value
