"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from colavmpc import scenarios
from colavmpc.core import TimeGrid, VelocityTrajectory, cumtrapz, wrap_angle
from colavmpc.grading import classify_situation
from colavmpc.guidance import DesiredTrajectory, desired_acceleration
from colavmpc.objective import ObjectiveWeights, ObstaclePrediction, PenaltyGeometry, select
from colavmpc.primitives import TreeParams, course_profile_unit, sog_profile_unit
from colavmpc.sim import first_solve, run, runlog_to_csv
from colavmpc.tree import CandidateSet

GEOM_T2 = PenaltyGeometry.elliptical((50.0, 150.0, 250.0), (25.0, 75.0, 125.0), 100.0, 0.1)


def _report(num: int, ok: bool, desc: str, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)


def test_c01_primitive_identities():
    rng = np.random.default_rng(20240101)
    t_start = time.perf_counter()
    worst_aligned = 0.0
    worst_rel = 0.0
    for case in range(1000):
        aligned = case < 500
        if aligned:
            dt = 0.1
            t_ramp = dt * rng.integers(5, 31)
            t_sog = 2 * t_ramp + dt * rng.integers(0, 41)
            t_course = 4 * t_ramp + dt * rng.integers(0, 41)
            t_total = max(t_sog, t_course) + dt * rng.integers(0, 11)
        else:
            dt = 0.01
            t_ramp = rng.uniform(0.5, 2.0)
            t_sog = 2 * t_ramp + rng.uniform(0.05, 4.0)
            t_course = 4 * t_ramp + rng.uniform(0.05, 4.0)
            t_total = max(t_sog, t_course) + rng.uniform(0.0, 1.0)
        a_u = rng.uniform(0.05, 1.0) * rng.choice([-1.0, 1.0])
        a_r = rng.uniform(0.005, 0.2) * rng.choice([-1.0, 1.0])
        p = TreeParams((t_total,), (1,), (1,), t_ramp, t_sog, t_course, tc_sog=5.0, tc_course=5.0)
        n = int(math.ceil(t_total / dt - 1e-9))
        grid = TimeGrid(0.0, dt, n + 1)
        t_rel = grid.times()
        sog_acc = a_u * sog_profile_unit(t_rel, p)
        rot_acc = a_r * course_profile_unit(t_rel, p)
        rot = cumtrapz(rot_acc, dt)
        d_sog = cumtrapz(sog_acc, dt)[-1]
        d_chi = cumtrapz(rot, dt)[-1]
        exact_d_sog = a_u * (t_sog - t_ramp)
        exact_d_chi = a_r * t_ramp * (t_course - 2 * t_ramp)
        if aligned:
            errs = (abs(rot[-1]), abs(d_sog - exact_d_sog), abs(d_chi - exact_d_chi))
            worst_aligned = max(worst_aligned, *errs)
        else:
            rels = (
                abs(rot[-1]) / (abs(a_r) * t_ramp),
                abs(d_sog - exact_d_sog) / abs(exact_d_sog),
                abs(d_chi - exact_d_chi) / abs(exact_d_chi),
            )
            worst_rel = max(worst_rel, *rels)
    elapsed = time.perf_counter() - t_start
    ok = worst_aligned < 1e-9 and worst_rel < 1e-3 and elapsed < 5.0
    _report(
        1, ok, "primitive identities over 1000 random maneuvers",
        f"aligned err {worst_aligned:.2e}, non-aligned rel {worst_rel:.2e}, {elapsed:.2f} s",
    )
    assert worst_aligned < 1e-9
    assert worst_rel < 1e-3
    assert elapsed < 5.0


def test_c02_guidance_round_trip():
    rng = np.random.default_rng(20240102)
    dt = 0.1
    worst = 0.0
    for _ in range(1000):
        t_ramp = dt * rng.integers(5, 31)
        t_sog = 2 * t_ramp + dt * rng.integers(0, 41)
        t_course = 4 * t_ramp + dt * rng.integers(0, 41)
        t_total = max(t_sog, t_course)
        p = TreeParams((t_total,), (5,), (5,), t_ramp, t_sog, t_course, tc_sog=5.0, tc_course=5.0)
        u0 = rng.uniform(0.0, 18.0)
        chi0 = rng.uniform(-10.0, 10.0)
        u_los = rng.uniform(0.0, 18.0)
        chi_los = rng.uniform(-math.pi, math.pi)
        du, dr = desired_acceleration((u_los, chi_los), (u0, chi0), p)
        grid = TimeGrid.from_span(0.0, t_total, dt)
        t_rel = grid.times()
        sog_end = u0 + cumtrapz(du * sog_profile_unit(t_rel, p), dt)[-1]
        rot = cumtrapz(dr * course_profile_unit(t_rel, p), dt)
        chi_end = chi0 + cumtrapz(rot, dt)[-1]
        worst = max(worst, abs(sog_end - u_los), abs(wrap_angle(chi_end - chi_los)))
    ok = worst < 1e-9
    _report(2, ok, "guidance acceleration round-trip hits LOS targets", f"worst err {worst:.2e}")
    assert worst < 1e-9


def test_c03_penalty_geometry_properties():
    t_start = time.perf_counter()
    beta = np.linspace(-math.pi, math.pi, 360, endpoint=False)
    d = np.linspace(0.0, 400.0, 200)
    B, D = np.meshgrid(beta, d, indexing="ij")

    failures = []
    # boundary continuity in d: the outer term at every boundary; the
    # total at the safety/margin boundaries everywhere and at the inner
    # core boundary where the starboard ramp exists (the inner term
    # dropping to zero across the collision boundary is the one
    # documented discontinuity of the piecewise definition)
    eps = 1e-12
    radii = [oracles.region_radius(GEOM_T2, k, beta) for k in range(3)]
    for boundary in (radii[1], radii[2]):
        gap = np.abs(oracles.penalty_at(GEOM_T2, boundary + eps, beta) - oracles.penalty_at(GEOM_T2, boundary - eps, beta))
        if np.max(gap) > 1e-9:
            failures.append(f"total jump {np.max(gap):.2e} at a region boundary")
    starboard = beta[(beta > 1e-3) & (beta < math.pi - 1e-3)]
    a0, b0 = GEOM_T2.a[0], GEOM_T2.b[0]
    fore = oracles.ellipse_radius(a0, b0, np.cos(starboard), np.sin(starboard))
    d0s = np.where(np.abs(starboard) < math.pi / 2, fore, b0)
    core_gap = np.abs(
        oracles.penalty_at(GEOM_T2, d0s + eps, starboard) - oracles.penalty_at(GEOM_T2, d0s - eps, starboard)
    )
    if np.max(core_gap) > 1e-9:
        failures.append(f"total jump {np.max(core_gap):.2e} at the inner core boundary")
    for k in range(3):
        outer_gap = np.abs(
            oracles.outer_penalty_at(radii[k] + eps, *radii, GEOM_T2.gamma1)
            - oracles.outer_penalty_at(radii[k] - eps, *radii, GEOM_T2.gamma1)
        )
        if np.max(outer_gap) > 1e-9:
            failures.append(f"outer jump {np.max(outer_gap):.2e} at boundary {k}")

    # branch continuity in bearing
    for k in range(3):
        for b0 in (-math.pi / 2, 0.0, math.pi / 2):
            gap = abs(oracles.region_radius(GEOM_T2, k, b0 + eps) - oracles.region_radius(GEOM_T2, k, b0 - eps))
            if gap > 1e-9:
                failures.append(f"region radius jump {gap:.2e} at branch {b0:.2f}")

    values = oracles.penalty_at(GEOM_T2, D, B)
    if not np.all(np.diff(values, axis=1) <= 1e-9):
        failures.append("penalty not monotone non-increasing in distance")

    half = np.linspace(1e-6, math.pi - 1e-6, 180)
    Bh, Dh = np.meshgrid(half, d, indexing="ij")
    if not np.all(oracles.penalty_at(GEOM_T2, Dh, Bh) >= oracles.penalty_at(GEOM_T2, Dh, -Bh) - 1e-12):
        failures.append("starboard bias inequality violated")

    elapsed = time.perf_counter() - t_start
    if elapsed >= 2.0:
        failures.append(f"runtime {elapsed:.2f} s")
    _report(3, not failures, "penalty geometry continuity/monotonicity/starboard bias",
            f"{elapsed:.2f} s")
    assert not failures, failures


def test_c04_table_spot_values():
    r_fore = oracles.region_radius(GEOM_T2, 2, 0.0)
    r_starboard = oracles.region_radius(GEOM_T2, 2, math.pi / 2)
    circ = PenaltyGeometry.circular((25.0, 75.0, 125.0), 0.1)
    p75 = oracles.penalty_at(circ, 75.0, 0.0)
    ok = (
        abs(r_fore - 250.0) < 1e-9
        and abs(r_starboard - 225.0) < 1e-9
        and abs(p75 - 0.1) < 1e-12
    )
    _report(4, ok, "exact region/penalty spot values",
            f"D2(0)={r_fore}, D2(pi/2)={r_starboard}, penalty(75)={p75}")
    assert ok


def test_c05_tree_shape_and_solve_time():
    cfg = scenarios.build_scenario("head_on")
    t_start = time.perf_counter()
    solve = first_solve(cfg)
    elapsed = time.perf_counter() - t_start
    cands, table = solve.candidates, solve.table

    shapes_ok = (
        table is not None
        and len(cands) <= 225
        and len(cands.samples) == 3
        and abs(cands.grid.t_end - cands.grid.t0 - 55.0) < 1e-9
    )
    ok = shapes_ok and elapsed < 1.0
    _report(5, ok, "tree shape (<=225 x 3 maneuvers x 55 s) and solve time",
            f"{len(cands)} candidates, {elapsed * 1e3:.0f} ms")
    assert shapes_ok
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 6: independent brute-force argmin oracle (pure python arithmetic)

def _py_wrap(a):
    return (a + math.pi) % (2 * math.pi) - math.pi


def _py_trapz(ys, dt):
    return sum((ys[i] + ys[i + 1]) * dt / 2 for i in range(len(ys) - 1))


def _py_select(inst):
    times = inst["times"]
    dt = times[1] - times[0]
    totals = []
    dev_sog = []
    dev_chi = []
    for cand in inst["cands"]:
        err = [
            math.hypot(cand["north"][i] - inst["ref_n"][i], cand["east"][i] - inst["ref_e"][i])
            + inst["w_course"] * abs(_py_wrap(cand["course"][i] - inst["ref_chi"][i]))
            for i in range(len(times))
        ]
        align = _py_trapz(err, dt)
        avoid = 0.0
        for obs in inst["obstacles"]:
            pen = []
            for i in range(len(times)):
                on = obs["n0"] + obs["vn"] * times[i]
                oe = obs["e0"] + obs["ve"] * times[i]
                dist = math.hypot(cand["north"][i] - on, cand["east"][i] - oe)
                bearing = _py_wrap(
                    math.atan2(cand["east"][i] - oe, cand["north"][i] - on) - obs["course"]
                )
                pen.append(oracles.py_penalty(inst["geom"], dist, bearing))
            avoid += _py_trapz(pen, dt)
        ft = inst["first_times"]
        fdt = ft[1] - ft[0]
        dev_sog.append(
            _py_trapz([abs(cand["f_sog"][i] - inst["prev_sog"][i]) for i in range(len(ft))], fdt)
        )
        dev_chi.append(
            _py_trapz(
                [abs(_py_wrap(cand["f_course"][i] - inst["prev_course"][i])) for i in range(len(ft))],
                fdt,
            )
        )
        totals.append((align, avoid))
    e_sog = min(dev_sog)
    e_chi = min(dev_chi)
    best_idx, best_val = 0, None
    for i, (align, avoid) in enumerate(totals):
        tran = 0.0 if (dev_sog[i] <= e_sog + 1e-6 and dev_chi[i] <= e_chi + 1e-6) else 1.0
        total = inst["w_align"] * align + inst["w_avoid"] * avoid + inst["w_tran"] * tran
        if best_val is None or total < best_val:
            best_idx, best_val = i, total
    return best_idx


def _random_instance(rng):
    n_eval, n_first = 21, 11
    grid = TimeGrid(0.0, 0.5, n_eval)
    fgrid = TimeGrid(0.0, 0.5, n_first)
    times = grid.times()
    n_cand = int(rng.integers(3, 11))
    course_ref = rng.uniform(-math.pi, math.pi)
    dtraj = DesiredTrajectory.line(rng.uniform(-50, 50), rng.uniform(-50, 50), course_ref, rng.uniform(2.0, 8.0))
    cands = []
    rows = {name: np.zeros((n_cand, n_eval)) for name in ("north", "east", "course")}
    rows.update({name: np.zeros((n_cand, n_first)) for name in ("sog", "ref_course")})
    for i in range(n_cand):
        north = np.cumsum(rng.uniform(-3, 4, n_eval)) + rng.uniform(-100, 100)
        east = np.cumsum(rng.uniform(-3, 4, n_eval)) + rng.uniform(-100, 100)
        course = rng.uniform(-math.pi, math.pi, n_eval)
        f_sog = rng.uniform(0.0, 8.0, n_first)
        f_course = rng.uniform(-math.pi, math.pi, n_first)
        rows["north"][i], rows["east"][i], rows["course"][i] = north, east, course
        # the reference beyond the first maneuver is never scored
        rows["sog"][i] = f_sog
        rows["ref_course"][i] = f_course
        cands.append({
            "north": north.tolist(), "east": east.tolist(), "course": course.tolist(),
            "f_sog": f_sog.tolist(), "f_course": f_course.tolist(),
        })
    n_obs = int(rng.integers(0, 3))
    obstacles = []
    obs_preds = []
    for _ in range(n_obs):
        n0, e0 = rng.uniform(-200, 200, 2)
        course = rng.uniform(-math.pi, math.pi)
        sog = rng.uniform(0.0, 5.0)
        obstacles.append({
            "n0": n0, "e0": e0, "course": course,
            "vn": sog * math.cos(course), "ve": sog * math.sin(course),
        })
        t = grid.times()
        obs_preds.append(
            ObstaclePrediction(
                grid=grid,
                north=n0 + sog * math.cos(course) * t,
                east=e0 + sog * math.sin(course) * t,
                course=course,
            )
        )
    if rng.random() < 0.5:
        radii = np.sort(rng.uniform(10.0, 300.0, 3))
        radii[1] = max(radii[1], radii[0] + 1.0)
        radii[2] = max(radii[2], radii[1] + 1.0)
        geom = PenaltyGeometry.circular(tuple(radii), rng.uniform(0.05, 0.9))
        geom_d = {"kind": "circular", "radii": list(radii), "gamma1": geom.gamma1}
    else:
        b = np.sort(rng.uniform(10.0, 120.0, 3))
        b[1] = max(b[1], b[0] + 1.0)
        b[2] = max(b[2], b[1] + 1.0)
        a = b + np.sort(rng.uniform(5.0, 150.0, 3))
        a[1] = max(a[1], a[0] + 1.0)
        a[2] = max(a[2], a[1] + 1.0)
        d_col = rng.uniform(10.0, 120.0)
        geom = PenaltyGeometry.elliptical(tuple(a), tuple(b), d_col, rng.uniform(0.05, 0.9))
        geom_d = {"kind": "elliptical_colregs", "a": list(a), "b": list(b),
                  "d_colregs": d_col, "gamma1": geom.gamma1}
    weights = ObjectiveWeights(
        w_align=rng.uniform(0.1, 5.0), w_avoid=rng.uniform(10.0, 8000.0),
        w_tran=rng.uniform(0.0, 5000.0), w_course=rng.uniform(1.0, 200.0),
    )
    prev_sog = rng.uniform(0.0, 8.0, n_first)
    prev_course = rng.uniform(-math.pi, math.pi, n_first)
    prev = VelocityTrajectory(
        grid=fgrid, sog=prev_sog, rot=np.zeros(n_first), course=prev_course,
        sog_acc=np.zeros(n_first), rot_acc=np.zeros(n_first),
    )
    ref_n, ref_e = dtraj.position(times)
    inst = {
        "times": times.tolist(), "first_times": fgrid.times().tolist(),
        "cands": cands, "obstacles": obstacles, "geom": geom_d,
        "w_align": weights.w_align, "w_avoid": weights.w_avoid,
        "w_tran": weights.w_tran, "w_course": weights.w_course,
        "ref_n": ref_n.tolist(), "ref_e": ref_e.tolist(),
        "ref_chi": [dtraj.course(float(t)) for t in times],
        "prev_sog": prev_sog.tolist(), "prev_course": prev_course.tolist(),
    }
    cand_set = CandidateSet(
        grid=grid,
        edges=((np.array([rows["north"], rows["east"]]), rows["course"]),),
        samples=((np.zeros(n_cand, dtype=int),) * 2 + (np.zeros(n_cand),) * 2,), ancestors=(np.arange(n_cand),),
        first_sog=rows["sog"], first_course=rows["ref_course"], levels=(), desired0=(0.0, 0.0),
    )
    return inst, cand_set, dtraj, obs_preds, geom, weights, prev


def test_c06_brute_force_argmin_oracle():
    rng = np.random.default_rng(20240106)
    mismatches = 0
    for _ in range(200):
        inst, cand_set, dtraj, obs_preds, geom, weights, prev = _random_instance(rng)
        table = select(cand_set, dtraj, obs_preds, geom, weights, prev)
        if table.selected != _py_select(inst):
            mismatches += 1
    ok = mismatches == 0
    _report(6, ok, "selection matches brute-force oracle on 200 toy instances",
            f"{mismatches} mismatches")
    assert mismatches == 0


def test_c07_scenario_regressions():
    failures = []
    details = []
    for name in scenarios.SCENARIO_NAMES:
        t_start = time.perf_counter()
        log, metrics = run(scenarios.build_scenario(name))
        elapsed = time.perf_counter() - t_start
        m = metrics.obstacles["target"]
        details.append(f"{name}: d_min {m.min_distance:.0f} m, {elapsed:.1f} s")
        if m.collision_time > 0.0:
            failures.append(f"{name}: collision-region incursion {m.collision_time} s")
        if m.min_clearance < 25.0:
            failures.append(f"{name}: clearance {m.min_clearance:.1f} m < 25 m")
        if elapsed >= 10.0:
            failures.append(f"{name}: runtime {elapsed:.1f} s")
    _report(7, not failures, "zero-noise scenario regressions", "; ".join(details))
    assert not failures, failures


def test_c08_noise_robustness(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    import noise_study

    t_start = time.perf_counter()
    with_tran, without_tran = noise_study.sweep(
        [scenarios.build_scenario("head_on", seed=s, noise="radar") for s in range(20)], 4200.0
    )
    collisions = sum(
        m.obstacles["target"].collision_time > 0.0 for m in with_tran + without_tran
    )
    elapsed = time.perf_counter() - t_start
    med_with = float(np.median([m.switch_count for m in with_tran]))
    med_without = float(np.median([m.switch_count for m in without_tran]))
    ok = med_with <= med_without and collisions == 0 and elapsed < 300.0
    _report(
        8, ok, "transitional cost suppresses noise-induced replanning",
        f"median switches {med_with} (w_t=4200) vs {med_without} (w_t=0), "
        f"{collisions} collisions, {elapsed:.0f} s",
    )
    assert med_with <= med_without
    assert collisions == 0
    assert elapsed < 300.0


def test_c09_colregs_classification_fixture():
    own = (0.0, 0.0, 0.0, 5.0)  # north, east, course, sog

    def obstacle(bearing_deg, course, sog, dist=500.0):
        b = math.radians(bearing_deg)
        return dist * math.cos(b), dist * math.sin(b), sog, course

    fixture = [
        (obstacle(0.0, math.pi, 2.5), "head_on"),
        (obstacle(10.0, math.pi - 0.05, 2.5), "head_on"),
        (obstacle(-10.0, math.pi + 0.05, 2.5), "head_on"),
        (obstacle(20.0, math.pi, 2.5), "head_on"),
        (obstacle(90.0, -math.pi / 2, 2.5), "crossing_give_way"),
        (obstacle(45.0, -math.pi / 2, 2.5), "crossing_give_way"),
        (obstacle(70.0, -3 * math.pi / 4, 2.5), "crossing_give_way"),
        (obstacle(110.0, -math.pi / 2, 2.5), "crossing_give_way"),
        (obstacle(-90.0, math.pi / 2, 2.5), "crossing_stand_on"),
        (obstacle(-45.0, math.pi / 2, 2.5), "crossing_stand_on"),
        (obstacle(-70.0, 3 * math.pi / 4, 2.5), "crossing_stand_on"),
        (obstacle(-110.0, math.pi / 2, 2.5), "crossing_stand_on"),
        (obstacle(0.0, 0.0, 1.0), "overtaking"),
        (obstacle(15.0, math.radians(20.0), 1.5), "overtaking"),
        (obstacle(-15.0, math.radians(-20.0), 1.5), "overtaking"),
        (obstacle(30.0, math.radians(55.0), 1.0), "overtaking"),
    ]
    wrong = [
        (obs, expected, classify_situation(*own, *obs))
        for obs, expected in fixture
        if classify_situation(*own, *obs) != expected
    ]
    _report(9, not wrong, "16-case COLREGs classification fixture", f"{16 - len(wrong)}/16")
    assert not wrong, wrong


def test_c10_determinism():
    cfg_a = scenarios.build_scenario("head_on", seed=11, noise="radar")
    cfg_b = scenarios.build_scenario("head_on", seed=11, noise="radar")
    csv_a = runlog_to_csv(run(cfg_a)[0])
    csv_b = runlog_to_csv(run(cfg_b)[0])
    ok = csv_a == csv_b
    _report(10, ok, "seeded re-run produces byte-identical CSV logs")
    assert ok
