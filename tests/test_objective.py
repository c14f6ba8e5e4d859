import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import outer_penalty_at, penalty_at, region_radius, relative_bearing
from colavmpc import objective, scenarios, sim
from colavmpc import tree as tree_mod
from colavmpc.core import TimeGrid, VelocityTrajectory, wrap_angle
from colavmpc.guidance import DesiredTrajectory
from colavmpc.objective import (
    CostTable,
    ObjectiveWeights,
    ObstaclePrediction,
    PenaltyGeometry,
    penalty,
    penalty_field,
    select,
)
from colavmpc.tree import CandidateSet, TreeParams, build_levels, generate_tree
from colavmpc.vessel import default_model
from test_tree import _recorded_calls

# Table-style defaults used across the suite
GEOM_ELL = PenaltyGeometry.elliptical(a=(50.0, 150.0, 250.0), b=(25.0, 75.0, 125.0), d_colregs=100.0, gamma1=0.1)
GEOM_CIRC = PenaltyGeometry.circular((25.0, 75.0, 125.0), 0.1)
# starboard margin semi-axis b + d_colregs = 225 beyond the fore one, a = 200
GEOM_WIDE = PenaltyGeometry.elliptical(a=(50.0, 150.0, 200.0), b=(25.0, 75.0, 125.0), d_colregs=100.0, gamma1=0.1)
WEIGHTS = ObjectiveWeights(w_align=1.0, w_avoid=6000.0, w_tran=4200.0, w_course=100.0)

# The library scores in the obstacle's frame, takes sqrt(dn^2 + de^2) for
# the align distance and gives each avoid value its trapezoid weight; the
# oracles use the bearing, hypot and np.trapezoid. The two differ by
# rounding. Largest differences measured on the fixed inputs below:
# 3.6e-16 relative where the oracle is >= 1 (an align cost of 953 off by
# 1.1e-13), and 3.3e-15 absolute where it is below 1. The bounds are about
# 14x those.
ATOL, RTOL = 5e-14, 5e-15


def _within(value, lo, hi):
    """lo <= value <= hi, each bound widened by ATOL + RTOL * |bound|."""
    value, lo, hi = np.asarray(value), np.asarray(lo), np.asarray(hi)
    return bool(np.all((lo - ATOL - RTOL * np.abs(lo) <= value) & (value <= hi + ATOL + RTOL * np.abs(hi))))


def _agrees(value, oracle):
    return _within(value, oracle, oracle)


def test_geometry_validation():
    with pytest.raises(ValueError):
        PenaltyGeometry.circular((75.0, 25.0, 125.0), 0.1)
    with pytest.raises(ValueError):
        PenaltyGeometry.elliptical((50.0, 150.0, 250.0), (60.0, 75.0, 125.0), 100.0, 0.1)
    with pytest.raises(ValueError):
        PenaltyGeometry.circular((25.0, 75.0, 125.0), 1.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_geometry_rejects_non_finite_values(bad):
    # a NaN d_colregs would cull every point and score every avoid 0; an
    # infinite axis would make reach infinite
    a, b, radii = (50.0, 150.0, 250.0), (25.0, 75.0, 125.0), (25.0, 75.0, 125.0)
    cases = [
        ("gamma1", lambda: PenaltyGeometry.circular(radii, bad)),
        ("radii", lambda: PenaltyGeometry.circular((25.0, 75.0, bad), 0.1)),
        ("a", lambda: PenaltyGeometry.elliptical((50.0, 150.0, bad), b, 100.0, 0.1)),
        ("b", lambda: PenaltyGeometry.elliptical(a, (bad, 75.0, 125.0), 100.0, 0.1)),
        ("d_colregs", lambda: PenaltyGeometry.elliptical(a, b, bad, 0.1)),
    ]
    for field, build in cases:
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            build()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_weights_reject_non_finite_values(bad):
    # a NaN weight makes every total NaN, and select then took candidate 0
    for field in ("w_align", "w_avoid", "w_tran", "w_course"):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            dataclasses.replace(WEIGHTS, **{field: bad})


def test_region_radius_spot_values():
    assert region_radius(GEOM_ELL, 2, 0.0) == pytest.approx(250.0, abs=1e-9)
    assert region_radius(GEOM_ELL, 2, -math.pi / 2) == pytest.approx(125.0, abs=1e-9)
    assert region_radius(GEOM_ELL, 2, math.pi / 2) == pytest.approx(225.0, abs=1e-9)
    assert region_radius(GEOM_CIRC, 1, 1.2345) == 75.0


def test_region_radius_branch_continuity():
    eps = 1e-9
    for k in range(3):
        for b in (-math.pi / 2, 0.0, math.pi / 2):
            lo = region_radius(GEOM_ELL, k, b - eps)
            hi = region_radius(GEOM_ELL, k, b + eps)
            assert abs(hi - lo) < 1e-5
        # wrap seam: approaching +pi matches the circle at -pi
        assert abs(
            region_radius(GEOM_ELL, k, math.pi - eps) - region_radius(GEOM_ELL, k, -math.pi)
        ) < 1e-5


def test_region_radius_nesting():
    beta = np.linspace(-math.pi, math.pi, 721, endpoint=False)
    r0 = region_radius(GEOM_ELL, 0, beta)
    r1 = region_radius(GEOM_ELL, 1, beta)
    r2 = region_radius(GEOM_ELL, 2, beta)
    assert np.all(r0 < r1) and np.all(r1 < r2)


def test_circular_penalty_values():
    assert penalty_at(GEOM_CIRC, 10.0, 0.0) == 1.0
    assert penalty_at(GEOM_CIRC, 75.0, 2.0) == pytest.approx(0.1, abs=1e-12)
    assert penalty_at(GEOM_CIRC, 100.0, 0.0) == pytest.approx(0.05, abs=1e-12)
    assert penalty_at(GEOM_CIRC, 300.0, 0.0) == 0.0


def test_elliptical_penalty_core_is_double():
    beta = 0.3
    d_core = 0.5 * region_radius(GEOM_ELL, 0, beta)
    assert penalty_at(GEOM_ELL, d_core, beta) == pytest.approx(2.0, abs=1e-12)


def test_elliptical_inner_boundary_astern_is_circle():
    b0 = GEOM_ELL.b[0]
    assert penalty_at(GEOM_ELL, b0 - 1e-6, -math.pi) == pytest.approx(2.0, abs=1e-5)
    just_outside = penalty_at(GEOM_ELL, b0 + 1e-6, -math.pi)
    assert just_outside < 1.0 + 1e-5  # inner term gone, only the outer ramp


def test_penalty_monotone_in_distance():
    d = np.linspace(0.0, 400.0, 2000)
    for beta in np.linspace(-math.pi, math.pi, 73, endpoint=False):
        vals = penalty_at(GEOM_ELL, d, np.full_like(d, beta))
        assert np.all(np.diff(vals) <= 1e-9)


def test_penalty_starboard_bias():
    d = np.linspace(0.0, 400.0, 200)
    for beta in np.linspace(1e-3, math.pi - 1e-3, 90):
        plus = penalty_at(GEOM_ELL, d, np.full_like(d, beta))
        minus = penalty_at(GEOM_ELL, d, np.full_like(d, -beta))
        assert np.all(plus >= minus - 1e-12)


def test_outer_penalty_boundary_continuity():
    for beta in np.linspace(-math.pi, math.pi, 37, endpoint=False):
        for k in range(3):
            dk = region_radius(GEOM_ELL, k, beta)
            lo = outer_penalty_at(np.array([dk - 1e-9]), *(region_radius(GEOM_ELL, j, beta) for j in range(3)), GEOM_ELL.gamma1)
            hi = outer_penalty_at(np.array([dk + 1e-9]), *(region_radius(GEOM_ELL, j, beta) for j in range(3)), GEOM_ELL.gamma1)
            assert abs(hi[0] - lo[0]) < 1e-8


def test_total_penalty_continuous_at_inner_core():
    for beta in np.linspace(0.05, math.pi - 0.05, 40):
        a0, b0 = GEOM_ELL.a[0], GEOM_ELL.b[0]
        d_star = oracles.ellipse_radius(a0, b0, math.cos(beta), math.sin(beta)) if abs(beta) < math.pi / 2 else b0
        lo = penalty_at(GEOM_ELL, d_star - 1e-9, beta)
        hi = penalty_at(GEOM_ELL, d_star + 1e-9, beta)
        assert abs(hi - lo) < 1e-8


SECTOR_EDGES = np.array([-math.pi, -math.pi / 2, 0.0, math.pi / 2, math.pi])


BETAS = np.concatenate([
    np.linspace(-math.pi, math.pi, 181),
    SECTOR_EDGES,
    np.nextafter(SECTOR_EDGES, -np.inf),
    np.nextafter(SECTOR_EDGES, np.inf),
])


def _straddling_points(geom):
    """Per bearing of BETAS: inside the core, across its ramp, and
    straddling each region boundary. Returns (d, beta) arrays."""
    spec = dataclasses.asdict(geom)
    d, beta = [], []
    for b in BETAS:
        radii = [oracles.py_region(spec, k, b) for k in range(3)]
        dists = [0.0, 0.25 * radii[0], 0.5 * radii[0], 0.95 * radii[0]]
        dists += [r * f for r in radii for f in (1.0 - 1e-9, 1.0 + 1e-9)]
        d += dists
        beta += [b] * len(dists)
    return np.array(d), np.array(beta)


def test_penalty_matches_python_oracle():
    for geom, core in ((GEOM_ELL, 2.0), (GEOM_CIRC, 1.0), (GEOM_WIDE, 2.0)):
        spec = dataclasses.asdict(geom)
        for k in range(3):
            expected = [oracles.py_region(spec, k, b) for b in BETAS]
            np.testing.assert_allclose(region_radius(geom, k, BETAS), expected, rtol=1e-12, atol=0.0)
        d, beta = _straddling_points(geom)
        expected = [oracles.py_penalty(spec, di, bi) for di, bi in zip(d, beta)]
        np.testing.assert_allclose(penalty_at(geom, d, beta), expected, rtol=0.0, atol=1e-12)
        # the coincident point scores the core value, with no 0/0
        for x, y in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)):
            assert penalty(geom, x, y) == core == oracles.py_penalty(spec, 0.0, 0.0)


def test_penalty_equals_dense_reference():
    for geom in (GEOM_ELL, GEOM_CIRC):
        d, beta = _straddling_points(geom)
        # a point at and past reach too, where no radius is computed
        d = np.concatenate([d, [geom.reach, 2.0 * geom.reach]])
        beta = np.concatenate([beta, [0.0, 1.0]])
        expected = oracles.dense_penalty(geom, d, beta)
        actual = penalty_at(geom, d, beta)
        assert _agrees(actual, expected)
        assert np.array_equal(penalty_at(geom, d.reshape(-1, 2), beta.reshape(-1, 2)), actual.reshape(-1, 2))
        for i in (0, 3, 5, 9, len(d) - 1):
            assert penalty_at(geom, float(d[i]), float(beta[i])) == actual[i]
            at_0d = penalty_at(geom, np.array(d[i]), np.array(beta[i]))
            assert type(at_0d) is float and at_0d == actual[i]
        empty = penalty_at(geom, np.zeros(0), np.zeros(0))
        assert empty.shape == (0,) and np.array_equal(empty, oracles.dense_penalty(geom, np.zeros(0), np.zeros(0)))


def test_reach_bounds_the_penalty():
    assert 125.0 < GEOM_CIRC.reach < 125.0 * (1.0 + 1e-11)
    assert 250.0 < GEOM_ELL.reach < 250.0 * (1.0 + 1e-11)
    betas = np.concatenate([np.linspace(-math.pi, math.pi, 36001), np.linspace(-1e-6, 1e-6, 2001)])
    for geom in (GEOM_ELL, GEOM_CIRC):
        assert np.all(region_radius(geom, 2, betas) <= geom.reach)
        assert np.all(penalty_at(geom, np.full(betas.shape, geom.reach), betas) == 0.0)
    # why reach sits above the longest semi-axis: near bearing 0 the
    # margin boundary rounds past 250 m, and 125 m from the circular
    # geometry's obstacle the region test rounds inside the margin region,
    # so the penalty at the semi-axis is not 0
    assert region_radius(GEOM_ELL, 2, 2e-8) > 250.0
    x = 125.0 - 3 * np.spacing(125.0)
    assert math.hypot(x, 3e-6) == 125.0 and penalty(GEOM_CIRC, x, 3e-6) > 0.0


# candidates on a 25 s horizon evaluated on a 0.5 s grid, with a 5 s
# first maneuver
GRID = TimeGrid.from_span(0.0, 25.0, 0.5)
N_FIRST = 11
LINE = DesiredTrajectory.line(0.0, 0.0, 0.0, 5.0)


def _line(offset_e=0.0, course=0.0, sog=5.0):
    """Straight predicted path at constant velocity, its reference holding (sog, course).

    Returns (pred_north, pred_east, pred_course, ref_sog, ref_course).
    """
    t = GRID.times()
    return sog * t * math.cos(course), offset_e + sog * t * math.sin(course), course, sog, course


def _set(*cands) -> CandidateSet:
    """A one-level set, one edge per candidate, from (pred_north, pred_east,
    pred_course, ref_sog, ref_course) rows; scalars hold their value over the grid."""
    def rows(k):
        arr = np.array([np.broadcast_to(c[k], (GRID.n,)) for c in cands], dtype=float)
        return arr.reshape(len(cands), GRID.n)

    return CandidateSet(
        grid=GRID, edges=((np.array([rows(0), rows(1)]), rows(2)),),
        samples=((np.zeros(len(cands), dtype=int),) * 2 + (np.zeros(len(cands)),) * 2,),
        ancestors=(np.arange(len(cands)),), first_sog=rows(3)[:, :N_FIRST], first_course=rows(4)[:, :N_FIRST],
        levels=(), desired0=(0.0, 0.0),
    )


# a test that wants no transitional term holds a reference at w_tran = 0
NO_TRAN = dataclasses.replace(WEIGHTS, w_tran=0.0)
HOLD = VelocityTrajectory.constant(TimeGrid.from_span(0.0, 5.0, 0.5), 5.0, 0.0)


def _select(cands, obstacles=(), geom=GEOM_CIRC, weights=NO_TRAN, prev=HOLD):
    return select(cands, LINE, list(obstacles), geom, weights, prev)


def test_align_cost_zero_on_reference():
    assert _select(_set(_line())).align[0] == pytest.approx(0.0, abs=1e-12)


def test_align_cost_lateral_offset():
    # 10 m constant offset over 25 s
    assert _select(_set(_line(offset_e=10.0))).align[0] == pytest.approx(250.0, abs=1e-9)


def test_align_cost_course_offset():
    # on the reference position, 0.1 rad off its course, at w_course=100
    north, east, _, sog, _ = _line()
    table = _select(_set((north, east, 0.1, sog, 0.0)))
    assert table.align[0] == pytest.approx(250.0, abs=1e-9)


def _static_prediction(north, east, course=0.0, t_end=25.0, dt=0.5):
    grid = TimeGrid.from_span(0.0, t_end, dt)
    return ObstaclePrediction(
        grid=grid,
        north=np.full(grid.n, north),
        east=np.full(grid.n, east),
        course=course,
    )


def test_avoid_cost_empty_and_far():
    cands = _set(_line())
    assert _select(cands).avoid[0] == 0.0
    assert _select(cands, [_static_prediction(0.0, 10_000.0)]).avoid[0] == 0.0


def test_avoid_cost_parked_in_collision_region():
    parked = _set((0.0, 0.0, 0.0, 0.0, 0.0))
    obs = _static_prediction(5.0, 0.0)
    assert _select(parked, [obs]).avoid[0] == pytest.approx(25.0, abs=1e-9)
    # elliptical adds the inner plateau on top
    assert _select(parked, [obs], geom=GEOM_ELL).avoid[0] == pytest.approx(50.0, abs=1e-9)


def test_avoid_cost_prediction_must_cover_horizon():
    with pytest.raises(ValueError):
        _select(_set(_line()), [_static_prediction(0.0, 1000.0, t_end=10.0)])


def test_select_requires_the_evaluation_grid():
    # predictions must sit on the candidates' grid exactly: a grid shifted
    # by 1e-12 s or with another dt is an error
    cands = _set(_line())
    for grid in (TimeGrid(GRID.t0 + 1e-12, GRID.dt, GRID.n), TimeGrid.from_span(0.0, 25.0, 0.25)):
        obs = ObstaclePrediction(grid=grid, north=np.zeros(grid.n), east=np.full(grid.n, 1e4), course=0.0)
        with pytest.raises(ValueError, match="not the evaluation grid"):
            _select(cands, [obs])
    # the committed reference is read at the first maneuver's grid points,
    # to 1e-9 of its own step (VelocityTrajectory.window): one shifted by
    # 1e-12 s, or at 0.25 s steps, is read there, at 0.2 rad, and not at
    # the 0 rad between them
    firsts = _set(*(_line(sog=sog, course=course) for sog, course in [(5.0, 0.0), (5.0, 0.2), (6.0, 0.0)]))
    for grid in (TimeGrid(1e-12, 0.5, N_FIRST), TimeGrid.from_span(0.0, 5.0, 0.25)):
        zeros = np.zeros(grid.n)
        course = np.where(np.isclose(grid.times() % 0.5, 0.0), 0.2, 0.0)
        prev = VelocityTrajectory(grid, [np.full(grid.n, 5.0), zeros, course, zeros, zeros])
        np.testing.assert_array_equal(_select(firsts, prev=prev).tran, [1.0, 0.0, 1.0])
    # one with no point at the grid's start, or whose step does not divide
    # the grid's, is an error
    for grid in (TimeGrid(-0.125, 0.5, N_FIRST + 1), TimeGrid.from_span(0.0, 5.0, 0.2)):
        with pytest.raises(ValueError, match="is not on the grid"):
            _select(cands, prev=VelocityTrajectory.constant(grid, 5.0, 0.0))


def test_relative_bearing_convention():
    # ownship dead ahead of a north-bound obstacle: bearing 0
    assert relative_bearing(100.0, 0.0, 0.0, 0.0, 0.0) == pytest.approx(0.0)
    # ownship to the obstacle's starboard (east when heading north): +pi/2
    assert relative_bearing(0.0, 100.0, 0.0, 0.0, 0.0) == pytest.approx(math.pi / 2)
    # ownship astern: -pi (wrapped lower bound)
    assert relative_bearing(-100.0, 0.0, 0.0, 0.0, 0.0) == pytest.approx(-math.pi)


def _vel_const(sog, course, t_end=5.0, dt=0.5):
    return VelocityTrajectory.constant(TimeGrid.from_span(0.0, t_end, dt), sog, course)


def _tran(firsts, prev):
    """Transitional scores of candidates whose references hold (sog, course)."""
    return _select(_set(*(_line(sog=sog, course=course) for sog, course in firsts)), prev=prev).tran


def test_tran_cost_examples():
    prev = _vel_const(5.0, 0.0)
    np.testing.assert_allclose(_tran([(5.0, 0.0), (5.0, 0.2), (6.0, 0.0)], prev), [0.0, 1.0, 1.0])


def test_tran_cost_all_equal():
    prev = _vel_const(5.0, 0.1)
    np.testing.assert_allclose(_tran([(5.0, 0.1)] * 4, prev), np.zeros(4))


def test_tran_cost_requires_min_in_both_channels():
    prev = _vel_const(5.0, 0.0)
    # candidate 0: best course, worse sog; candidate 1: best sog, worse course
    np.testing.assert_allclose(_tran([(6.0, 0.0), (5.0, 0.3), (5.0, 0.0)], prev), [1.0, 1.0, 0.0])


def test_select_singleton():
    table = _select(_set(_line()))
    assert table.selected == 0
    assert isinstance(table, CostTable)


def test_select_empty_rejected():
    with pytest.raises(ValueError):
        _select(_set())


def test_select_avoids_blocked_straight_candidate():
    # obstacle dead ahead on the straight candidate, inside the safety region
    cands = _set(_line(0.0), _line(60.0), _line(-60.0))
    obs = _static_prediction(60.0, 0.0, course=math.pi)
    table = _select(cands, [obs])
    assert table.selected != 0
    assert table.avoid[0] > table.avoid[table.selected]


def test_select_scale_invariance():
    cands = _set(_line(0.0), _line(40.0), _line(-60.0))
    obs = _static_prediction(80.0, 10.0, course=math.pi)
    prev = _vel_const(5.0, 0.0)
    best1 = _select(cands, [obs], weights=WEIGHTS, prev=prev).selected
    scaled = ObjectiveWeights(
        w_align=WEIGHTS.w_align * 7.5, w_avoid=WEIGHTS.w_avoid * 7.5,
        w_tran=WEIGHTS.w_tran * 7.5, w_course=WEIGHTS.w_course,
    )
    best2 = _select(cands, [obs], weights=scaled, prev=prev).selected
    assert best1 == best2


def test_select_deterministic():
    cands = _set(*(_line(off) for off in (0.0, 25.0, -25.0, 50.0)))
    obs = _static_prediction(70.0, 0.0)
    prev = _vel_const(5.0, 0.0)
    r1 = _select(cands, [obs], geom=GEOM_ELL, weights=WEIGHTS, prev=prev)
    r2 = _select(cands, [obs], geom=GEOM_ELL, weights=WEIGHTS, prev=prev)
    assert r1.selected == r2.selected
    np.testing.assert_array_equal(r1.total, r2.total)


def test_evaluate_costs_matches_scalar_terms():
    specs = ((0.0, 0.0), (30.0, 0.05), (-45.0, -0.1))
    cands = _set(*(_line(off, course=c) for off, c in specs))
    obs = _static_prediction(90.0, -20.0, course=0.4)
    prev = _vel_const(5.0, 0.02)
    table = _select(cands, [obs], geom=GEOM_ELL, prev=prev)
    for north, east, course, i in zip(*oracles.leaf_rows(cands), range(len(cands))):
        assert _agrees(table.align[i], oracles.align_cost(GRID, north, east, course, LINE, WEIGHTS.w_course))
        assert _agrees(table.avoid[i], oracles.avoid_cost(GRID, north, east, [obs], GEOM_ELL))
    scores = oracles.tran_cost([_vel_const(5.0, c) for _, c in specs], prev)
    np.testing.assert_array_equal(table.tran, scores)


def _track(north, east, course):
    """Obstacle prediction on GRID through the given positions (scalars hold)."""
    t = GRID.times()
    return ObstaclePrediction(
        grid=GRID, north=np.broadcast_to(north, t.shape), east=np.broadcast_to(east, t.shape),
        course=course,
    )


def test_sparse_avoid_equals_dense_evaluation(monkeypatch):
    t = GRID.times()
    calls = []

    def counting(geom, x, y):
        calls.append(np.hypot(x, y))
        return penalty(geom, x, y)

    monkeypatch.setattr(objective, "penalty", counting)
    far = _static_prediction(0.0, 10_000.0)
    # static at the origin; candidate 0 runs north through d == reach at t = 10 s
    straddling = _track(0.0, 0.0, 0.3)
    # eastbound, 3 m off the straight candidate at t = 12 s
    crossing = _track(60.0, 8.0 * (t - 12.0) + 3.0, math.pi / 2)
    # fast eastbound: in reach of the candidates only mid-horizon
    midway = _track(100.0, 40.0 * (t - 12.5), math.pi / 2)
    for geom in (GEOM_ELL, GEOM_CIRC):
        through_reach = (geom.reach + 5.0 * (t - 10.0), 0.0, 0.0, 5.0, 0.0)
        cands = _set(through_reach, _line(0.0), _line(30.0, 0.05), _line(-45.0, -0.1))
        pred_north, pred_east, _ = oracles.leaf_rows(cands)
        assert np.hypot(pred_north[0, 20], pred_east[0, 20]) == geom.reach
        # northbound at 10 m/s from reach south of the candidates' box,
        # whose gap to the box is exactly reach at t = 0 only
        chasing = _track(-geom.reach + 10.0 * t, 0.0, 0.0)
        assert pred_north[:, 0].min() - chasing.north[0] == geom.reach
        d_mid = np.hypot(pred_north - midway.north, pred_east - midway.east)
        assert np.all(d_mid[:, [0, -1]] >= geom.reach) and np.any(d_mid < geom.reach)

        # northeast at 8 m/s from ahead of the candidates, which fall
        # astern on its port quarter and drop out of its margin region
        # well inside reach
        quarter = _track(60.0 + 8.0 * t * math.cos(0.3), 40.0 + 8.0 * t * math.sin(0.3), 0.3)
        obstacles = [far, straddling, crossing, midway, chasing, quarter]

        # one penalty call per select, on the kept points of every obstacle
        calls.clear()
        table = _select(cands, obstacles, geom=geom)
        assert len(calls) == 1
        assert np.all(calls[0] < geom.reach)
        assert np.all(table.avoid > 0.0)
        for north, east, i in zip(pred_north, pred_east, range(len(cands))):
            assert _agrees(table.avoid[i], oracles.avoid_cost(GRID, north, east, obstacles, geom))
        kept = calls[0].size
        # the points each obstacle scores, selected against it alone: one
        # call when it keeps a point, none when it keeps none
        scored = []
        for o in obstacles:
            calls.clear()
            _select(cands, [o], geom=geom)
            assert len(calls) == (o is not far)
            scored.append(sum(d.size for d in calls))
        assert scored[0] == 0 and sum(scored) == kept
        in_reach = [
            np.count_nonzero(np.hypot(pred_north - o.north, pred_east - o.east) < geom.reach)
            for o in obstacles
        ]
        if geom.kind == "circular":
            # the margin region is the disk of radius radii[2], which reach
            # widens by 1e-12 relative
            assert scored == [
                np.count_nonzero(np.hypot(pred_north - o.north, pred_east - o.east) < geom.radii[2])
                for o in obstacles
            ]
        else:
            assert 0 < scored[-1] < in_reach[-1] and sum(scored) < sum(in_reach)

        calls.clear()
        assert np.all(_select(cands, [far], geom=geom).avoid == 0.0)
        assert calls == []


def _check_ancestor_sums(cands, dtraj, obstacles, geom, weights, prev):
    """select's per-leaf costs, each the sum of the leaf's ancestor edges'
    costs, agree with the dense oracles on the leaf's rows over the whole
    grid, and its winner is the dense argmin."""
    table = select(cands, dtraj, obstacles, geom, weights, prev)
    rows = list(zip(*oracles.leaf_rows(cands)))
    align = np.array([oracles.align_cost(cands.grid, n, e, c, dtraj, weights.w_course) for n, e, c in rows])
    avoid = np.array([oracles.avoid_cost(cands.grid, n, e, obstacles, geom) for n, e, _ in rows])
    zeros = np.zeros(cands.first_grid.n)
    tran = oracles.tran_cost([
        VelocityTrajectory(cands.first_grid, [sog, zeros, course, zeros, zeros])
        for sog, course in zip(*oracles.leaf_firsts(cands))
    ], prev)
    total = weights.w_align * align + weights.w_avoid * avoid + weights.w_tran * tran
    assert np.any(avoid > 0.0)
    assert _agrees(table.align, align) and _agrees(table.avoid, avoid) and _agrees(table.total, total)
    np.testing.assert_array_equal(table.tran, tran)
    assert table.selected == int(total.argmin())


def test_select_sums_ancestor_edges_on_an_uneven_tree():
    # 10 m/s against a desired 17.5 m/s, 0.5 below u_max: level 0 drops its
    # top speed sample, and the nodes of the faster level-0 edges drop
    # their top level-1 speed sample, so they have 18 leaves and the others 27
    model = default_model()
    params = TreeParams((5.0, 10.0, 10.0), (3, 3, 1), (3, 3, 3), 1.0, 5.0, 5.0, 5.0, 5.0)
    desired = (model.u_max - 0.5, 0.0)
    tau0 = np.clip(model.damping(10.0, 0.0), model.tau_min, model.tau_max)
    cands = generate_tree(build_levels(params, 0.1, 0.5), model, (0.0, 0.0, 0.0, 10.0, 0.0), 0.0, desired, tau0, None)
    assert cands.grid == GRID
    np.testing.assert_array_equal(np.bincount(cands.ancestors[0]), [27, 27, 27, 18, 18, 18])
    assert 2 not in oracles.leaf_samples(cands)[0][cands.ancestors[0] >= 3, 1, 0]
    t = GRID.times()
    head_on = _track(400.0 - 5.0 * t, 20.0, math.pi)
    crossing = _track(200.0, 150.0 - 8.0 * t, -math.pi / 2)
    dtraj = DesiredTrajectory.line(0.0, 0.0, 0.0, desired[0])
    for geom in (GEOM_ELL, GEOM_CIRC):
        _check_ancestor_sums(cands, dtraj, [head_on, crossing], geom, WEIGHTS, _vel_const(12.0, 0.05))


def test_tran_keep_set_is_over_leaves_not_first_maneuvers(monkeypatch):
    # three first maneuvers, which differ in speed only; the committed
    # reference lies a quarter of the way from the middle one to the
    # fastest, and the middle one's node gets no level-1 children, so no
    # leaf takes the closest first maneuver: the keep set is the leaves
    # closest to the reference, those of the fastest first maneuver
    model = default_model()
    params = TreeParams((5.0, 10.0), (3, 1), (1, 3), 1.0, 5.0, 5.0, 5.0, 5.0)
    levels, state, tau0 = build_levels(params, 0.1, 0.5), (0.0, 0.0, 0.0, 5.0, 0.0), model.damping(5.0, 0.0)
    childless, real, calls = 1, tree_mod.terminal_sog_feasible, []

    def feasible(model, sog_terminal):
        calls.append(1)
        mask = real(model, sog_terminal)
        if len(calls) == 2:
            mask[childless] = False
        return mask

    monkeypatch.setattr(tree_mod, "terminal_sog_feasible", feasible)
    cands = generate_tree(levels, model, state, 0.0, (5.0, 0.0), tau0, None)
    assert len(cands.first_sog) == 3 and len(cands) == 6 and childless not in cands.ancestors[0]
    fgrid, zeros = cands.first_grid, np.zeros(cands.first_grid.n)
    sog = 0.75 * cands.first_sog[childless] + 0.25 * cands.first_sog[2]
    commanded = VelocityTrajectory(fgrid, [sog, zeros, cands.first_course[childless], zeros, zeros])
    table = select(cands, LINE, [], GEOM_CIRC, WEIGHTS, commanded)
    tran = oracles.tran_cost([
        VelocityTrajectory(fgrid, [sog, zeros, course, zeros, zeros]) for sog, course in zip(*oracles.leaf_firsts(cands))
    ], commanded)
    np.testing.assert_array_equal(tran == 0.0, cands.ancestors[0] == 2)
    np.testing.assert_array_equal(table.tran, tran)
    # the winner's planner.csv row reads its own leaf's first maneuver
    winner = table.selected
    row = sim.Solve(0.0, cands, table).row()
    reference, n = cands.trajectory(winner), len(levels[0].cum_s)
    assert row["course_change"] == abs(reference.course[n - 1] - reference.course[0])
    assert row["sog_change"] == reference.sog[n - 1] - reference.sog[0]


def test_select_sums_ancestor_edges_on_the_shipped_tree(monkeypatch):
    # every planner call of a shipped run, against an obstacle 300 m ahead
    # of the ownship, 20 m to its side, closing at 5 m/s
    config = scenarios.build_scenario("head_on", noise="radar")
    for args in _recorded_calls(monkeypatch, "generate_tree", config):
        cands = generate_tree(*args)
        north, east, course, _, _ = args[2]
        t = cands.grid.times() - cands.grid.t0
        ahead = ObstaclePrediction(
            cands.grid, north + (300.0 - 5.0 * t) * math.cos(course) - 20.0 * math.sin(course),
            east + (300.0 - 5.0 * t) * math.sin(course) + 20.0 * math.cos(course), course + math.pi,
        )
        prev = VelocityTrajectory.constant(cands.first_grid, *args[4])
        _check_ancestor_sums(cands, config.desired, [ahead], config.geometry, config.weights, prev)


def test_margin_axes():
    # fore, aft, starboard, port; select culls with penalty's own region test
    assert GEOM_CIRC.semi_axes(2) == (125.0,) * 4
    assert GEOM_WIDE.semi_axes(2) == (200.0, 125.0, 225.0, 125.0)
    assert GEOM_ELL.semi_axes(0) == (50.0, 25.0, 125.0, 25.0)


def test_semi_axes_rejects_other_region_indices():
    # -1 would index region 2 and 1.0 region 1 if let through
    for geom in (GEOM_ELL, GEOM_CIRC):
        for k in (-1, 3, 1.0):
            with pytest.raises(ValueError, match=f"^region index k must be 0, 1 or 2, got {k!r}$"):
                geom.semi_axes(k)


def test_cull_keeps_every_point_that_scores():
    # each candidate holds still at one bearing of a static obstacle on
    # a course off the axes: at one ulp inside the margin boundary on
    # even columns, and 1e-12 relative inside it on odd ones
    course = 2.3
    edges = np.array([0.0, math.pi / 2, -math.pi / 2, -math.pi])
    betas = wrap_angle(np.concatenate([
        np.linspace(-math.pi, math.pi, 360, endpoint=False),
        (edges[:, None] + np.linspace(-1e-6, 1e-6, 9)).ravel(),
    ]))
    obs = _static_prediction(30.0, -40.0, course=course)
    even = (np.arange(GRID.n) % 2 == 0)[:, None]
    for geom in (GEOM_ELL, GEOM_CIRC, GEOM_WIDE):
        radii = region_radius(geom, 2, betas)
        r = np.where(even, np.nextafter(radii, 0.0), radii * (1.0 - 1e-12))
        north, east = 30.0 + r * np.cos(betas + course), -40.0 + r * np.sin(betas + course)
        cands = _set(*((n, e, 0.0, 5.0, 0.0) for n, e in zip(north.T, east.T)))
        table = _select(cands, [obs], geom=geom)
        assert np.all(table.avoid > 0.0)
        for i in range(len(cands)):
            assert _agrees(table.avoid[i], oracles.avoid_cost(GRID, north[:, i], east[:, i], [obs], geom))


@st.composite
def _geometries(draw):
    gamma1 = draw(st.floats(0.05, 0.95))
    fractions = (draw(st.floats(0.05, 0.45)), draw(st.floats(0.55, 0.95)), 1.0)
    if draw(st.booleans()):
        radius = draw(st.floats(10.0, 500.0))
        return PenaltyGeometry.circular([f * radius for f in fractions], gamma1)
    b = draw(st.floats(10.0, 300.0))
    a = b * draw(st.floats(1.05, 4.0))
    return PenaltyGeometry.elliptical(
        [f * a for f in fractions], [f * b for f in fractions], draw(st.floats(1.0, 400.0)), gamma1
    )


@given(
    geom=_geometries(),
    course=st.floats(-10.0, 10.0),
    origin=st.tuples(st.floats(-5e3, 5e3), st.floats(-5e3, 5e3)),
    velocity=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    # per candidate: bearing at t = 0, turn rate, and distance as a
    # fraction of the margin radius at the bearing
    paths=st.lists(
        st.tuples(
            st.floats(-math.pi, math.pi),
            st.floats(-0.5, 0.5),
            st.one_of(st.floats(0.0, 1.5), st.sampled_from([1.0 - 1e-12, 1.0 - 1e-15, 1.0])),
        ),
        min_size=1, max_size=6,
    ),
)
@settings(deadline=None)
def test_cull_equals_dense_avoid_on_random_geometries(geom, course, origin, velocity, paths):
    t = GRID.times()
    obs = _track(origin[0] + velocity[0] * t, origin[1] + velocity[1] * t, course)
    rows = []
    for beta0, rate, fraction in paths:
        beta = beta0 + rate * t
        r = fraction * region_radius(geom, 2, wrap_angle(beta))
        rows.append((obs.north + r * np.cos(beta + course), obs.east + r * np.sin(beta + course), 0.0, 5.0, 0.0))
    cands = _set(*rows)
    table = _select(cands, [obs], geom=geom)
    for north, east, _, i in zip(*oracles.leaf_rows(cands), range(len(cands))):
        # a point on the collision boundary, where the penalty jumps by 1,
        # rounds to either side in either form: bracket with the oracle at
        # distances scaled by 1 -+ 1e-12, as the penalty falls with distance
        hi, lo = (oracles.avoid_cost(GRID, north, east, [obs], geom, scale) for scale in (1.0 - 1e-12, 1.0 + 1e-12))
        assert _within(table.avoid[i], lo, hi)


def test_prediction_rejects_non_finite_values():
    # a NaN course would drop the obstacle from the cull, and a NaN
    # position would score 0
    cands = _set(_line())
    with pytest.raises(ValueError, match="^course must be finite"):
        _select(cands, [_track(60.0, 0.0, math.nan)])
    north = np.full(GRID.n, 60.0)
    north[7] = math.nan
    with pytest.raises(ValueError, match="^north must be finite"):
        _select(cands, [_track(north, 0.0, 0.0)])


def test_coincident_obstacle(monkeypatch):
    # the obstacle passes through the straight candidate's point at t = 12 s
    t = GRID.times()
    course = 2.5
    obs = _track(60.0 + 8.0 * (t - 12.0) * math.cos(course), 8.0 * (t - 12.0) * math.sin(course), course)
    cands = _set(_line())
    (north,), (east,), _ = oracles.leaf_rows(cands)
    assert np.hypot(north[24] - obs.north[24], east[24] - obs.east[24]) == 0.0
    beta = relative_bearing(north[24], east[24], obs.north[24], obs.east[24], course)
    assert beta == wrap_angle(-course)

    at_zero = []

    def recording(geom, x, y):
        out = penalty(geom, x, y)
        at_zero.extend(out[(x == 0.0) & (y == 0.0)])
        return out

    monkeypatch.setattr(objective, "penalty", recording)
    for geom, core in ((GEOM_ELL, 2.0), (GEOM_CIRC, 1.0)):
        at_zero.clear()
        table = _select(cands, [obs], geom=geom)
        assert np.all(np.isfinite(table.avoid))
        assert _agrees(table.avoid[0], oracles.avoid_cost(GRID, north, east, [obs], geom))
        assert at_zero == [core]
        assert penalty_at(geom, 0.0, beta) == core


def test_penalty_field_circular_symmetry():
    x, y, v = penalty_field(GEOM_CIRC, 0.7, half_extent=200.0, cell=10.0)
    d = np.hypot(x, y)
    order = np.argsort(d, kind="stable")
    # same distance -> same value, any direction
    for i in range(len(order) - 1):
        a, b = order[i], order[i + 1]
        if abs(d[a] - d[b]) < 1e-9:
            assert abs(v[a] - v[b]) < 1e-9


def test_penalty_field_starboard_heavier():
    x, y, v = penalty_field(GEOM_ELL, 0.0, half_extent=300.0, cell=5.0)
    starboard = v[y > 0].sum()
    port = v[y < 0].sum()
    assert starboard >= port
    assert np.all(v[np.hypot(x, y) > 300.0] == 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_penalty_field_rejects_a_non_finite_course(bad):
    # a NaN course gave a field of zeros, an infinite one a math domain error
    with pytest.raises(ValueError, match="^obstacle_course must be finite"):
        penalty_field(GEOM_ELL, bad, half_extent=100.0, cell=10.0)
