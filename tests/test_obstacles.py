import math

import numpy as np
import pytest

from colavmpc.core import TimeGrid
from colavmpc.obstacles import (
    NOISE_PRESETS,
    EstimateNoise,
    ObstacleEstimate,
    ObstacleScript,
    ScriptEvent,
    ground_truth,
    observe,
    predict_obstacle,
)


def _script(**kw):
    base = dict(id="obs", north=0.0, east=0.0, sog=2.5, course=0.0)
    base.update(kw)
    return ObstacleScript(**base)


def test_ground_truth_constant_velocity():
    n, e, sog, course = ground_truth(_script(), 60.0)
    assert n == pytest.approx(150.0)
    assert e == pytest.approx(0.0)
    assert (sog, course) == (2.5, 0.0)


def test_ground_truth_initial_position():
    n, e, _, _ = ground_truth(_script(north=7.0, east=-3.0), 0.0)
    assert (n, e) == (7.0, -3.0)


def test_ground_truth_continuous_across_event():
    script = _script(events=(ScriptEvent(t=30.0, course=math.pi / 2),))
    before = ground_truth(script, 30.0 - 1e-9)
    after = ground_truth(script, 30.0 + 1e-9)
    assert before[0] == pytest.approx(after[0], abs=1e-6)
    assert before[1] == pytest.approx(after[1], abs=1e-6)
    n, e, _, course = ground_truth(script, 40.0)
    assert course == pytest.approx(math.pi / 2)
    assert (n, e) == (pytest.approx(75.0), pytest.approx(25.0))


@pytest.mark.parametrize("n_events", range(5))
def test_ground_truth_float_has_the_array_bits(n_events):
    # a float time gives four floats with the bits of an array call, at
    # t = 0 and at each event time and its float neighbours, zero-length
    # segments included
    events = (
        ScriptEvent(t=12.5, sog=4.0),
        ScriptEvent(t=30.0, course=2.9),
        ScriptEvent(t=30.0, sog=0.0),
        ScriptEvent(t=47.3, sog=1.5, course=-4.0),
    )[:n_events]
    script = _script(north=-3.7, east=11.1, course=0.4, events=events)
    times = [0.0, 0.1, 1e5] + [
        x for ev in events for x in (math.nextafter(ev.t, -math.inf), ev.t, math.nextafter(ev.t, math.inf))
    ]
    batch = np.array(ground_truth(script, np.array(times)))
    for i, t in enumerate(times):
        truth = ground_truth(script, t)
        assert all(type(x) is float for x in truth)
        assert np.array(truth).tobytes() == batch[:, i].tobytes()
    assert all(math.isnan(x) for x in ground_truth(script, math.nan))
    with pytest.raises(ValueError):
        ground_truth(script, -1e-9)


def test_script_validation():
    with pytest.raises(ValueError):
        _script(sog=-1.0)
    with pytest.raises(ValueError):
        _script(events=(ScriptEvent(t=10.0), ScriptEvent(t=5.0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_script_rejects_non_finite_values(bad):
    # these failed later, in ObstaclePrediction or wrap_angle, naming
    # neither the obstacle nor the field
    for field in ("north", "east", "sog", "course"):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            _script(**{field: bad})
    for field in ("t", "sog", "course"):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ScriptEvent(**{"t": 10.0, field: bad})
    # an absent event sog or course keeps the script's own
    assert ScriptEvent(t=10.0) == ScriptEvent(10.0, None, None)


def test_script_rejects_a_negative_event_sog():
    # a -3 m/s event made the ground truth back up while the tracker's
    # estimate clamped at 0
    with pytest.raises(ValueError, match=r"^events\[1\]\.sog must be >= 0, got -3\.0$"):
        _script(events=(ScriptEvent(t=5.0, course=1.0), ScriptEvent(t=10.0, sog=-3.0)))
    assert _script(events=(ScriptEvent(t=10.0, sog=0.0),)).events[0].sog == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_noise_rejects_non_finite_values(bad):
    # a NaN period stopped the tracker after its first update at t = 0
    for field in ("pos_std", "sog_std", "course_std", "latency", "period"):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            EstimateNoise(**{field: bad})


def test_observe_noiseless_matches_truth():
    noise = EstimateNoise()
    est = observe(_script(), noise, 42.5, np.random.default_rng(0))
    n, e, sog, course = ground_truth(_script(), 42.5)
    assert (est.north, est.east, est.sog, est.course) == (n, e, sog, course)
    assert est.timestamp == 42.5


def test_observe_latency_shifts_timestamp():
    noise = EstimateNoise(latency=2.5)
    est = observe(_script(), noise, 10.0, np.random.default_rng(0))
    assert est.timestamp == 7.5
    assert est.north == pytest.approx(7.5 * 2.5)
    # clamped at the scenario start
    est0 = observe(_script(), noise, 1.0, np.random.default_rng(0))
    assert est0.timestamp == 0.0


def test_observe_deterministic_under_seed():
    noise = NOISE_PRESETS["radar"]
    a = observe(_script(), noise, 10.0, np.random.default_rng(123))
    b = observe(_script(), noise, 10.0, np.random.default_rng(123))
    assert (a.north, a.east, a.sog, a.course) == (b.north, b.east, b.sog, b.course)


def test_observe_course_noise_tail():
    # 10 deg std: draws live within 4 sigma of truth (seeded, deterministic),
    # and the sample std lands near the configured value
    noise = EstimateNoise(course_std=math.radians(10.0))
    rng = np.random.default_rng(7)
    errs = np.array(
        [observe(_script(), noise, 0.0, rng).course for _ in range(10_000)]
    )
    assert np.max(np.abs(errs)) < math.radians(40.0)
    assert math.degrees(errs.std()) == pytest.approx(10.0, rel=0.05)


def test_observe_clamps_sog():
    noise = EstimateNoise(sog_std=5.0)
    rng = np.random.default_rng(3)
    sogs = [observe(_script(sog=0.5), noise, 0.0, rng).sog for _ in range(200)]
    assert min(sogs) >= 0.0


def test_predict_stationary():
    est = observe(_script(sog=0.0, north=5.0, east=6.0), EstimateNoise(), 0.0, np.random.default_rng(0))
    pred = predict_obstacle(est, TimeGrid.from_span(0.0, 55.0, 0.5))
    assert np.all(pred.north == 5.0)
    assert np.all(pred.east == 6.0)


def test_predict_constant_velocity_offset():
    est = observe(_script(course=math.pi / 2), EstimateNoise(), 0.0, np.random.default_rng(0))
    pred = predict_obstacle(est, TimeGrid.from_span(0.0, 55.0, 0.5))
    assert pred.east[-1] == pytest.approx(137.5, abs=1e-9)
    assert pred.north[-1] == pytest.approx(0.0, abs=1e-9)


def test_predict_anchored_at_timestamp():
    est = observe(_script(), EstimateNoise(), 12.0, np.random.default_rng(0))
    pred = predict_obstacle(est, TimeGrid.from_span(12.0, 10.0, 0.5))
    assert pred.north[0] == pytest.approx(est.north)
    with pytest.raises(ValueError):
        predict_obstacle(est, TimeGrid.from_span(5.0, 10.0, 0.5))


@pytest.mark.parametrize("field", ["north", "east", "course"])
def test_predict_rejects_a_non_finite_estimate(field):
    # a NaN course would otherwise NaN every predicted position, and a
    # NaN position would score 0 in the avoid term
    fields = dict(id="obs", north=5.0, east=6.0, sog=2.0, course=0.3, timestamp=0.0)
    est = ObstacleEstimate(**{**fields, field: math.nan})
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        predict_obstacle(est, TimeGrid.from_span(0.0, 55.0, 0.5))


def test_predict_lies_on_ray():
    est = observe(_script(course=0.7), NOISE_PRESETS["radar"], 20.0, np.random.default_rng(5))
    pred = predict_obstacle(est, TimeGrid.from_span(20.0, 30.0, 0.5))
    dn = np.diff(pred.north)
    de = np.diff(pred.east)
    headings = np.arctan2(de, dn)
    np.testing.assert_allclose(headings, est.course, atol=1e-9)
    assert pred.course == est.course


def test_noiseless_prediction_matches_future_truth():
    script = _script(course=0.3)
    est = observe(script, EstimateNoise(), 10.0, np.random.default_rng(0))
    grid = TimeGrid.from_span(10.0, 40.0, 0.5)
    pred = predict_obstacle(est, grid)
    for i, t in enumerate(grid.times()):
        n, e, _, _ = ground_truth(script, float(t))
        assert pred.north[i] == pytest.approx(n, abs=1e-9)
        assert pred.east[i] == pytest.approx(e, abs=1e-9)
