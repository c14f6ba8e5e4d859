import json
import math

import numpy as np
import pytest

from colavmpc import config as cfgm
from colavmpc import scenarios
from colavmpc.config import ConfigError
from colavmpc.core import VesselState, wrap_angle
from colavmpc.guidance import LosParams
from colavmpc.obstacles import NOISE_PRESETS
from colavmpc.vessel import default_gains


def test_packaged_scenario_files_match_builders():
    # --scenario and the golden fixture read the packaged files; the bench
    # and the scripts build the same dicts in code
    for name in scenarios.SCENARIO_NAMES:
        data = scenarios.build_config_dict(name)
        assert json.loads(scenarios.scenario_text(name)) == data
        assert cfgm.from_dict(data).name == name


def test_waypoints_and_custom_noise():
    data = scenarios.build_config_dict("head_on")
    data["desired"] = {
        "kind": "waypoints",
        "speed": 4.0,
        "points": [{"north": 0.0, "east": 0.0}, {"north": 300.0, "east": 50.0}],
    }
    data["noise"] = {"pos_std": 5.0, "sog_std": 0.1, "course_std": 0.2, "latency": 1.0, "period": 2.5, "seed": 3}
    cfg = cfgm.from_dict(data)
    # the desired track is the waypoint polyline, traversed at 4 m/s
    assert cfg.desired.position(0.0) == (0.0, 0.0)
    assert cfg.desired.course(0.0) == pytest.approx(math.atan2(50.0, 300.0))
    assert cfg.desired.speed == 4.0
    end = math.hypot(300.0, 50.0) / 4.0
    assert np.allclose(cfg.desired.position(end), (300.0, 50.0))
    assert cfg.noise.seed == 3
    assert cfg.noise_preset is None


def test_ownship_is_a_vessel_state_with_a_wrapped_course():
    data = scenarios.build_config_dict("head_on")
    data["ownship"].update(north=10.0, east=-20.0, course=3 * math.pi / 2, sog=4.0)
    del data["ownship"]["rot"]
    own = cfgm.from_dict(data).ownship
    assert own == VesselState(10.0, -20.0, wrap_angle(3 * math.pi / 2), 4.0, 0.0)
    assert own.course == pytest.approx(-math.pi / 2, abs=1e-12)


def test_obstacle_events_parsed():
    data = scenarios.build_config_dict("crossing_starboard")
    data["obstacles"][0]["events"] = [{"t": 60.0, "course": -2.3}, {"t": 90.0, "sog": 1.0}]
    cfg = cfgm.from_dict(data)
    assert cfg.obstacles[0].events[0].course == -2.3
    assert cfg.obstacles[0].events[1].sog == 1.0
    assert cfg.obstacles[0].events[0].sog is None
    assert cfg.obstacles[0].events[1].course is None
    assert [ev.t for ev in cfg.obstacles[0].events] == [60.0, 90.0]


def test_noise_preset_lookup_and_override():
    data = scenarios.build_config_dict("head_on", noise="ais")
    cfg = cfgm.from_dict(data)
    assert cfg.noise == NOISE_PRESETS["ais"]
    cfg_radar = cfgm.from_dict(data, noise_override="radar")
    assert cfg_radar.noise == NOISE_PRESETS["radar"]
    assert cfg_radar.noise_preset == "radar"
    with pytest.raises(ConfigError):
        cfgm.from_dict(data, noise_override="sonar")


def test_seed_override():
    data = scenarios.build_config_dict("head_on", seed=1)
    assert cfgm.from_dict(data, seed_override=42).seed == 42


def test_negative_seeds_rejected():
    # numpy's generators take no negative seed: each is a config error
    # naming its key, not a crash once the run starts
    data = scenarios.build_config_dict("head_on", seed=-1)
    with pytest.raises(ConfigError) as err:
        cfgm.from_dict(data)
    assert str(err.value) == "config.seed: must be >= 0"
    data = scenarios.build_config_dict("head_on")
    data["noise"] = {"pos_std": 1.0, "sog_std": 0.1, "course_std": 0.01, "latency": 0.0,
                     "period": 2.5, "seed": -7}
    with pytest.raises(ConfigError) as err:
        cfgm.from_dict(data)
    assert str(err.value) == "config.noise.seed: must be >= 0"
    data["noise"]["seed"] = 0
    assert cfgm.from_dict(data).tracker_seed == 0
    with pytest.raises(ConfigError, match="seed override: must be >= 0"):
        cfgm.from_dict(data, seed_override=-3)


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.__setitem__("schema_version", 2), "schema_version"),
        (lambda d: d["planner"].__setitem__("period", 7.0), "period"),
        (lambda d: d["planner"].__setitem__("step_times", [5.0, 20.0, 30.5]), "step_times"),
        (lambda d: d["planner"].__setitem__("t_ramp", 3.0), "planner"),
        (lambda d: d["penalty"].__setitem__("gamma1", 1.2), "gamma1"),
        (lambda d: d["penalty"].__setitem__("a", [50.0, 150.0]), "3 entries"),
        (lambda d: d["weights"].__setitem__("avoid", -1.0), "weights"),
        (lambda d: d["ownship"].__setitem__("sog", -2.0), "ownship"),
        (lambda d: d["desired"].__setitem__("kind", "spiral"), "kind"),
        (lambda d: d.__setitem__("duration", -5.0), "duration"),
        (lambda d: d.__setitem__("duration", 12.34), "duration: must be an integer multiple"),
        (lambda d: d.__setitem__("duration", 0.04), "duration: must be an integer multiple"),
        (lambda d: d["obstacles"][0].__setitem__("sog", -1.0), "obstacles"),
        (lambda d: d["noise"].__setitem__("preset", "sonar"), "preset"),
    ],
)
def test_invariant_violations_name_the_key(mutate, fragment):
    data = scenarios.build_config_dict("head_on")
    mutate(data)
    with pytest.raises(ConfigError) as err:
        cfgm.from_dict(data)
    assert fragment in str(err.value)


def _planner(step_times):
    data = scenarios.build_config_dict("head_on")
    levels = len(step_times)
    data["planner"].update(step_times=list(step_times), n_sog=[1] * levels, n_course=[3] * levels)
    return data


def test_step_times_must_be_multiples_of_the_period():
    assert cfgm.from_dict(_planner((5.0, 20.0, 30.0))).tree.step_times == (5.0, 20.0, 30.0)
    assert cfgm.from_dict(_planner((5.0,))).tree.levels == 1
    with pytest.raises(ConfigError, match="step_times") as err:
        cfgm.from_dict(_planner((5.0, 12.0, 30.0)))
    assert "period" in str(err.value)


@pytest.mark.parametrize(
    "eval_dt,fragment",
    [
        (0.0, "eval_dt must be > 0"),
        (-0.5, "eval_dt must be > 0"),
        (0.25, "planner.eval_dt: must be an integer multiple of integration_dt"),
        (2.0, "planner.period: must be an integer multiple of eval_dt"),
    ],
)
def test_eval_dt_rules(eval_dt, fragment):
    data = scenarios.build_config_dict("head_on")
    data["planner"]["eval_dt"] = eval_dt
    with pytest.raises(ConfigError, match=fragment):
        cfgm.from_dict(data)


def _number_leaves(node, path=()):
    """Key paths of every float in a config dict."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _number_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _number_leaves(value, path + (i,))
    elif isinstance(node, float):
        yield path


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_rejected(bad):
    # json.loads accepts NaN and Infinity; every number field refuses them
    original = scenarios.build_config_dict("crossing_starboard")
    paths = list(_number_leaves(original))
    assert len(paths) > 30
    for path in paths:
        data = json.loads(json.dumps(original))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = bad
        with pytest.raises(ConfigError) as err:
            cfgm.from_dict(data)
        name = "config" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
        assert str(err.value) == f"{name}: expected a finite number"


def test_library_errors_name_their_section_once():
    data = scenarios.build_config_dict("head_on")
    data["guidance"]["lookahead"] = -1.0
    with pytest.raises(ConfigError) as err:
        cfgm.from_dict(data)
    assert str(err.value) == "guidance: lookahead and along_track_gain must be > 0"
    del data["guidance"]["lookahead"]
    with pytest.raises(ConfigError) as err:
        cfgm.from_dict(data)
    assert str(err.value) == "config.guidance.lookahead: missing required key"


def test_default_gains_and_guidance_come_from_their_owners():
    cfg = cfgm.from_dict(scenarios.build_config_dict("head_on"))
    default = default_gains()
    assert cfg.gains == default
    data = scenarios.build_config_dict("head_on")
    del data["guidance"]["epsilon"]
    data["gains"] = {"kp": [0.5, 2.0, 0.8], "ki": [0.04, 0.01]}
    cfg = cfgm.from_dict(data)
    assert cfg.los.epsilon == LosParams.epsilon
    assert cfg.los.u_max_los == cfg.vessel.u_max
    assert cfg.gains.integral_limit == default.integral_limit
    assert (cfg.gains.kp_sog, cfg.gains.kp_rot, cfg.gains.kp_course) == (0.5, 2.0, 0.8)
    assert (cfg.gains.ki_sog, cfg.gains.ki_course) == (0.04, 0.01)


def test_duplicate_obstacle_ids_rejected():
    data = scenarios.build_config_dict("head_on")
    data["obstacles"].append(dict(data["obstacles"][0]))
    with pytest.raises(ConfigError, match="duplicate"):
        cfgm.from_dict(data)


def test_vessel_override_loaded():
    data = scenarios.build_config_dict("head_on")
    data["vessel"] = {
        "m_u0": 0.5, "m_u1": 0.03, "m_r0": 2.0, "m_r1": 0.2,
        "d_u1": 0.014, "d_u2": 0.0023, "d_r1": 2.0, "d_r2": 3.2, "d_ru": 0.24,
        "tau_min": [0.05, -1.0], "tau_max": [1.0, 1.0],
        "tau_rate_min": [-0.5, -0.5], "tau_rate_max": [0.5, 0.5],
        "u_max": 15.0, "u_min": 2.0,
    }
    cfg = cfgm.from_dict(data)
    assert cfg.vessel.u_max == 15.0
    assert cfg.los.u_max_los == 15.0  # guidance cap follows the model by default


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        cfgm.load(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        cfgm.load(path)
