import dataclasses
import json
import math

import numpy as np
import pytest

from colavmpc import config as cfgm
from colavmpc import scenarios
from colavmpc.cli import main
from colavmpc.config import ConfigError
from colavmpc.core import VesselState, wrap_angle
from colavmpc.guidance import LosParams
from colavmpc.objective import PenaltyGeometry
from colavmpc.obstacles import NOISE_PRESETS, EstimateNoise, ScriptEvent
from colavmpc.vessel import default_gains, default_model


def test_packaged_scenarios_hold_their_encounter_geometry():
    # the packaged files are the one definition of the shipped encounters:
    # a 2.5 m/s target 1000 m out, dead ahead or on a collision course
    for name in scenarios.SCENARIO_NAMES:
        data = scenarios.build_config_dict(name)
        assert cfgm.from_dict(data).name == name
        own, (target,) = data["ownship"], data["obstacles"]
        assert own["sog"] == data["desired"]["speed"] == scenarios.OWN_SOG
        assert target["sog"] == 2.5
        if name in ("head_on", "overtaking"):
            assert (target["north"], target["east"]) == (1000.0, 0.0)
            assert target["course"] == {"head_on": math.pi, "overtaking": 0.0}[name]
            continue
        rel_pos = np.array([target["north"] - own["north"], target["east"] - own["east"]])
        rel_vel = target["sog"] * np.array([math.cos(target["course"]), math.sin(target["course"])])
        rel_vel -= own["sog"] * np.array([math.cos(own["course"]), math.sin(own["course"])])
        assert abs(np.hypot(*rel_pos) - 1000.0) <= 1e-9, name
        # constant bearing: relative velocity points straight at the ownship
        cross = rel_pos[0] * rel_vel[1] - rel_pos[1] * rel_vel[0]
        assert abs(cross) <= 1e-12 * np.hypot(*rel_pos) * np.hypot(*rel_vel), name
        assert rel_pos @ rel_vel < 0.0, name
        assert np.sign(target["east"]) == (1.0 if name == "crossing_starboard" else -1.0)


def test_waypoints_and_custom_noise():
    data = scenarios.build_config_dict("head_on")
    data["desired"] = {
        "kind": "waypoints",
        "speed": 4.0,
        "points": [{"north": 0.0, "east": 0.0}, {"north": 300.0, "east": 50.0}],
    }
    data["noise"] = {"pos_std": 5.0, "sog_std": 0.1, "course_std": 0.2, "latency": 1.0, "period": 2.5}
    cfg = cfgm.from_dict(data)
    # the desired track is the waypoint polyline, traversed at 4 m/s
    assert cfg.desired.position(0.0) == (0.0, 0.0)
    assert cfg.desired.course(0.0) == pytest.approx(math.atan2(50.0, 300.0))
    assert cfg.desired.speed == 4.0
    end = math.hypot(300.0, 50.0) / 4.0
    assert np.allclose(cfg.desired.position(end), (300.0, 50.0))
    assert cfg.noise == EstimateNoise(pos_std=5.0, sog_std=0.1, course_std=0.2, latency=1.0, period=2.5)


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
    # an override is a replaced field, as the CLI's --noise applies it
    cfg_radar = dataclasses.replace(cfg, noise=NOISE_PRESETS["radar"])
    assert cfg_radar.noise == NOISE_PRESETS["radar"]
    assert cfg_radar.noise != cfg.noise


def test_seed_override():
    cfg = cfgm.from_dict(scenarios.build_config_dict("head_on", seed=1))
    assert dataclasses.replace(cfg, seed=42).seed == 42


def test_noise_flag_rejects_unknown_presets(tmp_path, capsys):
    # the CLI's --noise takes only a preset name: anything else is an
    # argument error (exit 2) naming the flag, from --config or --scenario
    cfg_path = tmp_path / "head_on.json"
    cfg_path.write_text(json.dumps(scenarios.build_config_dict("head_on")))
    for source in (["--config", str(cfg_path)], ["--scenario", "head_on"]):
        with pytest.raises(SystemExit) as exc:
            main(["run", *source, "--noise", "sonar", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "argument --noise: invalid choice: 'sonar'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_flag_applies_to_a_valid_config_only(tmp_path, capsys):
    # --seed replaces the seed of the config as loaded, so a file whose
    # own seed breaks the rule is still the config error naming it
    cfg_path = tmp_path / "head_on.json"
    cfg_path.write_text(json.dumps(scenarios.build_config_dict("head_on", seed=-1)))
    assert main(["solve", "--config", str(cfg_path), "--seed", "3"]) == 1
    assert capsys.readouterr().err == "error: config.seed: must be >= 0\n"


def test_negative_seeds_rejected():
    # numpy's generators take no negative seed: each is a config error
    # naming its key, not a crash once the run starts
    data = scenarios.build_config_dict("head_on", seed=-1)
    with pytest.raises(ConfigError) as err:
        cfgm.from_dict(data)
    assert str(err.value) == "config.seed: must be >= 0"
    data = scenarios.build_config_dict("head_on")
    assert cfgm.from_dict(data).seed == 0
    # the tracker draws from the scenario seed; noise takes none of its own
    data["noise"] = {"pos_std": 1.0, "sog_std": 0.1, "course_std": 0.01, "latency": 0.0,
                     "period": 2.5, "seed": 7}
    with pytest.raises(ConfigError) as err:
        cfgm.from_dict(data)
    assert str(err.value) == "config.noise.seed: unknown key"
    del data["noise"]["seed"]
    # an override meets the config's own rule
    with pytest.raises(ValueError) as err:
        dataclasses.replace(cfgm.from_dict(data), seed=-3)
    assert str(err.value) == "config.seed: must be >= 0"


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.__setitem__("schema_version", 1), "schema_version"),
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
    assert len(cfgm.from_dict(_planner((5.0,))).levels) == 1
    with pytest.raises(ConfigError, match="step_times") as err:
        cfgm.from_dict(_planner((5.0, 12.0, 30.0)))
    assert "first step time" in str(err.value)


def test_planner_period_is_the_first_step_time():
    cfg = cfgm.from_dict(_planner((10.0, 20.0, 30.0)))
    assert cfg.planner_period == cfg.tree.step_times[0] == 10.0
    data = scenarios.build_config_dict("head_on")
    data["planner"]["period"] = 5.0
    with pytest.raises(ConfigError) as err:
        cfgm.from_dict(data)
    assert str(err.value) == "config.planner.period: unknown key"


def test_duration_is_a_whole_number_of_replan_periods():
    # sim.run plans at every period start before the last step, so a
    # partial last period would make one more call than duration / period
    data = scenarios.build_config_dict("head_on")
    data["duration"] = 202.0
    with pytest.raises(ConfigError) as err:
        cfgm.from_dict(data)
    assert str(err.value) == "duration: must be an integer multiple of the first step time"
    # the integration grid is checked first
    data["duration"] = 202.05
    with pytest.raises(ConfigError) as err:
        cfgm.from_dict(data)
    assert str(err.value) == "duration: must be an integer multiple of integration_dt"


@pytest.mark.parametrize(
    "eval_dt,message",
    [
        # each id names the rule its value breaks, in the config's keys
        pytest.param(0.0, "eval_dt 0.0 must be an integer multiple of dt 0.1 and > 0", id="0.0-eval_dt must be > 0"),
        pytest.param(-0.5, "eval_dt -0.5 must be an integer multiple of dt 0.1 and > 0", id="-0.5-eval_dt must be > 0"),
        pytest.param(
            0.25, "eval_dt 0.25 must be an integer multiple of dt 0.1 and > 0",
            id="0.25-planner.eval_dt: must be an integer multiple of integration_dt",
        ),
        pytest.param(
            2.0, "eval_dt 2.0 must divide every step time, but step time 5.0 is no multiple of it (dt 0.1)",
            id="2.0-planner.step_times: must be an integer multiple of eval_dt",
        ),
    ],
)
def test_eval_dt_rules(eval_dt, message):
    # tree.build_levels states the rules, and from_dict names the section
    data = scenarios.build_config_dict("head_on")
    data["planner"]["eval_dt"] = eval_dt
    with pytest.raises(ConfigError) as err:
        cfgm.from_dict(data)
    assert str(err.value) == f"planner: {message}"


@pytest.mark.parametrize(
    "name,value",
    [
        ("integration_dt", 0.0), ("integration_dt", -0.1), ("integration_dt", math.nan),
        ("integration_dt", math.inf), ("duration", 0.0), ("duration", -5.0),
        ("duration", math.nan), ("duration", math.inf),
    ],
)
def test_scenario_config_rejects_a_bad_step_or_duration(name, value):
    # through the Python API these failed late, in build_levels or sim.run,
    # with errors that did not name the field (from_dict rejects them first)
    config = scenarios.build_scenario("head_on")
    with pytest.raises(ValueError) as err:
        dataclasses.replace(config, **{name: value})
    assert str(err.value) == f"{name} must be finite and > 0, got {value}"


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


def _vessel_section(**changes):
    """The default vessel model as a config section, with changes."""
    model = dataclasses.asdict(default_model())
    return {k: list(v) if isinstance(v, tuple) else v for k, v in {**model, **changes}.items()}


_GAINS = {"kp": [0.6, 2.2, 1.0], "ki": [0.05, 0.02]}
_A, _B = (50.0, 150.0, 250.0), (25.0, 75.0, 125.0)


@pytest.mark.parametrize(
    "corrupt,build,section,field",
    [
        pytest.param(lambda d: d.update(duration=200.05), lambda c: dataclasses.replace(c, duration=200.05),
                     "", "duration", id="duration-integration_dt"),
        pytest.param(lambda d: d.update(duration=202.0), lambda c: dataclasses.replace(c, duration=202.0),
                     "", "duration", id="duration-period"),
        pytest.param(lambda d: d.update(seed=-1), lambda c: dataclasses.replace(c, seed=-1), "", "seed", id="seed"),
        pytest.param(lambda d: d["ownship"].update(sog=-1.0),
                     lambda c: dataclasses.replace(c, ownship=c.ownship._replace(sog=-1.0)),
                     "", "ownship", id="ownship-sog"),
        pytest.param(lambda d: d["obstacles"].append(dict(d["obstacles"][0])),
                     lambda c: dataclasses.replace(c, obstacles=c.obstacles * 2),
                     "", "obstacles", id="duplicate-id"),
        pytest.param(lambda d: d["planner"].update(step_times=[5.0, 12.0, 30.0]),
                     lambda c: dataclasses.replace(c.tree, step_times=(5.0, 12.0, 30.0)),
                     "planner: ", "step_times", id="step_times"),
        pytest.param(lambda d: d.update(vessel=_vessel_section(tau_min=[0.05], tau_max=[1.0])),
                     lambda c: dataclasses.replace(c.vessel, tau_min=(0.05,), tau_max=(1.0,)),
                     "vessel: ", "tau_min", id="tau_min"),
        pytest.param(lambda d: d.update(vessel=_vessel_section(tau_max=[1.0, 1.0, 1.0])),
                     lambda c: dataclasses.replace(c.vessel, tau_max=(1.0, 1.0, 1.0)),
                     "vessel: ", "tau_max", id="tau_max"),
        pytest.param(lambda d: d.update(vessel=_vessel_section(tau_rate_min=[-0.5])),
                     lambda c: dataclasses.replace(c.vessel, tau_rate_min=(-0.5,)),
                     "vessel: ", "tau_rate_min", id="tau_rate_min"),
        pytest.param(lambda d: d.update(vessel=_vessel_section(tau_rate_max=[0.5, 0.5, 0.5])),
                     lambda c: dataclasses.replace(c.vessel, tau_rate_max=(0.5, 0.5, 0.5)),
                     "vessel: ", "tau_rate_max", id="tau_rate_max"),
        # inertia at or below 0 inverted the tree's rot ranges (m_r0 -2) or
        # held every call (m_u0 -0.5); m_u1 -0.03 makes it negative at u_max
        pytest.param(lambda d: d.update(vessel=_vessel_section(m_r0=-2.0)),
                     lambda c: dataclasses.replace(c.vessel, m_r0=-2.0), "vessel: ", "m_r0=-2.0", id="m_r0"),
        pytest.param(lambda d: d.update(vessel=_vessel_section(m_u0=-0.5)),
                     lambda c: dataclasses.replace(c.vessel, m_u0=-0.5), "vessel: ", "m_u0=-0.5", id="m_u0"),
        pytest.param(lambda d: d.update(vessel=_vessel_section(m_u1=-0.03)),
                     lambda c: dataclasses.replace(c.vessel, m_u1=-0.03), "vessel: ", "m_u1=-0.03", id="m_u1"),
        pytest.param(lambda d: d.update(gains={**_GAINS, "kp": [-0.6, 2.2, 1.0]}),
                     lambda c: dataclasses.replace(c.gains, kp_sog=-0.6), "gains: ", "kp_sog", id="kp"),
        pytest.param(lambda d: d.update(gains={**_GAINS, "ki": [0.05, 0.0]}),
                     lambda c: dataclasses.replace(c.gains, ki_course=0.0), "gains: ", "ki_course", id="ki"),
        pytest.param(lambda d: d.update(gains={**_GAINS, "integral_limit": -1.0}),
                     lambda c: dataclasses.replace(c.gains, integral_limit=-1.0),
                     "gains: ", "integral_limit", id="integral_limit"),
        pytest.param(lambda d: d.update(penalty={"kind": "circular", "gamma1": 0.1, "radii": [25.0, 75.0]}),
                     lambda c: PenaltyGeometry.circular((25.0, 75.0), 0.1), "penalty: ", "radii", id="radii"),
        pytest.param(lambda d: d["penalty"].update(a=[*_A, 350.0]),
                     lambda c: PenaltyGeometry.elliptical((*_A, 350.0), _B, 100.0, 0.1), "penalty: ", "a", id="a"),
        pytest.param(lambda d: d["penalty"].update(b=[*_B, 175.0]),
                     lambda c: PenaltyGeometry.elliptical(_A, (*_B, 175.0), 100.0, 0.1), "penalty: ", "b", id="b"),
        pytest.param(lambda d: d["obstacles"][0].update(events=[{"t": 10.0, "sog": -3.0}]),
                     lambda c: dataclasses.replace(c.obstacles[0], events=(ScriptEvent(10.0, sog=-3.0),)),
                     "obstacles[target]: ", "events[0].sog", id="event-sog"),
        pytest.param(lambda d: d["obstacles"][0].update(id="a,b"),
                     lambda c: dataclasses.replace(c.obstacles[0], id="a,b"),
                     "obstacles[a,b]: ", "id", id="obstacle-id"),
    ],
)
def test_each_rule_is_checked_by_its_owner_on_both_paths(corrupt, build, section, field):
    # the record that owns a value rejects it, however it is built: the
    # JSON corruption is that ValueError as a ConfigError, under its section
    data = scenarios.build_config_dict("head_on")
    corrupt(data)
    with pytest.raises(ConfigError) as from_json:
        cfgm.from_dict(data)
    with pytest.raises(ValueError) as from_api:
        build(scenarios.build_scenario("head_on"))
    assert type(from_api.value) is ValueError
    assert field in str(from_api.value)
    assert str(from_json.value) == section + str(from_api.value)


# one broken value per section, and the start of its record's rule error
_BROKEN_VALUES = {
    "planner": (lambda d: d["planner"].update(t_ramp=-1.0), "planner: t_ramp must be > 0"),
    "vessel": (lambda d: d.update(vessel=_vessel_section(tau_min=[0.05])), "vessel: tau_min needs 2 entries"),
    "guidance": (lambda d: d["guidance"].update(lookahead=-1.0), "guidance: lookahead"),
    "weights": (lambda d: d["weights"].update(avoid=-1.0), "weights: term weights must be >= 0"),
    "penalty": (lambda d: d["penalty"].update(a=[50.0, 150.0]), "penalty: a needs 3 entries"),
    "gains": (lambda d: d.update(gains={**_GAINS, "kp": [-0.6, 2.2, 1.0]}), "gains: kp_sog must be > 0"),
    "desired": (lambda d: d["desired"].update(speed=-1.0), "desired: speed must be finite and > 0"),
    "noise": (
        lambda d: d.update(noise={"pos_std": -1.0, "sog_std": 0.1, "course_std": 0.2, "latency": 1.0, "period": 2.5}),
        "noise: noise parameters must be >= 0",
    ),
    "obstacles[0]": (lambda d: d["obstacles"][0].update(sog=-1.0), "obstacles[target]: sog must be >= 0"),
}


@pytest.mark.parametrize("section", _BROKEN_VALUES)
def test_each_section_reports_its_json_shape_before_its_record_rules(section):
    # a broken value alone is its record's rule; with an unknown key in the
    # same section, the key is reported first, whichever section it is
    corrupt, rule = _BROKEN_VALUES[section]
    data = scenarios.build_config_dict("head_on")
    corrupt(data)
    with pytest.raises(ConfigError) as err:
        cfgm.from_dict(data)
    assert str(err.value).startswith(rule)
    (data["obstacles"][0] if section == "obstacles[0]" else data[section])["bogus"] = 1
    with pytest.raises(ConfigError) as err:
        cfgm.from_dict(data)
    assert str(err.value) == f"config.{section}.bogus: unknown key"


@pytest.mark.parametrize("obs_id", ["a,b", "a\rb", "a\nb", "a\r\n"])
def test_an_obstacle_id_that_would_break_trajectory_csv_is_rejected(obs_id):
    # trajectory.csv names each obstacle's columns by its id: a comma
    # would add header fields its rows lack, a CR or LF split the header
    data = scenarios.build_config_dict("head_on")
    data["duration"] = 10.0
    data["obstacles"][0]["id"] = obs_id
    with pytest.raises(ConfigError) as err:
        cfgm.from_dict(data)
    assert str(err.value) == f"obstacles[{obs_id}]: id must not contain a comma, CR or LF, got {obs_id!r}"


def test_gain_lists_need_one_entry_per_named_gain():
    # the JSON shape: kp and ki map onto (sog, rot, course) and (sog, course)
    data = scenarios.build_config_dict("head_on")
    for gains, message in [
        ({**_GAINS, "kp": [0.6, 2.2]}, "config.gains.kp: expected 3 entries, got 2"),
        ({**_GAINS, "ki": [0.05, 0.02, 0.01]}, "config.gains.ki: expected 2 entries, got 3"),
    ]:
        data["gains"] = gains
        with pytest.raises(ConfigError) as err:
            cfgm.from_dict(data)
        assert str(err.value) == message


def test_scenario_config_rejects_a_bad_ownship_or_seed_type():
    config = scenarios.build_scenario("head_on")
    with pytest.raises(ValueError, match=r"^config\.ownship: north must be finite, got nan$"):
        dataclasses.replace(config, ownship=config.ownship._replace(north=math.nan))
    with pytest.raises(ValueError, match=r"^config\.seed: must be an integer, got 1\.5$"):
        dataclasses.replace(config, seed=1.5)


@pytest.mark.parametrize("course", [4.0, math.pi, -math.pi - 1e-12])
def test_scenario_config_rejects_an_ownship_course_outside_the_wrap_range(course):
    # from_dict wraps the course; the record takes only an already
    # wrapped one, since wrapping again would move an in-range course's bits
    config = scenarios.build_scenario("head_on")
    with pytest.raises(ValueError, match=r"^config\.ownship: course must be in \[-pi, pi\), got "):
        dataclasses.replace(config, ownship=VesselState(0.0, 0.0, course, 5.0, 0.0))
    assert dataclasses.replace(config, ownship=VesselState(0.0, 0.0, -math.pi, 5.0, 0.0)).ownship.course == -math.pi


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
