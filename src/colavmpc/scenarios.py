"""Shipped scenario library.

Four encounter geometries against a 2.5 m/s obstacle, scaled to a
1000 m initial separation with the ownship tracking a straight-line
5 m/s desired trajectory. Crossing obstacles are placed on a
constant-bearing collision course. Builders produce full config dicts;
the packaged JSON files are generated from them.
"""

from __future__ import annotations

import importlib.resources
import math

from .config import SCHEMA_VERSION, ScenarioConfig, from_dict

SCENARIO_NAMES = ("head_on", "crossing_starboard", "overtaking", "crossing_port")

OWN_SOG = 5.0
OBSTACLE_SOG = 2.5
SEPARATION = 1000.0


def _crossing_position(obstacle_course: float) -> tuple[float, float]:
    """Initial obstacle position for a collision course at SEPARATION."""
    rel_vn = OBSTACLE_SOG * math.cos(obstacle_course) - OWN_SOG
    rel_ve = OBSTACLE_SOG * math.sin(obstacle_course)
    speed = math.hypot(rel_vn, rel_ve)
    t_collision = SEPARATION / speed
    return -rel_vn * t_collision, -rel_ve * t_collision


def build_config_dict(name: str, seed: int = 0, noise: str = "none") -> dict:
    if name == "head_on":
        obstacle = {"north": SEPARATION, "east": 0.0, "course": math.pi}
        duration = 200.0
    elif name == "crossing_starboard":
        n, e = _crossing_position(-math.pi / 2)
        obstacle = {"north": n, "east": e, "course": -math.pi / 2}
        duration = 240.0
    elif name == "crossing_port":
        n, e = _crossing_position(math.pi / 2)
        obstacle = {"north": n, "east": e, "course": math.pi / 2}
        duration = 240.0
    elif name == "overtaking":
        obstacle = {"north": SEPARATION, "east": 0.0, "course": 0.0}
        duration = 480.0
    else:
        raise ValueError(f"unknown scenario {name!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "seed": seed,
        "duration": duration,
        "integration_dt": 0.1,
        "planner": {
            "eval_dt": 0.5,
            "step_times": [5.0, 20.0, 30.0],
            "n_sog": [5, 1, 1],
            "n_course": [5, 3, 3],
            "t_ramp": 1.0,
            "t_sog": 5.0,
            "t_course": 5.0,
            "tc_sog": 5.0,
            "tc_course": 5.0,
        },
        "guidance": {"lookahead": 500.0, "along_track_gain": 0.005, "epsilon": 0.05},
        "weights": {"align": 1.0, "avoid": 6000.0, "tran": 4200.0, "course": 100.0},
        "penalty": {
            "kind": "elliptical_colregs",
            "gamma1": 0.1,
            "a": [50.0, 150.0, 250.0],
            "b": [25.0, 75.0, 125.0],
            "d_colregs": 100.0,
        },
        "ownship": {"north": 0.0, "east": 0.0, "course": 0.0, "sog": OWN_SOG, "rot": 0.0},
        "desired": {"kind": "line", "speed": OWN_SOG, "north": 0.0, "east": 0.0, "course": 0.0},
        "obstacles": [{"id": "target", "sog": OBSTACLE_SOG, **obstacle}],
        "noise": {"preset": noise},
    }


def build_scenario(name: str, seed: int = 0, noise: str = "none") -> ScenarioConfig:
    return from_dict(build_config_dict(name, seed=seed, noise=noise))


def scenario_text(name: str) -> str:
    """Raw JSON text of a packaged scenario file."""
    if name not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    res = importlib.resources.files("colavmpc").joinpath(f"scenarios/{name}.json")
    return res.read_text()


def load_scenario(
    name: str, *, noise_override: str | None = None, seed_override: int | None = None
) -> ScenarioConfig:
    import json

    data = json.loads(scenario_text(name))
    return from_dict(data, noise_override=noise_override, seed_override=seed_override)
