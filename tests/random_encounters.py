"""Seeded random encounters beyond the shipped geometries.

`encounter(seed)` is a config dict: the head_on set-up (ownship and
desired line from the origin at 5 m/s, shipped tree and penalty) turned
to a heading drawn over the whole circle, under radar noise, met by one
to three obstacles. Each obstacle reaches the ownship's desired position
at its own time t_c in [50, 150] s: 10% lie still there, the others
sail in on a course drawn over the whole circle at 1.5-4 m/s, and 30%
of all obstacles change course once before t_c. An obstacle that would
start within START_MIN of the ownship is drawn again; nothing else is
filtered. `rotated(name, angle)` turns a shipped scenario about the origin.
"""

import math
import random

from colavmpc import scenarios
from colavmpc.core import wrap_angle

START_MIN = 400.0  # m, the least start distance of an obstacle


def rotated(name, angle, noise="none"):
    """The shipped scenario's config dict turned by angle about the origin:
    positions rotated, ownship and obstacle courses wrapped, and the desired
    line's course left unwrapped, so a turn by pi plans a +pi line from a
    -pi ownship."""
    data = scenarios.build_config_dict(name, noise=noise)
    cos, sin = math.cos(angle), math.sin(angle)
    for item in (data["ownship"], data["desired"], *data["obstacles"]):
        item["north"], item["east"] = cos * item["north"] - sin * item["east"], sin * item["north"] + cos * item["east"]
    for item in (data["ownship"], *data["obstacles"]):
        item["course"] = float(wrap_angle(item["course"] + angle))
    data["desired"]["course"] += angle
    return data


def _obstacle(rng, index, heading):
    t_c = rng.uniform(50.0, 150.0)
    meet = scenarios.OWN_SOG * t_c
    course = rng.uniform(-math.pi, math.pi)
    sog = 0.0 if rng.random() < 0.1 else rng.uniform(1.5, 4.0)
    obstacle = {
        "id": f"o{index}",
        "north": meet * math.cos(heading) - sog * t_c * math.cos(course),
        "east": meet * math.sin(heading) - sog * t_c * math.sin(course),
        "sog": sog,
        "course": course,
    }
    if rng.random() < 0.3:
        turn = float(wrap_angle(course + rng.uniform(-math.pi / 2, math.pi / 2)))
        obstacle["events"] = [{"t": rng.uniform(10.0, t_c), "course": turn}]
    return obstacle


def encounter(seed):
    """The seed's encounter as a config dict; the same seed gives the same dict."""
    rng = random.Random(f"encounter:{seed}")
    data = rotated("head_on", rng.uniform(-math.pi, math.pi), noise="radar")
    data.update(name=f"encounter_{seed}", seed=seed)
    heading = data["ownship"]["course"]
    obstacles = []
    for index in range(rng.randint(1, 3)):
        obstacle = _obstacle(rng, index, heading)
        while math.hypot(obstacle["north"], obstacle["east"]) < START_MIN:
            obstacle = _obstacle(rng, index, heading)
        obstacles.append(obstacle)
    data["obstacles"] = obstacles
    return data
