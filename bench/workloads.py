"""Seeded scenario-config generators for the benchmark workloads.

Each generator returns plain config dicts in the colavmpc JSON schema.
The benchmark validates every one with the strict ``config.from_dict``
during set-up; the program only ever sees these generated configs.

Workloads (all closed loop, one operation at a time):

* ``encounters``: the four packaged encounter geometries under radar
  noise with the shipped 5/3/3 tree. The paper's configuration; tree
  generation dominates wall time.
* ``traffic``: five obstacles on staggered collision courses across the
  ownship track. Avoid-term work grows with the obstacle count while
  tree work does not, so the objective takes the largest share.
* ``transit``: a long waypoint track with a light 3-candidate tree and
  one distant vessel that never converges. Skips most tree and objective
  work; vessel control, plant stepping and logging dominate.
"""

from __future__ import annotations

import math
import random

from colavmpc.scenarios import OWN_SOG, SCENARIO_NAMES, build_config_dict

TRAFFIC_OBSTACLES = 5
TRAFFIC_DURATION = 300.0
TRAFFIC_OPS = 2
TRANSIT_DURATION = 1800.0
TRANSIT_OPS = 3


def _op_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def encounters(seed: int) -> list[dict]:
    """The packaged geometries, each with its own radar-noise seed."""
    rng = random.Random(f"encounters:{seed}")
    return [build_config_dict(name, seed=_op_seed(rng), noise="radar") for name in SCENARIO_NAMES]


def _traffic_config(rng: random.Random, index: int) -> dict:
    """Ownship on the shipped straight track, crossed by five obstacles.

    Obstacle k meets the ownship's desired position at a staggered
    collision time, coming from a random side and crossing angle at a
    random speed, so every obstacle is on a collision course if the
    ownship holds its track.
    """
    data = build_config_dict("head_on", seed=_op_seed(rng), noise="radar")
    data["name"] = f"traffic_{index}"
    data["duration"] = TRAFFIC_DURATION
    obstacles = []
    for k in range(TRAFFIC_OBSTACLES):
        t_collision = 60.0 + 45.0 * k + rng.uniform(-10.0, 10.0)
        side = rng.choice((-1.0, 1.0))
        course = side * math.radians(rng.uniform(30.0, 150.0))
        sog = rng.uniform(1.5, 4.0)
        meet_north = OWN_SOG * t_collision
        obstacles.append(
            {
                "id": f"o{k}",
                "north": meet_north - sog * math.cos(course) * t_collision,
                "east": -sog * math.sin(course) * t_collision,
                "sog": sog,
                "course": course,
            }
        )
    data["obstacles"] = obstacles
    return data


def traffic(seed: int) -> list[dict]:
    rng = random.Random(f"traffic:{seed}")
    return [_traffic_config(rng, i) for i in range(TRAFFIC_OPS)]


def _transit_config(rng: random.Random, index: int) -> dict:
    """A long zig-zag waypoint track with a 3-candidate, 2-level tree.

    The single obstacle starts well astern of the ownship and sails away
    from the track, so it is observed and predicted every solve but
    never converges.
    """
    data = build_config_dict("head_on", seed=_op_seed(rng), noise="ais")
    data["name"] = f"transit_{index}"
    data["duration"] = TRANSIT_DURATION
    data["planner"].update(step_times=[5.0, 20.0], n_sog=[1, 1], n_course=[3, 1])
    points = [{"north": 0.0, "east": 0.0}]
    north, east = 0.0, 0.0
    leg = OWN_SOG * TRANSIT_DURATION / 6.0
    for i in range(8):
        heading = math.radians(rng.uniform(10.0, 35.0)) * (1.0 if i % 2 else -1.0)
        north += leg * math.cos(heading)
        east += leg * math.sin(heading)
        points.append({"north": north, "east": east})
    data["desired"] = {"kind": "waypoints", "speed": OWN_SOG, "points": points}
    data["obstacles"] = [
        {
            "id": "far",
            "north": -3000.0,
            "east": rng.uniform(-2000.0, 2000.0),
            "sog": rng.uniform(1.5, 4.0),
            "course": math.pi + rng.uniform(-0.5, 0.5),
        }
    ]
    return data


def transit(seed: int) -> list[dict]:
    rng = random.Random(f"transit:{seed}")
    return [_transit_config(rng, i) for i in range(TRANSIT_OPS)]


GENERATORS = {"encounters": encounters, "traffic": traffic, "transit": transit}
