"""Shipped scenario library.

Four encounter geometries against a 2.5 m/s obstacle 1000 m out, with
the ownship tracking a straight-line 5 m/s desired trajectory; crossing
obstacles start on a constant-bearing collision course. Each one is
defined only by its packaged file ``scenarios/<name>.json``.
"""

from __future__ import annotations

import importlib.resources
import json

from .config import ScenarioConfig, from_dict

SCENARIO_NAMES = ("head_on", "crossing_starboard", "overtaking", "crossing_port")

# ownship speed and desired speed of every shipped scenario
OWN_SOG = 5.0


def build_config_dict(name: str, seed: int | None = None, noise: str | None = None) -> dict:
    """A fresh config dict read from the packaged file of ``name``.

    ``None`` keeps the file's own value; otherwise ``seed`` replaces the
    seed and ``noise`` the noise section, as ``{"preset": noise}``.
    """
    if name not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    data = json.loads(importlib.resources.files("colavmpc").joinpath(f"scenarios/{name}.json").read_text())
    if seed is not None:
        data["seed"] = seed
    if noise is not None:
        data["noise"] = {"preset": noise}
    return data


def build_scenario(name: str, seed: int | None = None, noise: str | None = None) -> ScenarioConfig:
    return from_dict(build_config_dict(name, seed=seed, noise=noise))
