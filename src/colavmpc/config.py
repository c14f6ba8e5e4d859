"""Scenario configuration: JSON schema, strict validation, construction.

Configs are plain JSON with a schema_version field. `from_dict` reads
each section strictly into the library's own objects, checking only the
JSON shape, with the offending key named once; every value rule is the
rule of the record that owns the value, whichever way it is built. A
section's shape is checked whole before its record is built.
All angles are radians, all lengths meters, all times seconds.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from numbers import Integral
from pathlib import Path

from .core import VesselState, is_multiple, wrap_angle
from .guidance import DesiredTrajectory, LosParams
from .objective import ObjectiveWeights, PenaltyGeometry
from .obstacles import NOISE_PRESETS, EstimateNoise, ObstacleScript, ScriptEvent
from .primitives import TreeParams
from .tree import Level, build_levels
from .vessel import ControllerGains, VesselModel, default_gains, default_model

SCHEMA_VERSION = 2


class ConfigError(ValueError):
    """Raised for malformed or invalid scenario configuration."""


class _Reader:
    """Strict dict reader that tracks its key path for error messages."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected an object")
        self._data = dict(data)
        self._path = path

    _EXPECTED = {
        float: "a number", int: "an integer", str: "a string", list: "a list", dict: "an object"
    }

    def _check(self, value, kind, key):
        """The value as kind; a bool is neither a number nor an integer."""
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
            raise ConfigError(f"{self._path}.{key}: expected {self._EXPECTED[kind]}")
        if kind is not float:
            return value
        if not abs(value) <= sys.float_info.max:  # NaN, inf or an integer past the largest float
            raise ConfigError(f"{self._path}.{key}: expected a finite number")
        return float(value)

    def _get(self, key, kind, required, default):
        if key not in self._data:
            if required:
                raise ConfigError(f"{self._path}.{key}: missing required key")
            return default
        return self._check(self._data.pop(key), kind, key)

    def number(self, key, required=True, default=None):
        return self._get(key, float, required, default)

    def integer(self, key, required=True):
        return self._get(key, int, required, None)

    def string(self, key, required=True, default=None):
        return self._get(key, str, required, default)

    def list_of(self, key, kind, length=None):
        """A required list whose items are all of kind (float or int), of
        the given length if one is given: one item per named field."""
        raw = self._get(key, list, True, None)
        if length is not None and len(raw) != length:
            raise ConfigError(f"{self._path}.{key}: expected {length} entries, got {len(raw)}")
        return [self._check(v, kind, f"{key}[{i}]") for i, v in enumerate(raw)]

    def record(self, cls, section: str, **optional):
        """The dataclass cls, built from the keys named as its fields, in
        field order: a list for a tuple field, of integers if its items
        are, a string for a str field and a number for any other. A field
        named in optional may be missing, and then takes the value given
        there. Unknown keys are reported before cls's own rules, whose
        ValueError is named by section, formatted with the values read."""

        def read(name, kind):
            if name not in self._data and name in optional:
                return optional[name]
            if kind.startswith("tuple"):
                return tuple(self.list_of(name, int if kind.startswith("tuple[int") else float))
            return self._get(name, str if kind == "str" else float, True, None)

        values = {f.name: read(f.name, str(f.type)) for f in fields(cls)}
        self.finish()
        with _section(section.format(**values)):
            return cls(**values)

    def section(self, key, required=True):
        raw = self._get(key, dict, required, None)
        if raw is None:
            return None
        return _Reader(raw, f"{self._path}.{key}")

    def section_list(self, key, required=True, default=()):
        raw = self._get(key, list, required, list(default))
        return [
            _Reader(item, f"{self._path}.{key}[{i}]") for i, item in enumerate(raw)
        ]

    def finish(self):
        if self._data:
            key = sorted(self._data)[0]
            raise ConfigError(f"{self._path}.{key}: unknown key")


@contextmanager
def _section(name: str):
    """Re-raise a library ValueError as a ConfigError naming the section.

    A ConfigError, which already names its key, passes through unchanged.
    """
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """A parsed scenario. Configs compare by identity: the desired
    trajectory holds arrays. levels, built with the config by
    tree.build_levels, is shared by every planner call. A config whose
    values break a scenario rule raises a ValueError naming the field."""

    name: str
    seed: int
    duration: float
    integration_dt: float
    eval_dt: float
    tree: TreeParams
    los: LosParams
    weights: ObjectiveWeights
    geometry: PenaltyGeometry
    vessel: VesselModel
    gains: ControllerGains
    ownship: VesselState
    desired: DesiredTrajectory
    obstacles: tuple[ObstacleScript, ...]
    noise: EstimateNoise
    levels: tuple[Level, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral):
            raise ValueError(f"config.seed: must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError("config.seed: must be >= 0")
        for name in ("duration", "integration_dt"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        # sim.run plans at every period start before the last step, so a
        # partial last period would make one more call than duration / period
        for unit, unit_name in ((self.integration_dt, "integration_dt"), (self.planner_period, "the first step time")):
            if not is_multiple(self.duration, unit):
                raise ValueError(f"duration: must be an integer multiple of {unit_name}")
        for name, value in zip(self.ownship._fields, self.ownship):
            if not math.isfinite(value):
                raise ValueError(f"config.ownship: {name} must be finite, got {value}")
        if self.ownship.sog < 0.0:
            raise ValueError(f"config.ownship: sog must be >= 0, got {self.ownship.sog}")
        if not -math.pi <= self.ownship.course < math.pi:  # from_dict wraps it
            raise ValueError(f"config.ownship: course must be in [-pi, pi), got {self.ownship.course}")
        ids = [script.id for script in self.obstacles]
        for i, obs_id in enumerate(ids):
            if obs_id in ids[:i]:
                raise ValueError(f"obstacles: duplicate id {obs_id!r}")
        try:
            levels = build_levels(self.tree, self.integration_dt, self.eval_dt)
        except ValueError as exc:
            raise ValueError(f"planner: {exc}") from exc
        object.__setattr__(self, "levels", levels)

    @property
    def planner_period(self) -> float:
        """The replan period: the first step time."""
        return self.tree.step_times[0]


def _parse_geometry(r: _Reader) -> PenaltyGeometry:
    kind = r.string("kind")
    gamma1 = r.number("gamma1")
    if kind == "circular":
        build, args = PenaltyGeometry.circular, (r.list_of("radii", float),)
    elif kind == "elliptical_colregs":
        build, args = PenaltyGeometry.elliptical, (r.list_of("a", float), r.list_of("b", float), r.number("d_colregs"))
    else:
        raise ConfigError(f"penalty.kind: unknown kind {kind!r}")
    r.finish()
    with _section("penalty"):
        return build(*args, gamma1)


def _parse_gains(r: _Reader | None) -> ControllerGains:
    if r is None:
        return default_gains()
    kp = r.list_of("kp", float, length=3)  # sog, rot, course
    ki = r.list_of("ki", float, length=2)  # sog, course
    limit = r.number("integral_limit", required=False, default=ControllerGains.integral_limit)
    r.finish()
    with _section("gains"):
        return ControllerGains(*kp, *ki, integral_limit=limit)


def _parse_desired(r: _Reader) -> DesiredTrajectory:
    kind = r.string("kind")
    if kind == "line":
        args = (r.number("north"), r.number("east"), r.number("course"), r.number("speed"))
        build = DesiredTrajectory.line
    elif kind == "waypoints":
        points = []
        for item in r.section_list("points"):
            points.append((item.number("north"), item.number("east")))
            item.finish()
        args = (points, r.number("speed"))
        build = DesiredTrajectory
    else:
        raise ConfigError(f"desired.kind: unknown kind {kind!r}")
    r.finish()
    with _section("desired"):
        return build(*args)


def _parse_noise(r: _Reader | None) -> EstimateNoise:
    if r is None:
        return NOISE_PRESETS["none"]
    preset = r.string("preset", required=False)
    if preset is None:
        return r.record(EstimateNoise, "noise")
    if preset not in NOISE_PRESETS:
        raise ConfigError(f"noise.preset: unknown preset {preset!r}")
    r.finish()
    return NOISE_PRESETS[preset]


def from_dict(data: dict) -> ScenarioConfig:
    top = _Reader(data, "config")
    version = top.integer("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config.schema_version: unsupported version {version}")
    name = top.string("name")
    seed = top.integer("seed")
    duration = top.number("duration")
    integration_dt = top.number("integration_dt")

    pl = top.section("planner")
    eval_dt = pl.number("eval_dt")
    tree = pl.record(TreeParams, "planner")

    vs = top.section("vessel", required=False)
    vessel = default_model() if vs is None else vs.record(VesselModel, "vessel")
    los = top.section("guidance").record(LosParams, "guidance", epsilon=LosParams.epsilon, u_max_los=vessel.u_max)

    wt = top.section("weights")
    terms = {f"w_{term}": wt.number(term) for term in ("align", "avoid", "tran", "course")}
    wt.finish()
    with _section("weights"):
        weights = ObjectiveWeights(**terms)

    geometry = _parse_geometry(top.section("penalty"))
    gains = _parse_gains(top.section("gains", required=False))

    own = top.section("ownship")
    north, east, course, sog = (own.number(key) for key in ("north", "east", "course", "sog"))
    rot = own.number("rot", required=False, default=0.0)
    own.finish()
    ownship = VesselState(north, east, wrap_angle(course), sog, rot)

    desired = _parse_desired(top.section("desired"))

    scripts = []
    for item in top.section_list("obstacles", required=False):
        events = [
            ev.record(ScriptEvent, f"events[{i}]", sog=None, course=None)
            for i, ev in enumerate(item.section_list("events", required=False))
        ]
        scripts.append(item.record(ObstacleScript, "obstacles[{id}]", events=tuple(events)))

    noise = _parse_noise(top.section("noise", required=False))
    top.finish()

    try:
        return ScenarioConfig(
            name=name,
            seed=seed,
            duration=duration,
            integration_dt=integration_dt,
            eval_dt=eval_dt,
            tree=tree,
            los=los,
            weights=weights,
            geometry=geometry,
            vessel=vessel,
            gains=gains,
            ownship=ownship,
            desired=desired,
            obstacles=tuple(scripts),
            noise=noise,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load(path) -> ScenarioConfig:
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique_keys)
    except ConfigError:
        raise
    except ValueError as exc:  # bad syntax, not UTF-8, or an integer of too many digits for Python
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply to read") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return from_dict(data)

