"""Scenario configuration: JSON schema, strict validation, construction.

Configs are plain JSON with a schema_version field. `from_dict` is the
one place the schema is written: it reads each section strictly and
builds the library's own objects from it. Unknown keys, wrong types and
invariant violations are rejected with the offending key named once.
All angles are radians, all lengths meters, all times seconds.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from .core import VesselState, wrap_angle
from .guidance import DesiredTrajectory, LosParams
from .objective import ObjectiveWeights, PenaltyGeometry
from .obstacles import NOISE_PRESETS, EstimateNoise, ObstacleScript, ScriptEvent
from .primitives import ErrorModel
from .tree import TreeParams
from .vessel import ControllerGains, VesselModel, default_gains, default_model

SCHEMA_VERSION = 1


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
        if not math.isfinite(value):
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

    def seed(self, key, required=True):
        """A random generator seed: an integer >= 0."""
        value = self._get(key, int, required, None)
        if value is not None and value < 0:
            raise ConfigError(f"{self._path}.{key}: must be >= 0")
        return value

    def string(self, key, required=True, default=None):
        return self._get(key, str, required, default)

    def list_of(self, key, kind):
        """A required list whose items are all of kind (float or int)."""
        raw = self._get(key, list, True, None)
        return [self._check(v, kind, f"{key}[{i}]") for i, v in enumerate(raw)]

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

    def invariant(self, ok: bool, message: str):
        if not ok:
            raise ConfigError(f"{self._path}: {message}")


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


def _require_multiple(key: str, value: float, unit: float, unit_name: str):
    """Reject the value of key unless it is an integer multiple of unit."""
    ratio = value / unit
    if not (math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9):
        raise ConfigError(f"{key}: must be an integer multiple of {unit_name}")


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """A parsed scenario. Configs compare by identity: the desired
    trajectory holds arrays."""

    name: str
    seed: int
    duration: float
    integration_dt: float
    planner_period: float
    eval_dt: float
    tree: TreeParams
    error_model: ErrorModel
    los: LosParams
    weights: ObjectiveWeights
    geometry: PenaltyGeometry
    vessel: VesselModel
    gains: ControllerGains
    ownship: VesselState
    desired: DesiredTrajectory
    obstacles: tuple[ObstacleScript, ...]
    noise: EstimateNoise
    noise_preset: str | None = None

    @property
    def tracker_seed(self) -> int:
        """Seed of the synthetic tracker: the noise section's own seed if
        it sets one, else the scenario seed."""
        return self.seed if self.noise.seed is None else self.noise.seed


def _parse_vessel(r: _Reader | None) -> VesselModel:
    if r is None:
        return default_model()
    with _section("vessel"):
        model = VesselModel(
            m_u0=r.number("m_u0"),
            m_u1=r.number("m_u1"),
            m_r0=r.number("m_r0"),
            m_r1=r.number("m_r1"),
            d_u1=r.number("d_u1"),
            d_u2=r.number("d_u2"),
            d_r1=r.number("d_r1"),
            d_r2=r.number("d_r2"),
            d_ru=r.number("d_ru"),
            tau_min=tuple(r.list_of("tau_min", float)),
            tau_max=tuple(r.list_of("tau_max", float)),
            tau_rate_min=tuple(r.list_of("tau_rate_min", float)),
            tau_rate_max=tuple(r.list_of("tau_rate_max", float)),
            u_max=r.number("u_max"),
            u_min=r.number("u_min"),
        )
    r.invariant(len(model.tau_min) == 2 and len(model.tau_max) == 2, "tau limits need 2 entries")
    r.invariant(
        len(model.tau_rate_min) == 2 and len(model.tau_rate_max) == 2,
        "tau rate limits need 2 entries",
    )
    r.finish()
    return model


def _parse_geometry(r: _Reader) -> PenaltyGeometry:
    kind = r.string("kind")
    gamma1 = r.number("gamma1")
    with _section("penalty"):
        if kind == "circular":
            radii = r.list_of("radii", float)
            r.invariant(len(radii) == 3, "radii needs 3 entries")
            r.finish()
            return PenaltyGeometry.circular(radii, gamma1)
        if kind == "elliptical_colregs":
            a = r.list_of("a", float)
            b = r.list_of("b", float)
            d_colregs = r.number("d_colregs")
            r.invariant(len(a) == 3 and len(b) == 3, "a and b need 3 entries")
            r.finish()
            return PenaltyGeometry.elliptical(a, b, d_colregs, gamma1)
    raise ConfigError(f"penalty.kind: unknown kind {kind!r}")


def _parse_gains(r: _Reader | None) -> ControllerGains:
    if r is None:
        return default_gains()
    kp = r.list_of("kp", float)
    ki = r.list_of("ki", float)
    limit = r.number("integral_limit", required=False, default=ControllerGains.integral_limit)
    r.invariant(len(kp) == 3, "kp needs entries (sog, rot, course)")
    r.invariant(len(ki) == 2, "ki needs entries (sog, course)")
    r.invariant(all(v > 0 for v in kp + ki), "gains must be > 0")
    r.invariant(limit > 0, "integral_limit must be > 0")
    r.finish()
    return ControllerGains(*kp, *ki, integral_limit=limit)


def _parse_desired(r: _Reader) -> DesiredTrajectory:
    kind = r.string("kind")
    with _section("desired"):
        if kind == "line":
            desired = DesiredTrajectory.line(
                r.number("north"), r.number("east"), r.number("course"), r.number("speed")
            )
        elif kind == "waypoints":
            points = []
            for item in r.section_list("points"):
                points.append((item.number("north"), item.number("east")))
                item.finish()
            desired = DesiredTrajectory.waypoints(points, r.number("speed"))
        else:
            raise ConfigError(f"desired.kind: unknown kind {kind!r}")
    r.finish()
    return desired


def _parse_noise(r: _Reader | None, preset_override: str | None):
    preset = "none" if r is None else r.string("preset", required=False)
    if preset is None:
        with _section("noise"):
            noise = EstimateNoise(
                pos_std=r.number("pos_std"),
                sog_std=r.number("sog_std"),
                course_std=r.number("course_std"),
                latency=r.number("latency"),
                period=r.number("period"),
                seed=r.seed("seed", required=False),
            )
    elif preset in NOISE_PRESETS:
        noise = NOISE_PRESETS[preset]
    else:
        raise ConfigError(f"noise.preset: unknown preset {preset!r}")
    if r is not None:
        r.finish()
    if preset_override is not None:
        if preset_override not in NOISE_PRESETS:
            raise ConfigError(f"noise preset override: unknown preset {preset_override!r}")
        noise, preset = NOISE_PRESETS[preset_override], preset_override
    return noise, preset


def from_dict(data: dict, *, noise_override: str | None = None, seed_override: int | None = None) -> ScenarioConfig:
    top = _Reader(data, "config")
    version = top.integer("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config.schema_version: unsupported version {version}")
    name = top.string("name")
    seed = top.seed("seed")
    duration = top.number("duration")
    integration_dt = top.number("integration_dt")
    top.invariant(duration > 0.0, "duration must be > 0")
    top.invariant(integration_dt > 0.0, "integration_dt must be > 0")
    _require_multiple("duration", duration, integration_dt, "integration_dt")

    pl = top.section("planner")
    planner_period = pl.number("period")
    eval_dt = pl.number("eval_dt")
    with _section("planner"):
        tree = TreeParams(
            step_times=tuple(pl.list_of("step_times", float)),
            n_sog=tuple(pl.list_of("n_sog", int)),
            n_course=tuple(pl.list_of("n_course", int)),
            t_ramp=pl.number("t_ramp"),
            t_sog=pl.number("t_sog"),
            t_course=pl.number("t_course"),
        )
        error_model = ErrorModel(tc_sog=pl.number("tc_sog"), tc_course=pl.number("tc_course"))
    pl.finish()
    pl.invariant(eval_dt > 0.0, "eval_dt must be > 0")
    if abs(planner_period - tree.step_times[0]) > 1e-9:
        raise ConfigError("planner.period: must equal the first step time")
    _require_multiple("planner.period", planner_period, integration_dt, "integration_dt")
    _require_multiple("planner.eval_dt", eval_dt, integration_dt, "integration_dt")
    _require_multiple("planner.period", planner_period, eval_dt, "eval_dt")
    for t in tree.step_times:
        _require_multiple("planner.step_times", t, eval_dt, "eval_dt")
        _require_multiple("planner.step_times", t, planner_period, "the period")

    vessel = _parse_vessel(top.section("vessel", required=False))

    gd = top.section("guidance")
    with _section("guidance"):
        los = LosParams(
            lookahead=gd.number("lookahead"),
            along_track_gain=gd.number("along_track_gain"),
            epsilon=gd.number("epsilon", required=False, default=LosParams.epsilon),
            u_max_los=gd.number("u_max_los", required=False, default=vessel.u_max),
        )
    gd.finish()

    wt = top.section("weights")
    with _section("weights"):
        weights = ObjectiveWeights(
            w_align=wt.number("align"),
            w_avoid=wt.number("avoid"),
            w_tran=wt.number("tran"),
            w_course=wt.number("course"),
        )
    wt.finish()

    geometry = _parse_geometry(top.section("penalty"))
    gains = _parse_gains(top.section("gains", required=False))

    own = top.section("ownship")
    ownship = VesselState(
        own.number("north"), own.number("east"), wrap_angle(own.number("course")),
        own.number("sog"), own.number("rot", required=False, default=0.0),
    )
    own.invariant(ownship.sog >= 0.0, f"sog must be >= 0, got {ownship.sog}")
    own.finish()

    desired = _parse_desired(top.section("desired"))

    scripts = []
    seen_ids = set()
    for item in top.section_list("obstacles", required=False):
        obs_id = item.string("id")
        if obs_id in seen_ids:
            raise ConfigError(f"obstacles: duplicate id {obs_id!r}")
        seen_ids.add(obs_id)
        events = []
        for ev in item.section_list("events", required=False):
            events.append(
                ScriptEvent(
                    t=ev.number("t"),
                    sog=ev.number("sog", required=False),
                    course=ev.number("course", required=False),
                )
            )
            ev.finish()
        with _section(f"obstacles[{obs_id}]"):
            scripts.append(
                ObstacleScript(
                    id=obs_id,
                    north=item.number("north"),
                    east=item.number("east"),
                    sog=item.number("sog"),
                    course=item.number("course"),
                    events=tuple(events),
                )
            )
        item.finish()

    noise, preset_name = _parse_noise(top.section("noise", required=False), noise_override)
    top.finish()
    if seed_override is not None:
        if seed_override < 0:
            raise ConfigError(f"seed override: must be >= 0, got {seed_override}")
        seed = seed_override
        if noise.seed is not None:
            noise = replace(noise, seed=seed_override)

    return ScenarioConfig(
        name=name,
        seed=seed,
        duration=duration,
        integration_dt=integration_dt,
        planner_period=planner_period,
        eval_dt=eval_dt,
        tree=tree,
        error_model=error_model,
        los=los,
        weights=weights,
        geometry=geometry,
        vessel=vessel,
        gains=gains,
        ownship=ownship,
        desired=desired,
        obstacles=tuple(scripts),
        noise=noise,
        noise_preset=preset_name,
    )


def load(path, *, noise_override: str | None = None, seed_override: int | None = None) -> ScenarioConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return from_dict(data, noise_override=noise_override, seed_override=seed_override)

