"""Scenario configuration: JSON schema, strict validation, construction.

Configs are plain JSON with a schema_version field. Parsing is strict:
unknown keys, wrong types and invariant violations are rejected with
the offending key named. All angles are radians, all lengths meters,
all times seconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import Pose, Velocity2, VesselState
from .guidance import DesiredTrajectory, LosParams
from .objective import ObjectiveWeights, PenaltyGeometry
from .obstacles import NOISE_PRESETS, EstimateNoise, ObstacleScript, ScriptEvent
from .primitives import ErrorModel
from .tree import TreeParams, input_blocking_check
from .vessel import ControllerGains, VesselModel, default_model

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

    def _get(self, key, kind, required, default):
        if key not in self._data:
            if required:
                raise ConfigError(f"{self._path}.{key}: missing required key")
            return default
        value = self._data.pop(key)
        if kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{self._path}.{key}: expected a number")
            return float(value)
        if kind is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{self._path}.{key}: expected an integer")
            return value
        if kind is str:
            if not isinstance(value, str):
                raise ConfigError(f"{self._path}.{key}: expected a string")
            return value
        if kind is list:
            if not isinstance(value, list):
                raise ConfigError(f"{self._path}.{key}: expected a list")
            return value
        if kind is dict:
            if not isinstance(value, dict):
                raise ConfigError(f"{self._path}.{key}: expected an object")
            return value
        raise AssertionError(kind)

    def number(self, key, required=True, default=None):
        return self._get(key, float, required, default)

    def integer(self, key, required=True, default=None):
        return self._get(key, int, required, default)

    def string(self, key, required=True, default=None):
        return self._get(key, str, required, default)

    def number_list(self, key, required=True, default=None):
        raw = self._get(key, list, required, default)
        if raw is default:
            return default
        out = []
        for i, v in enumerate(raw):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"{self._path}.{key}[{i}]: expected a number")
            out.append(float(v))
        return out

    def integer_list(self, key, required=True, default=None):
        raw = self._get(key, list, required, default)
        if raw is default:
            return default
        out = []
        for i, v in enumerate(raw):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ConfigError(f"{self._path}.{key}[{i}]: expected an integer")
            out.append(v)
        return out

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


@dataclass(frozen=True)
class DesiredSpec:
    kind: str
    speed: float
    north: float = 0.0
    east: float = 0.0
    course: float = 0.0
    points: tuple[tuple[float, float], ...] = ()

    def build(self) -> DesiredTrajectory:
        if self.kind == "line":
            return DesiredTrajectory.line(self.north, self.east, self.course, self.speed)
        return DesiredTrajectory.waypoints(np.asarray(self.points), self.speed)


@dataclass(frozen=True)
class ScenarioConfig:
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
    gains_kp: tuple[float, float, float]
    gains_ki: tuple[float, float]
    gains_integral_limit: float
    ownship: VesselState
    desired: DesiredSpec
    obstacles: tuple[ObstacleScript, ...]
    noise: EstimateNoise
    noise_preset: str | None = None

    @property
    def tracker_seed(self) -> int:
        """Seed of the synthetic tracker: the noise section's own seed if
        it sets one, else the scenario seed."""
        return self.seed if self.noise.seed is None else self.noise.seed

    def make_gains(self) -> ControllerGains:
        kp_sog, kp_rot, kp_course = self.gains_kp
        return ControllerGains(
            kp=np.array([[kp_sog, 0.0, 0.0], [0.0, kp_rot, kp_course]]),
            ki=np.array(self.gains_ki),
            integral_limit=self.gains_integral_limit,
        )


def _parse_vessel(r: _Reader | None) -> VesselModel:
    if r is None:
        return default_model()
    kwargs = dict(
        m_u0=r.number("m_u0"),
        m_u1=r.number("m_u1"),
        m_r0=r.number("m_r0"),
        m_r1=r.number("m_r1"),
        d_u1=r.number("d_u1"),
        d_u2=r.number("d_u2"),
        d_r1=r.number("d_r1"),
        d_r2=r.number("d_r2"),
        d_ru=r.number("d_ru"),
        tau_min=tuple(r.number_list("tau_min")),
        tau_max=tuple(r.number_list("tau_max")),
        tau_rate_min=tuple(r.number_list("tau_rate_min")),
        tau_rate_max=tuple(r.number_list("tau_rate_max")),
        u_max=r.number("u_max"),
        u_min=r.number("u_min"),
    )
    r.invariant(len(kwargs["tau_min"]) == 2 and len(kwargs["tau_max"]) == 2, "tau limits need 2 entries")
    r.invariant(
        len(kwargs["tau_rate_min"]) == 2 and len(kwargs["tau_rate_max"]) == 2,
        "tau rate limits need 2 entries",
    )
    r.finish()
    try:
        return VesselModel(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"vessel: {exc}") from exc


def _parse_geometry(r: _Reader) -> PenaltyGeometry:
    kind = r.string("kind")
    gamma1 = r.number("gamma1")
    try:
        if kind == "circular":
            radii = r.number_list("radii")
            r.invariant(len(radii) == 3, "radii needs 3 entries")
            r.finish()
            return PenaltyGeometry.circular(radii, gamma1)
        if kind == "elliptical_colregs":
            a = r.number_list("a")
            b = r.number_list("b")
            d_colregs = r.number("d_colregs")
            r.invariant(len(a) == 3 and len(b) == 3, "a and b need 3 entries")
            r.finish()
            return PenaltyGeometry.elliptical(a, b, d_colregs, gamma1)
    except ValueError as exc:
        raise ConfigError(f"penalty: {exc}") from exc
    raise ConfigError(f"penalty.kind: unknown kind {kind!r}")


def _parse_noise(r: _Reader | None, preset_override: str | None):
    preset_name = None
    if r is None:
        noise = NOISE_PRESETS["none"]
        preset_name = "none"
    else:
        preset = r.string("preset", required=False)
        if preset is not None:
            if preset not in NOISE_PRESETS:
                raise ConfigError(f"noise.preset: unknown preset {preset!r}")
            r.finish()
            noise, preset_name = NOISE_PRESETS[preset], preset
        else:
            try:
                noise = EstimateNoise(
                    pos_std=r.number("pos_std"),
                    sog_std=r.number("sog_std"),
                    course_std=r.number("course_std"),
                    latency=r.number("latency"),
                    period=r.number("period"),
                    seed=r.integer("seed", required=False),
                )
            except ValueError as exc:
                raise ConfigError(f"noise: {exc}") from exc
            r.finish()
    if preset_override is not None:
        if preset_override not in NOISE_PRESETS:
            raise ConfigError(f"noise preset override: unknown preset {preset_override!r}")
        noise, preset_name = NOISE_PRESETS[preset_override], preset_override
    return noise, preset_name


def from_dict(data: dict, *, noise_override: str | None = None, seed_override: int | None = None) -> ScenarioConfig:
    top = _Reader(data, "config")
    version = top.integer("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config.schema_version: unsupported version {version}")
    name = top.string("name")
    seed = top.integer("seed")
    duration = top.number("duration")
    integration_dt = top.number("integration_dt")
    top.invariant(duration > 0.0, "duration must be > 0")
    top.invariant(integration_dt > 0.0, "integration_dt must be > 0")

    pl = top.section("planner")
    planner_period = pl.number("period")
    eval_dt = pl.number("eval_dt")
    step_times = pl.number_list("step_times")
    n_sog = pl.integer_list("n_sog")
    n_course = pl.integer_list("n_course")
    t_ramp = pl.number("t_ramp")
    t_sog = pl.number("t_sog")
    t_course = pl.number("t_course")
    tc_sog = pl.number("tc_sog")
    tc_course = pl.number("tc_course")
    pl.finish()
    try:
        tree = TreeParams(
            step_times=tuple(step_times),
            n_sog=tuple(n_sog),
            n_course=tuple(n_course),
            t_ramp=t_ramp,
            t_sog=t_sog,
            t_course=t_course,
        )
        error_model = ErrorModel(tc_sog=tc_sog, tc_course=tc_course)
    except ValueError as exc:
        raise ConfigError(f"planner: {exc}") from exc
    if abs(planner_period - step_times[0]) > 1e-9:
        raise ConfigError("planner.period: must equal the first step time")
    for label, small, big in (
        ("integration_dt", integration_dt, planner_period),
        ("integration_dt", integration_dt, eval_dt),
        ("eval_dt", eval_dt, planner_period),
    ):
        ratio = big / small
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError(f"planner: {label} must integer-divide {big}")
    for t in step_times:
        ratio = t / eval_dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError("planner.step_times: must be integer multiples of eval_dt")
    if not input_blocking_check(tree, planner_period):
        raise ConfigError("planner.step_times: must be integer multiples of the period")

    vessel = _parse_vessel(top.section("vessel", required=False))

    gd = top.section("guidance")
    try:
        los = LosParams(
            lookahead=gd.number("lookahead"),
            along_track_gain=gd.number("along_track_gain"),
            epsilon=gd.number("epsilon", required=False, default=0.05),
            u_max_los=gd.number("u_max_los", required=False, default=vessel.u_max),
        )
    except ValueError as exc:
        raise ConfigError(f"guidance: {exc}") from exc
    gd.finish()

    wt = top.section("weights")
    try:
        weights = ObjectiveWeights(
            w_align=wt.number("align"),
            w_avoid=wt.number("avoid"),
            w_tran=wt.number("tran"),
            w_course=wt.number("course"),
        )
    except ValueError as exc:
        raise ConfigError(f"weights: {exc}") from exc
    wt.finish()

    geometry = _parse_geometry(top.section("penalty"))

    gn = top.section("gains", required=False)
    if gn is None:
        gains_kp, gains_ki, gains_lim = (0.6, 2.2, 1.0), (0.05, 0.02), 0.3
    else:
        kp = gn.number_list("kp")
        ki = gn.number_list("ki")
        gains_lim = gn.number("integral_limit", required=False, default=0.3)
        gn.invariant(len(kp) == 3, "kp needs entries (sog, rot, course)")
        gn.invariant(len(ki) == 2, "ki needs entries (sog, course)")
        gn.invariant(all(v > 0 for v in kp + ki), "gains must be > 0")
        gn.invariant(gains_lim > 0, "integral_limit must be > 0")
        gn.finish()
        gains_kp, gains_ki = tuple(kp), tuple(ki)

    own = top.section("ownship")
    try:
        ownship = VesselState(
            pose=Pose(own.number("north"), own.number("east"), own.number("course")),
            vel=Velocity2(own.number("sog"), own.number("rot", required=False, default=0.0)),
            time=0.0,
        )
    except ValueError as exc:
        raise ConfigError(f"ownship: {exc}") from exc
    own.finish()

    ds = top.section("desired")
    kind = ds.string("kind")
    if kind == "line":
        desired = DesiredSpec(
            kind="line",
            speed=ds.number("speed"),
            north=ds.number("north"),
            east=ds.number("east"),
            course=ds.number("course"),
        )
    elif kind == "waypoints":
        points = []
        for item in ds.section_list("points"):
            points.append((item.number("north"), item.number("east")))
            item.finish()
        desired = DesiredSpec(kind="waypoints", speed=ds.number("speed"), points=tuple(points))
    else:
        raise ConfigError(f"desired.kind: unknown kind {kind!r}")
    ds.finish()
    if desired.speed <= 0.0:
        raise ConfigError("desired.speed: must be > 0")
    try:
        desired.build()
    except ValueError as exc:
        raise ConfigError(f"desired: {exc}") from exc

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
        try:
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
        except ValueError as exc:
            raise ConfigError(f"obstacles[{obs_id}]: {exc}") from exc
        item.finish()

    noise, preset_name = _parse_noise(top.section("noise", required=False), noise_override)
    top.finish()
    if seed_override is not None:
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
        gains_kp=gains_kp,
        gains_ki=gains_ki,
        gains_integral_limit=gains_lim,
        ownship=ownship,
        desired=desired,
        obstacles=tuple(scripts),
        noise=noise,
        noise_preset=preset_name,
    )


def to_dict(cfg: ScenarioConfig) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "name": cfg.name,
        "seed": cfg.seed,
        "duration": cfg.duration,
        "integration_dt": cfg.integration_dt,
        "planner": {
            "period": cfg.planner_period,
            "eval_dt": cfg.eval_dt,
            "step_times": list(cfg.tree.step_times),
            "n_sog": list(cfg.tree.n_sog),
            "n_course": list(cfg.tree.n_course),
            "t_ramp": cfg.tree.t_ramp,
            "t_sog": cfg.tree.t_sog,
            "t_course": cfg.tree.t_course,
            "tc_sog": cfg.error_model.tc_sog,
            "tc_course": cfg.error_model.tc_course,
        },
        "vessel": {
            "m_u0": cfg.vessel.m_u0,
            "m_u1": cfg.vessel.m_u1,
            "m_r0": cfg.vessel.m_r0,
            "m_r1": cfg.vessel.m_r1,
            "d_u1": cfg.vessel.d_u1,
            "d_u2": cfg.vessel.d_u2,
            "d_r1": cfg.vessel.d_r1,
            "d_r2": cfg.vessel.d_r2,
            "d_ru": cfg.vessel.d_ru,
            "tau_min": list(cfg.vessel.tau_min),
            "tau_max": list(cfg.vessel.tau_max),
            "tau_rate_min": list(cfg.vessel.tau_rate_min),
            "tau_rate_max": list(cfg.vessel.tau_rate_max),
            "u_max": cfg.vessel.u_max,
            "u_min": cfg.vessel.u_min,
        },
        "guidance": {
            "lookahead": cfg.los.lookahead,
            "along_track_gain": cfg.los.along_track_gain,
            "epsilon": cfg.los.epsilon,
            "u_max_los": cfg.los.u_max_los,
        },
        "weights": {
            "align": cfg.weights.w_align,
            "avoid": cfg.weights.w_avoid,
            "tran": cfg.weights.w_tran,
            "course": cfg.weights.w_course,
        },
        "penalty": (
            {"kind": "circular", "gamma1": cfg.geometry.gamma1, "radii": list(cfg.geometry.radii)}
            if cfg.geometry.kind == "circular"
            else {
                "kind": "elliptical_colregs",
                "gamma1": cfg.geometry.gamma1,
                "a": list(cfg.geometry.a),
                "b": list(cfg.geometry.b),
                "d_colregs": cfg.geometry.d_colregs,
            }
        ),
        "gains": {
            "kp": list(cfg.gains_kp),
            "ki": list(cfg.gains_ki),
            "integral_limit": cfg.gains_integral_limit,
        },
        "ownship": {
            "north": cfg.ownship.pose.north,
            "east": cfg.ownship.pose.east,
            "course": cfg.ownship.pose.course,
            "sog": cfg.ownship.vel.sog,
            "rot": cfg.ownship.vel.rot,
        },
        "desired": (
            {
                "kind": "line",
                "speed": cfg.desired.speed,
                "north": cfg.desired.north,
                "east": cfg.desired.east,
                "course": cfg.desired.course,
            }
            if cfg.desired.kind == "line"
            else {
                "kind": "waypoints",
                "speed": cfg.desired.speed,
                "points": [{"north": n, "east": e} for n, e in cfg.desired.points],
            }
        ),
        "obstacles": [
            {
                "id": s.id,
                "north": s.north,
                "east": s.east,
                "sog": s.sog,
                "course": s.course,
                **(
                    {
                        "events": [
                            {
                                "t": ev.t,
                                **({"sog": ev.sog} if ev.sog is not None else {}),
                                **({"course": ev.course} if ev.course is not None else {}),
                            }
                            for ev in s.events
                        ]
                    }
                    if s.events
                    else {}
                ),
            }
            for s in cfg.obstacles
        ],
    }
    if cfg.noise_preset is not None:
        out["noise"] = {"preset": cfg.noise_preset}
    else:
        out["noise"] = {
            "pos_std": cfg.noise.pos_std,
            "sog_std": cfg.noise.sog_std,
            "course_std": cfg.noise.course_std,
            "latency": cfg.noise.latency,
            "period": cfg.noise.period,
            **({"seed": cfg.noise.seed} if cfg.noise.seed is not None else {}),
        }
    return out


def load(path, *, noise_override: str | None = None, seed_override: int | None = None) -> ScenarioConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return from_dict(data, noise_override=noise_override, seed_override=seed_override)


def save(cfg: ScenarioConfig, path):
    Path(path).write_text(json.dumps(to_dict(cfg), indent=2) + "\n")
