"""Command-line front end: run scenarios, inspect single solves, export rasters."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import config as cfg_mod
from . import scenarios, sim
from .config import ConfigError
from .core import TimeGrid, VelocityTrajectory
from .objective import penalty_field
from .obstacles import NOISE_PRESETS, observe


def _add_config_args(p: argparse.ArgumentParser, out_required: bool):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", type=Path, help="scenario config JSON path")
    src.add_argument(
        "--scenario", choices=scenarios.SCENARIO_NAMES, help="shipped scenario name"
    )
    p.add_argument("--out", type=Path, required=out_required, help="output directory")
    p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    p.add_argument(
        "--noise", choices=sorted(NOISE_PRESETS), default=None,
        help="override the noise preset",
    )


def _load_config(args) -> cfg_mod.ScenarioConfig:
    if args.config is not None:
        return cfg_mod.load(args.config, noise_override=args.noise, seed_override=args.seed)
    return scenarios.load_scenario(
        args.scenario, noise_override=args.noise, seed_override=args.seed
    )


def _seed(text: str) -> int:
    """argparse type: an integer >= 0, in decimal digits."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _positive_float(text: str) -> float:
    """argparse type: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _summary_text(config, log, metrics) -> str:
    lines = [
        f"scenario: {config.name}",
        f"seed: {log.seed}",
        f"noise: {config.noise_preset or 'custom'}",
        f"planner calls: {metrics.planner_calls}",
        f"first-maneuver switches: {metrics.switch_count}",
        f"failsafe holds: {metrics.failsafe_count}",
        "",
        f"{'obstacle':<12} {'situation':<20} {'compliance':<20} {'min distance [m]':>16}",
    ]
    for obs_id, m in metrics.obstacles.items():
        lines.append(
            f"{obs_id:<12} {m.situation:<20} {m.compliance:<20} {m.min_distance:>16.1f}"
        )
    return "\n".join(lines) + "\n"


def write_outputs(out: Path, log: sim.RunLog, metrics: sim.Metrics):
    """Write one run's trajectory.csv, planner.csv and metrics.json into
    the directory out, creating it."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "trajectory.csv").write_text(sim.runlog_to_csv(log))
    (out / "planner.csv").write_text(sim.planner_to_csv(log))
    (out / "metrics.json").write_text(
        json.dumps(sim.metrics_to_dict(metrics), indent=2, sort_keys=True) + "\n"
    )


def cmd_run(args) -> int:
    config = _load_config(args)
    log, metrics = sim.run(config)
    write_outputs(args.out, log, metrics)
    summary = _summary_text(config, log, metrics)
    (args.out / "summary.txt").write_text(summary)
    print(summary, end="")
    return 0


def cmd_solve(args) -> int:
    config = _load_config(args)
    state = config.ownship
    rng = np.random.default_rng(config.tracker_seed)
    estimates = [observe(s, config.noise, 0.0, rng) for s in config.obstacles]
    commanded = VelocityTrajectory.constant(
        TimeGrid.from_span(0.0, config.planner_period, config.integration_dt),
        state.sog, state.course,
    )
    candidates, table = sim.plan_step(
        config, 0.0, state, commanded, config.vessel.damping(state.sog, state.rot), estimates
    )
    if table is None:
        print("fail-safe: no feasible candidates, holding previous desired velocity")
        return 0
    print(f"{'id':>4} {'align':>14} {'avoid':>14} {'tran':>6} {'total':>16} {'samples'}")
    for i, path in enumerate(candidates.sample_path.tolist()):
        mark = " *" if i == table.selected else ""
        print(
            f"{i:>4} {table.align[i]:>14.4f} {table.avoid[i]:>14.4f} "
            f"{table.tran[i]:>6.0f} {table.total[i]:>16.4f} {tuple(map(tuple, path))}{mark}"
        )
    print(f"selected candidate: {table.selected}")
    return 0


def cmd_raster(args) -> int:
    config = _load_config(args)
    x, y, value = penalty_field(config.geometry, args.course, args.half_extent, args.cell)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    path = out / "penalty_field.csv"
    with path.open("w") as fh:
        fh.write("x_m,y_m,value\n")
        for xi, yi, vi in zip(x, y, value):
            fh.write(f"{xi:.6g},{yi:.6g},{vi:.12g}\n")
    print(f"wrote {path}")
    return 0


def cmd_validate(args) -> int:
    config = _load_config(args)
    print(f"OK: {config.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="colavmpc",
        description="Sample-based MPC collision avoidance planner and scenario simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write logs/metrics")
    _add_config_args(p_run, out_required=True)
    p_run.set_defaults(func=cmd_run)

    p_solve = sub.add_parser("solve", help="single planner solve with a cost table")
    _add_config_args(p_solve, out_required=False)
    p_solve.set_defaults(func=cmd_solve)

    p_raster = sub.add_parser("raster", help="rasterize the penalty field to CSV")
    _add_config_args(p_raster, out_required=True)
    p_raster.add_argument("--course", type=float, default=0.0, help="obstacle course [rad]")
    p_raster.add_argument("--half-extent", type=_positive_float, default=400.0, help="half size [m]")
    p_raster.add_argument("--cell", type=_positive_float, default=5.0, help="cell size [m]")
    p_raster.set_defaults(func=cmd_raster)

    p_val = sub.add_parser("validate", help="check a scenario config")
    _add_config_args(p_val, out_required=False)
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
