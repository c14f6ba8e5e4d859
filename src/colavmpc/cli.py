"""Command-line front end: run scenarios, inspect single solves, export rasters."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import config as cfg_mod
from . import scenarios, sim
from .config import ConfigError
from .objective import penalty_field
from .obstacles import NOISE_PRESETS


def _load_config(args) -> cfg_mod.ScenarioConfig:
    """The --config file or --scenario, with --seed and --noise applied."""
    config = cfg_mod.load(args.config) if args.config is not None else scenarios.build_scenario(args.scenario)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.noise is not None:
        config = dataclasses.replace(config, noise=NOISE_PRESETS[args.noise])
    return config


def _integer(minimum: int):
    """argparse type: an integer >= minimum, in decimal digits."""

    def parse(text: str) -> int:
        if not (text.isascii() and text.isdigit()) or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return int(text)

    return parse


def _finite_float(minimum: float = -math.inf, inclusive: bool = True):
    """argparse type: a finite number, >= minimum, or > minimum if not inclusive."""
    rule = "a finite number" + ("" if minimum == -math.inf else f" {'>=' if inclusive else '>'} {minimum:g}")

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value >= minimum if inclusive else value > minimum)):
            raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")
        return value

    return parse


def _summary_text(config, log, metrics) -> str:
    # the preset whose values the run's noise has, however it was set
    noise = next((name for name, preset in NOISE_PRESETS.items() if preset == config.noise), "custom")
    lines = [
        f"scenario: {config.name}",
        f"seed: {log.seed}",
        f"noise: {noise}",
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
    the directory out, creating it. Each CSV is written block by block,
    so no file's whole text is held."""
    out.mkdir(parents=True, exist_ok=True)
    for name, blocks in (
        ("trajectory.csv", sim.runlog_csv_blocks(log)),
        ("planner.csv", sim.planner_csv_blocks(log)),
    ):
        with (out / name).open("w") as fh:
            fh.writelines(blocks)
    (out / "metrics.json").write_text(
        json.dumps(sim.metrics_to_dict(metrics), indent=2, sort_keys=True) + "\n"
    )


def cmd_run(args) -> int:
    config = _load_config(args)
    args.out.mkdir(parents=True, exist_ok=True)
    log, metrics = sim.run(config)
    write_outputs(args.out, log, metrics)
    summary = _summary_text(config, log, metrics)
    (args.out / "summary.txt").write_text(summary)
    print(summary, end="")
    return 0


def cmd_solve(args) -> int:
    solve = next(sim.solves(_load_config(args)))
    table = solve.table
    if table is None:
        print("fail-safe: no feasible candidates, holding previous desired velocity")
        return 0
    print(f"{'id':>4} {'align':>14} {'avoid':>14} {'tran':>6} {'total':>16} {'samples'}")
    cands = solve.candidates
    # each leaf's (sog, rot) sample indices, level by level through its ancestor edges
    levels = [zip(i[rows].tolist(), j[rows].tolist()) for (i, j, _, _), rows in zip(cands.samples, cands.ancestors)]
    for i, path in enumerate(zip(*levels)):
        mark = " *" if i == table.selected else ""
        print(
            f"{i:>4} {table.align[i]:>14.4f} {table.avoid[i]:>14.4f} "
            f"{table.tran[i]:>6.0f} {table.total[i]:>16.4f} {path}{mark}"
        )
    print(f"selected candidate: {table.selected}")
    return 0


def cmd_raster(args) -> int:
    config = _load_config(args)
    args.out.mkdir(parents=True, exist_ok=True)
    x, y, value = penalty_field(config.geometry, args.course, args.half_extent, args.cell)
    path = args.out / "penalty_field.csv"
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
    # the options each command takes, as parent parsers. --seed and --noise
    # change a run, so raster and validate take neither and load the
    # config as given (source's defaults)
    source = argparse.ArgumentParser(add_help=False)
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", type=Path, help="scenario config JSON path")
    group.add_argument("--scenario", choices=scenarios.SCENARIO_NAMES, help="shipped scenario name")
    source.set_defaults(seed=None, noise=None)
    overrides = argparse.ArgumentParser(add_help=False)
    overrides.add_argument("--seed", type=_integer(0), help="override the config seed")
    overrides.add_argument("--noise", choices=sorted(NOISE_PRESETS), help="override the noise preset")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, required=True, help="output directory")

    p_run = sub.add_parser("run", parents=[source, out, overrides], help="simulate a scenario and write logs/metrics")
    p_run.set_defaults(func=cmd_run)
    p_solve = sub.add_parser("solve", parents=[source, overrides], help="single planner solve with a cost table")
    p_solve.set_defaults(func=cmd_solve)
    p_raster = sub.add_parser("raster", parents=[source, out], help="rasterize the penalty field to CSV")
    p_raster.add_argument("--course", type=_finite_float(), default=0.0, help="obstacle course [rad]")
    p_raster.add_argument("--half-extent", type=_finite_float(0.0, inclusive=False), default=400.0, help="half size [m]")
    p_raster.add_argument("--cell", type=_finite_float(0.0, inclusive=False), default=5.0, help="cell size [m]")
    p_raster.set_defaults(func=cmd_raster)
    p_val = sub.add_parser("validate", parents=[source], help="check a scenario config")
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
