#!/usr/bin/env python3
"""Replanning-vs-noise study: transitional cost weight sweep on a scenario.

Runs the chosen scenario under the radar noise preset across many seeds,
once with the configured transitional cost weight and once with it zeroed,
and reports how often the planner switches its committed first maneuver.

Usage: python scripts/noise_study.py [--scenario NAME] [--seeds N] [--weight W]

--seeds takes an integer >= 1 and --weight a finite number >= 0; any
other value is an argument error (exit 2) that names the flag.
"""

import argparse
import dataclasses
import sys

import numpy as np

from colavmpc import scenarios, sim
from colavmpc.cli import _finite_float, _integer


def sweep(configs, weight: float) -> tuple[list[sim.Metrics], list[sim.Metrics]]:
    """Metrics of each config run with the transitional weight w_tran =
    weight and with w_tran = 0, as two lists in the order of configs."""
    runs = ([], [])
    for config in configs:
        for w_tran, out in zip((weight, 0.0), runs):
            weights = dataclasses.replace(config.weights, w_tran=w_tran)
            out.append(sim.run(dataclasses.replace(config, weights=weights))[1])
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", choices=scenarios.SCENARIO_NAMES, default="head_on")
    parser.add_argument("--seeds", type=_integer(1), default=20)
    parser.add_argument("--weight", type=_finite_float(0.0), default=4200.0)
    args = parser.parse_args(argv)

    configs = [scenarios.build_scenario(args.scenario, seed=s, noise="radar") for s in range(args.seeds)]
    runs = sweep(configs, args.weight)
    print(f"scenario: {args.scenario}, radar noise, {args.seeds} seeds")
    for w_tran, metrics in zip((args.weight, 0.0), runs):
        counts = [m.switch_count for m in metrics]
        print(
            f"  w_tran = {w_tran:>7.1f}: switches median {np.median(counts):.1f} "
            f"mean {np.mean(counts):.1f} max {max(counts)}"
        )
    distances = [m.obstacles["target"].min_distance for metrics in runs for m in metrics]
    print(f"  min distance over all runs: {min(distances):.1f} m")
    return 0


if __name__ == "__main__":
    sys.exit(main())
