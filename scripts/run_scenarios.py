#!/usr/bin/env python3
"""Run the four shipped encounter scenarios and print a summary table.

Usage: python scripts/run_scenarios.py [--noise {none,ais,radar}] [--seed N] [--out DIR]

With --out, per-scenario logs/metrics land in DIR/<scenario>/.
"""

import argparse
import json
import time
from pathlib import Path

from colavmpc import scenarios, sim
from colavmpc.cli import _seed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--noise", choices=("none", "ais", "radar"), default="none")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    header = (
        f"{'scenario':<20} {'situation':<18} {'compliance':<20} "
        f"{'min dist [m]':>12} {'switches':>9} {'wall [s]':>9}"
    )
    print(header)
    print("-" * len(header))
    for name in scenarios.SCENARIO_NAMES:
        cfg = scenarios.build_scenario(name, seed=args.seed, noise=args.noise)
        t0 = time.perf_counter()
        log, metrics = sim.run(cfg)
        wall = time.perf_counter() - t0
        m = metrics.obstacles["target"]
        print(
            f"{name:<20} {m.situation:<18} {m.compliance:<20} "
            f"{m.min_distance:>12.1f} {metrics.switch_count:>9d} {wall:>9.1f}"
        )
        if args.out is not None:
            out = args.out / name
            out.mkdir(parents=True, exist_ok=True)
            (out / "trajectory.csv").write_text(sim.runlog_to_csv(log))
            (out / "planner.csv").write_text(sim.planner_to_csv(log))
            (out / "metrics.json").write_text(
                json.dumps(sim.metrics_to_dict(metrics), indent=2, sort_keys=True) + "\n"
            )


if __name__ == "__main__":
    main()
