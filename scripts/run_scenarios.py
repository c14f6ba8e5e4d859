#!/usr/bin/env python3
"""Run the four shipped encounter scenarios and print a summary table.

Usage: python scripts/run_scenarios.py [--noise {none,ais,radar}] [--seed N] [--out DIR]

With --out, per-scenario logs/metrics land in DIR/<scenario>/. DIR is
created before the first scenario runs; if it cannot be (or a file cannot
be written), the script prints one "error: ..." line and exits 1.
"""

import argparse
import sys
import time
from pathlib import Path

from colavmpc import scenarios, sim
from colavmpc.cli import _integer, write_outputs
from colavmpc.obstacles import NOISE_PRESETS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--noise", choices=sorted(NOISE_PRESETS), default="none")
    parser.add_argument("--seed", type=_integer(0), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    try:
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
        run_all(args.noise, args.seed, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def run_all(noise: str, seed: int, out: Path | None):
    header = (
        f"{'scenario':<20} {'situation':<18} {'compliance':<20} "
        f"{'min dist [m]':>12} {'switches':>9} {'wall [s]':>9}"
    )
    print(header)
    print("-" * len(header))
    for name in scenarios.SCENARIO_NAMES:
        cfg = scenarios.build_scenario(name, seed=seed, noise=noise)
        t0 = time.perf_counter()
        log, metrics = sim.run(cfg)
        wall = time.perf_counter() - t0
        m = metrics.obstacles["target"]
        print(
            f"{name:<20} {m.situation:<18} {m.compliance:<20} "
            f"{m.min_distance:>12.1f} {metrics.switch_count:>9d} {wall:>9.1f}"
        )
        if out is not None:
            write_outputs(out / name, log, metrics)


if __name__ == "__main__":
    sys.exit(main())
