#!/usr/bin/env python3
"""Per-call replay of the planner: two checkouts timed in one process.

Usage, from anywhere:

    python3 scripts/replay_calls.py PARENT_ROOT CHANGE_ROOT --workload transit --seed 1

Loads each checkout's src/colavmpc under its own package name and builds
the workload's configs with that checkout's bench/workloads.py. Runs
every config once on each side, recording every plan_step call, and
checks that both sides write the same planner.csv rows (exit 1 if not).
Then replays the recorded calls, the two sides alternately, best of 7
per call, and prints the median per-call ratio of change over parent
and the ratio over the heaviest tenth of the calls (by the parent's
time). --configs N keeps the first N configs of the workload.

One process and one call at a time, so both sides see the same heap,
interpreter and machine state: a ratio of a few percent resolves here
where the closed-loop benchmark's spread hides it.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

REPEATS = 7


def load(root: Path, name: str):
    """root/src/colavmpc imported as the package name, with its config,
    scenarios and sim modules."""
    pkg_dir = root / "src" / "colavmpc"
    spec = importlib.util.spec_from_file_location(name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for module in ("config", "scenarios", "sim"):
        importlib.import_module(f"{name}.{module}")
    return pkg


@contextmanager
def as_colavmpc(pkg):
    """pkg importable as colavmpc, which bench/workloads.py and the
    packaged scenario files are looked up by, for the with block."""
    names = {"colavmpc": pkg, "colavmpc.scenarios": pkg.scenarios}
    saved = {name: sys.modules.get(name) for name in names}
    sys.modules.update(names)
    try:
        yield
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def configs(root: Path, pkg, workload: str, seed: int) -> list:
    """The workload's configs from root's bench/workloads.py, read by pkg."""
    with as_colavmpc(pkg):
        name = f"{pkg.__name__}_workloads"
        spec = importlib.util.spec_from_file_location(name, root / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        return [pkg.config.from_dict(data) for data in workloads.GENERATORS[workload](seed)]


def record(pkg, cfgs) -> tuple[list[tuple], list[str]]:
    """Every plan_step call's arguments of one run of each config, and
    each run's planner.csv text."""
    sim, calls = pkg.sim, []
    real = sim.plan_step

    def recording(*args):
        calls.append(args)
        return real(*args)

    sim.plan_step = recording
    try:
        rows = [sim.planner_to_csv(sim.run(cfg)[0]) for cfg in cfgs]
    finally:
        sim.plan_step = real
    return calls, rows


def replay(sides) -> list[list[int]]:
    """Each side's best time (ns) of every recorded call over REPEATS
    rounds; within a call the sides alternate, the first swapping each round."""
    best = [[float("inf")] * len(calls) for _, calls in sides]
    clock = time.perf_counter_ns
    for rnd in range(REPEATS):
        order = (0, 1) if rnd % 2 == 0 else (1, 0)
        for i in range(len(sides[0][1])):
            for side in order:
                plan_step, calls = sides[side]
                t0 = clock()
                plan_step(*calls[i])
                best[side][i] = min(best[side][i], clock() - t0)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True, choices=("encounters", "traffic", "transit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--configs", type=int, default=None, help="keep the first N configs")
    args = parser.parse_args(argv)

    sides = []
    for root, name in ((args.parent, "colavmpc_parent"), (args.change, "colavmpc_change")):
        pkg = load(root.resolve(), name)
        cfgs = configs(root.resolve(), pkg, args.workload, args.seed)[: args.configs]
        calls, rows = record(pkg, cfgs)
        sides.append((pkg.sim.plan_step, calls, rows))
    (_, parent_calls, parent_rows), (_, change_calls, change_rows) = sides
    label = f"{args.workload} seed {args.seed}"
    if len(parent_calls) != len(change_calls) or parent_rows != change_rows:
        differ = [k for k, (a, b) in enumerate(zip(parent_rows, change_rows)) if a != b]
        print(f"{label}: planner rows differ (configs {differ}, {len(parent_calls)} against {len(change_calls)} calls)")
        return 1
    print(f"{label}: {len(parent_calls)} calls of {len(parent_rows)} configs, planner rows identical")

    parent_ns, change_ns = replay([(plan_step, calls) for plan_step, calls, _ in sides])
    ratios = [c / p for p, c in zip(parent_ns, change_ns)]
    heavy = sorted(range(len(ratios)), key=parent_ns.__getitem__)[-max(1, len(ratios) // 10):]
    heavy_ratio = sum(change_ns[i] for i in heavy) / sum(parent_ns[i] for i in heavy)
    print(f"median per-call change/parent: {statistics.median(ratios):.3f}")
    print(f"heaviest-decile change/parent: {heavy_ratio:.3f} ({len(heavy)} calls)")
    print(f"median per-call parent/change: {statistics.median(parent_ns) / 1e3:.1f}/{statistics.median(change_ns) / 1e3:.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
