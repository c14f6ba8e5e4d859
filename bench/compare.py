#!/usr/bin/env python3
"""Compare two result sets of the benchmark, one row per workload.

Usage: python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the records that ``run.py --results DIR`` writes
(``<workload>-seed<n>-trace0.json``). For every end-to-end metric in
BENCHMARK.json a cell shows the median and quartiles of both sides and
a verdict:

* worse: the new median is worse than the base median by more than the
  metric's bound;
* better: the new median is better by more than the base's own
  quartile spread and the new side wins at least 9 in 10 of all
  (new, base) run pairs, ties counting for neither;
* unresolved: a side's quartile spread is wider than the bound, unless
  every new run is better than every base run;
* unchanged: otherwise.

The figures run.py records but does not gate follow, with medians and
quartiles only. It also prints, per workload, failed over attempted
operations, how many seeds produced byte-identical outputs on both
sides, and the median tracing overhead where traced records exist.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import UNGATED_UNITS

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict:
    """{(workload, trace): {seed: record}}"""
    out: dict = {}
    for path in sorted(directory.glob("*-seed*-trace*.json")):
        rec = json.loads(path.read_text())
        out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b_med, b_q1, b_q3 = summary(base)
    n_med, n_q1, n_q3 = summary(new)
    spread = max((b_q3 - b_q1) / abs(b_med), (n_q3 - n_q1) / abs(n_med))
    worsening = sign * (n_med - b_med) / abs(b_med)
    pairs = [sign * (b - n) for n in new for b in base]  # > 0: the new run is better
    if spread > bound:
        return "better" if all(p > 0 for p in pairs) else "unresolved"
    if worsening > bound:
        return "worse"
    wins = sum(p > 0 for p in pairs) / len(pairs)
    if -worsening > (b_q3 - b_q1) / abs(b_med) and wins >= 0.9:
        return "better"
    return "unchanged"


def fmt(values: list[float]) -> str:
    med, q1, q3 = summary(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def same_outputs(base: dict, new: dict) -> str:
    seeds = sorted(set(base) & set(new))
    same = sum(
        [op["sha256"] for op in base[s]["first_pass"]] == [op["sha256"] for op in new[s]["first_pass"]]
        for s in seeds
    )
    return f"{same}/{len(seeds)} seeds"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    workloads = [w["name"] for w in spec["workloads"]]
    names = [m["name"] for m in spec["end_to_end"]]
    ungated = [f"{name} (not gated)" for name in UNGATED_UNITS]
    print(
        "workload | " + " | ".join(names + ungated)
        + " | failed/attempted | same outputs | trace overhead %"
    )
    for workload in workloads:
        b, n = base.get((workload, 0)), new.get((workload, 0))
        if not b or not n:
            print(f"{workload} | missing on {'base' if not b else 'new'} side")
            continue
        cells = []
        for m in spec["end_to_end"]:
            bv = [r["all_metrics"][m["name"]] for r in b.values()]
            nv = [r["all_metrics"][m["name"]] for r in n.values()]
            cells.append(f"{fmt(bv)} -> {fmt(nv)} {verdict(bv, nv, m['better'], m['bound'])}")
        for name in UNGATED_UNITS:
            bv = [r["all_metrics"][name] for r in b.values()]
            nv = [r["all_metrics"][name] for r in n.values()]
            cells.append(f"{fmt(bv)} -> {fmt(nv)}")
        failed = " -> ".join(
            f"{sum(r['failed'] for r in side.values())}/{sum(r['attempted'] for r in side.values())}"
            for side in (b, n)
        )
        overhead = " -> ".join(
            f"{statistics.median(r['all_metrics']['trace.overhead_pct'] for r in side.values()):.1f}"
            if side else "n/a"
            for side in (base.get((workload, 1)), new.get((workload, 1)))
        )
        print(f"{workload} | " + " | ".join(cells) + f" | {failed} | {same_outputs(b, n)} | {overhead}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
