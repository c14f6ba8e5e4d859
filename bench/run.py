#!/usr/bin/env python3
"""Closed-loop benchmark of the colavmpc planner and simulator.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload encounters --seed 1 --seconds 25 --trace 0

One operation is one ``colavmpc run`` of a generated config, done in
this process: simulate, then write trajectory.csv, planner.csv and
metrics.json to a temporary directory. Operations run one after another
(a closed loop with one client and no worker threads).

``--trace 0`` runs every config of the workload once, then the first
config again, which must reproduce the same bytes, and keeps cycling
until ``--seconds`` have passed. It reports the end-to-end metrics that
BENCHMARK.json lists and prints, without gating them, the figures in
UNGATED_UNITS. Set-up (import plus config validation) is timed in fresh
interpreters between operations.

``--trace 1`` runs the first config once untraced, then cycles through
the configs with spans recorded (see tracing.py) until ``--seconds`` have
passed, and reports the per-layer metrics. The untraced and traced runs
of the first config give the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The full record (environment,
per-operation sha256 digests and metrics.json values) is written to
``<results>/<workload>-seed<seed>-trace<t>.json`` (``--results``,
default ``.bench_results``); a traced run also writes its spans next to
it. ``compare.py`` compares two such directories.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# BLAS/OpenMP pools, pinned to one thread before numpy loads
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import colavmpc from this checkout's src/, never from elsewhere."""
    if not (SRC / "colavmpc" / "__init__.py").is_file():
        fail(f"no colavmpc sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import colavmpc

    if Path(colavmpc.__file__).resolve().parent != (SRC / "colavmpc").resolve():
        fail(f"imported colavmpc from {colavmpc.__file__}, not from {SRC}")


def setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter, measured by the child."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "colavmpc").rglob("*.py"))
        ),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_op(cfg, out_dir: Path, tracer=None) -> dict:
    """One operation and its output check. Wall time covers simulate + write."""
    from colavmpc import sim

    import check

    span = tracer.span if tracer is not None else lambda name: contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span("sim.op"):
            log, metrics = sim.run(cfg)
            with span("sim.csv"):
                traj = sim.runlog_to_csv(log)
                plan = sim.planner_to_csv(log)
                (out_dir / "trajectory.csv").write_text(traj)
                (out_dir / "planner.csv").write_text(plan)
            metrics_dict = sim.metrics_to_dict(metrics)
            mjson = json.dumps(metrics_dict, indent=2, sort_keys=True) + "\n"
            (out_dir / "metrics.json").write_text(mjson)
    except Exception as exc:  # a raising operation fails; the run goes on
        return {
            "name": cfg.name, "seed": cfg.seed, "sim_s": cfg.duration,
            "wall_s": time.perf_counter() - t0, "error": repr(exc),
        }
    wall = time.perf_counter() - t0
    return {
        "name": cfg.name,
        "seed": cfg.seed,
        "sim_s": cfg.duration,
        "wall_s": wall,
        "error": None,
        "problems": check.structural_problems(cfg, log, metrics_dict),
        "collision_s": check.collision_time(metrics_dict),
        "planner_calls": metrics_dict["planner_calls"],
        "switches": metrics_dict["switch_count"],
        "failsafe": metrics_dict["failsafe_count"],
        "min_clearance_m": {k: m["min_clearance_m"] for k, m in metrics_dict["obstacles"].items()},
        "csv_bytes": len(traj) + len(plan),
        "sha256": {
            "trajectory.csv": sha256(traj),
            "planner.csv": sha256(plan),
            "metrics.json": sha256(mjson),
        },
        "metrics_json": metrics_dict,
    }


def op_failed(op: dict) -> bool:
    """Raised, broke the log contract, or spent time in a collision region."""
    return op["error"] is not None or bool(op["problems"]) or op["collision_s"] > 0.0


def run_ops(configs, seconds, out_dir, *, min_ops, tracer=None, after_op=None) -> list[dict]:
    ops = []
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.op = len(ops)
        ops.append(run_op(configs[len(ops) % len(configs)], out_dir, tracer))
        if after_op is not None:
            after_op()
    return ops


def determinism_problems(ops, reference) -> list[str]:
    """Every operation must reproduce the bytes of the first run of its config."""
    problems = []
    for i, op in enumerate(ops):
        first = reference[i % len(reference)]
        if op is first or op["error"] or first["error"]:
            continue
        if op["sha256"] != first["sha256"]:
            problems.append(f"operation {i} ({op['name']}) differs from the first run of its config")
    return problems


def percentiles(values) -> list[float]:
    """Linearly interpolated percentiles; element k - 1 is the k-th."""
    return statistics.quantiles(values, n=100, method="inclusive")


def end_to_end(ops, n_configs, solve_s, setup_samples) -> dict:
    """Every end-to-end figure. Clearance and switch rate come from the first
    run of each config, so they depend on the seed and not on the run length."""
    done = [op for op in ops if not op["error"]]
    first_pass = [op for op in ops[:n_configs] if not op["error"]]
    calls = sum(op["planner_calls"] for op in first_pass)
    solve_pct = percentiles(solve_s)
    return {
        "setup_s": statistics.median(setup_samples),
        "solve_ms_mean": 1e3 * statistics.fmean(solve_s),
        "solve_ms_p50": 1e3 * solve_pct[49],
        "solve_ms_p95": 1e3 * solve_pct[94],
        "sim_speed_x": sum(op["sim_s"] for op in done) / sum(op["wall_s"] for op in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_pct": 100.0 * (len(ops) - sum(op_failed(op) for op in ops)) / len(ops),
        "min_clearance_m": min(
            (c for op in first_pass for c in op["min_clearance_m"].values()), default=math.nan
        ),
        "switch_rate": sum(op["switches"] for op in first_pass) / calls if calls else math.nan,
    }


# End-to-end figures that are printed and recorded but not gated: their
# run-to-run spread can exceed any bound BENCHMARK.json may set. Mean-like
# timings (solve mean and median, simulation speed) move with the host's
# speed phases, which last seconds to minutes, while the solve p95 stays
# put; clearance and switch rate change with the seeded geometry and
# noise, and switch rate is 0 on transit.
UNGATED_UNITS = {
    "solve_ms_p50": "ms", "solve_ms_mean": "ms", "sim_speed_x": "x",
    "min_clearance_m": "m", "switch_rate": "1/call",
}


def per_layer(tracer, ops, overhead_pct) -> dict:
    """Per-layer figures from the spans: per planner call, per integration
    step or per operation as the name says, and each layer's share of
    operation wall time by self time."""
    import tracing

    self_ns, busy_ns = tracer.self_times_ns()
    calls = Counter(span[0] for span in tracer.spans)
    op_wall_ns = busy_ns["sim.op"]
    solves = calls["tree.generate_tree"]
    n_ops = calls["sim.op"]
    ms = 1e-6
    done = [op for op in ops if not op["error"]]
    guidance = ("guidance.los_targets", "guidance.desired_acceleration")
    out = {
        "tree.busy_ms": busy_ns["tree.generate_tree"] * ms / solves,
        # tree self time excludes the guidance hook it calls per node
        "tree.self_ms": self_ns["tree"] * ms / solves,
        "tree.nodes": calls["guidance.los_targets"] / solves,
        "tree.candidates": tracer.counts["tree.candidates"] / solves,
        "tree.feasible_ratio": tracer.counts["tree.samples_kept"] / tracer.counts["tree.samples_tried"],
        "guidance.busy_ms": sum(busy_ns[name] for name in guidance) * ms / solves,
        "guidance.calls": sum(calls[name] for name in guidance) / solves,
        "objective.busy_ms": busy_ns["objective.select"] * ms / solves,
        "objective.penalty_ms": busy_ns["objective.penalty"] * ms / solves,
        "obstacles.busy_ms": (busy_ns["obstacles.observe"] + busy_ns["obstacles.predict_obstacle"]) * ms / solves,
        "vessel.busy_us": (busy_ns["vessel.control_law"] + busy_ns["vessel.step_plant"])
        * 1e-3 / calls["vessel.step_plant"],
        "sim.self_ms": self_ns["sim"] * ms / n_ops,
        "sim.metrics_ms": busy_ns["sim.compute_metrics"] * ms / n_ops,
        "sim.csv_ms": busy_ns["sim.csv"] * ms / n_ops,
        "sim.csv_bytes": sum(op["csv_bytes"] for op in done) / len(done),
        "sim.planner_calls": sum(op["planner_calls"] for op in done),
        "sim.failsafe": sum(op["failsafe"] for op in done),
        "sim.switch_rate": sum(op["switches"] for op in done) / sum(op["planner_calls"] for op in done),
        "sim.min_clearance_m": min(c for op in done for c in op["min_clearance_m"].values()),
        "config.load_ms": busy_ns["config.from_dict"] * ms / calls["config.from_dict"],
        "trace.sim_speed_x": sum(op["sim_s"] for op in done) / (op_wall_ns * 1e-9),
        "trace.overhead_pct": overhead_pct,
        "trace.self_sum_pct": 100.0 * sum(self_ns[layer] for layer in tracing.OP_LAYERS) / op_wall_ns,
    }
    for layer in tracing.OP_LAYERS:
        out[f"{layer}.share_pct"] = 100.0 * self_ns[layer] / op_wall_ns
    return out


def select_metrics(values: dict, declared: list[dict]) -> dict:
    """The declared metrics, in declaration order, with their units."""
    out = {}
    for spec in declared:
        value = values.get(spec["name"])
        if value is None or not math.isfinite(value):
            fail(f"metric {spec['name']} was not measured")
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--results", default=".bench_results",
        help="directory for the run record, inside the checkout (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    results = (ROOT / args.results).resolve()
    if not results.is_relative_to(ROOT):
        fail(f"--results must lie inside {ROOT}")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    import_package()

    from colavmpc import config

    import tracing
    import workloads

    if args.workload not in workloads.GENERATORS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.GENERATORS)}")

    # Set-up probes are spread through the run, one before the first
    # operation and one after each of the next, so that their median
    # samples the host over the run rather than over one second.
    setup_samples = [] if args.trace else [setup_probe(args.workload, args.seed)]

    def probe_setup():
        if len(setup_samples) < SETUP_REPEATS:
            setup_samples.append(setup_probe(args.workload, args.seed))

    tracer = tracing.Tracer() if args.trace else None
    dicts = workloads.GENERATORS[args.workload](args.seed)
    configs = []
    for data in dicts:
        with tracer.span("config.from_dict") if tracer else contextlib.nullcontext():
            configs.append(config.from_dict(data))

    results.mkdir(parents=True, exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="op-", dir=results))
    try:
        if args.trace:
            untraced = run_op(configs[0], out_dir)
            with tracer.installed():
                ops = run_ops(configs, args.seconds - untraced["wall_s"], out_dir, min_ops=1, tracer=tracer)
            overhead_pct = 100.0 * (ops[0]["wall_s"] / untraced["wall_s"] - 1.0)
            # the traced first run must reproduce the untraced one
            reference = [untraced] + ops[1 : len(configs)]
            problems = determinism_problems(ops, reference)
            metrics = per_layer(tracer, ops, overhead_pct)
            declared = spec["per_layer"]
            ops = [untraced] + ops
        else:
            clock = tracing.SolveClock()
            with clock.installed():
                ops = run_ops(
                    configs, args.seconds, out_dir, min_ops=len(configs) + 1, after_op=probe_setup
                )
            while len(setup_samples) < SETUP_REPEATS:
                probe_setup()
            reference = ops[: len(configs)]
            problems = determinism_problems(ops, reference)
            metrics = end_to_end(ops, len(configs), clock.samples_s, setup_samples)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    problems += [f"operation {i} ({op['name']}): {op['error']}" for i, op in enumerate(ops) if op["error"]]
    problems += [f"operation {i} ({op['name']}): {p}" for i, op in enumerate(ops) for p in op.get("problems", ())]
    collisions = [f"operation {i} ({op['name']}): {op['collision_s']:.1f} s in a collision region"
                  for i, op in enumerate(ops) if not op["error"] and op["collision_s"] > 0.0]
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(op_failed(op) for op in ops),
        "metrics": select_metrics(metrics, declared),
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        **result,
        "all_metrics": metrics,
        "setup_s_samples": setup_samples,
        "solve_ms": None if args.trace else {
            "n": len(clock.samples_s),
            **{f"p{k:02d}": 1e3 * percentiles(clock.samples_s)[k - 1] for k in (5, 25, 75)},
            "max": 1e3 * max(clock.samples_s),
        },
        "problems": problems,
        "collisions": collisions,
        # the first run of every config, with digests and metrics.json values
        "first_pass": reference,
        "ops": [{k: op.get(k) for k in ("name", "seed", "sim_s", "wall_s", "error", "sha256")} for op in ops],
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(results / f"{args.workload}-seed{args.seed}.spans.csv.gz")

    for line in problems + collisions:
        print(f"problem: {line}")
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations, {result['failed']} failed"
          + (f", {len(clock.samples_s)} planner calls timed" if not args.trace else ""))
    for name, m in result["metrics"].items():
        print(f"  {name:<24} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        for name, unit in UNGATED_UNITS.items():
            print(f"  {name:<24} {metrics[name]:>14.6g} {unit} (not gated)")
        print(f"  {'failed_ops':<24} {result['failed']:>7d} of {result['attempted']} operations")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
