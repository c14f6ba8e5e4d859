"""Output check for one closed-loop operation.

``structural_problems`` lists every way the logs break the simulator's
own contract; any entry makes the run incorrect. Collision-region time
is not a contract break but a planner failure: it fails the operation
and is counted, never filtered out.
"""

from __future__ import annotations

import math

import numpy as np

from colavmpc import sim

_TRAJECTORY_FIELDS = (
    "t", "own_north", "own_east", "own_course", "own_sog", "own_rot", "tau_m", "tau_delta",
    "ref_sog", "ref_rot", "ref_course", "ref_sog_acc", "ref_rot_acc",
)
_PLANNER_VALUE_FIELDS = ("t", "align", "avoid", "tran", "total", "course_change", "sog_change")


def _finite_leaves(value, path, problems):
    if isinstance(value, dict):
        for key, item in value.items():
            _finite_leaves(item, f"{path}.{key}", problems)
    elif isinstance(value, float) and not math.isfinite(value):
        problems.append(f"{path} is not finite")


def structural_problems(cfg, log: sim.RunLog, metrics: dict) -> list[str]:
    problems = []
    for name in _TRAJECTORY_FIELDS:
        if not np.all(np.isfinite(getattr(log, name))):
            problems.append(f"trajectory {name} has non-finite values")
    for obs_id, ser in log.obstacles.items():
        for name, arr in vars(ser).items():
            if not np.all(np.isfinite(arr)):
                problems.append(f"obstacle {obs_id} {name} has non-finite values")

    pl = log.planner
    expected_calls = round(cfg.duration / cfg.planner_period)
    if len(pl.t) != expected_calls:
        problems.append(f"{len(pl.t)} planner calls, expected {expected_calls}")
    # fail-safe rows log NaN costs by design; every other value must be finite
    ok = ~pl.failsafe
    for name in _PLANNER_VALUE_FIELDS:
        if not np.all(np.isfinite(getattr(pl, name)[ok])):
            problems.append(f"planner {name} has non-finite values")
    sample_product = math.prod(s * c for s, c in zip(cfg.tree.n_sog, cfg.tree.n_course))
    if np.any(pl.n_candidates > sample_product):
        problems.append(f"more candidates than the sample product {sample_product}")
    if np.any((pl.candidate[ok] < 0) | (pl.candidate[ok] >= pl.n_candidates[ok])):
        problems.append("selected candidate index out of range")
    if np.any((pl.candidate[~ok] != -1) | (pl.n_candidates[~ok] != 0)):
        problems.append("fail-safe row with a selected candidate")
    _finite_leaves(metrics, "metrics", problems)
    return problems


def collision_time(metrics: dict) -> float:
    return sum(m["collision_time_s"] for m in metrics["obstacles"].values())
