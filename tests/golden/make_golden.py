#!/usr/bin/env python3
"""Regenerate the golden closed-loop outputs checked by tests/test_golden.py.

Usage, from the root of a source checkout:

    PYTHONPATH=src python3 tests/golden/make_golden.py

Runs ``colavmpc run`` for every shipped scenario under the noise presets
``none`` and ``radar``, both with seed 0, and ``colavmpc run --config``
for every committed ``<case>/config.json``. Those configs are kept as
written, so that their cases do not depend on a generator: ``traffic_0``
(five obstacles, radar noise) is ``bench/workloads.traffic(1)[0]`` and
``transit_0`` (waypoints, a 2-level tree) is ``transit(1)[0]``. For each
case it writes ``<case>/metrics.json`` and records in ``digests.json``
the sha256 of trajectory.csv and metrics.json, and one sha256 for each
column group of planner.csv (``PLANNER_GROUPS``): the decisions the
planner took, the size of each winner's first maneuver, and the costs
it scored them with. A change to the numerics that keeps every
decision then moves only ``planner.csv:maneuver`` and
``planner.csv:costs``. The numpy and Python versions it ran under go to
``environment.json``, so that a digest mismatch elsewhere can name
them. Before it overwrites a case, it prints the names of the digests
that differ from the committed ``digests.json``, or ``unchanged``.
Regenerate only for an intended change of behaviour, and say why
in that change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from colavmpc import scenarios
from colavmpc.cli import main

GOLDEN = Path(__file__).resolve().parent
NOISES = ("none", "radar")
# planner.csv's columns by what they record: what the planner chose, the
# course and speed change of the winner's first maneuver, and the costs
# it chose by; each group's digest covers its header and rows
PLANNER_GROUPS = {
    "decisions": ("t_s", "candidate", "n_candidates", "tran", "failsafe"),
    "maneuver": ("course_change_rad", "sog_change_mps"),
    "costs": ("align", "avoid", "total"),
}


def run_args(case: str) -> list[str]:
    """The ``colavmpc run`` source arguments of a golden case."""
    config = GOLDEN / case / "config.json"
    if config.is_file():
        return ["--config", str(config)]
    scenario, noise = case.rsplit("-", 1)
    return ["--scenario", scenario, "--noise", noise, "--seed", "0"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(out: Path) -> dict[str, str]:
    """The digests of one ``colavmpc run`` output directory, by name."""
    digests = {name: _sha256((out / name).read_bytes()) for name in ("trajectory.csv", "metrics.json")}
    rows = [line.split(",") for line in (out / "planner.csv").read_text().splitlines()]
    if sorted(rows[0]) != sorted(sum(PLANNER_GROUPS.values(), ())):
        raise ValueError(f"planner.csv columns {rows[0]} are not the columns of PLANNER_GROUPS")
    for group, names in PLANNER_GROUPS.items():
        cols = [rows[0].index(name) for name in names]
        digests[f"planner.csv:{group}"] = _sha256("".join(",".join(row[c] for c in cols) + "\n" for row in rows).encode())
    return digests


def moved(digests: dict[str, str], committed: dict[str, str]) -> list[str]:
    """The names of the digests that differ between two records of one case."""
    return sorted(name for name in digests.keys() | committed.keys() if digests.get(name) != committed.get(name))


def regenerate() -> int:
    committed = json.loads((GOLDEN / "digests.json").read_text())
    cases = [f"{scenario}-{noise}" for scenario in scenarios.SCENARIO_NAMES for noise in NOISES]
    cases += sorted(path.parent.name for path in GOLDEN.glob("*/config.json"))
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            out = Path(tmp) / case
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", *run_args(case), "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"colavmpc run failed for {case}")
            digests[case] = output_digests(out)
            print(f"{case}: {', '.join(moved(digests[case], committed.get(case, {}))) or 'unchanged'}")
            (GOLDEN / case).mkdir(exist_ok=True)
            (GOLDEN / case / "metrics.json").write_bytes((out / "metrics.json").read_bytes())
    (GOLDEN / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    environment = {"numpy": np.__version__, "python": platform.python_version()}
    (GOLDEN / "environment.json").write_text(json.dumps(environment, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
