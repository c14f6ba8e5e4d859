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
case it writes ``<case>/metrics.json`` and records the sha256 of
trajectory.csv, planner.csv and metrics.json in ``digests.json``. The
numpy and Python versions it ran under go to ``environment.json``, so
that a digest mismatch elsewhere can name them. Regenerate only for an
intended change of behaviour, and say why in that change.
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
OUTPUTS = ("trajectory.csv", "planner.csv", "metrics.json")


def run_args(case: str) -> list[str]:
    """The ``colavmpc run`` source arguments of a golden case."""
    config = GOLDEN / case / "config.json"
    if config.is_file():
        return ["--config", str(config)]
    scenario, noise = case.rsplit("-", 1)
    return ["--scenario", scenario, "--noise", noise, "--seed", "0"]


def regenerate() -> int:
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
            digests[case] = {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS
            }
            (GOLDEN / case).mkdir(exist_ok=True)
            (GOLDEN / case / "metrics.json").write_bytes((out / "metrics.json").read_bytes())
            print(case, file=sys.stderr)
    (GOLDEN / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    environment = {"numpy": np.__version__, "python": platform.python_version()}
    (GOLDEN / "environment.json").write_text(json.dumps(environment, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
