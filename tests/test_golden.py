"""Closed-loop outputs must match the committed golden fixture byte for byte.

The fixture under tests/golden/ holds, for every shipped scenario under
the noise presets none and radar (seed 0) and for every committed
``<case>/config.json`` (a multi-obstacle and a waypoint case),
metrics.json and the sha256 of trajectory.csv, planner.csv and
metrics.json as written by ``colavmpc run``, and environment.json the
numpy and Python versions they were recorded under.
tests/golden/make_golden.py regenerates it.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from colavmpc.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = json.loads((GOLDEN / "digests.json").read_text())
RECORDED_NUMPY = json.loads((GOLDEN / "environment.json").read_text())["numpy"]


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_golden_outputs(case, tmp_path):
    config = GOLDEN / case / "config.json"
    if config.is_file():
        source = ["--config", str(config)]
    else:
        scenario, noise = case.rsplit("-", 1)
        source = ["--scenario", scenario, "--noise", noise, "--seed", "0"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", *source, "--out", str(tmp_path)])
    assert code == 0
    versions = f"golden recorded under numpy {RECORDED_NUMPY}; this run uses numpy {np.__version__}"
    assert (tmp_path / "metrics.json").read_text() == (GOLDEN / case / "metrics.json").read_text(), versions
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS[case]}
    assert digests == DIGESTS[case], versions
