"""Closed-loop outputs must match the committed golden fixture byte for byte.

The fixture under tests/golden/ holds, for every shipped scenario under
the noise presets none and radar (seed 0) and for every committed
``<case>/config.json`` (a multi-obstacle and a waypoint case),
metrics.json and the digests of the outputs of ``colavmpc run``: the
sha256 of trajectory.csv and metrics.json, and of planner.csv's
decision, maneuver, cost and prediction columns apart, so that a
mismatch names the group that moved. environment.json holds the numpy
and Python versions they were recorded under.
tests/golden/make_golden.py regenerates it.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from colavmpc import scenarios
from colavmpc.cli import main
from golden.make_golden import GOLDEN, moved, output_digests, run_args

DIGESTS = json.loads((GOLDEN / "digests.json").read_text())
RECORDED_NUMPY = json.loads((GOLDEN / "environment.json").read_text())["numpy"]


# every golden case from its own arguments, and head_on-radar once more
# from a head_on config file: --noise and --seed override a --config file
# as they do a --scenario
RUNS = [pytest.param(case, False, id=case) for case in sorted(DIGESTS)]
RUNS.append(pytest.param("head_on-radar", True, id="head_on-radar-from-config"))


@pytest.mark.parametrize("case, from_config", RUNS)
def test_golden_outputs(case, from_config, tmp_path):
    args = run_args(case)
    if from_config:
        config = tmp_path / "head_on.json"
        config.write_text(json.dumps(scenarios.build_config_dict("head_on")))
        args = ["--config", str(config), "--noise", "radar", "--seed", "0"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", *args, "--out", str(tmp_path)])
    assert code == 0
    versions = f"golden recorded under numpy {RECORDED_NUMPY}; this run uses numpy {np.__version__}"
    assert (tmp_path / "metrics.json").read_text() == (GOLDEN / case / "metrics.json").read_text(), versions
    digests = output_digests(tmp_path)
    assert digests == DIGESTS[case], f"moved: {', '.join(moved(digests, DIGESTS[case])) or 'none'} ({versions})"
