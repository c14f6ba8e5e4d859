"""Every ```python block in README.md runs as written, each on its own,
and its output schema lists what `colavmpc run` writes."""

import json
import re
from pathlib import Path

import pytest

from colavmpc import scenarios, sim
from colavmpc.cli import write_outputs

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def _flat_keys(node, prefix=""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _flat_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_readme_output_schema_is_what_run_writes(tmp_path):
    section = README.read_text().split("\n## Output schema\n", 1)[1].split("\n## ", 1)[0]
    documented = [
        [name.strip() for name in block.split(",")]
        for block in re.findall(r"^```\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    ]
    write_outputs(tmp_path, *sim.run(scenarios.build_scenario("head_on")))
    trajectory, planner = (
        (tmp_path / name).read_text().split("\n", 1)[0].split(",")
        for name in ("trajectory.csv", "planner.csv")
    )
    metrics = _flat_keys(json.loads((tmp_path / "metrics.json").read_text()))
    written = [
        [name.replace("obs_target_", "obs_<id>_") for name in trajectory],
        planner,
        [name.replace("obstacles.target.", "obstacles.<id>.") for name in metrics],
    ]
    assert documented == written
