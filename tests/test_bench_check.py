"""The benchmark's output check (bench/check.py) reads the log fields by
name. A renamed or retyped field would make every benchmark operation
fail, so a shipped scenario and a traffic workload run must pass it."""

from pathlib import Path

from colavmpc import config as cfgm
from colavmpc import scenarios, sim


def test_structural_check_passes_on_head_on_and_traffic(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import check
    import workloads

    for config in (
        scenarios.build_scenario("head_on", noise="radar"),
        cfgm.from_dict(workloads.traffic(1)[0]),
    ):
        log, metrics = sim.run(config)
        problems = check.structural_problems(config, log, sim.metrics_to_dict(metrics))
        assert problems == [], config.name
