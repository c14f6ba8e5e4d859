import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import colavmpc
from colavmpc import config as cfg_mod
from colavmpc import scenarios
from colavmpc.cli import _summary_text, main
from colavmpc.config import SCHEMA_VERSION
from colavmpc.obstacles import NOISE_PRESETS
from colavmpc.sim import Metrics
from golden.make_golden import GOLDEN


def _small_config(tmp_path, name="mini", seed=0, with_obstacle=True, ownship_sog=5.0):
    data = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "seed": seed,
        "duration": 20.0,
        "integration_dt": 0.1,
        "planner": {
            "eval_dt": 0.5,
            "step_times": [5.0, 10.0],
            "n_sog": [3, 1],
            "n_course": [3, 3],
            "t_ramp": 1.0,
            "t_sog": 5.0,
            "t_course": 5.0,
            "tc_sog": 5.0,
            "tc_course": 5.0,
        },
        "guidance": {"lookahead": 500.0, "along_track_gain": 0.005, "epsilon": 0.05},
        "weights": {"align": 1.0, "avoid": 6000.0, "tran": 4200.0, "course": 100.0},
        "penalty": {
            "kind": "elliptical_colregs",
            "gamma1": 0.1,
            "a": [50.0, 150.0, 250.0],
            "b": [25.0, 75.0, 125.0],
            "d_colregs": 100.0,
        },
        "ownship": {"north": 0.0, "east": 0.0, "course": 0.0, "sog": ownship_sog, "rot": 0.0},
        "desired": {"kind": "line", "speed": 5.0, "north": 0.0, "east": 0.0, "course": 0.0},
        "obstacles": (
            [{"id": "target", "north": 600.0, "east": 50.0, "sog": 2.5, "course": math.pi}]
            if with_obstacle
            else []
        ),
        "noise": {"preset": "none"},
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data, indent=2))
    return path, data


def _loaded_submodules(module):
    """The colavmpc.* modules a fresh interpreter holds after importing
    `module`, from the copy of the package these tests import."""
    src = Path(colavmpc.__file__).resolve().parents[1]
    code = f"import sys, {module}; print(*(n for n in sys.modules if n.startswith('colavmpc.')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    return set(proc.stdout.split())


def test_import_graph():
    # the package holds no names, so importing it loads none of its modules,
    # and a caller that only reads configs never loads the simulator
    assert _loaded_submodules("colavmpc") == set()
    loaded = _loaded_submodules("colavmpc.config")
    assert "colavmpc.config" in loaded
    assert loaded.isdisjoint({"colavmpc.sim", "colavmpc.grading", "colavmpc.scenarios", "colavmpc.cli"})


def test_run_writes_outputs(tmp_path, capsys):
    cfg_path, _ = _small_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["obstacles"]["target"]["min_distance_m"] > 0.0
    assert "compliance" in metrics["obstacles"]["target"]
    assert (out / "trajectory.csv").read_text().startswith("t_s,")
    assert (out / "summary.txt").exists()
    assert (out / "planner.csv").exists()
    assert "min distance" in capsys.readouterr().out


def test_run_seed_override_deterministic(tmp_path):
    cfg_path, _ = _small_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        code = main(
            ["run", "--config", str(cfg_path), "--out", str(out), "--seed", "7", "--noise", "radar"]
        )
        assert code == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()


def test_run_shipped_scenario_smoke(tmp_path):
    out = tmp_path / "ship"
    assert main(["run", "--scenario", "crossing_starboard", "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["obstacles"]["target"]["collision_time_s"] == 0.0


def test_seed_override_reaches_the_tracker(tmp_path):
    # explicit noise draws from the one scenario seed: --seed replaces it,
    # and the summary reports the seed the tracker used
    cfg_path, data = _small_config(tmp_path, seed=3)
    data["noise"] = {
        "pos_std": 10.0, "sog_std": 0.3, "course_std": 0.26, "latency": 2.5, "period": 2.5,
    }
    cfg_path.write_text(json.dumps(data))
    runs = {}
    for seed in (None, "7", "8"):
        out = tmp_path / f"seed{seed}"
        extra = [] if seed is None else ["--seed", seed]
        assert main(["run", "--config", str(cfg_path), "--out", str(out)] + extra) == 0
        runs[seed] = out
    assert "seed: 3\n" in (runs[None] / "summary.txt").read_text()
    assert "seed: 7\n" in (runs["7"] / "summary.txt").read_text()
    assert (runs["7"] / "trajectory.csv").read_bytes() != (runs["8"] / "trajectory.csv").read_bytes()


def test_unknown_key_rejected(tmp_path, capsys):
    cfg_path, data = _small_config(tmp_path)
    data["mystery_knob"] = 3
    cfg_path.write_text(json.dumps(data))
    assert main(["validate", "--config", str(cfg_path)]) == 1
    assert "mystery_knob" in capsys.readouterr().err


def test_config_not_utf8_is_an_error_line(tmp_path, capsys):
    cfg_path, data = _small_config(tmp_path)
    # the name's e-acute as the one Latin-1 byte 0xe9, which is no UTF-8
    cfg_path.write_bytes(json.dumps({**data, "name": "caf\u00e9"}, ensure_ascii=False).encode("latin-1"))
    assert main(["validate", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: invalid JSON (") and err.count("\n") == 1


def test_config_nested_too_deeply_is_an_error_line(tmp_path, capsys):
    cfg_path = tmp_path / "deep.json"
    cfg_path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["validate", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"error: {cfg_path}: JSON nested too deeply to read\n"


def test_config_integer_past_the_largest_float_is_an_error_line(tmp_path, capsys):
    # JSON reads 1 and 400 zeros as an int, which no float holds: no finite
    # number, like NaN and inf; past 4300 digits Python's int parser refuses
    # the text itself. An integer seed of that size is read
    cfg_path, data = _small_config(tmp_path)
    huge, planner = 10**400, data["planner"]
    for text, error in (
        (json.dumps({**data, "duration": huge}), "config.duration: expected a finite number\n"),
        (json.dumps({**data, "planner": {**planner, "step_times": [5.0, huge]}}),
         "config.planner.step_times[1]: expected a finite number\n"),
        (json.dumps({**data, "planner": {**planner, "n_sog": [huge, 1]}}), f"planner: n_sog[0] must be finite, got {huge}\n"),
        (json.dumps(data).replace('"duration": 20.0', '"duration": 1' + "0" * 5000), f"{cfg_path}: invalid JSON (Exceeds the limit"),
    ):
        cfg_path.write_text(text)
        assert main(["validate", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}") and err.count("\n") == 1
    cfg_path.write_text(json.dumps({**data, "seed": huge}))
    assert main(["validate", "--config", str(cfg_path)]) == 0


def test_config_duplicate_key_is_an_error_line(tmp_path, capsys):
    cfg_path, data = _small_config(tmp_path)
    cfg_path.write_text(json.dumps(data).replace('"seed": 0,', '"seed": 0, "seed": 5,', 1))
    assert main(["validate", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"error: {cfg_path}: duplicate key 'seed'\n"


def test_solve_prints_cost_table(tmp_path, capsys):
    cfg_path, _ = _small_config(tmp_path)
    assert main(["solve", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "selected candidate" in out
    assert "align" in out and "avoid" in out and "tran" in out


def test_solve_reports_failsafe_when_infeasible(tmp_path, capsys):
    cfg_path, _ = _small_config(tmp_path, ownship_sog=25.0)
    assert main(["solve", "--config", str(cfg_path)]) == 0
    assert "fail-safe" in capsys.readouterr().out


def test_solve_selects_guidance_candidate_without_obstacles(tmp_path, capsys):
    cfg_path, _ = _small_config(tmp_path, with_obstacle=False)
    assert main(["solve", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    # on-path start: the hold-course candidate wins with zero align cost
    selected = int(out.strip().splitlines()[-1].split()[-1])
    starred = [line for line in out.splitlines() if line.endswith("*")]
    assert len(starred) == 1
    assert f" {selected} " in starred[0] or starred[0].lstrip().startswith(str(selected))


def test_solve_matches_first_planner_call_of_run(tmp_path, capsys):
    # solve and the first planner call of run go through the same planning
    # step: same winner, same cost breakdown, same candidate count
    cfg_path, _ = _small_config(tmp_path)
    args = ["--config", str(cfg_path), "--noise", "radar", "--seed", "5"]
    assert main(["solve"] + args) == 0
    lines = capsys.readouterr().out.splitlines()
    selected = int(lines[-1].split()[-1])
    starred = [line.split() for line in lines if line.endswith("*")]
    assert len(starred) == 1 and int(starred[0][0]) == selected
    out = tmp_path / "out"
    assert main(["run", "--out", str(out)] + args) == 0
    header, first = (out / "planner.csv").read_text().splitlines()[:2]
    row = dict(zip(header.split(","), first.split(",")))
    assert int(row["candidate"]) == selected
    assert int(row["n_candidates"]) == len(lines) - 2  # header and selection lines
    for col, name in enumerate(("align", "avoid", "tran", "total"), start=1):
        assert float(starred[0][col]) == pytest.approx(float(row[name]), abs=1e-4)


def test_solve_scores_a_target_in_reach(tmp_path, capsys):
    # the shipped targets start beyond reach, so pull one in to 400 m
    # and check the avoid term in solve's table against run's first call
    data = scenarios.build_config_dict("crossing_starboard", seed=3, noise="radar")
    target = data["obstacles"][0]
    target["north"] *= 0.4
    target["east"] *= 0.4
    cfg_path = tmp_path / "close.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["solve", "--config", str(cfg_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:-1]]
    assert len(rows) == 225
    assert any(float(row[2]) > 0.0 for row in rows)
    selected = int(lines[-1].split()[-1])
    (starred,) = [row for row in rows if row[-1] == "*"]
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    header, first = (out / "planner.csv").read_text().splitlines()[:2]
    row = dict(zip(header.split(","), first.split(",")))
    assert int(starred[0]) == selected == int(row["candidate"])
    assert starred[4] == f"{float(row['total']):.4f}"


def test_raster_outputs(tmp_path):
    cfg_path, data = _small_config(tmp_path)
    out = tmp_path / "raster"
    assert main(["raster", "--config", str(cfg_path), "--out", str(out), "--half-extent", "320", "--cell", "8"]) == 0
    rows = (out / "penalty_field.csv").read_text().strip().splitlines()
    assert rows[0] == "x_m,y_m,value"
    vals = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    x, y, v = vals[:, 0], vals[:, 1], vals[:, 2]
    # beyond the margin major axis the field is zero
    assert np.all(v[np.hypot(x, y) > 250.0 + 1e-9] == 0.0)
    # starboard half outweighs the port half for the COLREGs shape
    assert v[y > 0].sum() >= v[y < 0].sum()


def test_raster_circular_symmetric(tmp_path):
    cfg_path, data = _small_config(tmp_path)
    data["penalty"] = {"kind": "circular", "gamma1": 0.1, "radii": [25.0, 75.0, 125.0]}
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "rastc"
    assert main(["raster", "--config", str(cfg_path), "--out", str(out), "--course", "0.9", "--half-extent", "150", "--cell", "10"]) == 0
    rows = (out / "penalty_field.csv").read_text().strip().splitlines()[1:]
    vals = np.array([[float(v) for v in r.split(",")] for r in rows])
    d = np.round(np.hypot(vals[:, 0], vals[:, 1]), 9)
    for dist in np.unique(d):
        group = vals[d == dist, 2]
        assert group.max() - group.min() < 1e-9


def test_a_circular_penalty_of_the_same_reach_runs_end_to_end(tmp_path):
    # the circular kind's use: the ablation that plans a shipped encounter
    # again without the COLREGs shape's starboard extension. Against a
    # circle as wide as each region's widest semi-axis, crossing_starboard
    # passes the obstacle on the other side, aware_noncompliant, where the
    # shipped shape (the golden run) passes it compliant
    data = scenarios.build_config_dict("crossing_starboard")
    shipped = cfg_mod.from_dict(data).geometry
    radii = [max(shipped.semi_axes(k)) for k in range(3)]
    data["penalty"] = {"kind": "circular", "gamma1": shipped.gamma1, "radii": radii}
    cfg_path = tmp_path / "circular.json"
    cfg_path.write_text(json.dumps(data))
    assert cfg_mod.load(cfg_path).geometry.reach == shipped.reach
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    golden = GOLDEN / "crossing_starboard-none" / "metrics.json"
    runs = [json.loads(path.read_text())["obstacles"]["target"] for path in (golden, tmp_path / "out" / "metrics.json")]
    assert [(m["situation"], m["passing_side"], m["compliance"]) for m in runs] == [
        ("crossing_give_way", "port", "compliant"), ("crossing_give_way", "starboard", "aware_noncompliant"),
    ]
    assert [m["collision_time_s"] for m in runs] == [0.0, 0.0]


def test_validate_accepts_all_shipped_scenarios(capsys):
    for name in scenarios.SCENARIO_NAMES:
        assert main(["validate", "--scenario", name]) == 0
    assert capsys.readouterr().out.count("OK") == len(scenarios.SCENARIO_NAMES)


def _leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, prefix + (key,))
    elif isinstance(node, list) and node and isinstance(node[0], dict):
        for i, item in enumerate(node):
            yield from _leaf_paths(item, prefix + (i,))
    else:
        yield prefix, node


def _set_path(data, path, value):
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


def _del_path(data, path):
    target = data
    for key in path[:-1]:
        target = target[key]
    if isinstance(path[-1], int):
        target.pop(path[-1])
    else:
        del target[path[-1]]


def _key_path(path):
    """The config key path of a leaf, as error messages spell it."""
    return "config" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


@pytest.mark.parametrize("name", scenarios.SCENARIO_NAMES)
def test_validate_rejects_every_single_field_corruption(name, tmp_path, capsys):
    original = scenarios.build_config_dict(name)
    cfg_path = tmp_path / "corrupt.json"
    for path, value in list(_leaf_paths(original)):
        data = json.loads(json.dumps(original))
        bogus = 12345 if isinstance(value, str) else "bogus"
        _set_path(data, path, bogus)
        cfg_path.write_text(json.dumps(data))
        assert main(["validate", "--config", str(cfg_path)]) == 1, f"corrupted {path} accepted"
        assert f"{_key_path(path)}: " in capsys.readouterr().err, f"corrupted {path} not named"
    # renaming any top-level or section key must be rejected too
    for key in list(original):
        data = json.loads(json.dumps(original))
        data[f"{key}_renamed"] = data.pop(key)
        cfg_path.write_text(json.dumps(data))
        assert main(["validate", "--config", str(cfg_path)]) == 1, f"renamed {key} accepted"


@pytest.mark.parametrize("name", scenarios.SCENARIO_NAMES)
def test_validate_names_each_missing_key_once(name, tmp_path, capsys):
    original = scenarios.build_config_dict(name)
    cfg_path = tmp_path / "missing.json"
    # optional keys, and the key whose absence switches its section to
    # explicit values
    optional = {("guidance", "epsilon"), ("ownship", "rot")}
    reported = {("noise", "preset"): "config.noise.pos_std"}
    for path, _ in list(_leaf_paths(original)):
        data = json.loads(json.dumps(original))
        _del_path(data, path)
        cfg_path.write_text(json.dumps(data))
        code = main(["validate", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        if path in optional:
            assert code == 0 and captured.out == f"OK: {name}\n", f"deleting {path} rejected"
            continue
        key = reported.get(path, _key_path(path))
        assert code == 1, f"deleting {path} accepted"
        assert captured.err == f"error: {key}: missing required key\n"


@pytest.mark.parametrize(
    "flag,value",
    [("--cell", "0"), ("--cell", "nan"), ("--cell", "-5"), ("--cell", "inf"),
     ("--half-extent", "-10"), ("--half-extent", "0"), ("--half-extent", "nan"),
     ("--cell", "wide"), ("--course", "nan"), ("--course", "inf"), ("--course", "-inf")],
)
def test_raster_rejects_bad_flags(flag, value, tmp_path, capsys):
    cfg_path, _ = _small_config(tmp_path)
    out = tmp_path / "raster"
    with pytest.raises(SystemExit) as exc:
        # flag=value, as argparse reads a lone "-inf" as an option
        main(["raster", "--config", str(cfg_path), "--out", str(out), f"{flag}={value}"])
    assert exc.value.code == 2
    # the course may be any finite angle, the sizes only positive ones
    expected = "a finite number" if flag == "--course" else "a finite number > 0"
    assert f"argument {flag}: expected {expected}, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


def test_validate_and_run_reject_negative_seeds(tmp_path, capsys):
    cfg_path, _ = _small_config(tmp_path, seed=-1)
    # a config whose obstacles share an id fails the same way: one error
    # line from each command, and run writes nothing
    dup_path, data = _small_config(tmp_path, name="dup_ids")
    data["obstacles"] *= 2
    dup_path.write_text(json.dumps(data))
    for path, error in ((cfg_path, "config.seed: must be >= 0"), (dup_path, "obstacles: duplicate id 'target'")):
        assert main(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["-3", "x", "1.5"])
def test_seed_flag_rejects_non_seeds(value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "head_on", "--seed", value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"argument --seed: expected an integer >= 0, got '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "raster"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
def test_unusable_out_fails_before_any_work(command, below, tmp_path, monkeypatch, capsys):
    # an existing file as --out, or a path below one, is reported as an
    # error before the simulation or the field is computed
    from colavmpc import cli, sim

    def refuse(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(sim, "run", refuse)
    monkeypatch.setattr(cli, "penalty_field", refuse)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "x" if below else blocker
    assert main([command, "--scenario", "head_on", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_solve_and_validate_take_no_out(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", "head_on", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["raster", "validate"])
def test_raster_and_validate_take_no_seed_or_noise(command, tmp_path, capsys):
    # neither option changes what raster writes or what validate checks
    out = ["--out", str(tmp_path / "x")] if command == "raster" else []
    for flag, value in (("--seed", "3"), ("--noise", "radar")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", "head_on", *out, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_missing_config_file(capsys):
    assert main(["validate", "--config", "/nonexistent/path.json"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value,expected",
    [("--seeds", "0", "an integer >= 1"), ("--seeds", "-2", "an integer >= 1"), ("--seeds", "1.5", "an integer >= 1"),
     ("--weight", "nan", "a finite number >= 0"), ("--weight", "inf", "a finite number >= 0"),
     ("--weight", "-1", "a finite number >= 0")],
)
def test_noise_study_script_rejects_bad_flags(flag, value, expected, monkeypatch, capsys):
    # an argument error naming the flag, before any scenario is simulated
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    import noise_study

    with pytest.raises(SystemExit) as exc:
        noise_study.main([f"{flag}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected {expected}, got '{value}'" in err and "Traceback" not in err


def test_replay_calls_script_runs_the_checkout_against_itself():
    # both sides load this checkout under their own package names: every
    # planner row must match, and the replay prints its ratios
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "replay_calls.py"), str(root), str(root),
         "--workload", "encounters", "--seed", "1", "--configs", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert re.fullmatch(r"encounters seed 1: \d+ calls of 1 configs, planner rows identical", lines[0])
    assert re.fullmatch(r"median per-call change/parent: \d+\.\d{3}", lines[1])


def test_summary_names_the_preset_the_noise_equals(tmp_path):
    # the summary reads the preset off the run's noise, however it was
    # set: a replaced noise, an explicit section equal to a preset, or
    # custom values
    config = scenarios.build_scenario("head_on")
    log, metrics = SimpleNamespace(seed=0), Metrics(0, 0, 0, 0.0, 0.0, 0, {})
    replaced = dataclasses.replace(config, noise=NOISE_PRESETS["radar"])
    assert "noise: radar\n" in _summary_text(replaced, log, metrics)
    data = scenarios.build_config_dict("head_on")
    for section, name in [
        ({"pos_std": 0.0, "sog_std": 0.0, "course_std": 0.0, "latency": 0.0, "period": 10.0}, "ais"),
        ({"pos_std": 5.0, "sog_std": 0.1, "course_std": 0.2, "latency": 1.0, "period": 2.5}, "custom"),
    ]:
        data["noise"] = section
        assert f"noise: {name}\n" in _summary_text(cfg_mod.from_dict(data), log, metrics)
