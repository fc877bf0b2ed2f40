"""End-to-end command line behavior: pipeline, config, exit codes."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from hpckit import cli, search
from hpckit.metrics import AvailabilityModel, CostModel, RequirementSpec
from hpckit.simulator import FaultModel, KnobEffects, LevelEffect, NoiseParams, WorkloadParams
from hpckit.sweep import REQUIREMENT_NAMES, export_csv


def run(*args) -> int:
    return cli.main([str(a) for a in args])


def run_pipeline(workdir: Path, *, seed=None, deterministic=True, extra_reduce=()):
    """Full 7-stage pipeline into ``workdir``; returns the artifact paths."""
    paths = {
        "sweep": workdir / "sweep.csv",
        "derived": workdir / "derived.csv",
        "reduction": workdir / "reduction.json",
        "coefficients": workdir / "coefficients.csv",
        "search": workdir / "search.json",
        "leaderboard": workdir / "leaderboard.txt",
        "validation": workdir / "validation.json",
        "table": workdir / "improvement.txt",
        "report": workdir / "report.txt",
    }
    det = ["--deterministic"] if deterministic else []
    seed_args = ["--seed", seed] if seed is not None else []
    assert run(*det, "simulate", *seed_args, "--out", paths["sweep"]) == 0
    assert run(*det, "derive", "--dataset", paths["sweep"],
               "--out", paths["derived"]) == 0
    assert run(*det, "reduce", "--dataset", paths["derived"],
               "--out", paths["reduction"],
               "--coefficients", paths["coefficients"], *extra_reduce) == 0
    assert run(*det, "search", "--dataset", paths["derived"],
               "--out", paths["search"], "--leaderboard", paths["leaderboard"]) == 0
    assert run(*det, "validate", "--dataset", paths["derived"],
               "--reduction", paths["reduction"],
               "--out", paths["validation"], "--table", paths["table"]) == 0
    assert run(*det, "report", "--sweep", paths["sweep"],
               "--reduction", paths["reduction"], "--search", paths["search"],
               "--validation", paths["validation"], "--out", paths["report"]) == 0
    return paths


# ------------------------------------------------------------------ pipeline


def test_full_pipeline_produces_consistent_artifacts(tmp_path):
    paths = run_pipeline(tmp_path)
    for p in paths.values():
        assert p.exists() and p.stat().st_size > 0

    reduction = json.loads(paths["reduction"].read_text())
    assert reduction["thresholds"] == {"requirement": 0.9, "knob": 0.4}
    assert reduction["kept_monitors"] == ["execution_time_s", "cpu_power_w", "capex"]
    assert [k["knob"] for k in reduction["selected_knobs"]] == [
        "DVFS", "SMT", "Redundancy"
    ]

    search = json.loads(paths["search"].read_text())
    assert search["total_rows"] == 128
    assert 0 < search["feasible_rows"] <= 128
    assert search["best"]["feasible"] is True

    validation = json.loads(paths["validation"].read_text())
    assert validation["max_negative_pct"] <= 0.05
    assert validation["picks_agree"] is True

    report = paths["report"].read_text()
    for needle in ("sweep", "reduction", "search", "validation"):
        assert needle in report.lower()


def test_reduce_echoes_explicit_thresholds(tmp_path):
    paths = run_pipeline(tmp_path,
                         extra_reduce=("--req-threshold", "0.90",
                                       "--knob-threshold", "0.40"))
    reduction = json.loads(paths["reduction"].read_text())
    assert reduction["thresholds"] == {"requirement": 0.9, "knob": 0.4}


def test_all_knobs_selected_gives_zero_gap(tmp_path):
    paths = run_pipeline(tmp_path,
                         extra_reduce=("--knob-threshold", "0.000001"))
    reduction = json.loads(paths["reduction"].read_text())
    assert len(reduction["selected_knobs"]) == 6
    validation = json.loads(paths["validation"].read_text())
    assert validation["max_negative_pct"] == 0.0
    assert validation["picks_agree"] is True


def test_every_artifact_carries_a_manifest(tmp_path):
    paths = run_pipeline(tmp_path)
    for name, p in paths.items():
        text = p.read_text()
        if p.suffix == ".json":
            assert "manifest" in json.loads(text)
        else:
            assert any(line.startswith("# manifest:") for line in text.splitlines()), name


def test_deterministic_runs_are_byte_identical(tmp_path, monkeypatch):
    # identical invocations (same relative paths) must reproduce the
    # same bytes; the manifest records the paths as given
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    monkeypatch.chdir(a)
    names = run_pipeline(Path("."))
    monkeypatch.chdir(b)
    run_pipeline(Path("."))
    for name, rel in names.items():
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), name


def test_deterministic_flag_suppresses_timestamps(tmp_path):
    paths = run_pipeline(tmp_path)
    for p in paths.values():
        assert "timestamp" not in p.read_text()


def test_timestamp_present_without_deterministic_flag(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run("simulate", "--out", out) == 0
    assert "timestamp" in out.read_text()


def test_ingest_reports_and_reexports(tmp_path, capsys):
    paths = run_pipeline(tmp_path)
    copy = tmp_path / "copy.csv"
    assert run("--deterministic", "ingest", "--dataset", paths["sweep"],
               "--out", copy) == 0
    assert "128 rows" in capsys.readouterr().out
    assert copy.exists()
    assert run("ingest", "--dataset", copy) == 0


def test_search_top_limits_leaderboard(tmp_path):
    paths = run_pipeline(tmp_path)
    out = tmp_path / "s2.json"
    board = tmp_path / "l2.txt"
    assert run("--deterministic", "search", "--dataset", paths["derived"],
               "--top", "3", "--out", out, "--leaderboard", board) == 0
    ranked = [l for l in board.read_text().splitlines()
              if l.strip() and not l.startswith("#") and l.strip()[0].isdigit()]
    assert len(ranked) == 3


@pytest.mark.parametrize("top", ["0", "-5"])
def test_search_top_below_one_exits_one(tmp_path, capsys, top):
    derived = _derived_csv(tmp_path)
    out = tmp_path / "s.json"
    assert run("search", "--dataset", derived, "--top", top, "--out", out,
               "--leaderboard", tmp_path / "l.txt") == 1
    assert f"argument --top: must be at least 1, got {top}" in capsys.readouterr().err
    assert not out.exists()


def _derived_csv(workdir: Path) -> Path:
    sweep, derived = workdir / "sweep.csv", workdir / "derived.csv"
    assert run("--deterministic", "simulate", "--out", sweep) == 0
    assert run("--deterministic", "derive", "--dataset", sweep, "--out", derived) == 0
    return derived


def test_search_scores_and_masks_once(tmp_path, monkeypatch):
    derived = _derived_csv(tmp_path)
    calls = Counter()
    for name in ("score_requirements", "feasible_rows"):
        original = getattr(search, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        # wherever the function is held, as the benchmark's tracer wraps it
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "hpckit" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    assert run("--deterministic", "search", "--dataset", derived, "--out", tmp_path / "s.json",
               "--leaderboard", tmp_path / "l.txt") == 0
    assert calls == {"score_requirements": 1, "feasible_rows": 1}


def test_search_of_one_feasible_row(tmp_path):
    lines = _derived_csv(tmp_path).read_text().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    one = tmp_path / "one.csv"
    one.write_text("".join(lines[:header + 1]) + lines[header + 1 + 16])  # data row 16, from 0: feasible
    out = tmp_path / "s.json"
    assert run("--deterministic", "search", "--dataset", one, "--out", out,
               "--leaderboard", tmp_path / "l.txt") == 0
    result = json.loads(out.read_text())
    assert (result["total_rows"], result["feasible_rows"]) == (1, 1)
    assert result["best"]["score"] == 0.0
    assert [(e["rank"], e["configuration"], e["score"]) for e in result["leaderboard"]] == [
        (1, result["best"]["configuration"], 0.0)]


def test_report_consumes_artifacts_only(tmp_path):
    paths = run_pipeline(tmp_path)
    first = paths["report"].read_bytes()
    # the report must not recompute anything from the raw dataset
    paths["sweep"].unlink()
    paths["derived"].unlink()
    again = tmp_path / "report2.txt"
    assert run("--deterministic", "report",
               "--reduction", paths["reduction"], "--search", paths["search"],
               "--validation", paths["validation"], "--out", again) == 0
    assert again.read_text() in first.decode() or again.stat().st_size > 0


def test_stage_text_is_what_report_renders(tmp_path):
    paths = run_pipeline(tmp_path)
    # report.txt: manifest, title, then one block per artifact
    blocks = paths["report"].read_text().rstrip("\n").split("\n\n")[2:]
    sections = {block.split("\n")[0]: block + "\n" for block in blocks}
    bodies = {}
    for title, name in (("search", "leaderboard"), ("validation", "table")):
        bodies[title] = paths[name].read_text().split("\n\n", 1)[1]
        assert bodies[title] == sections[title]
    rows = [line.split()[0] for line in bodies["validation"].splitlines()
            if line.startswith("    ")]
    assert rows == list(REQUIREMENT_NAMES) * 2


def test_report_requires_at_least_one_artifact(tmp_path):
    assert run("report", "--out", tmp_path / "r.txt") == 1


def test_report_rejects_json_that_is_not_an_artifact(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"kept_monitors": []}))
    assert run("report", "--reduction", bogus, "--out", tmp_path / "r.txt") == 1
    assert "not a reduction artifact" in capsys.readouterr().err


@pytest.mark.parametrize("flag, key", [("search", "best"),
                                       ("validation", "percent_differences")])
def test_report_names_the_artifact_a_json_is_not(tmp_path, capsys, flag, key):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"kept_monitors": []}))
    assert run("report", f"--{flag}", bogus, "--out", tmp_path / "r.txt") == 1
    err = capsys.readouterr().err
    assert f"--{flag} {bogus}: not a {flag} artifact: '{key}'" in err, err
    assert not (tmp_path / "r.txt").exists()


def test_non_reduction_json_reads_the_same_in_validate_and_report(tmp_path, capsys):
    paths = run_pipeline(tmp_path)
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"kept_monitors": []}))
    capsys.readouterr()
    assert run("validate", "--dataset", paths["derived"], "--reduction", bogus,
               "--out", tmp_path / "v.json", "--table", tmp_path / "t.txt") == 1
    err = capsys.readouterr().err
    assert run("report", "--reduction", bogus, "--out", tmp_path / "r.txt") == 1
    assert capsys.readouterr().err == err
    assert f"--reduction {bogus}: not a reduction artifact: 'thresholds'" in err, err


def _extra_coefficient_cell(data: dict) -> None:
    data["knob_coefficients"]["values"][0].append(0.5)


def _unknown_kept_monitor(data: dict) -> None:
    data["kept_monitors"] = ["bogus"]


@pytest.mark.parametrize("corrupt, message", [
    (_extra_coefficient_cell, "not a reduction artifact: coefficient cells do not match"),
    (_unknown_kept_monitor, "kept monitors not among the sweep's monitors: ['bogus']"),
])
def test_bad_reduction_artifact_exits_one(tmp_path, capsys, corrupt, message):
    paths = run_pipeline(tmp_path)
    data = json.loads(paths["reduction"].read_text())
    corrupt(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("validate", "--dataset", paths["derived"], "--reduction", bad,
               "--out", tmp_path / "v.json", "--table", tmp_path / "t.txt") == 1
    err = capsys.readouterr().err
    assert message in err, err
    assert not (tmp_path / "v.json").exists()


def _non_numeric_threshold(data: dict) -> None:
    data["thresholds"]["requirement"] = "x"


def _threshold_out_of_range(data: dict) -> None:
    data["thresholds"]["requirement"] = 7.5


def _non_numeric_coefficient(data: dict) -> None:
    data["selected_knobs"][0]["coefficient"] = "abc"


def _non_string_monitor(data: dict) -> None:
    data["selected_knobs"][0]["monitor"] = 5


@pytest.mark.parametrize("corrupt, message", [
    (_non_numeric_threshold, "requirement threshold must be a number, got 'x'"),
    (_threshold_out_of_range, "requirement threshold must lie in (0, 1], got 7.5"),
    (_non_numeric_coefficient, "coefficient must be a number, got 'abc'"),
    (_non_string_monitor, "a name must be a string, got 5"),
])
def test_reduction_artifact_values_of_the_wrong_type_exit_one(tmp_path, capsys, corrupt, message):
    paths = run_pipeline(tmp_path)
    data = json.loads(paths["reduction"].read_text())
    corrupt(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    for argv in (["validate", "--dataset", paths["derived"], "--reduction", bad,
                  "--out", tmp_path / "v.json", "--table", tmp_path / "t.txt"],
                 ["report", "--reduction", bad, "--out", tmp_path / "r.txt"]):
        assert run(*argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert f"--reduction {bad}: not a reduction artifact: {message}" in err, err
    assert not (tmp_path / "v.json").exists() and not (tmp_path / "r.txt").exists()


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # Only simulating needs numpy.random, and loading it costs every cold
    # subcommand. numpy 1.x loads it with numpy itself, so compare with that.
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
            "import hpckit.cli; print(before, 'numpy.random' in sys.modules)")
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True, timeout=60)
    before, after = done.stdout.split()
    assert after == before, done.stdout


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0


# ------------------------------------------------------------------- config


def test_config_controls_reduce_thresholds(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "analysis": {"req_threshold": 0.8, "knob_threshold": 0.3},
    }))
    paths = run_pipeline(tmp_path)
    out = tmp_path / "r2.json"
    co = tmp_path / "c2.csv"
    assert run("--config", cfg, "--deterministic", "reduce",
               "--dataset", paths["derived"], "--out", out,
               "--coefficients", co) == 0
    assert json.loads(out.read_text())["thresholds"] == {
        "requirement": 0.8, "knob": 0.3,
    }


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"analysis": {"req_threshold": 0.8}}))
    paths = run_pipeline(tmp_path)
    out = tmp_path / "r3.json"
    co = tmp_path / "c3.csv"
    assert run("--config", cfg, "--deterministic", "reduce",
               "--dataset", paths["derived"], "--req-threshold", "0.85",
               "--out", out, "--coefficients", co) == 0
    assert json.loads(out.read_text())["thresholds"]["requirement"] == 0.85


def test_params_keys_override_the_config_workload(tmp_path):
    cfg, params, out = tmp_path / "cfg.json", tmp_path / "params.json", tmp_path / "s.csv"
    cfg.write_text(json.dumps({"workload": {"servers": 3}}))
    params.write_text(json.dumps({"mc_iterations": 30000}))
    assert run("--config", cfg, "--deterministic", "simulate", "--params", params,
               "--out", out) == 0
    manifest = _manifest(out)
    assert manifest["inputs"]["params"] == str(params)
    assert manifest["config"]["workload"] == {**dataclasses.asdict(WorkloadParams()),
                                              "servers": 3, "mc_iterations": 30000}


def test_env_var_is_config_fallback(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"analysis": {"knob_threshold": 0.2}}))
    monkeypatch.setenv("HPCKIT_CONFIG", str(cfg))
    paths = run_pipeline(tmp_path)
    out = tmp_path / "r4.json"
    co = tmp_path / "c4.csv"
    assert run("--deterministic", "reduce", "--dataset", paths["derived"],
               "--out", out, "--coefficients", co) == 0
    assert json.loads(out.read_text())["thresholds"]["knob"] == 0.2


# Every key of the README's config example, each set to a non-default value.
README_CONFIG = {
    "workload": {"mc_iterations": 21000, "deadline_s": 610.0, "servers": 3,
                 "cores_per_server": 17, "base_seconds": 1.9,
                 "result_processing_s": 21.0},
    "effects": {"cpu_power_base_w": 63.0, "cpu_power_exponent": 1.4,
                "noise": {"time": 0.009, "cpu_power": 0.006},
                "levels": {"SMT": {"Enable": {"throughput": 1.69, "cpu_power": 1.44}}},
                "fault": {"probability_scale": 1.1, "repair_intervals": 3}},
    "metrics": {"mttr_h": 25.0, "required_servers": 3, "availability_target": 0.991,
                "max_servers": 15, "server_price": 2100.0, "infra_price": 510.0,
                "energy_price_per_j": 2e-06, "maintenance_rate": 0.02,
                "performance_max_s": 620.0, "power_max_w": 82.0,
                "energy_max_j": 49000.0, "availability_min": 0.98,
                "min_mc_iterations": 10001},
    "analysis": {"req_threshold": 0.91, "knob_threshold": 0.41,
                 "weights": {"performance_s": 0.3, "power_w": 0.25, "energy_j": 0.2,
                             "availability": 0.1, "cost": 0.15}},
    "baseline": {"DVFS": "2.2GHz", "SMT": "Enable"},
}


def _manifest(path: Path) -> dict:
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)["manifest"]
    line = next(l for l in text.splitlines() if l.startswith("# manifest: "))
    return json.loads(line[len("# manifest: "):])


def test_config_keys_land_in_their_fields(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(README_CONFIG))
    stages = {  # stage -> (arguments, artifacts it writes)
        "simulate": (["simulate", "--out", "sweep.csv"], ["sweep.csv"]),
        "derive": (["derive", "--dataset", "sweep.csv", "--out", "derived.csv"],
                   ["derived.csv"]),
        "reduce": (["reduce", "--dataset", "derived.csv", "--out", "reduction.json",
                    "--coefficients", "coefficients.csv"],
                   ["reduction.json", "coefficients.csv"]),
        "search": (["search", "--dataset", "derived.csv", "--out", "search.json",
                    "--leaderboard", "leaderboard.txt"],
                   ["search.json", "leaderboard.txt"]),
        "validate": (["validate", "--dataset", "derived.csv", "--reduction", "reduction.json",
                      "--out", "validation.json", "--table", "improvement.txt"],
                     ["validation.json", "improvement.txt"]),
    }
    for argv, _ in stages.values():
        assert run("--config", "cfg.json", "--deterministic", *argv) == 0
    config = {stage: _manifest(Path(outs[0]))["config"] for stage, (_, outs) in stages.items()}

    effects = config["simulate"]["effects"]
    assert config["simulate"]["workload"] == README_CONFIG["workload"]
    for key in ("cpu_power_base_w", "cpu_power_exponent"):
        assert effects[key] == README_CONFIG["effects"][key]
    for section in ("noise", "fault"):
        for key, value in README_CONFIG["effects"][section].items():
            assert effects[section][key] == value, (section, key)
    for key, value in README_CONFIG["effects"]["levels"]["SMT"]["Enable"].items():
        assert effects["levels"]["SMT"]["Enable"][key] == value, key
    for stage in ("derive", "search", "validate"):
        assert config[stage]["metrics"] == README_CONFIG["metrics"], stage
    models = cli.build_metrics(README_CONFIG)
    for key, value in README_CONFIG["metrics"].items():
        assert [getattr(m, key) for m in models if hasattr(m, key)] == [value], key
    analysis = README_CONFIG["analysis"]
    assert config["reduce"]["analysis"] == {k: analysis[k] for k in ("req_threshold",
                                                                     "knob_threshold")}
    assert config["search"]["analysis"] == {"weights": analysis["weights"]}
    baseline = config["validate"]["baseline"]
    assert {k: baseline[k] for k in README_CONFIG["baseline"]} == README_CONFIG["baseline"]

    # each stage's manifest config, fed back as --config, reproduces its artifacts
    for stage, (argv, outs) in stages.items():
        before = {name: Path(name).read_bytes() for name in outs}
        Path("manifest.json").write_text(json.dumps(config[stage]))
        for name in outs:
            Path(name).unlink()
        assert run("--config", "manifest.json", "--deterministic", *argv) == 0
        for name in outs:
            assert Path(name).read_bytes() == before[name], (stage, name)


def test_mc_iterations_below_the_floor_exit_one(tmp_path, capsys):
    paths = run_pipeline(tmp_path)  # 20000 iterations by default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metrics": {"min_mc_iterations": 30000}}))
    stages = (
        ["derive", "--dataset", paths["sweep"], "--out", tmp_path / "d.csv"],
        ["search", "--dataset", paths["derived"], "--out", tmp_path / "s.json",
         "--leaderboard", tmp_path / "l.txt"],
        ["validate", "--dataset", paths["derived"], "--reduction", paths["reduction"],
         "--out", tmp_path / "v.json", "--table", tmp_path / "t.txt"],
    )
    capsys.readouterr()
    for argv in stages:
        assert run("--config", cfg, *argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert "20000" in err and "30000" in err, err


def test_non_numeric_mc_iterations_metadata_exits_one(tmp_path, capsys):
    sweep, odd = tmp_path / "sweep.csv", tmp_path / "odd.csv"
    assert run("--deterministic", "simulate", "--out", sweep) == 0
    text = sweep.read_text(encoding="utf-8")
    assert "# mc_iterations: 20000\n" in text
    odd.write_text(text.replace("# mc_iterations: 20000\n", "# mc_iterations: lots\n"),
                   encoding="utf-8")
    capsys.readouterr()
    assert run("derive", "--dataset", odd, "--out", tmp_path / "d.csv") == 1
    err = capsys.readouterr().err
    assert f"{odd}: mc_iterations metadata is not a number: 'lots'" in err, err
    assert not (tmp_path / "d.csv").exists()


def test_unknown_config_section_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"misc": {}}))
    assert run("--config", cfg, "simulate", "--out", tmp_path / "s.csv") == 1
    assert "misc" in capsys.readouterr().err


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metrics": {"server_prize": 100}}))
    assert run("--config", cfg, "simulate", "--out", tmp_path / "s.csv") == 1
    assert "server_prize" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"effects": 5}, {"effects": {"levels": []}}, {"effects": {"levels": {"SMT": 3}}},
    {"metrics": 5}, {"analysis": 5}, {"analysis": {"weights": 5}}, {"baseline": 5},
    {"workload": []}, {"effects": 0}, {"metrics": False}, {"analysis": ""},
])
def test_config_section_that_is_not_an_object_exits_one(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run("--config", cfg, "simulate", "--out", tmp_path / "s.csv") == 1
    assert "expected a JSON object" in capsys.readouterr().err


def test_null_config_section_counts_as_absent(tmp_path):
    cfg, out = tmp_path / "cfg.json", tmp_path / "s.csv"
    cfg.write_text(json.dumps({"workload": None}))
    assert run("--config", cfg, "--deterministic", "simulate", "--out", out) == 0
    assert _manifest(out)["config"]["workload"] == dataclasses.asdict(WorkloadParams())


@pytest.mark.parametrize("knob, label, over, start", [
    ("SMT", "Enable", {"throughput": 1.7}, {"cpu_power": 1.45, "dram_activity": 1.15,
                                            "mpki": 1.12}),
    ("SMT", "Disable", {"throughput": 0.9}, {}),
    ("DVFS", "1.2GHz", {"fit": 2.0}, {}),
], ids=["level with a default", "label without a default", "knob without defaults"])
def test_level_override_changes_only_the_factors_it_names(tmp_path, knob, label, over, start):
    cfg, out = tmp_path / "cfg.json", tmp_path / "s.csv"
    cfg.write_text(json.dumps({"effects": {"levels": {knob: {label: over}}}}))
    assert run("--config", cfg, "--deterministic", "simulate", "--out", out) == 0
    levels = _manifest(out)["config"]["effects"]["levels"]
    assert levels[knob][label] == {**dataclasses.asdict(LevelEffect()), **start, **over}
    if label != "Enable":  # the defaults of other levels stay as they are
        assert levels["SMT"]["Enable"]["cpu_power"] == 1.45


@pytest.mark.parametrize("config, key", [
    ({"workload": {"servers": 2.5}}, "servers"),
    ({"workload": {"cores_per_server": 16.5}}, "cores_per_server"),
    ({"workload": {"mc_iterations": 20000.5}}, "mc_iterations"),
    ({"effects": {"fault": {"repair_intervals": 1.5}}}, "repair_intervals"),
    ({"metrics": {"required_servers": 2.5}}, "required_servers"),
    ({"metrics": {"max_servers": 16.5}}, "max_servers"),
    ({"metrics": {"min_mc_iterations": 10000.5}}, "min_mc_iterations"),
])
def test_non_integer_for_an_integer_field_exits_one(tmp_path, capsys, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "s.csv"
    if "metrics" in config:
        # the metrics models are built by the stages after simulate
        sweep = tmp_path / "sweep.csv"
        assert run("simulate", "--out", sweep) == 0
        capsys.readouterr()
        assert run("--config", cfg, "derive", "--dataset", sweep, "--out", out) == 1
    else:
        assert run("--config", cfg, "simulate", "--out", out) == 1
    err = capsys.readouterr().err
    assert f"{key} must be an integer" in err
    assert f"section '{next(iter(config))}'" in err
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ({"workload": {"deadline_s": math.nan}}, "deadline_s must be positive"),
    ({"metrics": {"server_price": math.nan}}, "server_price must be non-negative"),
    ({"metrics": {"mttr_h": math.nan}}, "mttr_h must be positive"),
    ({"effects": {"cpu_power_base_w": math.nan}}, "cpu_power_base_w must be positive"),
    ({"effects": {"dram_background_w": -20.0}}, "dram_background_w must be non-negative"),
    ({"effects": {"dram_activity_w": math.nan}}, "dram_activity_w must be non-negative"),
    ({"effects": {"peak_margin_w": -1.0}}, "peak_margin_w must be non-negative"),
    ({"effects": {"cpu_power_exponent": math.nan}}, "cpu_power_exponent must be finite"),
    ({"effects": {"temperature_ambient_c": math.inf}}, "temperature_ambient_c must be finite"),
    ({"effects": {"noise": {"time": math.nan}}}, "noise level time must be non-negative"),
    ({"effects": {"fault": {"probability_scale": math.nan}}},
     "probability_scale must be non-negative"),
    ({"effects": {"levels": {"SMT": {"Enable": {"peak_surcharge_w": math.nan}}}}},
     "peak_surcharge_w must be non-negative"),
    ({"workload": {"base_seconds": math.inf}}, "base_seconds must be positive and finite"),
    ({"metrics": {"server_price": math.inf}}, "server_price must be non-negative and finite"),
    ({"metrics": {"mttr_h": math.inf}}, "mttr_h must be positive and finite"),
    ({"effects": {"cpu_power_base_w": math.inf}}, "cpu_power_base_w must be positive and finite"),
    ({"effects": {"dram_activity_w": math.inf}}, "dram_activity_w must be non-negative and finite"),
    ({"effects": {"noise": {"time": math.inf}}}, "noise level time must be non-negative and finite"),
    ({"effects": {"fault": {"probability_scale": math.inf}}},
     "probability_scale must be non-negative and finite"),
    ({"effects": {"levels": {"SMT": {"Enable": {"throughput": math.inf}}}}},
     "throughput must be positive and finite"),
    ({"effects": {"levels": {"SMT": {"Enable": {"dram_background_w": math.inf}}}}},
     "dram_background_w must be non-negative and finite"),
])
def test_nan_or_negative_config_scalar_exits_one(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))  # NaN or Infinity, which json.load reads back
    out = tmp_path / "s.csv"
    assert run("--config", cfg, "simulate", "--out", out) == 1
    err = capsys.readouterr().err
    assert f"config section '{next(iter(config))}'" in err and message in err, err
    assert not out.exists()


@pytest.mark.parametrize("analysis, message", [
    ({"req_threshold": "x"}, "req_threshold must be a number, got 'x'"),
    ({"knob_threshold": None}, "knob_threshold must be a number, got None"),
    ({"req_threshold": True}, "req_threshold must be a number, got True"),
    ({"req_threshold": 0.0}, "requirement threshold must lie in (0, 1], got 0.0"),
    ({"knob_threshold": math.nan}, "knob threshold must lie in (0, 1], got nan"),
    ({"knob_threshold": 1.5}, "knob threshold must lie in (0, 1], got 1.5"),
    ({"weights": {"cost": "x"}}, "weight for cost must be a number, got 'x'"),
    ({"weights": {"cost": None}}, "weight for cost must be a number, got None"),
    ({"weights": {"cost": math.nan}}, "weight for cost must be finite and non-negative, got nan"),
    ({"weights": {"cost": math.inf}}, "weight for cost must be finite and non-negative, got inf"),
    ({"weights": {"cost": -1.0}}, "weight for cost must be finite and non-negative, got -1.0"),
])
def test_bad_analysis_value_exits_one(tmp_path, capsys, analysis, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"analysis": analysis}))
    out = tmp_path / "s.csv"
    assert run("--config", cfg, "simulate", "--out", out) == 1
    err = capsys.readouterr().err
    assert f"config section 'analysis': {message}" in err, err
    assert not out.exists()


def test_all_zero_weights_exit_one_in_every_subcommand(tmp_path, capsys):
    paths = run_pipeline(tmp_path)
    cfg = tmp_path / "cfg.json"
    search_argv = ["search", "--dataset", paths["derived"], "--out", tmp_path / "s.json",
                   "--leaderboard", tmp_path / "l.txt"]
    # an omitted weight counts as its default, 1.0
    cfg.write_text(json.dumps({"analysis": {"weights": dict.fromkeys(REQUIREMENT_NAMES[:4], 0)}}))
    assert run("--config", cfg, *search_argv) == 0
    cfg.write_text(json.dumps({"analysis": {"weights": dict.fromkeys(REQUIREMENT_NAMES, 0.0)}}))
    capsys.readouterr()
    for argv in (["simulate", "--out", tmp_path / "sweep2.csv"],
                 ["reduce", "--dataset", paths["derived"], "--out", tmp_path / "r.json",
                  "--coefficients", tmp_path / "c.csv"],
                 search_argv):
        assert run("--config", cfg, *argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert "config section 'analysis': every weight is zero" in err, err


# Every config model, with the config that sets one of its keys and the
# section path its error messages name.
CONFIG_MODELS = (
    (WorkloadParams, lambda kv: {"workload": kv}, "config section 'workload'"),
    (KnobEffects, lambda kv: {"effects": kv}, "config section 'effects'"),
    (NoiseParams, lambda kv: {"effects": {"noise": kv}}, "config section 'effects'.noise"),
    (FaultModel, lambda kv: {"effects": {"fault": kv}}, "config section 'effects'.fault"),
    (LevelEffect, lambda kv: {"effects": {"levels": {"SMT": {"Enable": kv}}}},
     "config section 'effects'.levels[SMT][Enable]"),
    (AvailabilityModel, lambda kv: {"metrics": kv}, "config section 'metrics'"),
    (CostModel, lambda kv: {"metrics": kv}, "config section 'metrics'"),
    (RequirementSpec, lambda kv: {"metrics": kv}, "config section 'metrics'"),
)
NUMERIC_FIELDS = [pytest.param(nest, where, f.name, id=f"{model.__name__}.{f.name}")
                  for model, nest, where in CONFIG_MODELS for f in dataclasses.fields(model)
                  if f.default is None or type(f.default) in (int, float)]


@pytest.mark.parametrize("value", [True, "1", None], ids=repr)
@pytest.mark.parametrize("nest, where, key", NUMERIC_FIELDS)
def test_numeric_config_field_takes_only_a_number(tmp_path, capsys, nest, where, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(nest({key: value})))
    out = tmp_path / "s.csv"
    code = run("--config", cfg, "simulate", "--out", out)
    if (key, value) == ("probability", None):  # unset: derived from the FIT rate
        assert code == 0
        return
    assert code == 1
    err = capsys.readouterr().err
    assert f"{where}: " in err and f"{key} must be " in err, err
    assert not out.exists()


def test_frequency_knob_must_be_a_string(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"effects": {"frequency_knob": 5}}))
    assert run("--config", cfg, "simulate", "--out", tmp_path / "s.csv") == 1
    err = capsys.readouterr().err
    assert "config section 'effects': frequency_knob must be a string, got 5" in err, err


def test_negative_seed_exits_one(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run("simulate", "--seed", "-1", "--out", out) == 1
    err = capsys.readouterr().err
    assert "--seed" in err and "seed must be a non-negative integer, got -1" in err, err
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_space_with_a_non_finite_level_value_exits_one(tmp_path, capsys, value):
    space = cli.default_knob_space().to_json_dict()
    space["knobs"][0]["levels"][3]["value"] = value  # DVFS 2.6GHz
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(space))
    out = tmp_path / "s.csv"
    assert run("simulate", "--space", space_file, "--out", out) == 1
    err = capsys.readouterr().err
    assert f"--space {space_file}" in err and "value must be finite" in err, err
    assert not out.exists()


@pytest.mark.parametrize("where, value, message", [
    ("baseline", 1.7, "knob 'DVFS' baseline must be an integer, got 1.7"),
    ("value", True, "knob level '2.6GHz': value must be a number, got True"),
    ("value", "2.5", "knob level '2.6GHz': value must be a number, got '2.5'"),
    ("name", None, "knob name must be a non-empty string, got None"),
    ("label", 1, "knob level label must be a non-empty string, got 1"),
    ("label", True, "knob level label must be a non-empty string, got True"),
])
@pytest.mark.parametrize("source", ["--space", "config"])
def test_space_values_are_checked_not_coerced(tmp_path, capsys, source, where, value, message):
    space = cli.default_knob_space().to_json_dict()
    dvfs = space["knobs"][0]
    if where in ("baseline", "name"):
        dvfs[where] = value
    else:
        dvfs["levels"][3][where] = value  # DVFS 2.6GHz
    path = tmp_path / "in.json"
    out = tmp_path / "s.csv"
    if source == "--space":
        path.write_text(json.dumps(space))
        code, named = run("simulate", "--space", path, "--out", out), f"--space {path}"
    else:
        path.write_text(json.dumps({"space": space}))
        code, named = run("--config", path, "simulate", "--out", out), "config section 'space'"
    assert code == 1
    err = capsys.readouterr().err
    assert named in err and message in err, err
    assert not out.exists()


def test_custom_space_file(tmp_path):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps({
        "knobs": [
            {"name": "DVFS",
             "levels": [{"label": "1.0GHz", "value": 1.0},
                        {"label": "2.0GHz", "value": 2.0}],
             "baseline": 1},
            {"name": "SMT",
             "levels": [{"label": "Disable"}, {"label": "Enable"}],
             "baseline": 0},
        ],
    }))
    out = tmp_path / "sweep.csv"
    assert run("--deterministic", "simulate", "--space", space_file,
               "--out", out) == 0
    data_rows = [l for l in out.read_text().splitlines()
                 if l and not l.startswith("#")]
    assert len(data_rows) == 1 + 4  # header plus 2x2 configurations

    # every stage that reads the space records the file in its manifest
    d = tmp_path
    stages = (
        ["ingest", "--dataset", out, "--out", d / "copy.csv"],
        ["derive", "--dataset", out, "--out", d / "derived.csv"],
        ["reduce", "--dataset", d / "derived.csv", "--out", d / "r.json",
         "--coefficients", d / "c.csv"],
        ["search", "--dataset", d / "derived.csv", "--out", d / "s.json",
         "--leaderboard", d / "l.txt"],
        ["validate", "--dataset", d / "derived.csv", "--reduction", d / "r.json",
         "--out", d / "v.json", "--table", d / "t.txt"],
    )
    for argv in stages:
        assert run("--deterministic", *argv, "--space", space_file) == 0, argv[0]
    for name in ("sweep.csv", "copy.csv", "derived.csv", "r.json", "c.csv", "s.json",
                 "l.txt", "v.json", "t.txt"):
        assert _manifest(d / name)["inputs"]["space"] == str(space_file), name


def test_config_baseline_is_checked_against_the_space_file(tmp_path):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps({"knobs": [
        {"name": name, "levels": [{"label": "off"}, {"label": "on"}], "baseline": 0}
        for name in ("SMT", "X")]}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"baseline": {"X": "on"}}))
    d = tmp_path
    stages = (
        ["simulate", "--out", d / "sweep.csv"],
        ["derive", "--dataset", d / "sweep.csv", "--out", d / "derived.csv"],
        ["reduce", "--dataset", d / "derived.csv", "--knob-threshold", "0.01",
         "--out", d / "r.json", "--coefficients", d / "c.csv"],
        ["validate", "--dataset", d / "derived.csv", "--reduction", d / "r.json",
         "--out", d / "v.json", "--table", d / "t.txt"],
    )
    for argv in stages:
        assert run("--config", cfg, "--deterministic", *argv, "--space", space_file) == 0, argv[0]
    assert _manifest(d / "v.json")["config"]["baseline"] == {"SMT": "off", "X": "on"}


@pytest.mark.parametrize("argv", [
    ["simulate"], ["ingest", "--dataset", "nope.csv"], ["derive", "--dataset", "nope.csv"],
    ["reduce", "--dataset", "nope.csv"], ["search", "--dataset", "nope.csv"],
    ["validate", "--dataset", "nope.csv", "--reduction", "nope.json"],
    ["report", "--sweep", "nope.csv"],
])
def test_bad_baseline_exits_one_in_every_subcommand(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps({"baseline": {"X": "on"}}))
    assert run("--config", "cfg.json", *argv) == 1
    err = capsys.readouterr().err
    assert "unknown key(s) ['X'] in config section 'baseline'" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_unknown_baseline_level_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"baseline": {"DVFS": "9.9GHz"}}))
    assert run("--config", cfg, "simulate", "--out", tmp_path / "s.csv") == 1
    err = capsys.readouterr().err
    assert "config section 'baseline': unknown level '9.9GHz' for knob 'DVFS'" in err, err
    assert not (tmp_path / "s.csv").exists()


# --------------------------------------------------------------- exit codes


def test_unknown_subcommand_exits_one(capsys):
    assert run("frobnicate") == 1


@pytest.mark.parametrize("argv", [[], ["simulate"], ["ingest"], ["derive"], ["reduce"],
                                  ["search"], ["validate"], ["report"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--help")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hpckit")


@pytest.mark.parametrize("source", ["--config", "HPCKIT_CONFIG"])
def test_missing_config_file_exits_one(tmp_path, capsys, monkeypatch, source):
    missing = tmp_path / "nope.json"
    if source == "--config":
        argv = ["--config", missing]
    else:
        argv = []
        monkeypatch.setenv("HPCKIT_CONFIG", str(missing))
    out = tmp_path / "s.csv"
    assert run(*argv, "simulate", "--out", out) == 1
    err = capsys.readouterr().err
    assert source in err and str(missing) in err, err
    assert not out.exists()


@pytest.mark.parametrize("text", ["{\"metrics\": ", "[1, 2]"])
def test_config_that_is_not_a_json_object_exits_one(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "s.csv"
    assert run("--config", cfg, "simulate", "--out", out) == 1
    assert str(cfg) in capsys.readouterr().err
    assert not out.exists()


def test_unreachable_availability_target_exits_one(tmp_path, capsys):
    # UnreachableTargetError is an HpckitError but not a ConfigError
    sweep = tmp_path / "sweep.csv"
    assert run("simulate", "--out", sweep) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metrics": {"max_servers": 2}}))
    out = tmp_path / "d.csv"
    capsys.readouterr()
    assert run("--config", cfg, "derive", "--dataset", sweep, "--out", out) == 1
    err = capsys.readouterr().err
    assert "no server count up to 2" in err and "; the best is 0.9" in err, err
    assert not out.exists()


def test_missing_dataset_file_exits_one(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert run("derive", "--dataset", missing, "--out", tmp_path / "d.csv") == 1
    assert "nope.csv" in capsys.readouterr().err


BAD, DERIVED = "<bad file>", "<derived sweep>"
# each file flag with a run that reads it; BAD stands for the bad file
FILE_FLAG_RUNS = {
    "--config": ["--config", BAD, "simulate"],
    "--space": ["simulate", "--space", BAD],
    "--params": ["simulate", "--params", BAD],
    **{f"{stage} --dataset": [stage, "--dataset", BAD]
       for stage in ("ingest", "derive", "reduce", "search")},
    # validate reads --dataset first, so its --reduction file is never opened
    "validate --dataset": ["validate", "--dataset", BAD, "--reduction", "r.json"],
    "validate --reduction": ["validate", "--dataset", DERIVED, "--reduction", BAD],
    **{f"report --{name}": ["report", f"--{name}", BAD]
       for name in ("sweep", "reduction", "search", "validation")},
}


@pytest.mark.parametrize("kind", ["not UTF-8", "directory"])
@pytest.mark.parametrize("argv", FILE_FLAG_RUNS.values(), ids=FILE_FLAG_RUNS.keys())
def test_bad_input_file_exits_naming_its_flag(tmp_path, capsys, monkeypatch, derived_dataset,
                                              argv, kind):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HPCKIT_CONFIG", raising=False)
    bad, derived = tmp_path / "bad", tmp_path / "derived.csv"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfe{}\n")
    export_csv(derived_dataset, derived)
    flag = argv[argv.index(BAD) - 1]
    # an exception leaving main fails the test
    code = cli.main([{BAD: str(bad), DERIVED: str(derived)}.get(a, a) for a in argv])
    err = capsys.readouterr().err
    assert code == (3 if flag == "--dataset" and kind == "not UTF-8" else 1), err
    assert any(line.startswith("hpckit:") and f"{flag} {bad}:" in line
               for line in err.splitlines()), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad", "derived.csv"]


def test_dataset_is_read_once(tmp_path, monkeypatch):
    sweep = tmp_path / "sweep.csv"
    assert run("simulate", "--out", sweep) == 0
    opened = Counter()
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened[str(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert run("derive", "--dataset", sweep, "--out", tmp_path / "d.csv") == 0
    assert opened[str(sweep)] == 1


def test_dataset_that_is_not_utf8_exits_three_naming_the_byte(tmp_path, capsys):
    sweep, odd = tmp_path / "sweep.csv", tmp_path / "odd.csv"
    assert run("simulate", "--out", sweep) == 0
    data = sweep.read_bytes()
    at = data.index(b"Disable")
    odd.write_bytes(data[:at] + b"\xe9" + data[at + 1:])  # a Latin-1 e acute
    capsys.readouterr()
    assert run("ingest", "--dataset", odd) == 3
    err = capsys.readouterr().err
    assert err == (f"hpckit: ingestion error: --dataset {odd}: not UTF-8 text: "
                   f"invalid continuation byte at byte {at}\n"), err


def test_derive_overflow_exits_one_naming_the_dataset(tmp_path, capsys):
    # each monitor is finite, but the energy they give overflows to inf
    sweep, overflow, out = tmp_path / "sweep.csv", tmp_path / "overflow.csv", tmp_path / "d.csv"
    assert run("simulate", "--out", sweep) == 0
    lines = sweep.read_text().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    names, cells = (lines[i].rstrip("\n").split(",") for i in (header, header + 1))
    for name, value in (("execution_time_s", "1e300"), ("cpu_power_w", "1e10"),
                        ("peak_power_w", "2e10")):
        cells[names.index(f"mon:{name}")] = value
    overflow.write_text("".join(lines[:header + 1]) + ",".join(cells) + "\n")
    capsys.readouterr()
    # a RuntimeWarning from hpckit would be an error here (pyproject filterwarnings)
    assert run("derive", "--dataset", overflow, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == (f"hpckit: error: --dataset {overflow}: "
                   "row 0: monitor opex must be finite, got inf\n"), err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["--5", "\u00b2"])
def test_unparsable_seed_metadata_records_no_seed(tmp_path, seed):
    sweep = tmp_path / "sweep.csv"
    assert run("--deterministic", "simulate", "--out", sweep) == 0
    odd = tmp_path / "odd.csv"
    text = sweep.read_text(encoding="utf-8")
    assert "# seed: 12\n" in text
    odd.write_text(text.replace("# seed: 12\n", f"# seed: {seed}\n"), encoding="utf-8")
    out = tmp_path / "copy.csv"
    assert run("--deterministic", "ingest", "--dataset", odd, "--out", out) == 0
    assert _manifest(out)["dataset_seed"] is None


def test_corrupt_dataset_exits_three_naming_the_column(tmp_path, capsys):
    paths = run_pipeline(tmp_path)
    corrupt = tmp_path / "corrupt.csv"
    text = paths["sweep"].read_text().replace("knob:DVFS", "knob:BROKEN")
    corrupt.write_text(text)
    assert run("derive", "--dataset", corrupt, "--out", tmp_path / "d.csv") == 3
    assert "DVFS" in capsys.readouterr().err


def test_infeasible_requirements_exit_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metrics": {"power_max_w": 0.001}}))
    paths = run_pipeline(tmp_path)
    derived = tmp_path / "tight.csv"
    assert run("--config", cfg, "--deterministic", "derive",
               "--dataset", paths["sweep"], "--out", derived) == 0
    assert run("--config", cfg, "--deterministic", "search",
               "--dataset", derived, "--out", tmp_path / "s.json",
               "--leaderboard", tmp_path / "l.txt") == 2
    assert "tight.csv" in capsys.readouterr().err
    assert run("--config", cfg, "--deterministic", "validate",
               "--dataset", derived, "--reduction", paths["reduction"],
               "--out", tmp_path / "v.json", "--table", tmp_path / "t.txt") == 2
    err = capsys.readouterr().err
    assert err.count("tight.csv") == 1 and "no configuration meets" in err, err
    assert not (tmp_path / "v.json").exists()


def test_infeasible_error_names_the_closest_configuration(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metrics": {"power_max_w": 1.0}}))
    sweep, derived = tmp_path / "sweep.csv", tmp_path / "derived.csv"
    assert run("simulate", "--out", sweep) == 0
    assert run("--config", cfg, "derive", "--dataset", sweep, "--out", derived) == 0
    capsys.readouterr()
    assert run("--config", cfg, "search", "--dataset", derived,
               "--out", tmp_path / "s.json", "--leaderboard", tmp_path / "l.txt") == 2
    err = capsys.readouterr().err
    # the default space's levels (0, 0, 0, 1, 0, 1), about 27x over the power limit
    assert ("no configuration meets every requirement threshold; the closest overshoots "
            "one by 2635.71%: DVFS=1.2GHz SMT=Disable DRAM Protection=No Protection "
            "Turbo Mode=Enable Prefetchers=Disable Redundancy=Enable") in err, err


def test_reduce_rejects_underived_dataset(tmp_path, capsys):
    paths = run_pipeline(tmp_path)
    assert run("reduce", "--dataset", paths["sweep"],
               "--out", tmp_path / "r.json",
               "--coefficients", tmp_path / "c.csv") == 1
    assert "derive" in capsys.readouterr().err


@pytest.mark.parametrize("factor, value", [
    ("fit", 0.0), ("fit", -1.0), ("cpu_power", -1.0), ("mpki", -1.0),
])
def test_degenerate_level_factor_exits_one(tmp_path, capsys, factor, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"effects": {"levels": {"SMT": {"Enable": {factor: value}}}}}))
    out = tmp_path / "s.csv"
    assert run("--config", cfg, "simulate", "--out", out) == 1
    err = capsys.readouterr().err
    assert "config section 'effects'" in err and f"{factor} must be positive" in err, err
    assert not out.exists()


def test_simulate_rejects_too_few_intervals(tmp_path):
    assert run("simulate", "--intervals", "3", "--out", tmp_path / "s.csv") == 1


@pytest.mark.parametrize("effects, message", [
    ({"levels": {"SMT": {"Enable": {"throughput": 1e-320}}}},
     "row 16: monitor execution_time must be finite, got inf"),
    ({"base_fit": 1e10, "levels": {"SMT": {"Enable": {"fit": 1e308}}}},
     "row 16: MTBF monitors must be positive"),
    ({"levels": {"SMT": {"Enable": {"cpu_power": 1e308}}}},
     "row 16: monitor cpu_power must be finite, got inf"),
])
def test_model_settings_that_give_a_bad_sweep_exit_one(tmp_path, capsys, effects, message):
    # each setting passes its own check; only the sweep it gives is broken
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"effects": effects}))
    out = tmp_path / "s.csv"
    assert run("--config", cfg, "simulate", "--out", out) == 1
    err = capsys.readouterr().err
    assert f"error: the workload and effects settings give a bad sweep: {message}\n" in err, err
    assert "--" not in err, err
    assert not out.exists()


REDUCE_MISSING = ["reduce", "--dataset", "missing.csv", "--out", "r.json",
                  "--coefficients", "c.csv"]


@pytest.mark.parametrize("argv, message", [
    (REDUCE_MISSING + ["--req-threshold", "1.5"],
     "--req-threshold: requirement threshold must lie in (0, 1], got 1.5"),
    (REDUCE_MISSING + ["--req-threshold", "0"],
     "--req-threshold: requirement threshold must lie in (0, 1], got 0.0"),
    (REDUCE_MISSING + ["--knob-threshold", "nan"],
     "--knob-threshold: knob threshold must lie in (0, 1], got nan"),
    (REDUCE_MISSING + ["--knob-threshold", "-0.4"],
     "--knob-threshold: knob threshold must lie in (0, 1], got -0.4"),
    (["simulate", "--seed", "-1", "--out", "s.csv"],
     "--seed: seed must be a non-negative integer, got -1"),
    (["simulate", "--intervals", "3", "--out", "s.csv"],
     "--intervals: n_intervals must be at least 5 for a trimmed mean"),
])
def test_bad_value_flag_exits_one_naming_the_flag(tmp_path, capsys, monkeypatch, argv, message):
    # a value flag is checked before any file is read, a missing --dataset too
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err == f"hpckit: error: {message}\n", err
    assert list(tmp_path.iterdir()) == []


def test_reduction_of_too_few_rows_names_the_dataset(tmp_path, capsys):
    paths = run_pipeline(tmp_path)
    lines = paths["derived"].read_text().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    two_rows = tmp_path / "two_rows.csv"
    two_rows.write_text("".join(lines[:header + 3]))
    assert run("reduce", "--dataset", two_rows, "--out", tmp_path / "r2.json",
               "--coefficients", tmp_path / "c2.csv") == 1
    err = capsys.readouterr().err
    assert err == f"hpckit: error: --dataset {two_rows}: reduction needs at least 3 rows\n", err


# SHA-256 of each quick-start artifact, recorded before the dataset went
# columnar; the leaderboard and every report section are covered.
PINNED_QUICKSTART_DIGESTS = {
    "sweep": "15da7468af65649eafb70a5de771a9cc72625267af7dc449e086153657138e08",
    "derived": "6e815cd1247b5f969a0bfe6f3b37916867f022a02551a57fd02b956de88bb9e5",
    "reduction": "f409b13ad5c5008241e9dacfabbdaf1dceef6bb4cda940469e073e2ea66d013b",
    "coefficients": "727f84566531f356d1fdced71f5db88549d26bb9ca32704dd6893368ceb8f243",
    "search": "39646ee5ba2039627446e1969b80e4fde34f4ceff428f180522f815b260122c4",
    "leaderboard": "44a1793cf5ef04bb479745f13624239ebb48e6f3e755fe8d2b58ac2a1ff6a375",
    "validation": "12a2efc0fba6baa46b481aaff9c38759a9777b3e1aff4e3b1ed2849a45ae3e1d",
    "table": "689ff1badc5a9ad6ae3047bffd39da762ca52baea1bd5b645e83855f8ccbdada",
    "report": "c1aa7e7eb4c488ad792212a398a9b6e981f971744b473b293709980459ae6e9c",
}


def test_quickstart_artifacts_match_pinned_digests(tmp_path, monkeypatch):
    # the README quick start: --deterministic, seed 12, relative paths
    monkeypatch.chdir(tmp_path)
    paths = run_pipeline(Path("."), seed=12)
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert got == PINNED_QUICKSTART_DIGESTS
