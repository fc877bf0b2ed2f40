"""Each benchmark check accepts the program's real outputs and rejects a planted error.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SPACE, space_json  # noqa: E402

from hpckit import defaults, metrics, reducer, search, simulator, sweep  # noqa: E402

NOOP = (("X0", [("off", None), ("on", None)], 0),)


def run_pipeline(space_desc, seed, directory):
    """The library pipeline on one sweep, with its outputs as the benchmark keeps them."""
    space = sweep.KnobSpace.from_json_dict(space_json(space_desc))
    raw = simulator.generate_sweep(space, defaults.default_workload(), defaults.default_effects(),
                                   defaults.default_fault_model(), seed)
    raw_path = os.path.join(directory, "raw.csv")
    derived_path = os.path.join(directory, "derived.csv")
    sweep.export_csv(raw, raw_path)
    ds = sweep.ingest_csv(raw_path, space)
    derived = metrics.derive_dataset(ds, defaults.default_availability_model(),
                                     defaults.default_cost_model(),
                                     defaults.default_requirement_spec())
    sweep.export_csv(derived, derived_path)
    report = reducer.reduce(derived)
    columns = {f"generated:{n}": raw.monitor_column(n) for n in checks.MONITORS}
    columns.update({f"ingested:{n}": ds.monitor_column(n) for n in checks.MONITORS})
    columns["ingested_levels"] = np.array([c.levels for c in ds.configs()])
    # through JSON, as the benchmark reads them
    return {
        "raw": checks.parse_csv(raw_path),
        "derived": checks.parse_csv(derived_path),
        "columns": columns,
        "reduction": json.loads(json.dumps(report.to_json_dict())),
        "oracle": json.loads(json.dumps(search.oracle_best(derived).to_json_dict(derived))),
        "validation": json.loads(json.dumps(search.validate(derived, report).to_json_dict(derived))),
    }


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    return run_pipeline(DEFAULT_SPACE, 12, str(tmp_path_factory.mktemp("default")))


@pytest.fixture(scope="module")
def noop_case(tmp_path_factory):
    return run_pipeline(DEFAULT_SPACE + NOOP, 12, str(tmp_path_factory.mktemp("noop")))


def analysis(c, space=DEFAULT_SPACE, must_reject=()):
    return checks.check_analysis(c["raw"], c["derived"], c["reduction"], [c["oracle"]],
                                 c["validation"], space, must_reject)


def planted(c, edit):
    c = copy.deepcopy(c)
    edit(c)
    return c


def test_real_outputs_pass(case, noop_case):
    assert analysis(case) == []
    assert checks.check_round_trip(case["raw"], case["columns"], DEFAULT_SPACE) == []
    assert checks.check_carried(case["raw"], case["derived"]) == []
    assert analysis(noop_case, DEFAULT_SPACE + NOOP, must_reject=["X0"]) == []


def _scale(table, kind, name, row, factor):
    table[kind][name][row] *= factor


@pytest.mark.parametrize("kind,name,factor", [
    ("req", "availability", 0.999),
    ("req", "power_w", 1.001),
    ("req", "energy_j", 1.001),
    ("req", "cost", 1.001),
    ("mon", "capex", 2.0),
    ("mon", "opex", 1.001),
    ("mon", "system_mtbf_h", 2.0),
])
def test_derived_rejects_a_wrong_cell(case, kind, name, factor):
    bad = planted(case, lambda c: _scale(c["derived"], kind, name, 5, factor))
    assert any(name in e for e in checks.check_derived(bad["derived"]))


def test_sweep_rejects_a_missing_row(case):
    def drop(c):
        for col in c["raw"]["knobs"].values():
            col.pop()
        c["raw"]["mon"] = {n: v[:-1] for n, v in c["raw"]["mon"].items()}
    assert "product of the level counts" in " ".join(
        checks.check_sweep(planted(case, drop)["raw"], DEFAULT_SPACE))


def test_sweep_rejects_swapped_rows(case):
    def swap(c):
        col = c["raw"]["knobs"]["Redundancy"]
        col[0], col[1] = col[1], col[0]
    assert any("enumeration order" in e
               for e in checks.check_sweep(planted(case, swap)["raw"], DEFAULT_SPACE))


@pytest.mark.parametrize("name,value,message", [
    ("ipc", np.nan, "not finite"),
    ("peak_power_w", 1.0, "peak_power_w < cpu_power_w"),
])
def test_sweep_rejects_bad_monitors(case, name, value, message):
    def edit(c):
        c["raw"]["mon"][name][3] = value
    assert any(message in e for e in checks.check_sweep(planted(case, edit)["raw"], DEFAULT_SPACE))


def test_sweep_rejects_time_that_does_not_fall_with_dvfs(case):
    def edit(c):
        t = c["raw"]["mon"]["execution_time_s"]
        fast = np.array(c["raw"]["knobs"]["DVFS"]) == "2.6GHz"
        t[fast] *= 10.0
    assert any("DVFS" in e for e in checks.check_sweep(planted(case, edit)["raw"], DEFAULT_SPACE))


def test_round_trip_rejects_a_changed_cell_and_a_misread_value(case):
    def cell(c):
        c["raw"]["text"]["ipc"][7] = format(float(c["raw"]["text"]["ipc"][7]) * 1.0000001, ".12g")
    assert any("rendering" in e for e in
               checks.check_round_trip(planted(case, cell)["raw"], case["columns"], DEFAULT_SPACE))

    columns = dict(case["columns"])
    columns["ingested:mpki"] = columns["ingested:mpki"].copy()
    columns["ingested:mpki"][0] = np.nextafter(columns["ingested:mpki"][0], 1.0)
    assert any("ingested column mpki" in e for e in
               checks.check_round_trip(case["raw"], columns, DEFAULT_SPACE))

    columns = dict(case["columns"])
    columns["ingested_levels"] = columns["ingested_levels"][::-1]
    assert any("enumeration order" in e for e in
               checks.check_round_trip(case["raw"], columns, DEFAULT_SPACE))


def test_carried_rejects_a_changed_monitor(case):
    def edit(c):
        c["derived"]["text"]["ipc"][2] = "0"
    assert checks.check_carried(case["raw"], planted(case, edit)["derived"])


def test_reduction_rejects_a_kept_correlated_monitor(case):
    def edit(c):
        rec = next(r for r in c["reduction"]["removed_monitors"] if r["reason"] == "correlated")
        c["reduction"]["removed_monitors"].remove(rec)
        c["reduction"]["kept_monitors"].append(rec["removed"])
    assert checks.check_reduction(case["derived"], planted(case, edit)["reduction"], DEFAULT_SPACE)


def test_reduction_rejects_a_weaker_mapping(case):
    def edit(c):
        match = c["reduction"]["requirement_to_monitor"]["power_w"]
        other = next(m for m in c["reduction"]["kept_monitors"] if m != match["monitor"])
        match["monitor"] = other
    assert any("power_w maps to" in e for e in
               checks.check_reduction(case["derived"], planted(case, edit)["reduction"],
                                      DEFAULT_SPACE))


def test_reduction_rejects_a_flipped_knob(case):
    def edit(c):
        knob = c["reduction"]["rejected_knobs"].pop(0)
        c["reduction"]["selected_knobs"].append(knob)
    assert any("max |r|" in e for e in
               checks.check_reduction(case["derived"], planted(case, edit)["reduction"],
                                      DEFAULT_SPACE))


def test_reduction_rejects_a_selected_noop_knob(noop_case):
    def edit(c):
        knob = next(k for k in c["reduction"]["rejected_knobs"] if k["knob"] == "X0")
        c["reduction"]["rejected_knobs"].remove(knob)
        c["reduction"]["selected_knobs"].append(knob)
    errors = checks.check_reduction(noop_case["derived"], planted(noop_case, edit)["reduction"],
                                    DEFAULT_SPACE + NOOP, must_reject=["X0"])
    assert any("X0 is not rejected" in e for e in errors)


def _feasible_rows(c):
    return np.flatnonzero(checks.feasible(c["derived"]))


def _labels(c, row):
    return {name: c["derived"]["knobs"][name][row] for name, _, _ in DEFAULT_SPACE}


def test_oracle_rejects_a_swapped_pick(case):
    s = checks.scores(case["derived"])
    rows = _feasible_rows(case)
    worse = int(rows[np.argmax(s[rows])])

    def edit(c):
        c["oracle"]["configuration"] = _labels(c, worse)
        del c["oracle"]["score"]
    assert any("scores" in e for e in
               checks.check_oracle(case["derived"], planted(case, edit)["oracle"], DEFAULT_SPACE))


def test_oracle_rejects_an_infeasible_pick(case):
    bad = int(np.flatnonzero(~checks.feasible(case["derived"]))[0])

    def edit(c):
        c["oracle"]["configuration"] = _labels(c, bad)
    assert any("infeasible" in e for e in
               checks.check_oracle(case["derived"], planted(case, edit)["oracle"], DEFAULT_SPACE))


def test_validation_rejects_an_unpinned_knob(case):
    unselected = next(k["knob"] for k in case["reduction"]["rejected_knobs"])

    def edit(c):
        conf = c["validation"]["reduced"]["configuration"]
        levels = dict((n, l) for n, l, _ in DEFAULT_SPACE)[unselected]
        conf[unselected] = next(label for label, _ in levels if label != conf[unselected])
    errors = checks.check_validation(case["derived"], planted(case, edit)["validation"],
                                     case["reduction"], DEFAULT_SPACE)
    assert any(f"unselected knob {unselected}" in e for e in errors)


def test_validation_rejects_a_wrong_gap(case):
    def edit(c):
        c["validation"]["max_negative_pct"] += 0.01
    errors = checks.check_validation(case["derived"], planted(case, edit)["validation"],
                                     case["reduction"], DEFAULT_SPACE)
    assert any("max_negative_pct" in e for e in errors)


def test_tracer_counts_calls_in_every_importing_module():
    space = sweep.KnobSpace.from_json_dict(space_json(DEFAULT_SPACE))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        raw = simulator.generate_sweep(space, defaults.default_workload(),
                                       defaults.default_effects(),
                                       defaults.default_fault_model(), 3)
    finally:
        tracer.uninstall()
    assert simulator.combine_effects.__name__ == "combine_effects"
    assert not hasattr(simulator.combine_effects, "__wrapped__")
    assert tracer.counts["simulator.simulate_config_detailed"] == len(raw) == 128
    assert tracer.counts["sweep.enumeration_rank"] >= 128  # called from the simulator module
    assert [s[0] for s in tracer.spans] == ["simulator.generate_sweep"]


def test_self_time_subtracts_direct_children():
    spans = [["search.validate", 0.0, 10.0, -1],
             ["search.oracle_best", 1.0, 4.0, 0],
             ["reducer.pearson", 2.0, 3.0, 1]]
    assert tracing.self_time_by_layer(spans) == {"search": 7.0 + 2.0, "reducer": 1.0}


def test_tracer_reports_uncalled_functions_as_zero_and_counts_csv_bytes(tmp_path):
    space = sweep.KnobSpace.from_json_dict(space_json(DEFAULT_SPACE))
    raw = simulator.generate_sweep(space, defaults.default_workload(),
                                   defaults.default_effects(), defaults.default_fault_model(), 3)
    path = str(tmp_path / "raw.csv")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        root = tracer.open("bench.round")
        sweep.export_csv(raw, path)
        sweep.ingest_csv(path, space)
        tracer.close(root)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics([{"first_span": 0, "end_span": len(tracer.spans),
                                    "counts": dict(tracer.counts)}])
    assert layers["sweep.csv_bytes"] == 2 * os.path.getsize(path)
    assert layers["simulator.generate_sweep_s"] == 0.0
    assert layers["reducer.self_s"] == 0.0
    assert layers["reducer.pearson.calls"] == 0
    assert layers["sweep.export_csv_s"] > 0.0
    assert "counts_repeat" not in layers


def test_adopted_spans_hang_below_their_parent():
    tracer = tracing.Tracer()
    top = tracer.open("cli.derive")
    tracer.spans[top][1] = 0.0
    tracer.close(top)
    tracer.spans[top][2] = 10.0
    tracer.adopt([["metrics.derive_dataset", 1.0, 5.0, -1], ["reducer.reduce", 2.0, 3.0, 0]],
                 {"reducer.pearson": 4}, ["search.is_feasible"], top)
    assert tracer.spans[1][3] == top and tracer.spans[2][3] == 1
    assert tracing.self_time_by_layer(tracer.spans) == {"cli": 6.0, "metrics": 3.0,
                                                        "reducer": 1.0}
    counts = tracer.count_figures(tracer.counts)
    assert counts["reducer.pearson.calls"] == 4
    assert "search.is_feasible.calls" not in counts  # absent, not zero


def test_layer_metrics_flags_counts_that_differ_between_rounds():
    tracer = tracing.Tracer()
    rounds = [{"first_span": 0, "end_span": 0, "counts": {"reducer.pearson": n}} for n in (3, 4)]
    assert tracer.layer_metrics(rounds)["counts_repeat"] is False
