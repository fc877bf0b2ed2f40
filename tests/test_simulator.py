"""Synthetic cluster measurement: timing model, faults, sweep generation."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpckit.defaults import (
    DEFAULT_SEED,
    default_effects,
    default_fault_model,
    default_knob_space,
    default_workload,
)
from hpckit.reducer import pearson
from hpckit.simulator import (
    FaultCase,
    FaultModel,
    NoiseParams,
    WorkloadParams,
    classify_fault_outcome,
    generate_sweep,
    interval_time,
    parameters_digest,
    simulate_config_detailed,
    trimmed_mean,
)
from hpckit.sweep import (
    Configuration,
    KnobDef,
    KnobLevel,
    KnobSpace,
    export_csv_string,
)

from util import named, space_of


# -------------------------------------------------------------- interval time


def test_doubling_servers_halves_iteration_term_exactly(default_space):
    params = default_workload()
    effects = default_effects()
    config = default_space.baseline_configuration()
    proc = params.result_processing_s
    t1 = interval_time(default_space, config, params, effects, 1)
    t2 = interval_time(default_space, config, params, effects, 2)
    assert t1 - proc == 2.0 * (t2 - proc)


def test_doubling_frequency_halves_iteration_term():
    space = KnobSpace((
        KnobDef("DVFS", (KnobLevel("1.3GHz", 1.3), KnobLevel("2.6GHz", 2.6)),
                baseline=1),
    ))
    params = default_workload()
    effects = default_effects()
    proc = params.result_processing_s
    slow = interval_time(space, Configuration((0,)), params, effects, 2)
    fast = interval_time(space, Configuration((1,)), params, effects, 2)
    assert slow - proc == 2.0 * (fast - proc)


def test_baseline_interval_time_matches_hand_arithmetic(default_space):
    params = default_workload()
    effects = default_effects()
    config = default_space.baseline_configuration()
    # baseline: 2.6 GHz, SMT off, no DRAM protection, turbo on (x1.03
    # throughput), prefetchers on (x1.08), redundancy off; 2 servers of
    # 16 cores at 1.85 s per iteration per core-GHz, 20 s wrap-up
    expected = 20000 * 1.85 / (2 * 16 * 2.6 * (1.03 * 1.08)) + 20.0
    got = interval_time(default_space, config, params, effects, 2)
    assert math.isclose(got, expected, rel_tol=1e-12)


def test_interval_time_rejects_no_servers(default_space):
    with pytest.raises(ValueError):
        interval_time(default_space, default_space.baseline_configuration(),
                      default_workload(), default_effects(), 0)


# --------------------------------------------------------- fault classification


def test_fault_free_interval_is_never_an_availability_event():
    assert classify_fault_outcome(0.0, 100.0, 600.0, 2, 2) is FaultCase.NO_FAULT
    # chronic slowness without a fault stays out of the availability ledger
    assert classify_fault_outcome(0.0, 700.0, 600.0, 2, 2) is FaultCase.NO_FAULT


def test_absorbed_fault_keeps_availability():
    assert classify_fault_outcome(30.0, 580.0, 600.0, 2, 2) is FaultCase.CASE1


def test_deadline_miss_with_full_pool_is_case2():
    assert classify_fault_outcome(90.0, 650.0, 600.0, 2, 2) is FaultCase.CASE2


def test_offline_server_missing_deadline_is_case3():
    assert classify_fault_outcome(90.0, 650.0, 600.0, 1, 2) is FaultCase.CASE3


def test_classification_rejects_nonpositive_deadline():
    with pytest.raises(ValueError):
        classify_fault_outcome(0.0, 100.0, 0.0, 2, 2)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=1200.0),
    st.floats(min_value=1.0, max_value=900.0),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_classification_trichotomy(delay, finish, deadline, remaining, required):
    got = classify_fault_outcome(delay, finish, deadline, remaining, required)
    if delay <= 0:
        expected = FaultCase.NO_FAULT
    elif finish <= deadline:
        expected = FaultCase.CASE1
    elif remaining >= required:
        expected = FaultCase.CASE2
    else:
        expected = FaultCase.CASE3
    assert got is expected


# ------------------------------------------------------------------ aggregation


def test_trimmed_mean_drops_extremes():
    assert trimmed_mean([10.0, 11.0, 12.0, 13.0, 50.0]) == 12.0


def test_trimmed_mean_small_inputs():
    assert trimmed_mean([5.0]) == 5.0
    assert trimmed_mean([3.0, 9.0]) == 6.0
    with pytest.raises(ValueError):
        trimmed_mean([])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=20))
def test_trimmed_mean_lies_within_range(values):
    tm = trimmed_mean(values)
    assert min(values) <= tm <= max(values)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e9), st.integers(min_value=1, max_value=9))
def test_trimmed_mean_of_identical_values_is_exact(value, count):
    assert trimmed_mean([value] * count) == value


# ------------------------------------------------------------------ fault model


def test_fault_model_validation():
    with pytest.raises(ValueError):
        FaultModel(probability=1.0)
    with pytest.raises(ValueError):
        FaultModel(probability=-0.1)
    with pytest.raises(ValueError):
        FaultModel(probability_scale=-1.0)
    with pytest.raises(ValueError):
        FaultModel(repair_intervals=-1)


def test_fault_probability_override_and_cap():
    assert FaultModel(probability=0.25).per_interval_probability(1e9, 100.0) == 0.25
    derived = FaultModel(probability_scale=1.0)
    assert derived.per_interval_probability(1e12, 1e6) == 0.5  # capped
    small = derived.per_interval_probability(300000.0, 0.1)
    assert math.isclose(small, 300000.0 * 1e-9 * 0.1, rel_tol=1e-12)


# ------------------------------------------------------------------- simulation


def test_zero_fault_probability_gives_exact_interval_time(default_space):
    params = default_workload()
    effects = replace(default_effects(), noise=NoiseParams(time=0.0))
    config = default_space.baseline_configuration()
    result = simulate_config_detailed(
        default_space, config, params, effects,
        FaultModel(probability=0.0), seed=7,
    )
    assert all(r.outcome is FaultCase.NO_FAULT for r in result.intervals)
    assert result.success_fraction == 1.0
    nominal = interval_time(default_space, config, params, effects, params.servers)
    assert named(result.monitors).execution_time == nominal


def test_same_seed_reproduces_the_monitor_vector(default_space):
    params = default_workload()
    effects = default_effects()
    fault = default_fault_model()
    config = Configuration((1, 1, 0, 1, 0, 1))
    a = simulate_config_detailed(default_space, config, params, effects, fault,
                                 seed=123).monitors
    b = simulate_config_detailed(default_space, config, params, effects, fault,
                                 seed=123).monitors
    assert a == b
    c = simulate_config_detailed(default_space, config, params, effects, fault,
                                 seed=124).monitors
    assert a != c


def test_simulation_rejects_too_few_intervals(default_space):
    with pytest.raises(ValueError):
        simulate_config_detailed(
            default_space, default_space.baseline_configuration(),
            default_workload(), default_effects(), default_fault_model(),
            n_intervals=4,
        )


def test_workload_params_enforce_accuracy_floor():
    # the configurable floor, metrics.min_mc_iterations, is checked by the
    # CLI stages against the dataset (see test_cli); the workload itself
    # only needs at least one iteration
    WorkloadParams(mc_iterations=1)
    with pytest.raises(ValueError):
        WorkloadParams(mc_iterations=0)
    with pytest.raises(ValueError):
        WorkloadParams(deadline_s=0.0)
    with pytest.raises(ValueError):
        WorkloadParams(servers=0)


@pytest.mark.parametrize("build, name", [
    (lambda: WorkloadParams(servers=2.5), "servers"),
    (lambda: WorkloadParams(servers=True), "servers"),
    (lambda: WorkloadParams(cores_per_server=16.5), "cores_per_server"),
    (lambda: WorkloadParams(mc_iterations=20000.5), "mc_iterations"),
    (lambda: WorkloadParams(mc_iterations=20000.0), "mc_iterations"),
    (lambda: FaultModel(repair_intervals=1.5), "repair_intervals"),
    (lambda: FaultModel(repair_intervals=False), "repair_intervals"),
    (lambda: simulate_config_detailed(
        default_knob_space(), default_knob_space().baseline_configuration(),
        default_workload(), default_effects(), default_fault_model(), n_intervals=7.0),
     "n_intervals"),
    (lambda: generate_sweep(space_of(2), default_workload(), default_effects(),
                            default_fault_model(), seed=1, n_intervals=True),
     "n_intervals"),
])
def test_integer_fields_reject_non_integers(build, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        build()


def test_noise_params_reject_negative_levels():
    with pytest.raises(ValueError):
        NoiseParams(time=-0.1)


other_level_indices = st.tuples(
    st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
    st.integers(0, 1), st.integers(0, 1),
)


def _check_dvfs_monotone(others, seed, fault):
    """Power never falls as the DVFS level rises; run time never rises
    unless a run logs a fault.

    Each level draws its faults from its own stream, so one fault can
    make the faster level the slower run (the test below pins a case);
    faults do not touch the power draws. Returns whether the four runs
    were fault-free.
    """
    space = default_knob_space()
    results = [
        simulate_config_detailed(space, Configuration((lvl, *others)), default_workload(),
                                 default_effects(), fault, seed=seed)
        for lvl in range(4)
    ]
    powers = [named(r.monitors).cpu_power for r in results]
    assert all(a <= b for a, b in zip(powers, powers[1:]))
    fault_free = all(rec.outcome is FaultCase.NO_FAULT
                     for r in results for rec in r.intervals)
    if fault_free:
        times = [named(r.monitors).execution_time for r in results]
        assert all(a >= b for a, b in zip(times, times[1:]))
    return fault_free


@settings(max_examples=100, deadline=None)
@given(other_level_indices, st.integers(min_value=0, max_value=2**31))
@example((0, 1, 0, 1, 0), 89206)  # the fault-struck case pinned below
def test_dvfs_monotone_in_time_and_power(others, seed):
    _check_dvfs_monotone(others, seed, default_fault_model())


@settings(max_examples=100, deadline=None)
@given(other_level_indices, st.integers(min_value=0, max_value=2**31))
def test_dvfs_monotone_on_every_draw_without_faults(others, seed):
    assert _check_dvfs_monotone(others, seed, FaultModel(probability=0.0))


def test_a_fault_can_make_a_faster_dvfs_level_slower():
    # each level draws its faults from its own [seed, rank] stream, so one
    # fault can cost the faster level a server and make it the slower run
    space = default_knob_space()
    args = (default_workload(), default_effects(), default_fault_model())
    slower, faster = (
        simulate_config_detailed(space, Configuration((lvl, 0, 1, 0, 1, 0)), *args,
                                 seed=89206)
        for lvl in (2, 3)
    )
    assert all(rec.outcome is FaultCase.NO_FAULT for rec in slower.intervals)
    assert FaultCase.CASE1 in {rec.outcome for rec in faster.intervals}
    assert faster.intervals[-1].servers_up < slower.intervals[-1].servers_up
    faster, slower = named(faster.monitors), named(slower.monitors)
    assert faster.execution_time > slower.execution_time
    assert faster.cpu_power > slower.cpu_power


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 1),
              st.integers(0, 1), st.integers(0, 1)),
    st.integers(min_value=0, max_value=2**31),
)
def test_redundancy_trades_time_for_reliability(front, seed):
    space = default_knob_space()
    params = default_workload()
    effects = default_effects()
    fault = default_fault_model()
    off = named(simulate_config_detailed(space, Configuration((*front, 0)), params, effects,
                                         fault, seed=seed).monitors)
    on = named(simulate_config_detailed(space, Configuration((*front, 1)), params, effects,
                                        fault, seed=seed).monitors)
    # halved cores can only slow the run down
    assert on.execution_time >= off.execution_time
    # the lower FIT rate can only raise server MTBF, hence availability
    assert on.server_mtbf >= off.server_mtbf


# ----------------------------------------------------------------- full sweeps


def test_default_space_sweep_has_128_rows(raw_dataset):
    assert len(raw_dataset) == 128
    assert raw_dataset.is_complete
    assert not raw_dataset.is_derived


def test_single_knob_space_sweep_has_level_count_rows():
    space = space_of(3)
    ds = generate_sweep(space, default_workload(), default_effects(),
                        default_fault_model(), seed=1)
    assert len(ds) == 3


def test_same_seed_reproduces_the_csv_export(default_space, raw_dataset):
    again = generate_sweep(default_space, default_workload(), default_effects(),
                           default_fault_model(), seed=DEFAULT_SEED)
    assert export_csv_string(again) == export_csv_string(raw_dataset)


def test_sweep_metadata_records_provenance(raw_dataset):
    md = raw_dataset.metadata
    assert md["seed"] == str(DEFAULT_SEED)
    assert md["mc_iterations"] == "20000"
    assert md["n_intervals"] == "7"
    assert len(md["parameters"]) >= 8
    assert 0.0 <= float(md["interval_success_fraction"]) <= 1.0


def test_success_fraction_accounting_matches_interval_log():
    effects = default_effects()
    cases = [
        (space_of(2, 2), default_workload(), FaultModel(probability=0.35, repair_intervals=1)),
        # heavy faults on 3 servers: absorbed faults, misses with a server
        # offline and whole-pool outages all occur
        (space_of(3, 2, 2), WorkloadParams(servers=3),
         FaultModel(probability=0.6, repair_intervals=1)),
    ]
    for space, params, fault in cases:
        ds = generate_sweep(space, params, effects, fault, seed=5)
        assert len(ds) == space.size()
        good = 0
        total = 0
        records = []
        for config, monitors in zip(ds.configs(), ds.monitors.tolist()):
            detail = simulate_config_detailed(space, config, params, effects,
                                              fault, seed=5)
            assert detail.monitors == tuple(monitors)
            bad = sum(1 for r in detail.intervals
                      if r.outcome in (FaultCase.CASE2, FaultCase.CASE3))
            frac = (len(detail.intervals) - bad) / len(detail.intervals)
            assert detail.success_fraction == frac
            good += len(detail.intervals) - bad
            total += len(detail.intervals)
            records.extend(detail.intervals)
        assert ds.metadata["interval_success_fraction"] == format(good / total, ".6f")
    outcomes = {r.outcome for r in records}
    assert {FaultCase.CASE1, FaultCase.CASE3} <= outcomes
    assert any(r.servers_up == 0 for r in records)


# SHA-256 of export_csv_string(generate_sweep(...)) on the default space and
# effects, recorded before the simulator's hot path was rewritten. A change
# to the random stream, the float operations or their order shows here.
PINNED_SWEEP_DIGESTS = [
    (12, WorkloadParams(), FaultModel(),
     "d047cc574cd150136aef2f27f6cc6d94ee3eb0ab73b8455440e6bc075bef77e9"),
    (13, WorkloadParams(), FaultModel(),
     "90c215d588e5ba9013d80b78b77557bfcf0980351d914c668cfd070921228af7"),
    (14, WorkloadParams(), FaultModel(),
     "35b2be26b8530ff0a926ca834266f068d6cfdf8e6b148d78afafc4a7e5d215ff"),
    (15, WorkloadParams(), FaultModel(),
     "2a9d4bf0d7a3588226816bd0a83acee7c3c0b546422c9ccf6b6fdd27ce9c2cbf"),
    (16, WorkloadParams(), FaultModel(),
     "75a44652516e4df4375c9e1238614d11cabfe181ceaf0e9087d4193391b69967"),
    (12, WorkloadParams(servers=1), FaultModel(probability=0.3),
     "1f344f87b70fef344381509b7eb909e6ac5e06b77605abcf26459e0334eecb92"),
    (12, WorkloadParams(servers=3), FaultModel(probability=0.3),
     "65055c17926f93df54b22e0a04e90624d4a3b5f498a911208c5d7fa3b37b8424"),
    (12, WorkloadParams(), FaultModel(probability=0.6, repair_intervals=0),
     "4ca34f53ddcb2bd9c406ed2afdf53e7213bd1728e3d45d0f9931427928cda1f4"),
]


@pytest.mark.parametrize("seed, params, fault, digest", PINNED_SWEEP_DIGESTS)
def test_sweep_bytes_match_pinned_digests(default_space, seed, params, fault, digest):
    ds = generate_sweep(default_space, params, default_effects(), fault, seed)
    text = export_csv_string(ds)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_parameters_digest_is_stable_and_sensitive(default_space):
    params = default_workload()
    effects = default_effects()
    fault = default_fault_model()
    d1 = parameters_digest(default_space, params, effects, fault)
    d2 = parameters_digest(default_space, params, effects, fault)
    assert d1 == d2
    changed = parameters_digest(
        default_space, replace(params, base_seconds=2.0), effects, fault
    )
    assert changed != d1


# ------------------------------------------------- planted default structure


def test_default_calibration_plants_the_documented_structure(derived_dataset):
    exec_col = derived_dataset.monitor_column("execution_time_s")
    perf_col = derived_dataset.requirement_column("performance_s")
    assert pearson(exec_col, perf_col) == 1.0
    capex_col = derived_dataset.monitor_column("capex")
    avail_col = derived_dataset.requirement_column("availability")
    assert abs(pearson(capex_col, avail_col)) >= 0.9
