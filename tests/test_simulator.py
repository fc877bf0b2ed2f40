"""Synthetic cluster measurement: timing model, faults, sweep generation."""

import functools
import hashlib
import math
import operator
import warnings
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
    IntervalRecord,
    KnobEffects,
    LevelEffect,
    NoiseParams,
    SimulationResult,
    WorkloadParams,
    _rank_seed_type,
    _stream,
    _stream_words,
    _trimmed,
    classify_fault_outcome,
    combine_effects,
    generate_sweep,
    interval_time,
    parameters_digest,
    simulate_config_detailed,
)
from hpckit.sweep import (
    Configuration,
    KnobDef,
    KnobLevel,
    KnobSpace,
    enumerate_configs,
    enumeration_rank,
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
    assert _trimmed([10.0, 11.0, 12.0, 13.0, 50.0]) == 12.0
    # added left to right from 0.0: -1e16 + 1.0 rounds back to -1e16; a compensated
    # sum, as the builtin sum is from Python 3.12 on, would keep the 1.0 and give 1/3
    assert _trimmed([3e16, 1.0, -1e16, 1e16, -2e16]) == 0.0


def test_trimmed_mean_small_inputs():
    assert _trimmed([5.0]) == 5.0
    assert _trimmed([3.0, 9.0]) == 6.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=20))
def test_trimmed_mean_lies_within_range(values):
    tm = _trimmed(values)
    assert min(values) <= tm <= max(values)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e9), st.integers(min_value=1, max_value=9))
def test_trimmed_mean_of_identical_values_is_exact(value, count):
    assert _trimmed([value] * count) == value


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
    assert result.successes == len(result.intervals)
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
    # the configurable floor, metrics.min_mc_iterations, is checked against
    # the dataset by RequirementSpec.check_mc_iterations (see test_search);
    # the workload itself only needs at least one iteration
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


@pytest.mark.parametrize("seed", [12.9, True, -1])
def test_seed_must_be_a_non_negative_integer(seed):
    space = space_of(2)
    args = (default_workload(), default_effects(), default_fault_model())
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        generate_sweep(space, *args, seed=seed)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        simulate_config_detailed(space, Configuration((0,)), *args, seed=seed)


def test_numpy_integer_seed_runs_and_is_recorded_as_that_integer():
    space = space_of(3, 2)
    args = (default_workload(), default_effects(), default_fault_model())
    ds = generate_sweep(space, *args, seed=np.int64(12))
    assert ds.metadata["seed"] == "12"
    assert export_csv_string(ds) == export_csv_string(generate_sweep(space, *args, seed=12))


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
    assert len(raw_dataset) == len(enumerate_configs(raw_dataset.space))
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
        assert len(ds) == len(enumerate_configs(space))
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
            assert detail.successes / len(detail.intervals) == frac
            good += len(detail.intervals) - bad
            total += len(detail.intervals)
            records.extend(detail.intervals)
        assert ds.metadata["interval_success_fraction"] == format(good / total, ".6f")
    outcomes = {r.outcome for r in records}
    assert {FaultCase.CASE1, FaultCase.CASE3} <= outcomes
    assert any(r.servers_up == 0 for r in records)


# SHA-256 of export_csv_string(generate_sweep(...)) on the default space and
# effects, recorded before the simulator's hot path was rewritten. A change
# to the random stream, the float operations or their order shows here. The
# servers=3 digest was recorded again once a server whose repair ends in an
# interval could no longer fail in it.
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
     "01602a31f4ba1028c3f2e49d97ca0bd20be0bcbe7048db862c1ba882ec8cdb24"),
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


# parameters_digest as recorded when it still rendered the models through
# dataclasses.asdict: the digest text depends on the field values alone
@pytest.mark.parametrize("params, effects, fault, digest", [
    (WorkloadParams(), default_effects(), FaultModel(), "0f80a7e27c9ed08c"),
    (WorkloadParams(servers=3),
     KnobEffects(noise=NoiseParams(fit=0.2),
                 levels={"SMT": {"Enable": LevelEffect(throughput=1.7, cpu_power=1.45)}}),
     FaultModel(probability=0.01, repair_intervals=1), "1b2cf1306f58a28d"),
])
def test_parameters_digest_matches_pinned_text(default_space, params, effects, fault, digest):
    assert parameters_digest(default_space, params, effects, fault) == digest


# ------------------------------------------------- planted default structure


def test_default_calibration_plants_the_documented_structure(derived_dataset):
    exec_col = derived_dataset.monitor_column("execution_time_s")
    perf_col = derived_dataset.requirement_column("performance_s")
    assert pearson(exec_col, perf_col) == 1.0
    capex_col = derived_dataset.monitor_column("capex")
    avail_col = derived_dataset.requirement_column("availability")
    assert abs(pearson(capex_col, avail_col)) >= 0.9


# ------------------------------------------ reference for the interval paths


def _reference_noise(sigma, z):
    return [0.05 if (x := 1.0 + sigma * v) < 0.05 else x for v in z]


def _reference_trimmed_mean(values):
    ordered = sorted(values)
    if len(ordered) >= 3:
        ordered = ordered[1:-1]
    if ordered[0] == ordered[-1]:
        return ordered[0]
    # not the builtin sum, which compensates for rounding from Python 3.12 on
    return functools.reduce(operator.add, ordered, 0.0) / len(ordered)


def _reference_simulation(space, config, params, effects, fault_model, n, seed):
    """simulate_config_detailed restated with one interval loop for every
    row, ``default_rng`` for the stream and the public effect functions."""
    rank = enumeration_rank(space, config)
    eff = combine_effects(space, config, effects)
    rng = np.random.default_rng([seed, rank])
    noise = effects.noise
    servers = params.servers
    z = rng.standard_normal(7 * n + 1).tolist()
    cpu_z, dram_z, peak_z, temp_z, ipc_z, mpki_z = (z[k * n:(k + 1) * n] for k in range(6))
    fit_noise = _reference_noise(noise.fit, z[6 * n:6 * n + 1])[0]
    time_noise = _reference_noise(noise.time, z[6 * n + 1:])
    uniforms = iter(rng.random(n * (servers + 1)).tolist())

    fit = effects.base_fit * eff.fit * fit_noise
    times = [0.0] + [interval_time(space, config, params, effects, up)
                     for up in range(1, servers + 1)]
    nominal = times[servers]
    p_fail = fault_model.per_interval_probability(fit, nominal / 3600.0)

    down = [0] * servers
    records = []
    fault_free_times = []
    for i in range(n):
        up = [down[s] == 0 for s in range(servers)]
        servers_up = sum(up)
        down = [max(0, d - 1) for d in down]
        if servers_up == 0:
            records.append(IntervalRecord(2.0 * params.deadline_s, FaultCase.CASE3, 0))
            continue
        t0 = times[servers_up] * time_noise[i]
        failures = 0
        for s in range(servers):
            if up[s] and next(uniforms) < p_fail:
                failures += 1
                down[s] = fault_model.repair_intervals
        if failures == 0:
            records.append(IntervalRecord(t0, FaultCase.NO_FAULT, servers_up))
            fault_free_times.append(t0)
            continue
        survivors = servers_up - failures
        done = next(uniforms)
        if survivors == 0:
            finish = max(2.0 * params.deadline_s, 2.0 * t0)
        else:
            finish = done * t0 + (1.0 - done) * t0 * servers_up / survivors
        outcome = classify_fault_outcome(
            finish - t0, finish, params.deadline_s, servers_up - failures, servers
        )
        records.append(IntervalRecord(finish, outcome, servers_up))
    execution_time = _reference_trimmed_mean(fault_free_times) if fault_free_times else nominal

    f_ratio = eff.frequency_ghz / effects.reference_frequency_ghz
    cpu_w = effects.cpu_power_base_w * f_ratio**effects.cpu_power_exponent * eff.cpu_power
    cpu_draws = [cpu_w * r for r in _reference_noise(noise.cpu_power, cpu_z)]
    dram_w = (effects.dram_background_w + eff.dram_background_w
              + effects.dram_activity_w * f_ratio * eff.dram_activity)
    dram_draws = [dram_w * r for r in _reference_noise(noise.dram_power, dram_z)]
    peak_draws = [
        c + d + effects.peak_margin_w * r + eff.peak_surcharge_w
        for c, d, r in zip(cpu_draws, dram_draws, _reference_noise(noise.peak_margin, peak_z))
    ]
    temp_draws = [
        effects.temperature_ambient_c
        + effects.temperature_per_watt * c * eff.temperature
        + (0.0 + noise.temperature_c * v)
        for c, v in zip(cpu_draws, temp_z)
    ]
    cores = params.cores_per_server * eff.usable_cores
    ipc = effects.ipc_per_core * cores * eff.throughput
    ipc_draws = [ipc * r for r in _reference_noise(noise.ipc, ipc_z)]
    mpki = effects.mpki_base * eff.mpki
    mpki_draws = [mpki * r for r in _reference_noise(noise.mpki, mpki_z)]
    server_mtbf = 1e9 / fit
    monitors = (
        execution_time,
        *map(_reference_trimmed_mean,
             (ipc_draws, dram_draws, cpu_draws, peak_draws, temp_draws, mpki_draws)),
        server_mtbf, server_mtbf, 0.0, 0.0,
    )
    successes = sum(r.outcome not in (FaultCase.CASE2, FaultCase.CASE3) for r in records)
    return SimulationResult(monitors, tuple(records), successes)


_ZERO_NOISE = replace(default_effects(), noise=NoiseParams(*[0.0] * 8))
# noise loud enough that many factors 1 + sigma*z fall to the 0.05 floor
_LOUD_NOISE = replace(default_effects(), noise=replace(NoiseParams(*[5.0] * 8), temperature_c=50.0))
# (workload, fault model, effects, n_intervals): forced fault probabilities
# against every repair time and pool size, FIT-derived probabilities scaled
# into the fault-prone range, no noise at all, other interval counts, and
# noise that hits the floor.
REFERENCE_CASES = (
    [(WorkloadParams(servers=servers), FaultModel(probability=p, repair_intervals=repair),
      default_effects(), 7)
     for p in (0.0, 0.3, 0.6) for repair in range(4) for servers in (1, 2, 3)]
    + [(WorkloadParams(), FaultModel(probability_scale=k), default_effects(), 7)
       for k in (5000.0, 50000.0)]
    + [(WorkloadParams(), FaultModel(), _ZERO_NOISE, 7),
       (WorkloadParams(), FaultModel(probability=0.3), _ZERO_NOISE, 7)]
    + [(WorkloadParams(), FaultModel(probability=0.3), default_effects(), n) for n in (5, 9)]
    + [(WorkloadParams(), FaultModel(probability=0.3), _LOUD_NOISE, 7)]
)


@pytest.mark.parametrize("case", range(len(REFERENCE_CASES)))
def test_simulation_matches_the_single_loop_reference(case):
    params, fault, effects, n = REFERENCE_CASES[case]
    full = default_knob_space()
    # the default space, and one without the frequency knob
    for space in (full, KnobSpace(full.knobs[1:])):
        rng = np.random.default_rng(case)
        for _ in range(6):
            config = Configuration(tuple(int(rng.integers(len(k.levels))) for k in space.knobs))
            seed = int(rng.integers(2**31))
            got = simulate_config_detailed(space, config, params, effects, fault, n, seed)
            want = _reference_simulation(space, config, params, effects, fault, n, seed)
            assert repr(got) == repr(want), (config, seed)
            # only a server that is up can fail, so no interval ends before it starts
            assert all(r.duration > 0 for r in got.intervals), (config, seed)


# ---------------------------------------------------- per-configuration streams


def _seed_sequence_state(seed, rank):
    return np.random.PCG64(np.random.SeedSequence([seed, rank])).state


_BLOCK_EDGE_RANKS = [0, 1, 1023, 1024, 1025, 8191]


@pytest.mark.parametrize("seed", [0, 12, 2**31 - 2, 2**32 - 1])
def test_stream_is_the_seed_sequence_stream(seed):
    sampled = np.random.default_rng(seed).integers(0, 2**32, 24).tolist()
    for rank in _BLOCK_EDGE_RANKS + [2**32 - 1024, 2**32 - 1] + sampled:
        assert _stream(seed, rank).bit_generator.state == _seed_sequence_state(seed, rank), rank


@pytest.mark.parametrize("seed, ranks", [
    (2**32, _BLOCK_EDGE_RANKS),
    (2**40, _BLOCK_EDGE_RANKS),
    (12, [2**32, 2**40]),
])
def test_stream_beyond_one_entropy_word_is_the_seed_sequence_stream(seed, ranks):
    for rank in ranks:
        assert _stream(seed, rank).bit_generator.state == _seed_sequence_state(seed, rank), rank


def test_interleaved_streams_match_fresh_ones():
    for seed, rank in [(12, 5), (13, 5), (12, 2000), (12, 5), (2**32, 5), (12, 6), (13, 1024)]:
        stream = _stream(seed, rank)
        bulk = seed < 2**32  # and rank, here
        assert isinstance(stream.bit_generator.seed_seq, _rank_seed_type()) == bulk
        assert stream.bit_generator.state == _seed_sequence_state(seed, rank), (seed, rank)
        assert stream.random(3).tolist() == np.random.default_rng([seed, rank]).random(3).tolist()


def test_rank_seed_delegates_other_requests_to_seed_sequence():
    seed, rank = 12, 1030
    words = _stream_words(seed, 1)
    assert not words.flags.writeable
    rank_seed = _rank_seed_type()(seed, rank, words[rank - 1024])
    reference = np.random.SeedSequence([seed, rank])
    for n_words, dtype in [(4, np.uint64), (4, "u8"), (4, np.uint32), (8, np.uint32),
                           (2, np.uint64), (8, np.uint64), (1, np.uint32)]:
        got = rank_seed.generate_state(n_words, dtype)
        want = reference.generate_state(n_words, dtype)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), (n_words, dtype)


def test_stream_hashing_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, block in [(0, 0), (12, 3), (2**32 - 1, 0), (2**32 - 1, 2**22 - 1)]:
            words = _stream_words.__wrapped__(seed, block)
            for row in (0, 1023):
                reference = np.random.SeedSequence([seed, block * 1024 + row])
                assert words[row].tolist() == reference.generate_state(4, np.uint64).tolist()
