"""Feasibility filtering, scoring, exhaustive and reduced search."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpckit.cli import render_validation
from hpckit.errors import ConfigError, NoFeasibleConfigurationError
from hpckit.metrics import RequirementSpec
from hpckit.search import (
    HIGHER_IS_BETTER,
    _improvement_ratio,
    _percent_difference,
    feasible_rows,
    is_feasible,
    oracle_best,
    rank_feasible,
    reduced_best,
    score_requirements,
    validate,
)
from hpckit.sweep import (
    MONITOR_NAMES,
    REQUIREMENT_FIELDS,
    REQUIREMENT_NAMES,
    Configuration,
    SweepDataset,
    enumerate_configs,
    zscore,
)

from util import (
    build_dataset,
    dataset_from_requirements,
    make_report,
    monitor_vector,
    named,
    proxy_dataset,
    proxy_report,
    requirement_values,
    space_of,
    textbook_pearson,
)

TABLE_SPEC = RequirementSpec(
    performance_max_s=600.0, power_max_w=81.0, energy_max_j=48600.0,
    availability_min=0.99, min_mc_iterations=10000,
)

WIDE_OPEN = RequirementSpec(
    performance_max_s=1e12, power_max_w=1e12, energy_max_j=1e30,
    availability_min=1e-9, min_mc_iterations=10000,
)


def _row(performance, power, availability, cost=5000.0):
    """One row's requirement values."""
    return requirement_values(
        performance=performance, power=power,
        availability=availability, cost=cost,
    )


def _requirements(ds, i):
    """Row ``i``'s requirement values by short name."""
    return named(ds.requirements[i], REQUIREMENT_FIELDS)


# ---------------------------------------------------------------- feasibility


def test_boundary_values_are_feasible_inclusively():
    assert is_feasible(_row(600.0, 81.0, 0.99), TABLE_SPEC)


def _threshold_violation(row, spec):
    """The no-feasible error's violation for a dataset of ``row`` alone; 0 when feasible."""
    try:
        oracle_best(SweepDataset(space_of(2), [(0,)], [monitor_vector()], [row]), spec)
    except NoFeasibleConfigurationError as exc:
        return exc.violation
    return 0.0


def test_single_overshoot_is_infeasible():
    # performance over the limit; energy follows performance times power
    row = _row(601.0, 81.0, 0.99)
    assert not is_feasible(row, TABLE_SPEC)
    assert _threshold_violation(row, TABLE_SPEC) > 0.0


def test_interior_point_is_feasible():
    assert is_feasible(_row(300.0, 40.0, 0.999), TABLE_SPEC)
    assert _threshold_violation(_row(300.0, 40.0, 0.999), TABLE_SPEC) == 0.0


def test_each_threshold_is_checked():
    assert not is_feasible(_row(100.0, 82.0, 0.99), TABLE_SPEC)       # power
    assert not is_feasible(_row(600.0, 81.0, 0.98), TABLE_SPEC)       # availability
    assert not is_feasible(_row(599.99, 81.001, 0.99), TABLE_SPEC)    # power again


def _ulps(x: float, k: int) -> float:
    """``x`` moved ``k`` floats up (k > 0) or down."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=5e-324, max_value=1e308), st.integers(-2, 2),
       st.floats(min_value=1e-9, max_value=1.0 - 1e-9), st.integers(-2, 2))
def test_feasibility_is_the_plain_comparison_a_few_floats_from_a_threshold(
        limit, k, floor, j):
    spec = RequirementSpec(performance_max_s=limit, availability_min=floor)
    performance, availability = _ulps(limit, k), _ulps(floor, j)
    row = [performance, 1.0, 1.0, availability, 0.0]
    assert is_feasible(row, spec) == (performance <= limit and availability >= floor)


# -------------------------------------------------------------------- scoring


def _scored_dataset(perf, power, avail, cost):
    return dataset_from_requirements(
        np.asarray(perf, dtype=float),
        np.asarray(power, dtype=float),
        np.asarray(avail, dtype=float),
        np.asarray(cost, dtype=float),
        spec=WIDE_OPEN,
    )


def test_faster_row_scores_strictly_lower():
    ds = _scored_dataset(
        [100.0, 200.0, 300.0, 400.0],
        [70.0] * 4,
        [0.99] * 4,
        [5000.0] * 4,
    )
    scores = score_requirements(ds)
    assert scores[0] < scores[1] < scores[2] < scores[3]


def test_higher_availability_scores_lower():
    ds = _scored_dataset(
        [100.0] * 4,
        [70.0] * 4,
        [0.90, 0.99, 0.95, 0.92],
        [5000.0] * 4,
    )
    scores = score_requirements(ds)
    assert int(np.argmin(scores)) == 1
    assert int(np.argmax(scores)) == 0


def test_scores_match_hand_computed_weighted_zscores():
    perf = np.array([100.0, 200.0, 300.0, 250.0])
    power = np.array([50.0, 60.0, 70.0, 65.0])
    avail = np.array([0.99, 0.95, 0.97, 0.96])
    cost = np.array([5000.0, 6000.0, 4000.0, 4500.0])
    ds = _scored_dataset(perf, power, avail, cost)
    scores = score_requirements(ds)

    def hand_z(xs):
        m = sum(xs) / len(xs)
        sd = (sum((x - m) ** 2 for x in xs) / (len(xs) - 1)) ** 0.5
        return [(x - m) / sd for x in xs]

    energy = perf * power
    hand = np.zeros(4)
    for series, direction in (
        (perf, +1), (power, +1), (energy, +1), (avail, -1), (cost, +1),
    ):
        hand += 0.2 * direction * np.array(hand_z(list(series)))
    np.testing.assert_allclose(scores, hand, rtol=1e-12, atol=1e-12)


def test_flat_columns_are_dropped_and_weights_renormalized():
    # only performance varies; its z-score alone must decide
    ds = _scored_dataset([100.0, 200.0, 300.0, 400.0], [70.0] * 4,
                         [0.99] * 4, [5000.0] * 4)
    scores = score_requirements(ds)
    perf = ds.requirement_column("performance_s")
    energy = ds.requirement_column("energy_j")
    expected = 0.5 * (zscore(perf) + zscore(energy))
    np.testing.assert_allclose(scores, expected, rtol=1e-12)


def test_custom_weights_change_the_ranking():
    ds = _scored_dataset(
        [100.0, 400.0, 200.0, 300.0],
        [70.0, 40.0, 60.0, 50.0],
        [0.99] * 4,
        [5000.0] * 4,
    )
    by_perf = oracle_best(ds, weights={"performance_s": 1.0, "power_w": 0.0,
                                       "energy_j": 0.0, "availability": 0.0,
                                       "cost": 0.0})
    by_power = oracle_best(ds, weights={"performance_s": 0.0, "power_w": 1.0,
                                        "energy_j": 0.0, "availability": 0.0,
                                        "cost": 0.0})
    assert _requirements(ds, by_perf.index).performance == 100.0
    assert _requirements(ds, by_power.index).power == 40.0


def test_negative_weights_are_rejected():
    ds = _scored_dataset([100.0, 200.0, 300.0, 400.0], [70.0] * 4,
                         [0.99] * 4, [5000.0] * 4)
    with pytest.raises(ConfigError):
        score_requirements(ds, weights={"performance_s": -1.0})


@pytest.mark.parametrize("perf, weights", [
    ([100.0] * 4, None),
    ([100.0, 200.0, 300.0, 400.0], dict.fromkeys(REQUIREMENT_NAMES, 0.0)),
], ids=["every column flat", "every weight zero"])
def test_nothing_to_rank_on_is_rejected(perf, weights):
    ds = _scored_dataset(perf, [70.0] * 4, [0.99] * 4, [5000.0] * 4)
    with pytest.raises(ConfigError, match="every scoring column is flat or zero-weighted"):
        score_requirements(ds, weights)


def test_scoring_needs_two_rows():
    one = SweepDataset(space_of(2), [(0,)], [monitor_vector()], [requirement_values()])
    with pytest.raises(ValueError, match="scoring needs at least two rows"):
        score_requirements(one)


def _underived_pair() -> SweepDataset:
    return build_dataset(space_of(2), [monitor_vector(execution_time=t) for t in (100.0, 200.0)])


@pytest.mark.parametrize("call, error", [
    (lambda ds: feasible_rows(ds, WIDE_OPEN), ValueError),
    (score_requirements, ValueError),
    (lambda ds: validate(ds, make_report(ds, ["execution_time_s"], ["K0"]), WIDE_OPEN),
     ConfigError),
], ids=["feasible_rows", "score_requirements", "validate"])
def test_underived_data_is_rejected(call, error):
    with pytest.raises(error, match="dataset has no derived requirement values"):
        call(_underived_pair())


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
def test_oracle_pick_survives_power_of_two_rescaling(seed, k1, k2):
    """Scaling raw requirement columns by powers of two shifts float
    exponents only, so z-scores and therefore the winning row are
    bit-identical."""
    rng = np.random.default_rng(seed)
    perf = rng.uniform(100.0, 600.0, 16)
    power = rng.uniform(40.0, 80.0, 16)
    avail = rng.uniform(0.9, 0.999, 16)
    cost = rng.uniform(1e3, 1e4, 16)
    base = oracle_best(_scored_dataset(perf, power, avail, cost))
    scaled = oracle_best(_scored_dataset(
        perf * 2.0**k1, power * 2.0**k2, avail, cost * 2.0**k1,
    ))
    assert scaled.config == base.config


# ---------------------------------------------------------------- oracle_best


def test_single_row_feasible_dataset_returns_that_row():
    ds = build_dataset(
        space_of(2), [monitor_vector(), monitor_vector()],
        [requirement_values(), requirement_values()], spec=WIDE_OPEN,
    )
    single = SweepDataset(ds.space, ds.levels[:1], ds.monitors[:1], ds.requirements[:1],
                          requirement_spec=WIDE_OPEN)
    best = oracle_best(single)
    assert best.index == 0
    assert is_feasible(single.requirements[best.index], WIDE_OPEN)


def test_single_infeasible_row_raises():
    ds = SweepDataset(space_of(2), [(0,)], [monitor_vector()],
                      [requirement_values(performance=1e4, power=81.0)], requirement_spec=TABLE_SPEC)
    with pytest.raises(NoFeasibleConfigurationError):
        oracle_best(ds)


def test_unique_feasible_row_wins_regardless_of_score():
    # the only feasible row has the worst raw score of the four
    ds = _scored_dataset(
        [650.0, 700.0, 590.0, 680.0],
        [70.0, 60.0, 80.9, 65.0],
        [0.999, 0.999, 0.99, 0.999],
        [1000.0, 1000.0, 99000.0, 1000.0],
    )
    best = oracle_best(ds, spec=TABLE_SPEC)
    assert _requirements(ds, best.index).performance == 590.0
    scores = score_requirements(ds)
    assert scores[2] == max(scores)


def test_rank_feasible_breaks_score_ties_by_enumeration_order():
    # rows listed in reverse enumeration order; levels 0 and 2 tie, as do 1 and 3
    perf = {0: 300.0, 1: 400.0}
    ds = SweepDataset(space_of(4), [(k,) for k in (3, 2, 1, 0)], [monitor_vector()] * 4,
                      [requirement_values(performance=perf[k % 2]) for k in (3, 2, 1, 0)])
    scores, order = rank_feasible(ds, WIDE_OPEN)
    assert [ds.config(i).levels for i in order] == [(0,), (2,), (1,), (3,)]
    assert scores[order[0]] == scores[order[1]] < scores[order[2]] == scores[order[3]]
    assert oracle_best(ds, WIDE_OPEN).config == Configuration((0,))


def test_no_feasible_row_names_least_violating():
    ds = _scored_dataset(
        [700.0, 650.0, 900.0, 800.0],
        [70.0] * 4,
        [0.999] * 4,
        [1000.0] * 4,
    )
    with pytest.raises(NoFeasibleConfigurationError) as exc:
        oracle_best(ds, spec=TABLE_SPEC)
    err = exc.value
    assert err.least_violating is not None
    # the 650 s row overshoots 600 s by the smallest margin
    assert _requirements(ds, ds.index_of(err.least_violating)).performance == 650.0
    assert math.isclose(err.violation, 50.0 / 600.0, rel_tol=1e-12)


def test_oracle_matches_independent_brute_force(derived_dataset):
    spec = derived_dataset.requirement_spec
    rows = [named(r, REQUIREMENT_FIELDS) for r in derived_dataset.requirements.tolist()]

    def z(xs):
        m = sum(xs) / len(xs)
        sd = (sum((v - m) ** 2 for v in xs) / (len(xs) - 1)) ** 0.5
        return [(v - m) / sd for v in xs]

    directions = {"performance_s": 1, "power_w": 1, "energy_j": 1,
                  "availability": -1, "cost": 1}
    scores = [0.0] * len(rows)
    for name, attr in REQUIREMENT_FIELDS:
        col = [getattr(q, attr) for q in rows]
        zz = z(col)
        for i in range(len(rows)):
            scores[i] += 0.2 * directions[name] * zz[i]

    def feasible(q):
        return (q.performance <= spec.performance_max_s
                and q.power <= spec.power_max_w
                and q.energy <= spec.energy_max_j
                and q.availability >= spec.availability_min)

    candidates = [i for i, r in enumerate(rows) if feasible(r)]
    assert candidates, "default dataset must contain feasible rows"
    winner = min(candidates, key=lambda i: (scores[i], i))

    best = oracle_best(derived_dataset)
    assert best.config == derived_dataset.config(winner)
    assert math.isclose(best.score, scores[winner], rel_tol=1e-9, abs_tol=1e-12)


# --------------------------------------------------------------- reduced_best


def test_two_row_slice_picks_better_monitor_value():
    space = space_of(2, 2)
    perf = {(0, 0): 300.0, (1, 0): 200.0, (0, 1): 500.0, (1, 1): 400.0}
    mons = []
    reqs = []
    for config in enumerate_configs(space):
        p = perf[config.levels]
        mons.append(monitor_vector(execution_time=p))
        reqs.append(requirement_values(performance=p))
    ds = build_dataset(space, mons, reqs, spec=WIDE_OPEN)
    report = make_report(ds, ["execution_time_s"], ["K0"])
    best = reduced_best(ds, report)
    # slice fixes K1 at baseline: rows (0,0) and (1,0); (1,0) runs faster
    assert best.config.levels == (1, 0)


def test_reduced_best_requires_selected_knobs_and_monitors(derived_dataset):
    report = make_report(derived_dataset, ["execution_time_s"], [])
    with pytest.raises(ConfigError):
        reduced_best(derived_dataset, report)


def test_reduced_best_rejects_a_report_without_monitors_or_with_unknown_knobs(derived_dataset):
    report = make_report(derived_dataset, ["execution_time_s"], ["DVFS"])
    with pytest.raises(ConfigError, match="reduction kept no monitors; nothing to rank on"):
        reduced_best(derived_dataset, replace(report, kept_monitors=()))
    report = make_report(derived_dataset, ["execution_time_s"], ["DVFS", "BOGUS"])
    with pytest.raises(ConfigError, match=re.escape("selected knobs not in this space: ['BOGUS']")):
        reduced_best(derived_dataset, report)


def test_reduced_slice_of_one_row_is_rejected():
    # K1 pinned at its baseline level 0 leaves one row, (0, 0): (1, 0) is absent
    ds = SweepDataset(space_of(2, 2), [(0, 0), (0, 1), (1, 1)],
                      [monitor_vector(execution_time=t) for t in (100.0, 200.0, 300.0)],
                      [requirement_values()] * 3, requirement_spec=WIDE_OPEN)
    with pytest.raises(ConfigError, match="reduced slice has fewer than two rows; cannot rank"):
        reduced_best(ds, make_report(ds, ["execution_time_s"], ["K0"]))


def test_reduced_best_rejects_unknown_monitors(derived_dataset):
    report = replace(make_report(derived_dataset, ["execution_time_s"], ["DVFS"]),
                     kept_monitors=("execution_time_s", "bogus"))
    with pytest.raises(ConfigError, match=r"kept monitors .*\['bogus'\]"):
        reduced_best(derived_dataset, report)


def test_higher_is_better_names_only_sweep_columns():
    assert HIGHER_IS_BETTER <= set(MONITOR_NAMES) | set(REQUIREMENT_NAMES)
    assert "availability" in HIGHER_IS_BETTER


def test_perfect_proxies_reach_the_oracle_exactly():
    ds = proxy_dataset(spec=WIDE_OPEN)
    report = proxy_report(ds)
    oracle = oracle_best(ds)
    reduced = reduced_best(ds, report)
    assert reduced.config == oracle.config
    result = validate(ds, report)
    assert result.picks_agree
    assert result.max_negative_pct == 0.0
    assert all(p == 0.0 for p in result.percent_differences.values())


# ------------------------------------------------------------------- validate


def test_default_dataset_gap_within_five_percent(derived_dataset, default_report):
    result = validate(derived_dataset, default_report)
    assert result.max_negative_pct <= 0.05
    feasible = feasible_rows(derived_dataset, derived_dataset.requirement_spec)
    assert feasible[result.oracle.index] and feasible[result.reduced.index]


def test_reduced_five_percent_slower_gives_exact_gap():
    space = space_of(2, 2)
    values = {
        (0, 0): (105.0, 1001.0),   # baseline, inside the reduced slice
        (1, 0): (110.0, 1002.0),   # inside the slice, slower
        (0, 1): (100.0, 1000.0),   # the oracle, outside the slice
        (1, 1): (120.0, 1003.0),
    }
    mons = []
    reqs = []
    for config in enumerate_configs(space):
        p, c = values[config.levels]
        mons.append(monitor_vector(execution_time=p))
        reqs.append(requirement_values(performance=p, power=80.0, cost=c,
                                       availability=0.99))
    ds = build_dataset(space, mons, reqs, spec=WIDE_OPEN)
    report = make_report(ds, ["execution_time_s"], ["K0"])
    result = validate(ds, report)
    assert _requirements(ds, result.oracle.index).performance == 100.0
    assert _requirements(ds, result.reduced.index).performance == 105.0
    assert not result.picks_agree
    assert result.percent_differences["performance_s"] == -0.05
    assert result.max_negative_pct == 0.05


def test_validate_requires_baseline_row(derived_dataset, default_report):
    baseline = derived_dataset.space.baseline_configuration()
    rows = [i for i, c in enumerate(derived_dataset.configs()) if c != baseline]
    assert len(rows) == len(derived_dataset) - 1
    no_baseline = SweepDataset(
        derived_dataset.space,
        derived_dataset.levels[rows],
        derived_dataset.monitors[rows],
        derived_dataset.requirements[rows],
        dict(derived_dataset.metadata),
        derived_dataset.requirement_spec,
    )
    with pytest.raises(ConfigError, match="baseline"):
        validate(no_baseline, default_report)


@pytest.mark.parametrize("name, oracle, reduced, pct", [
    ("cost", 0.0, 0.0, 0.0),
    ("cost", 0.0, 3.0, -1.0),
    ("availability", 1.0, 0.99, -1.0),  # no unavailability against some
])
def test_zero_oracle_value_caps_the_difference_at_one_unit(name, oracle, reduced, pct):
    assert _percent_difference(name, oracle, reduced) == pct


@pytest.mark.parametrize("name, baseline, picked, ratio", [
    ("cost", 0.0, 0.0, 1.0),
    ("cost", 5.0, 0.0, None),
    ("availability", 0.99, 1.0, None),  # a pick with no unavailability
])
def test_zero_picked_value_has_a_ratio_only_against_zero(name, baseline, picked, ratio):
    assert _improvement_ratio(name, baseline, picked) == ratio


def test_improvement_ratios_are_finite_and_positive(derived_dataset, default_report):
    result = validate(derived_dataset, default_report)
    for ratios in (result.oracle_improvement, result.reduced_improvement):
        for name in REQUIREMENT_NAMES:
            assert ratios[name] is not None
            assert ratios[name] > 0.0
            assert math.isfinite(ratios[name])


def test_oracle_score_never_beaten_by_reduced_pick(derived_dataset, default_report):
    result = validate(derived_dataset, default_report)
    scores = score_requirements(derived_dataset)
    reduced_index = derived_dataset.index_of(result.reduced.config)
    assert result.oracle.score <= scores[reduced_index] + 1e-12
    assert result.max_negative_pct >= 0.0


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_reduced_search_never_beats_oracle_on_random_datasets(seed):
    rng = np.random.default_rng(seed)
    base = rng.normal(0.0, 1.0, 16)
    perf = 300.0 + 60.0 * base + rng.normal(0.0, 15.0, 16)
    perf = np.clip(perf, 50.0, None)
    power = np.clip(60.0 + 8.0 * rng.normal(0.0, 1.0, 16), 10.0, None)
    avail = np.clip(0.95 + 0.02 * base, 0.0, 1.0)
    cost = np.clip(5000.0 + 500.0 * base + rng.normal(0.0, 200.0, 16), 100.0, None)
    ds = dataset_from_requirements(perf, power, avail, cost,
                                   monitor_seed=seed, spec=WIDE_OPEN)
    report = make_report(ds, ["execution_time_s", "cpu_power_w"], ["K0", "K1"])
    result = validate(ds, report)
    assert result.max_negative_pct >= 0.0
    scores = score_requirements(ds)
    reduced_index = ds.index_of(result.reduced.config)
    assert result.oracle.score <= scores[reduced_index] + 1e-12


def test_validation_result_serialization(derived_dataset, default_report):
    result = validate(derived_dataset, default_report)
    payload = result.to_json_dict(derived_dataset)
    assert set(payload) >= {
        "oracle", "reduced", "picks_agree", "percent_differences",
        "max_negative_pct", "oracle_improvement_vs_baseline",
        "reduced_improvement_vs_baseline",
    }
    assert payload["picks_agree"] == result.picks_agree
    text = "\n".join(render_validation(payload))
    assert "oracle" in text.lower()
    assert "worst regression" in text.lower()
