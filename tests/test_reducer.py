"""Correlation computation, pruning, mapping and knob selection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpckit.cli import render_reduction
from hpckit.errors import DegenerateSeriesError, MappingError
from hpckit.reducer import (
    CorrelationMatrix,
    ReductionReport,
    map_requirements_to_monitors,
    pearson,
    prune_correlated,
    reduce,
    select_knobs,
)
from hpckit.sweep import MONITOR_NAMES, SweepDataset

from util import (
    build_dataset,
    dataset_from_requirements,
    monitor_vector,
    planted_columns,
    requirement_values,
    space_of,
    textbook_pearson,
)


# -------------------------------------------------------------------- pearson


def test_pearson_exact_linear_relation():
    assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0


def test_pearson_exact_inverse_relation():
    assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0


def test_pearson_outlier_pair_matches_textbook_formula():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [1.0, 2.0, 3.0, 100.0]
    assert math.isclose(pearson(x, y), textbook_pearson(x, y), rel_tol=1e-12)


def test_pearson_rejects_degenerate_series():
    with pytest.raises(DegenerateSeriesError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateSeriesError):
        pearson([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])


def test_pearson_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson([1.0], [2.0])


def test_pearson_names_what_is_wrong_with_its_series():
    for x, y, message in (
        ([1.0, 2.0], [1.0, 2.0, 3.0], "pearson needs two series of equal length"),
        ([1.0, 2.0, 3.0], [3.0, 1.0], "pearson needs two series of equal length"),
        ([1.0], [2.0], "pearson needs 1-d series of at least 2 points"),
        ([[1.0, 2.0]], [[2.0, 1.0]], "pearson needs 1-d series of at least 2 points"),
    ):
        with pytest.raises(ValueError) as exc:
            pearson(x, y)
        assert str(exc.value) == message
    with pytest.raises(ValueError, match="^pearson needs two series of equal length$"):
        CorrelationMatrix.build([("x", [1.0, 2.0, 3.0])], [("y", [1.0, 2.0])])
    r = pearson([1.0, 2.0, 3.0, 5.0], [2.0, 1.0, 4.0, 3.0])
    assert type(r) is float and r == _reference_pearson([1.0, 2.0, 3.0, 5.0], [2.0, 1.0, 4.0, 3.0])


varied_series = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    min_size=2,
    max_size=60,
).filter(lambda xs: max(xs) - min(xs) > 1e-6)


@settings(max_examples=100, deadline=None)
@given(
    varied_series,
    st.floats(min_value=-5.0, max_value=5.0).filter(lambda a: abs(a) > 1e-3),
    st.floats(min_value=-1e3, max_value=1e3),
)
def test_pearson_of_affine_pair_is_exactly_sign_of_slope(xs, a, b):
    x = np.array(xs)
    assert pearson(x, a * x + b) == math.copysign(1.0, a)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=500), st.integers(min_value=0, max_value=2**31))
def test_pearson_matches_textbook_on_random_pairs(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    y = rng.normal(0.0, 1.0, n)
    r = pearson(x, y)
    assert -1.0 <= r <= 1.0
    assert math.isclose(r, textbook_pearson(x, y), rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=3, max_value=100),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=1e-2, max_value=1e3),
    st.floats(min_value=-1e3, max_value=1e3),
)
def test_pearson_symmetric_and_affine_invariant(n, seed, a, b):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    y = rng.normal(0.0, 1.0, n)
    r = pearson(x, y)
    assert math.isclose(pearson(y, x), r, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(pearson(a * x + b, y), r, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(pearson(x, a * y + b), r, rel_tol=1e-9, abs_tol=1e-9)


def _reference_pearson(x, y) -> float:
    """pearson a pair at a time: each series centered on its own ``mean``, norms and r by
    ``np.dot``; NaN where either norm is 0, snapped to +-1 within 1e-12, then clamped."""
    dx, dy = (np.asarray(s, dtype=float) - np.mean(s) for s in (x, y))
    sx, sy = (math.sqrt(float(np.dot(d, d))) for d in (dx, dy))
    if sx == 0.0 or sy == 0.0:
        return math.nan
    r = float(np.dot(dx, dy)) / (sx * sy)
    if 1.0 - abs(r) <= 1e-12:
        return math.copysign(1.0, r)
    return max(-1.0, min(1.0, r))


def _correlation_columns(rng, n, prefix, k):
    """``k`` random columns of ``n`` points: noisy, flat, or affine in an earlier column."""
    columns = []
    for j in range(k):
        kind = rng.integers(5)
        if kind == 0:
            values = np.full(n, rng.choice([0.0, 3.5, 0.1]))
        elif kind == 1 and columns:
            base = columns[rng.integers(len(columns))][1]
            values = rng.choice([-2.5, -1.0, 0.5, 3.0]) * base + rng.uniform(-50.0, 50.0)
        else:
            values = rng.normal(rng.uniform(-1e3, 1e3), 10.0 ** rng.uniform(-3, 3), n)
        columns.append((f"{prefix}{j}", values))
    return columns


@pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 15, 16, 17, 128, 129, 8192, 8193])
def test_correlation_matrix_entries_are_pairwise_pearson_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(12 if n < 8192 else 2):
        rows = _correlation_columns(rng, n, "r", int(rng.integers(1, 7)))
        cols = _correlation_columns(rng, n, "c", int(rng.integers(1, 12)))
        # (cols, cols) is one set against itself; list(cols) the same set as two sides
        for left, right in ((rows, cols), (cols, cols), (list(cols), cols)):
            table = CorrelationMatrix.build(left, right).values
            want = np.array([[_reference_pearson(x, y) for _, y in right] for _, x in left])
            assert table.tobytes() == want.tobytes()
            for (_, x), got in zip(left, table.tolist()):
                for (_, y), r in zip(right, got):
                    if math.isnan(r):
                        with pytest.raises(DegenerateSeriesError):
                            pearson(x, y)
                    else:
                        assert pearson(x, y) == r


def test_correlation_matrix_marks_zero_variance_and_snaps_affine_pairs():
    x = np.array([0.3, 1.7, -2.2, 5.1, 0.0, 9.9, 4.4, -7.5, 2.0])
    columns = [("x", x), ("up", 3.0 * x + 7.0), ("down", -0.25 * x + 1.0),
               ("flat", np.full(9, 2.5))]
    table = CorrelationMatrix.build(columns, columns).values
    assert table[:3, :3].tolist() == [[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    assert np.isnan(table[3]).all() and np.isnan(table[:, 3]).all()


def test_correlation_matrix_of_flat_and_rounding_flat_columns_is_the_pairwise_rule():
    # [0.1] * 3 sums to 0.30000000000000004, so its mean is not 0.1 and its
    # deviations are not 0: like the one-pair rule, the table gives it an r
    columns = [("tenth", np.array([0.1] * 3)), ("zero", np.zeros(3)), ("flat", np.full(3, 3.5)),
               ("up", np.array([1.0, 2.0, 3.0])), ("down", np.array([3.0, 2.0, 1.0])),
               ("bent", np.array([2.0, 4.0, 6.5]))]
    want = np.array([[_reference_pearson(x, y) for _, y in columns] for _, x in columns])
    assert CorrelationMatrix.build(columns, columns).values.tobytes() == want.tobytes()
    assert CorrelationMatrix.build(columns[3:], columns).values.tobytes() == want[3:].tobytes()
    assert np.isnan(want[1:3]).all() and not np.isnan(want[0, 3:]).any()


@pytest.mark.parametrize("e", [-600, -540, 531, 600])
def test_extreme_magnitude_columns_keep_their_coefficients_bit_for_bit(e):
    # squares of these deviations overflow (e > 0) or underflow (e < 0) a float
    x, y, z = (np.array(v) for v in ([1.0, 2.0, 3.0, 5.0], [2.0, 1.0, 4.0, 3.0], [4.0, 1.0, 1.0, 2.0]))
    assert math.isclose(pearson(x, y), 0.5292, abs_tol=1e-4)
    assert math.isclose(pearson(x, z), -0.4140, abs_tol=1e-4)
    scale = 2.0**e
    assert pearson(x * scale, y * scale) == pearson(x, y)
    assert pearson(x * scale, z * scale) == pearson(x, z)
    assert pearson(x * scale, y) == pearson(x, y)
    # deviations this wide overflow while the series is centered
    wide = np.array([1e308, -1e308, 5e307, 1.7e308])
    assert pearson(wide, y) == pearson(wide * 2.0**-1000, y)
    rng = np.random.default_rng(abs(e))
    columns = [("x", x), ("y", y), ("z", z)]
    long = [(f"c{j}", rng.normal(rng.uniform(-5.0, 5.0), 1.0, 129)) for j in range(4)]
    for plain in (columns, long):
        want = CorrelationMatrix.build(plain, plain).values.tobytes()
        scaled = [(n, c * scale) for n, c in plain]
        mixed = [(n, c * scale if j % 2 else c) for j, (n, c) in enumerate(plain)]
        for side in (scaled, mixed):
            assert CorrelationMatrix.build(side, side).values.tobytes() == want
            assert CorrelationMatrix.build(side, plain).values.tobytes() == want
            assert CorrelationMatrix.build(plain, side).values.tobytes() == want


# -------------------------------------------------------------------- pruning


def _uncorrelated_columns(n=16):
    # Walsh patterns over 16 rows: exactly orthogonal, exactly mean-free
    rows = np.arange(n)
    bit = lambda k: 1.0 - 2.0 * ((rows >> k) & 1)
    return bit


def test_prune_removes_proportional_energy_keeps_performance():
    rng = np.random.default_rng(5)
    perf = rng.uniform(100.0, 600.0, 16)
    cols = [
        ("performance", perf),
        ("energy", 64.0 * perf),  # power-of-two scale: bit-exact proportionality
        ("cost", rng.uniform(1e3, 1e4, 16)),
    ]
    kept, removed = prune_correlated(cols, 0.90)
    assert kept == ["performance", "cost"]
    assert len(removed) == 1
    assert removed[0].removed == "energy"
    assert removed[0].reason == "correlated"
    assert removed[0].partner == "performance"
    assert removed[0].coefficient == 1.0


def test_prune_keeps_mutually_uncorrelated_columns():
    bit = _uncorrelated_columns()
    cols = [("a", 10.0 + bit(0)), ("b", 20.0 + bit(1)), ("c", 30.0 + bit(2))]
    kept, removed = prune_correlated(cols, 0.90)
    assert kept == ["a", "b", "c"]
    assert removed == []


def test_prune_identical_triple_follows_tie_rule():
    base = np.array([1.0, 4.0, 2.0, 8.0, 5.0])
    cols = [("A", base), ("B", base.copy()), ("C", base.copy())]
    kept, removed = prune_correlated(cols, 0.90)
    # hand trace: (A,B) tie on summed |r| -> later-listed B removed;
    # then (A,C) tie -> C removed; A is the sole survivor
    assert kept == ["A"]
    assert [(r.removed, r.partner) for r in removed] == [("B", "A"), ("C", "A")]
    assert all(r.reason == "correlated" for r in removed)
    assert all(r.coefficient == 1.0 for r in removed)
    assert all(r.removed_sum == r.partner_sum for r in removed)


def test_prune_excludes_zero_variance_columns_up_front():
    bit = _uncorrelated_columns()
    cols = [("flat", np.full(16, 3.0)), ("a", 10.0 + bit(0)), ("b", 20.0 + bit(1))]
    kept, removed = prune_correlated(cols, 0.90)
    assert kept == ["a", "b"]
    assert [(r.removed, r.reason) for r in removed] == [("flat", "zero_variance")]


def test_prune_rejects_a_one_point_column():
    with pytest.raises(ValueError, match="at least 2 points"):
        prune_correlated([("a", np.array([1.0])), ("b", np.array([2.0]))], 0.90)


def test_prune_rejects_bad_thresholds_and_duplicate_labels():
    cols = [("a", np.array([1.0, 2.0, 3.0])), ("b", np.array([2.0, 1.0, 3.0]))]
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            prune_correlated(cols, bad)
    with pytest.raises(ValueError):
        prune_correlated([cols[0], cols[0]], 0.9)


@st.composite
def correlated_column_sets(draw):
    """Random column families with planted cross-correlation structure."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    n = 32
    n_cols = draw(st.integers(min_value=2, max_value=6))
    n_bases = draw(st.integers(min_value=1, max_value=3))
    bases = rng.normal(0.0, 1.0, (n_bases, n))
    cols = []
    for i in range(n_cols):
        base = bases[rng.integers(0, n_bases)]
        mix = draw(st.floats(min_value=0.0, max_value=1.0))
        series = mix * base + (1.0 - mix) * rng.normal(0.0, 1.0, n)
        cols.append((f"c{i}", series))
    threshold = draw(st.floats(min_value=0.3, max_value=0.95))
    return cols, threshold


@settings(max_examples=100, deadline=None)
@given(correlated_column_sets())
def test_prune_removals_replay_cleanly(params):
    """Every correlated removal names a partner that was still live and
    truly over threshold at the moment of removal, and the survivor set
    plus removals partitions the input."""
    cols, threshold = params
    by_name = dict(cols)
    kept, removed = prune_correlated(cols, threshold)
    assert sorted(kept + [r.removed for r in removed]) == sorted(by_name)
    live = {name for name, _ in cols}
    for record in removed:
        if record.reason == "zero_variance":
            live.discard(record.removed)
            continue
        assert record.reason == "correlated"
        assert record.partner in live
        r = pearson(by_name[record.removed], by_name[record.partner])
        assert abs(r) >= threshold - 1e-12
        assert math.isclose(r, record.coefficient, rel_tol=1e-12, abs_tol=1e-12)
        # the duel loser has the smaller summed |r|; ties fall to the
        # later-listed column
        assert record.removed_sum <= record.partner_sum + 1e-12
        live.discard(record.removed)
    assert live == set(kept)
    # no surviving pair still crosses the threshold
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            try:
                assert abs(pearson(by_name[a], by_name[b])) < threshold
            except DegenerateSeriesError:
                pass


# -------------------------------------------------------------------- mapping


def test_map_identity_requirement_maps_with_r_one():
    rng = np.random.default_rng(3)
    m3 = rng.uniform(0.0, 10.0, 12)
    monitors = [
        ("m1", rng.normal(0.0, 1.0, 12)),
        ("m2", rng.normal(0.0, 1.0, 12)),
        ("m3", m3),
    ]
    mapping = map_requirements_to_monitors([("req", m3.copy())], monitors)
    assert mapping["req"].monitor == "m3"
    assert mapping["req"].coefficient == 1.0


def test_map_recovers_negated_scaled_signal():
    rng = np.random.default_rng(4)
    m1 = rng.uniform(1.0, 5.0, 24)
    req = -2.0 * m1 + rng.normal(0.0, 1e-6, 24)
    monitors = [("m1", m1), ("m2", rng.normal(0.0, 1.0, 24))]
    mapping = map_requirements_to_monitors([("req", req)], monitors)
    assert mapping["req"].monitor == "m1"
    assert mapping["req"].coefficient <= -0.999999


def test_map_requires_monitors_and_defined_correlations():
    with pytest.raises(ValueError):
        map_requirements_to_monitors([("r", np.array([1.0, 2.0]))], [])
    flat = [("m", np.full(8, 2.0))]
    with pytest.raises(MappingError, match="r1"):
        map_requirements_to_monitors([("r1", np.arange(8.0))], flat)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_map_recovers_planted_pairings(seed):
    reqs, mons, planted = planted_columns(seed)
    mapping = map_requirements_to_monitors(reqs, mons)
    for req_name, expected_monitor in planted.items():
        assert mapping[req_name].monitor == expected_monitor


# ------------------------------------------------------------- knob selection


def test_constant_knob_is_never_selected():
    bit = _uncorrelated_columns()
    knobs = [("flat", np.zeros(16)), ("live", (1.0 - bit(0)) / 2.0)]
    monitors = [("m", 10.0 + bit(0))]
    selected, rejected, _ = select_knobs(knobs, monitors, 0.40)
    assert [k.knob for k in selected] == ["live"]
    assert [k.knob for k in rejected] == ["flat"]


def test_knob_equal_to_monitor_selected_with_r_one():
    series = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    selected, rejected, table = select_knobs(
        [("K", series)], [("m", series.copy() * 4.0)], 0.40
    )
    assert rejected == []
    assert selected[0].knob == "K"
    assert selected[0].monitor == "m"
    assert selected[0].coefficient == 1.0
    assert table.values[0, 0] == 1.0


def test_selection_threshold_is_inclusive():
    # r(knob, monitor) is exactly 0.5 by construction: monitor = knob on
    # half the rows, inverted on the other half, via Walsh patterns
    bit = _uncorrelated_columns()
    knob = bit(0)
    monitor = (bit(0) + bit(1)) / 2.0 + bit(2)  # r(knob, monitor) = 1/sqrt(6)... use direct mix
    knob_mix = bit(0) + bit(1)  # r vs bit(0) = 1/sqrt(2)
    selected, rejected, _ = select_knobs(
        [("K", bit(0))], [("m", knob_mix)], 1.0 / math.sqrt(2.0)
    )
    assert len(selected) + len(rejected) == 1
    got = (selected + rejected)[0]
    if math.isclose(abs(got.coefficient), 1.0 / math.sqrt(2.0), rel_tol=1e-12):
        assert selected, "coefficient exactly at threshold must select"


# --------------------------------------------------------------- full reduce


def test_reduce_requires_derived_dataset(raw_dataset):
    with pytest.raises(ValueError, match="derive"):
        reduce(raw_dataset)


def test_reduce_rejects_bad_thresholds(derived_dataset):
    with pytest.raises(ValueError):
        reduce(derived_dataset, requirement_threshold=0.0)
    with pytest.raises(ValueError):
        reduce(derived_dataset, knob_threshold=1.2)


def test_reduce_identical_monitor_columns_keep_one():
    rng = np.random.default_rng(9)
    space = space_of(4, 2)
    mons = []
    reqs = []
    for i in range(8):
        v = float(rng.uniform(10.0, 20.0))
        mons.append(
            monitor_vector(
                execution_time=v, ipc=v, dram_power=v, cpu_power=v,
                peak_power=v, cpu_temperature=v, mpki=v,
                server_mtbf=v, system_mtbf=v, capex=v, opex=v,
            )
        )
        perf = float(rng.uniform(100.0, 200.0))
        power = float(rng.uniform(50.0, 80.0))
        reqs.append(requirement_values(
            performance=perf, power=power,
            availability=float(rng.uniform(0.9, 0.99)),
            cost=float(rng.uniform(1e3, 1e4)),
        ))
    ds = build_dataset(space, mons, reqs)
    report = reduce(ds)
    assert len(report.kept_monitors) == 1


def test_reduce_orthogonal_dataset_prunes_nothing_rejects_all_knobs():
    space = space_of(2, 2, 2, 2)
    rows = np.arange(16)
    bit = lambda k: 1.0 - 2.0 * ((rows >> k) & 1)
    prod = lambda *ks: np.prod([bit(k) for k in ks], axis=0)
    perf = 400.0 + 10.0 * prod(0, 1)
    power = 60.0 + 2.0 * prod(0, 2)
    avail = 0.95 + 0.01 * prod(1, 2)
    cost = 5000.0 + 100.0 * prod(0, 3)
    mon_patterns = [
        prod(0, 1), prod(0, 2), prod(1, 2), prod(0, 3), prod(1, 3),
        prod(2, 3), prod(0, 1, 2), prod(0, 1, 3), prod(0, 2, 3),
        prod(1, 2, 3), prod(0, 1, 2, 3),
    ]
    mons = []
    reqs = []
    for i in range(16):
        base = [80.0 + 5.0 * p[i] for p in mon_patterns]
        mons.append(monitor_vector(
            execution_time=base[0], ipc=base[1], dram_power=base[2],
            cpu_power=base[3], peak_power=200.0 + 5.0 * mon_patterns[4][i],
            cpu_temperature=base[5], mpki=base[6], server_mtbf=base[7],
            system_mtbf=base[8], capex=base[9], opex=base[10],
        ))
        reqs.append(requirement_values(
            performance=float(perf[i]), power=float(power[i]),
            availability=float(avail[i]), cost=float(cost[i]),
        ))
    ds = build_dataset(space, mons, reqs)
    report = reduce(ds)
    correlated = [r for r in
                  list(report.removed_requirements) + list(report.removed_monitors)
                  if r.reason == "correlated"]
    assert correlated == []
    assert report.kept_requirements == ("performance_s", "power_w", "energy_j",
                                        "availability", "cost")
    # knob columns are single-bit Walsh patterns, monitors use only
    # multi-bit products: every knob-monitor correlation is exactly zero
    assert report.selected_knobs == ()
    assert {k.knob for k in report.rejected_knobs} == {"K0", "K1", "K2", "K3"}


def test_reduce_default_dataset_matches_published_findings(derived_dataset, default_report):
    report = default_report
    assert len(report.kept_monitors) <= 3
    assert set(report.kept_monitors) == {"execution_time_s", "cpu_power_w", "capex"}
    assert report.selected_knob_names == ("DVFS", "SMT", "Redundancy")
    assert {k.knob for k in report.rejected_knobs} == {"DRAM Protection", "Turbo Mode", "Prefetchers"}
    # every kept requirement is mapped onto a kept monitor
    assert set(report.requirement_to_monitor) == set(report.kept_requirements)
    assert {m.monitor for m in report.requirement_to_monitor.values()} == set(report.kept_monitors)


def test_reduce_is_deterministic(derived_dataset, default_report):
    again = reduce(derived_dataset)
    assert again.to_json_dict() == default_report.to_json_dict()


def test_reduce_thresholds_echoed_in_report(derived_dataset):
    report = reduce(derived_dataset, requirement_threshold=0.85, knob_threshold=0.35)
    assert report.requirement_threshold == 0.85
    assert report.knob_threshold == 0.35


def _permuted(ds: SweepDataset, order) -> SweepDataset:
    return SweepDataset(ds.space, ds.levels[order], ds.monitors[order], ds.requirements[order],
                        dict(ds.metadata))


def test_reduce_default_dataset_is_permutation_stable(derived_dataset, default_report):
    rng = np.random.default_rng(42)
    for order in (
        list(reversed(range(128))),
        list(rng.permutation(128)),
        list(rng.permutation(128)),
    ):
        permuted_report = reduce(_permuted(derived_dataset, order))
        assert permuted_report.to_json_dict() == default_report.to_json_dict()


def test_reduce_correlates_each_knob_by_its_level_values_in_rank_order(derived_dataset,
                                                                         default_report):
    ds = _permuted(derived_dataset, list(np.random.default_rng(7).permutation(128)))
    order = np.argsort(ds.rank, kind="stable")
    knobs = [(n, ds.knob_column(n)[order]) for n in ds.space.names]
    monitors = [(m, ds.monitor_column(m)[order]) for m in default_report.kept_monitors]
    want = CorrelationMatrix.build(knobs, monitors).values
    assert reduce(ds).knob_coefficients.values.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=2**31))
def test_reduce_synthetic_datasets_are_permutation_stable(seed, perm_seed):
    rng = np.random.default_rng(seed)
    base = rng.normal(0.0, 1.0, 16)
    perf = 300.0 + 50.0 * base + rng.normal(0.0, 10.0, 16)
    power = 60.0 + 5.0 * rng.normal(0.0, 1.0, 16)
    avail = np.clip(0.95 + 0.02 * base + rng.normal(0.0, 0.01, 16), 0.0, 1.0)
    cost = 5000.0 + 400.0 * base + rng.normal(0.0, 100.0, 16)
    ds = dataset_from_requirements(perf, power, avail, cost, monitor_seed=seed)
    report = reduce(ds)
    order = list(np.random.default_rng(perm_seed).permutation(16))
    assert reduce(_permuted(ds, order)).to_json_dict() == report.to_json_dict()


def test_report_json_round_trip(default_report):
    clone = ReductionReport.from_json_dict(default_report.to_json_dict())
    assert clone.to_json_dict() == default_report.to_json_dict()
    assert clone.selected_knob_names == default_report.selected_knob_names


def test_report_renders_text_and_csv(default_report):
    text = "\n".join(render_reduction(default_report.to_json_dict()))
    assert "DVFS" in text and "execution_time_s" in text
    csv = default_report.coefficients_csv()
    assert csv.splitlines()[0].startswith("knob")


def test_undefined_coefficient_is_nan_written_as_null_and_an_empty_cell(default_report):
    series = np.array([0.0, 1.0, 0.0, 1.0])
    _, _, table = select_knobs([("flat", np.zeros(4)), ("K", series)], [("m", 2.0 * series)], 0.40)
    assert math.isnan(table.values[0, 0]) and table.values[1, 0] == 1.0
    assert table.to_json_dict()["values"] == [[None], [1.0]]
    clone = CorrelationMatrix.from_json_dict(table.to_json_dict())
    np.testing.assert_array_equal(clone.values, table.values)  # NaN matches NaN
    report = ReductionReport.from_json_dict(
        {**default_report.to_json_dict(), "knob_coefficients": table.to_json_dict()})
    assert report.coefficients_csv() == "knob,m\nflat,\nK,1.000000\n"


@pytest.mark.parametrize("values", [[[0.5, 0.1, 0.2]], [[0.5, 0.1]] * 2, [[0.5]]])
def test_coefficient_cells_must_match_their_labels(values):
    with pytest.raises(ValueError, match="do not match"):
        CorrelationMatrix.from_json_dict({"rows": ["K"], "cols": ["m", "n"], "values": values})


def test_strongest_monitor_skips_undefined_and_ties_to_the_earlier_column():
    series = np.array([0.0, 1.0, 0.0, 1.0])
    monitors = [("flat", np.ones(4)), ("a", series), ("b", 3.0 - series)]
    selected, _, _ = select_knobs([("K", series)], monitors, 0.40)
    assert selected == [("K", "a", 1.0)]
