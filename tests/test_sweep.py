"""Knob space enumeration, encoding, z-scores and CSV round-trips."""

import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpckit.errors import DegenerateSeriesError, IngestionError
from hpckit.sweep import (
    Configuration,
    KnobDef,
    KnobLevel,
    KnobSpace,
    MonitorVector,
    RequirementValues,
    encode_knob_column,
    enumerate_configs,
    enumeration_rank,
    export_csv_string,
    ingest_csv,
    render_value,
    zscore,
)

from util import build_dataset, monitor_vector, requirement_values, space_of


# ---------------------------------------------------------------- enumeration


def test_default_space_enumerates_128_configs(default_space):
    configs = enumerate_configs(default_space)
    assert len(configs) == 128
    assert default_space.size() == 128


def test_single_binary_knob_enumerates_two_configs():
    configs = enumerate_configs(space_of(2))
    assert [c.levels for c in configs] == [(0,), (1,)]


def test_3x2_space_order_is_lexicographic():
    configs = enumerate_configs(space_of(3, 2))
    assert len(configs) == 6
    assert configs[0].levels == (0, 0)
    assert configs[-1].levels == (2, 1)
    # first knob varies slowest
    assert [c.levels for c in configs[:3]] == [(0, 0), (0, 1), (1, 0)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=5))
def test_enumeration_size_and_uniqueness(sizes):
    space = space_of(*sizes)
    configs = enumerate_configs(space)
    assert len(configs) == math.prod(sizes)
    assert len({c.levels for c in configs}) == len(configs)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=4))
def test_enumeration_rank_matches_list_position(sizes):
    space = space_of(*sizes)
    for i, config in enumerate(enumerate_configs(space)):
        assert enumeration_rank(space, config) == i


# ------------------------------------------------------------------- encoding


def test_dvfs_column_uses_physical_frequencies(default_space):
    configs = [Configuration((i, 0, 0, 0, 0, 0)) for i in range(4)]
    column = encode_knob_column(default_space, "DVFS", configs)
    assert np.array_equal(column, [1.2, 1.7, 2.2, 2.6])


def test_binary_knob_encodes_as_level_index(default_space):
    configs = [
        Configuration((0, 0, 0, 0, 0, 0)),
        Configuration((0, 1, 0, 0, 0, 0)),
    ]
    column = encode_knob_column(default_space, "SMT", configs)
    assert np.array_equal(column, [0.0, 1.0])


def test_single_config_encodes_to_length_one():
    space = space_of(2, 2)
    column = encode_knob_column(space, "K0", [Configuration((1, 0))])
    assert column.shape == (1,)
    assert column[0] == 1.0


# -------------------------------------------------------------------- zscore


def test_zscore_unit_example():
    assert np.array_equal(zscore(np.array([1.0, 2.0, 3.0])), [-1.0, 0.0, 1.0])


def test_zscore_two_points():
    z = zscore(np.array([10.0, 20.0]))
    assert math.isclose(z[0], -0.7071067811865476, rel_tol=1e-12)
    assert math.isclose(z[1], +0.7071067811865476, rel_tol=1e-12)


def test_zscore_constant_series_is_degenerate():
    with pytest.raises(DegenerateSeriesError):
        zscore(np.array([5.0, 5.0, 5.0]))


series_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    min_size=2,
    max_size=50,
).filter(lambda xs: max(xs) - min(xs) > 1e-6)


@settings(max_examples=100, deadline=None)
@given(series_strategy)
def test_zscore_normalizes_mean_and_sd(xs):
    z = zscore(np.array(xs))
    assert abs(z.mean()) < 1e-9
    assert math.isclose(z.std(ddof=1), 1.0, rel_tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(series_strategy)
def test_zscore_is_idempotent(xs):
    z = zscore(np.array(xs))
    assert np.allclose(zscore(z), z, atol=1e-12, rtol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    series_strategy,
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=-1e4, max_value=1e4),
)
@example([0.0, 0.05], 2**-9, 2048.0)
def test_zscore_ignores_positive_affine_transforms(xs, a, b):
    # a*x + b is rounded before zscore sees it: an error of about
    # eps*|a*x + b| per value, divided by the spread a*sd(x)
    x = np.array(xs)
    eps = np.finfo(float).eps
    condition = (abs(b) + a * np.abs(x).max()) / (a * x.std(ddof=1))
    assert np.allclose(zscore(a * x + b), zscore(x), atol=8 * eps * condition, rtol=0)


# ------------------------------------------------------------ knob definition


def test_knobdef_rejects_single_level():
    with pytest.raises(ValueError):
        KnobDef("K", (KnobLevel("only"),), baseline=0)


def test_knobdef_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        KnobDef("K", (KnobLevel("a"), KnobLevel("a")), baseline=0)


def test_knobdef_rejects_baseline_out_of_range():
    with pytest.raises(ValueError):
        KnobDef("K", (KnobLevel("a"), KnobLevel("b")), baseline=2)


def test_knobdef_rejects_partial_numeric_values():
    with pytest.raises(ValueError):
        KnobDef("K", (KnobLevel("a", 1.0), KnobLevel("b")), baseline=0)


def test_knobdef_rejects_non_increasing_values():
    with pytest.raises(ValueError):
        KnobDef("K", (KnobLevel("a", 2.0), KnobLevel("b", 1.0)), baseline=0)


def test_knob_space_json_round_trip(default_space):
    clone = KnobSpace.from_json_dict(default_space.to_json_dict())
    assert clone == default_space


# ------------------------------------------------------------- vector types


def test_monitor_vector_rejects_peak_below_cpu_power():
    with pytest.raises(ValueError):
        monitor_vector(cpu_power=90.0, peak_power=80.0)


def test_monitor_vector_rejects_nonpositive_execution_time():
    with pytest.raises(ValueError):
        monitor_vector(execution_time=0.0)


def test_monitor_vector_rejects_non_finite_values():
    with pytest.raises(ValueError):
        monitor_vector(ipc=float("nan"))


def test_requirement_values_reject_energy_mismatch():
    with pytest.raises(ValueError):
        RequirementValues(
            performance=100.0, power=50.0, energy=4000.0,
            availability=0.99, cost=1000.0,
        )


def test_requirement_values_reject_availability_above_one():
    with pytest.raises(ValueError):
        requirement_values(availability=1.5)


# ------------------------------------------------------------ CSV round trip


def _row_values(row):
    values = list(row.monitors.as_array())
    if row.requirements is not None:
        values += list(row.requirements.as_array())
    return np.array(values)


def _assert_same_dataset(a, b):
    assert a.space == b.space
    assert a.metadata == b.metadata
    assert len(a) == len(b)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.config == rb.config
        assert (ra.requirements is None) == (rb.requirements is None)
        np.testing.assert_allclose(_row_values(ra), _row_values(rb), rtol=1e-11)


def test_round_trip_of_simulated_sweep(raw_dataset):
    text = export_csv_string(raw_dataset)
    back = ingest_csv(io.StringIO(text), raw_dataset.space)
    assert back.is_complete and len(back) == 128
    _assert_same_dataset(raw_dataset, back)
    # after one rendering pass the decimal form is a fixed point
    assert export_csv_string(back) == text


def test_round_trip_of_derived_sweep(derived_dataset):
    text = export_csv_string(derived_dataset)
    back = ingest_csv(io.StringIO(text), derived_dataset.space)
    assert back.is_derived
    _assert_same_dataset(derived_dataset, back)
    assert export_csv_string(back) == text


positive = st.floats(min_value=1e-3, max_value=1e9, allow_nan=False, width=64)


@st.composite
def random_dataset(draw):
    space = space_of(4)
    mons = []
    reqs = []
    for _ in range(4):
        cpu = draw(positive)
        peak_extra = draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
        perf = draw(positive)
        power = draw(positive)
        mons.append(
            monitor_vector(
                execution_time=draw(positive),
                ipc=draw(positive),
                dram_power=draw(positive),
                cpu_power=cpu,
                peak_power=cpu + peak_extra,
                cpu_temperature=draw(st.floats(min_value=-50, max_value=150)),
                mpki=draw(positive),
                server_mtbf=draw(positive),
                system_mtbf=draw(positive),
                capex=draw(positive),
                opex=draw(positive),
            )
        )
        reqs.append(
            RequirementValues(
                performance=perf,
                power=power,
                energy=perf * power,
                availability=draw(st.floats(min_value=0.0, max_value=1.0)),
                cost=draw(positive),
            )
        )
    metadata = {"seed": "7", "note": draw(st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="\r\n"),
        max_size=30,
    ))}
    return build_dataset(space, mons, reqs, metadata=metadata)


def _with_metadata(metadata):
    space = space_of(4)
    return build_dataset(space, [monitor_vector()] * 4, metadata=metadata)


@settings(max_examples=100, deadline=None)
@given(random_dataset())
@example(_with_metadata({"note": " x "}))
@example(_with_metadata({"note": " "}))
@example(_with_metadata({"a": "b: c", " key ": "#"}))
@example(_with_metadata({"a:b": "c"}))
@example(_with_metadata({"note": "a\nb"}))
@example(_with_metadata({"note": "a\rb"}))
@example(_with_metadata({"a\nb": "c"}))
def test_round_trip_of_random_datasets(ds):
    unwritable = [key for key, value in ds.metadata.items()
                  if ":" in key or any(c in key + value for c in "\r\n")]
    if unwritable:
        with pytest.raises(ValueError, match=re.escape(repr(min(unwritable)))):
            export_csv_string(ds)
        return
    text = export_csv_string(ds)
    back = ingest_csv(io.StringIO(text), ds.space)
    _assert_same_dataset(ds, back)
    assert export_csv_string(back) == text


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, width=64))
def test_rendered_values_parse_back_within_12_digits(x):
    assert math.isclose(float(render_value(x)), x, rel_tol=1e-11, abs_tol=1e-11)


# ---------------------------------------------------------- ingestion errors


def test_ingest_rejects_duplicate_configuration(raw_dataset):
    lines = export_csv_string(raw_dataset).splitlines(keepends=True)
    data_start = next(i for i, l in enumerate(lines) if not l.startswith("#")) + 1
    lines.append(lines[data_start])
    with pytest.raises(IngestionError, match="[Dd]uplicate"):
        ingest_csv(io.StringIO("".join(lines)), raw_dataset.space)


def test_ingest_rejects_empty_data_section(raw_dataset):
    lines = export_csv_string(raw_dataset).splitlines(keepends=True)
    # keep comments and the header line, drop every data row
    kept = []
    header_seen = False
    for line in lines:
        if line.startswith("#"):
            kept.append(line)
        elif not header_seen:
            kept.append(line)
            header_seen = True
    with pytest.raises(IngestionError, match="no rows"):
        ingest_csv(io.StringIO("".join(kept)), raw_dataset.space)


def test_ingest_names_missing_column(raw_dataset):
    text = export_csv_string(raw_dataset).replace("mon:cpu_power_w", "mon:renamed")
    with pytest.raises(IngestionError, match="cpu_power_w"):
        ingest_csv(io.StringIO(text), raw_dataset.space)


def test_ingest_names_bad_value_row(raw_dataset):
    lines = export_csv_string(raw_dataset).splitlines()
    data_start = next(i for i, l in enumerate(lines) if not l.startswith("#")) + 1
    row = lines[data_start].split(",")
    row[-1] = "not-a-number"
    lines[data_start] = ",".join(row)
    with pytest.raises(IngestionError):
        ingest_csv(io.StringIO("\n".join(lines) + "\n"), raw_dataset.space)


def test_ingest_rejects_unknown_knob_level(raw_dataset):
    lines = export_csv_string(raw_dataset).splitlines()
    data_start = next(i for i, l in enumerate(lines) if not l.startswith("#")) + 1
    row = lines[data_start].split(",")
    row[0] = "9.9GHz"
    lines[data_start] = ",".join(row)
    with pytest.raises(IngestionError):
        ingest_csv(io.StringIO("\n".join(lines) + "\n"), raw_dataset.space)
