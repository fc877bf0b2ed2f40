"""Knob space enumeration, encoding, z-scores and CSV round-trips."""

import csv
import hashlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpckit.defaults import (
    default_availability_model,
    default_cost_model,
    default_effects,
    default_fault_model,
    default_knob_space,
    default_requirement_spec,
    default_workload,
)
from hpckit.errors import DegenerateSeriesError, IngestionError
from hpckit.metrics import derive_dataset
from hpckit.reducer import reduce
from hpckit.search import oracle_best, validate
from hpckit.simulator import generate_sweep
from hpckit.sweep import (
    MONITOR_FIELDS,
    REQUIREMENT_FIELDS,
    Configuration,
    KnobDef,
    KnobLevel,
    KnobSpace,
    SweepDataset,
    enumerate_configs,
    enumeration_rank,
    export_csv_string,
    ingest_csv,
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


@pytest.mark.parametrize("levels, message", [
    ((0, 1), "configuration has 2 levels, space has 3 knobs"),
    ((0, 1, 2, 0), "configuration has 4 levels, space has 3 knobs"),
    ((0, 3, 0), "level index 3 out of range for knob 'K1'"),
    ((0, 0, -1), "level index -1 out of range for knob 'K2'"),
])
def test_enumeration_rank_rejects_a_configuration_outside_the_space(levels, message):
    with pytest.raises(ValueError, match=message):
        enumeration_rank(space_of(2, 3, 2), Configuration(levels))


# ------------------------------------------------------------------- encoding


def _dataset_of(space, configs, monitors=None, requirements=None):
    """A dataset over ``configs``, every row with ``monitors`` or the default values."""
    return SweepDataset(space, [c.levels for c in configs],
                        [monitors or monitor_vector()] * len(configs),
                        None if requirements is None else [requirements] * len(configs))


def test_dvfs_column_uses_physical_frequencies(default_space):
    configs = [Configuration((i, 0, 0, 0, 0, 0)) for i in range(4)]
    column = _dataset_of(default_space, configs).knob_column("DVFS")
    assert np.array_equal(column, [1.2, 1.7, 2.2, 2.6])


def test_binary_knob_encodes_as_level_index(default_space):
    configs = [
        Configuration((0, 0, 0, 0, 0, 0)),
        Configuration((0, 1, 0, 0, 0, 0)),
    ]
    column = _dataset_of(default_space, configs).knob_column("SMT")
    assert np.array_equal(column, [0.0, 1.0])


def test_single_config_encodes_to_length_one():
    space = space_of(2, 2)
    column = _dataset_of(space, [Configuration((1, 0))]).knob_column("K0")
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_knob_space_rejects_non_finite_level_values(default_space, value):
    data = default_space.to_json_dict()
    data["knobs"][0]["levels"][3]["value"] = value
    with pytest.raises(ValueError, match="value must be finite"):
        KnobSpace.from_json_dict(data)


def _underived_pair() -> SweepDataset:
    return build_dataset(space_of(2), [monitor_vector()] * 2)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: KnobSpace(()), ValueError,
                 "knob space must contain at least one knob", id="empty space"),
    pytest.param(lambda: KnobSpace(space_of(2).knobs * 2), ValueError,
                 "knob names must be unique", id="duplicate knob names"),
    pytest.param(lambda: space_of(2).knob("K9"), KeyError,
                 "no knob named 'K9'", id="unknown knob"),
    pytest.param(lambda: zscore([1.0]), ValueError,
                 "zscore needs a 1-d series with at least 2 values", id="short series"),
    pytest.param(lambda: zscore([[1.0, 2.0], [3.0, 4.0]]), ValueError,
                 "zscore needs a 1-d series with at least 2 values", id="2-d series"),
    pytest.param(lambda: SweepDataset(space_of(2), np.empty((0, 1), int), np.empty((0, 11))),
                 ValueError, "dataset must contain at least one row", id="no rows"),
    pytest.param(lambda: SweepDataset(space_of(2), [(0,), (1,)], [monitor_vector()[:10]] * 2),
                 ValueError, "monitors must have shape (2, 11), got (2, 10)", id="wrong shape"),
    pytest.param(lambda: _underived_pair().monitor_column("bogus"), KeyError,
                 "unknown monitor 'bogus'", id="unknown monitor"),
    pytest.param(lambda: _underived_pair().requirement_column("bogus"), KeyError,
                 "unknown requirement 'bogus'", id="unknown requirement"),
    pytest.param(lambda: _underived_pair().requirement_column("cost"), ValueError,
                 "dataset has underived rows; derive requirements first", id="underived"),
])
def test_bad_argument_is_rejected_with_its_message(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_knob_space_json_round_trip(default_space):
    clone = KnobSpace.from_json_dict(default_space.to_json_dict())
    assert clone == default_space


# ------------------------------------------------------------- row checks
# A dataset checks each row's values.


def _one_row(monitors, requirements=None):
    return _dataset_of(space_of(2), [Configuration((0,))], monitors, requirements)


def test_monitor_vector_rejects_peak_below_cpu_power():
    with pytest.raises(ValueError, match="row 0: peak_power must be at least cpu_power"):
        _one_row(monitor_vector(cpu_power=90.0, peak_power=80.0))


def test_monitor_vector_rejects_nonpositive_execution_time():
    with pytest.raises(ValueError, match="row 0: execution_time must be positive"):
        _one_row(monitor_vector(execution_time=0.0))


def test_monitor_vector_rejects_non_finite_values():
    with pytest.raises(ValueError, match="row 0: monitor ipc must be finite, got nan"):
        _one_row(monitor_vector(ipc=float("nan")))


def test_requirement_values_reject_energy_mismatch():
    with pytest.raises(ValueError, match=re.escape("(4000.0 vs 5000.0)")):
        _one_row(monitor_vector(), requirement_values(
            performance=100.0, power=50.0, energy=4000.0,
            availability=0.99, cost=1000.0,
        ))


def test_requirement_values_reject_availability_above_one():
    with pytest.raises(ValueError, match=re.escape("availability must lie in [0, 1]")):
        _one_row(monitor_vector(), requirement_values(availability=1.5))


# ------------------------------------------------------------ CSV round trip


def _values(ds):
    return ds.monitors if ds.requirements is None else np.hstack([ds.monitors, ds.requirements])


def _assert_same_dataset(a, b):
    assert a.space == b.space
    assert a.metadata == b.metadata
    assert len(a) == len(b)
    assert a.configs() == b.configs()
    assert a.is_derived == b.is_derived
    np.testing.assert_allclose(_values(a), _values(b), rtol=1e-11)


def test_round_trip_of_simulated_sweep(raw_dataset):
    text = export_csv_string(raw_dataset)
    back = ingest_csv(io.StringIO(text), raw_dataset.space)
    assert len(back) == back.space.size() == 128
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
            requirement_values(
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
    # the CSV writer renders every number as format(x, '.12g')
    assert math.isclose(float(format(x, ".12g")), x, rel_tol=1e-11, abs_tol=1e-11)


# ------------------------------------------------------------ column checks

# Edge values around every row rule: signs, zero, bounds, infinities, NaN.
edge = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 1e-300, 1e308, math.inf, -math.inf, math.nan])
# energy relative to performance * power, around math.isclose's 1e-9 tolerances
energy_offset = st.sampled_from([0.0, 5e-10, 1e-9, 2e-9, -1e-9, -3e-9])
# (row, "mon" or "req", column, value): an edge value put into one cell
cell_fault = st.tuples(st.integers(0, 3), st.sampled_from(["mon", "req"]),
                       st.integers(0, 10), edge)


def _row_fault(m, r):
    """The scalar checks on one row, in reporting order."""
    mon = dict(zip((attr for _, attr in MONITOR_FIELDS), m))
    req = dict(zip((attr for _, attr in REQUIREMENT_FIELDS), r))
    for name, v in mon.items():
        if not math.isfinite(v):
            return f"monitor {name} must be finite, got {v!r}"
    if mon["execution_time"] <= 0:
        return "execution_time must be positive"
    for name in ("dram_power", "cpu_power", "peak_power", "mpki", "capex", "opex"):
        if mon[name] < 0:
            return f"monitor {name} must be non-negative"
    if mon["peak_power"] < mon["cpu_power"]:
        return "peak_power must be at least cpu_power"
    if mon["server_mtbf"] <= 0 or mon["system_mtbf"] <= 0:
        return "MTBF monitors must be positive"
    for name, v in req.items():
        if not math.isfinite(v):
            return f"requirement {name} must be finite, got {v!r}"
    if not 0.0 <= req["availability"] <= 1.0:
        return "availability must lie in [0, 1]"
    for name in ("performance", "power", "energy", "cost"):
        if req[name] < 0:
            return f"requirement {name} must be non-negative"
    product = req["performance"] * req["power"]
    if not math.isclose(req["energy"], product, rel_tol=1e-9, abs_tol=1e-9):
        return f"energy must equal performance times power ({req['energy']!r} vs {product!r})"
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(energy_offset, min_size=4, max_size=4), st.lists(cell_fault, max_size=2))
def test_column_checks_reject_exactly_what_the_row_types_reject(offsets, faults):
    # the scalar checks above are the reference: a dataset accepts its
    # columns only when every row passes them, and otherwise names the
    # first bad row and its first failed check
    monitors = [list(monitor_vector()) for _ in offsets]
    requirements = [list(requirement_values()) for _ in offsets]
    for r, offset in zip(requirements, offsets):
        r[2] += offset * r[2]
    for row, kind, column, value in faults:
        if kind == "mon":
            monitors[row][column] = value
        else:
            requirements[row][column % 5] = value
    first_bad = next((f"row {i}: {fault}" for i, (m, r) in enumerate(zip(monitors, requirements))
                      if (fault := _row_fault(m, r)) is not None), None)
    levels = [c.levels for c in enumerate_configs(space_of(4))]
    if first_bad is None:
        ds = SweepDataset(space_of(4), levels, monitors, requirements)
        assert (ds.monitors.tolist(), ds.requirements.tolist()) == (monitors, requirements)
    else:
        with pytest.raises(ValueError) as exc:
            SweepDataset(space_of(4), levels, monitors, requirements)
        assert str(exc.value) == first_bad


@pytest.mark.parametrize("energy", [1e-9, 2e-9])
def test_energy_check_keeps_math_isclose_boundary(energy):
    # |energy - performance * power| equal to abs_tol passes, as in math.isclose
    req = [0.0, 70.0, energy, 0.995, 5050.0]
    mons = [list(monitor_vector())] * 2
    if math.isclose(energy, 0.0, rel_tol=1e-9, abs_tol=1e-9):
        SweepDataset(space_of(2), [(0,), (1,)], mons, [req] * 2)
    else:
        with pytest.raises(ValueError, match="row 0: energy must equal"):
            SweepDataset(space_of(2), [(0,), (1,)], mons, [req] * 2)


def test_dataset_rejects_out_of_range_levels_and_duplicates():
    mons = [list(monitor_vector())] * 4
    with pytest.raises(ValueError, match="row 2: level index 4 out of range for knob 'K0'"):
        SweepDataset(space_of(4), [(0,), (1,), (4,), (3,)], mons)
    with pytest.raises(ValueError, match=r"^row 3: duplicate configuration \(1,\)$"):
        SweepDataset(space_of(4), [(0,), (1,), (2,), (1,)], mons)
    # level 5 ranks as level 3, row 2's, yet its range fault is named
    with pytest.raises(ValueError, match=r"^row 3: level index 5 out of range for knob 'K0'$"):
        SweepDataset(space_of(4), [(0,), (1,), (3,), (5,)], mons)


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


def _comments_only(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True) if line.startswith("#"))


@pytest.mark.parametrize("edit, message", [
    (lambda text: "", "empty file: no header row"),
    (_comments_only, "empty file: no header row"),
    (lambda text: text.replace("req:availability", "req:uptime"),
     "partial requirement columns; missing req:availability"),
])
def test_ingest_rejects_a_file_without_a_usable_header(derived_dataset, edit, message):
    text = edit(export_csv_string(derived_dataset))
    with pytest.raises(IngestionError) as exc:
        ingest_csv(io.StringIO(text), derived_dataset.space)
    assert str(exc.value) == message


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


def _edited_csv(text, edits):
    """``text`` with data cells replaced; rows count from 0 after the header.

    An edit is (row, column, value); the column "copy_of" copies the
    whole row numbered ``value``, "drop_last" drops the last cell and
    "append" adds the cell ``value``.
    """
    lines = text.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = next(csv.reader([lines[start]]))
    rows = list(csv.reader(lines[start + 1:]))
    for row, column, value in edits:
        if column == "copy_of":
            rows[row] = list(rows[value])
        elif column == "drop_last":
            rows[row] = rows[row][:-1]
        elif column == "append":
            rows[row] = rows[row] + [value]
        else:
            rows[row][header.index(column)] = value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return "".join(lines[:start + 1]) + buf.getvalue()


# Messages recorded from the row-by-row reader before ingestion went
# columnar. "row N" counts data records, the header being row 1.
REJECTIONS = [
    ([(0, "mon:ipc", "abc")], "row 2, column mon:ipc: not a number: 'abc'"),
    ([(3, "mon:mpki", "nan")], "row 5, column mon:mpki: non-finite value 'nan'"),
    ([(4, "req:cost", "inf")], "row 6, column req:cost: non-finite value 'inf'"),
    ([(5, "mon:cpu_temp_c", "-inf")], "row 7, column mon:cpu_temp_c: non-finite value '-inf'"),
    ([(5, "knob:SMT", "Maybe")], "row 7: unknown level 'Maybe' for knob 'SMT'"),
    ([(7, "copy_of", 6)], "row 9: duplicate configuration (0, 0, 0, 1, 1, 0)"),
    ([(8, "drop_last", None)], "row 10: expected 22 cells, got 21"),
    ([(9, "mon:peak_power_w", "1")], "row 11: peak_power must be at least cpu_power"),
    ([(10, "mon:execution_time_s", "0")], "row 12: execution_time must be positive"),
    ([(10, "mon:execution_time_s", "-5")], "row 12: execution_time must be positive"),
    ([(11, "mon:dram_power_w", "-1")], "row 13: monitor dram_power must be non-negative"),
    ([(11, "mon:opex", "-1")], "row 13: monitor opex must be non-negative"),
    ([(12, "mon:server_mtbf_h", "0")], "row 14: MTBF monitors must be positive"),
    ([(12, "mon:system_mtbf_h", "-3")], "row 14: MTBF monitors must be positive"),
    ([(13, "req:availability", "1.5")], "row 15: availability must lie in [0, 1]"),
    ([(13, "req:availability", "-0.1")], "row 15: availability must lie in [0, 1]"),
    ([(14, "req:energy_j", "1")],
     "row 16: energy must equal performance times power (1.0 vs 26087.838221274964)"),
    ([(15, "req:cost", "-1")], "row 17: requirement cost must be non-negative"),
    ([(16, "req:power_w", "-2")], "row 18: requirement power must be non-negative"),
    # two faults in two rows: the earlier row is named, whatever its fault
    ([(20, "req:energy_j", "1"), (30, "knob:DVFS", "9.9GHz")],
     "row 22: energy must equal performance times power (1.0 vs 20850.396379766702)"),
    ([(40, "mon:ipc", "x"), (41, "drop_last", None)],
     "row 42, column mon:ipc: not a number: 'x'"),
    ([(70, "copy_of", 2), (71, "mon:ipc", "nan")],
     "row 72: duplicate configuration (0, 0, 0, 0, 1, 0)"),
    # two faults in one row: the knob cells are checked before the numbers
    ([(50, "knob:DVFS", "9.9GHz"), (50, "mon:ipc", "x")],
     "row 52: unknown level '9.9GHz' for knob 'DVFS'"),
    ([(60, "mon:peak_power_w", "1"), (60, "req:availability", "2")],
     "row 62: peak_power must be at least cpu_power"),
    ([(9, "append", "1")], "row 11: expected 22 cells, got 23"),
    # row 40 parses as row 8's levels, yet its label fault is named
    ([(40, "knob:DVFS", "9.9GHz")], "row 42: unknown level '9.9GHz' for knob 'DVFS'"),
    ([(70, "copy_of", 2), (70, "mon:ipc", "x")],
     "row 72: duplicate configuration (0, 0, 0, 0, 1, 0)"),
]


@pytest.mark.parametrize("edits, message", REJECTIONS)
def test_ingest_rejection_names_the_first_bad_row(derived_dataset, edits, message):
    # the default sweep at seed 12
    text = _edited_csv(export_csv_string(derived_dataset), edits)
    with pytest.raises(IngestionError) as exc:
        ingest_csv(io.StringIO(text), derived_dataset.space)
    assert str(exc.value) == message


@pytest.mark.parametrize("edits, message", [
    ([(1500, "mon:ipc", "abc")], "row 1502, column mon:ipc: not a number: 'abc'"),
    ([(1300, "copy_of", 5)], "row 1302: duplicate configuration (0, 5)"),
])
def test_ingest_rejection_past_the_first_block(edits, message):
    # 1600 rows: ingest parses records 1024 and on as a second block
    space = space_of(40, 40)
    ds = SweepDataset(space, [c.levels for c in enumerate_configs(space)],
                      [monitor_vector()] * 1600)
    with pytest.raises(IngestionError) as exc:
        ingest_csv(io.StringIO(_edited_csv(export_csv_string(ds), edits)), space)
    assert str(exc.value) == message


# ------------------------------------------------------ analysis byte identity


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _noop_space() -> KnobSpace:
    """The default space plus six binary knobs X0..X5 without any effect: 8192 rows."""
    extra = tuple(KnobDef(f"X{i}", (KnobLevel("off"), KnobLevel("on")), 0) for i in range(6))
    return KnobSpace(default_knob_space().knobs + extra)


# SHA-256s of the derived CSV, reduction JSON, coefficient table, oracle
# pick and validation JSON, recorded before the dataset went columnar.
# "csv" runs the sweep through export and ingest before deriving, as the
# command line does.
PINNED_ANALYSIS_DIGESTS = [
    ("default", 12, False, (
        "3a5694f05e7d6c3e640158b1f1613341cdc6d097c9778dc823fc1e98f68bbb21",
        "ca7e46635ccc868e7d5b0628bfe14365bc0196c5f0a6920d5821ff0c13a750e9",
        "d9359646affdcf869c51dae46b6232a930858847c16dec8b14fb7b1e05ca0d6e",
        "48498e76f8c5f83a3911ba70672c4116d2b89184dd08e4e9976c4f404287c569",
        "e1a8c0c47debf5d4d00fad000f98f08a62c76011ab92734cbd0cf1308efb0115")),
    ("default", 13, False, (
        "0c0192355e82a5abe8a2f831c4fc7fb2f58a72ae328fd1249b1a5e6b5c8b2fc0",
        "0571f4ac62338b2885cd373f038f0f5ac5e6f637131a1b3eb9ec714049286fab",
        "b3c56b341d647214bd88646b7acc917062f2919b3bd0a0e3fc54588c2b809960",
        "c03da099b3f95cc02726145bb813d1ea66932b8245a53c23bbb74c5f54d5f864",
        "4267f80d30c3cd808884b41710eea389e9eb2adb6862747d3db27178f7734894")),
    ("default", 14, False, (
        "5ee88663db6c18bcc0c5b5a087378efe85d98b5eb36d473a856a041fec8f0f2c",
        "5eff68f79e23c7de9bb2e785f51e9629b3ef3a7399739d6d73c11cff494e58b8",
        "bcbb3852d59899c24d7073103cbb2e96e7e7ec8db65d91444e3f3a2aae655d83",
        "6cf67f8e2554749353d6b8e4a15944dafa7ac1056ec889b990507989a7444c85",
        "987c280421a9033dfc4f7abdc811192943c7b2a7cc5abb0a8a9bd511c8abd716")),
    ("default", 15, False, (
        "294de7f4275ebb2592d624e76ef986b9d9fb8aa4a4079d3831d9327d5c2d882e",
        "c390890bed3c01885e97902d0ac867fb8dba876d44c23fab6a1435104cff8850",
        "14f00cd97e2401f0eae4370b24ed8772d1d02108abb9056510ba30bca9a9bbab",
        "11066d5826147f9db0712295f6d5df10b737780ae2ff55e0fdaeda47933edcb3",
        "8a212ec91c3cea756c5cffd98f266ab8584afe9a5364a12c893ddfb3b50ee013")),
    ("default", 16, False, (
        "8827ab1eaa60e4e953f2390cb57decc74e44ccad6213024d4ca989d83eb14c78",
        "8cc4667ac76ec84893cf4558824fe53e31b70f02138ff21ebc7db0e85ee01d4c",
        "c5d4accd0dd8d514a844271780b2bf77120790ac032f9dbab72ebf56366cac81",
        "a8379dc687c91aaf17ced380ee529937e59cbc0aec4d9854684d0b03d8654ec0",
        "3e23c90ef4d6198873fe7f0715e25269d67d1b8005b2f4b17062465e981d1de1")),
    ("default", 12, True, (
        "ab3e0aff89f04e73539643930555d6bf5a39c8a5c53067381ac8004d6f438a28",
        "56be9e3c6e41b3ded8f160aa61a7970ae892cc4343de16cb17a6fe4e0fea50d6",
        "d9359646affdcf869c51dae46b6232a930858847c16dec8b14fb7b1e05ca0d6e",
        "d8481486aa6049031d2ab0849a654750946b436fcd44d6d9d2178d81b88a3930",
        "038770a87038989c9bc2ad5869621f9ec77a094a8efd808a7f273be3b64d3a33")),
    ("noop", 12, True, (
        "6495503514fc1ac8a4ea09c773ba0d8e578a05a3b4262d955d99bab82ee3eec2",
        "7b29a73acf6bbc4c167cc4567943e83014a952d3a3d1acae5e4c4678759ab24a",
        "47558b3bdfeaa6f122864783e4aeca52cefec991df09b308a5673c5006d1f249",
        "7869831a158be90f18846a20a6a87388794be6be47df6a4d31af33933a34b4e1",
        "1a1331a9ab12b46a2b0044e1077e2cc489c786c9efa9e6d36bfd8abffd1e2b67")),
]


@pytest.mark.parametrize("space_name, seed, via_csv, digests", PINNED_ANALYSIS_DIGESTS)
def test_analysis_artifacts_match_pinned_digests(space_name, seed, via_csv, digests):
    space = _noop_space() if space_name == "noop" else default_knob_space()
    ds = generate_sweep(space, default_workload(), default_effects(),
                        default_fault_model(), seed)
    if via_csv:
        ds = ingest_csv(io.StringIO(export_csv_string(ds)), space)
    derived = derive_dataset(ds, default_availability_model(), default_cost_model(),
                             default_requirement_spec())
    report = reduce(derived)
    got = (
        _sha(export_csv_string(derived)),
        _sha(json.dumps(report.to_json_dict(), sort_keys=True)),
        _sha(report.coefficients_csv()),
        _sha(json.dumps(oracle_best(derived).to_json_dict(derived), sort_keys=True)),
        _sha(json.dumps(validate(derived, report).to_json_dict(derived), sort_keys=True)),
    )
    assert got == digests
