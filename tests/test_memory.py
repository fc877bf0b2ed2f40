"""Peak memory of the row-by-row stages on an 8192-row sweep.

The sweep is the ``pipeline-8192`` benchmark's: the default space plus six
binary knobs without effect, at seed 12. Each stage holds one block of
rows at a time as Python objects, so its ``tracemalloc`` peak stays well
under what holding the whole table cost. Each bound lies between the two
peaks, measured on CPython 3.11 with numpy 2.4 (whole table -> blocks), so a
stage that goes back to holding every row crosses it. A third peak, or
derive's second, is the one since the dataset keeps the fresh read-only
columns it is given and stores level indices as int8. Those bounds also lie
under the peak before it: generate or derive crosses its bound when the
dataset copies its columns again. Ingest's fourth peak is the one since it
joins one column group at a time, from C-ordered blocks, and frees that
group's blocks before the next. It crosses its bound when it holds every
block until all groups are joined, when it hands the dataset F-ordered
columns to copy, or when it parses levels as int64 again.
"""

import hashlib
import tracemalloc

import pytest

from hpckit.defaults import (
    default_availability_model,
    default_cost_model,
    default_effects,
    default_fault_model,
    default_knob_space,
    default_workload,
)
from hpckit.metrics import derive_dataset
from hpckit.simulator import generate_sweep
from hpckit.sweep import KnobDef, KnobLevel, KnobSpace, export_csv, export_csv_string, ingest_csv

GENERATE_PEAK_MB = 2.9  # 6.4 -> 4.0 -> 2.4
DERIVE_PEAK_MB = 3.6    # 4.3 -> 2.9
EXPORT_PEAK_MB = 3.5    # 6.6 -> 0.4
INGEST_PEAK_MB = 2.5    # 10.6 -> 4.1 -> 3.1 -> 2.2

# SHA-256 of export_csv_string(generate_sweep(...)) on this space at seed 12,
# as perfbench/digests.py prints it
RAW_8192_DIGEST = "3fbcba35495e3b9bbac787300efbfd9a120b0efd5c48975d8f1a480f12fe8529"


def traced_peak(compute, *args):
    """``compute(*args)`` and the most memory it held at once, in MB, as tracemalloc counts it."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    try:
        result = compute(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, (peak - before) / 1e6


class Discard:
    """A text file that keeps nothing written to it."""

    def write(self, text):
        return len(text)

    def writelines(self, lines):
        for _ in lines:
            pass


@pytest.fixture(scope="module")
def generated():
    noop = tuple(KnobDef(f"X{i}", (KnobLevel("off"), KnobLevel("on")), 0) for i in range(6))
    space = KnobSpace(default_knob_space().knobs + noop)
    return traced_peak(generate_sweep, space, default_workload(), default_effects(),
                       default_fault_model(), 12)


@pytest.fixture(scope="module")
def derived(generated):
    return traced_peak(derive_dataset, generated[0], default_availability_model(),
                       default_cost_model())


def test_generate_sweep_holds_no_row_objects(generated):
    raw, peak = generated
    assert len(raw) == 8192
    assert hashlib.sha256(export_csv_string(raw).encode()).hexdigest() == RAW_8192_DIGEST
    assert peak < GENERATE_PEAK_MB


def test_derive_dataset_holds_each_column_once(derived):
    _, peak = derived
    assert peak < DERIVE_PEAK_MB


def test_export_csv_formats_a_block_at_a_time(derived):
    _, peak = traced_peak(export_csv, derived[0], Discard())
    assert peak < EXPORT_PEAK_MB


def test_ingest_csv_parses_a_block_at_a_time(derived, tmp_path):
    path = tmp_path / "derived.csv"
    export_csv(derived[0], path)
    back, peak = traced_peak(ingest_csv, path, derived[0].space)
    assert peak < INGEST_PEAK_MB
    # every block edge round trips
    assert export_csv_string(back) == path.read_bytes().decode("utf-8")
