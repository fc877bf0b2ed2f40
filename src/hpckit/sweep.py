"""Sweep data model: knob spaces, configurations, measured rows, CSV I/O.

A sweep is the cross product of every knob's levels. Each row pairs one
configuration with the eleven monitor values measured under it and,
once derived, the five requirement values. Column order everywhere
follows the canonical monitor and requirement lists below.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import (FINITE, DegenerateSeriesError, IngestionError, RowError, require_int,
                     require_number)

# Canonical monitor order: (csv column name, short name in check messages).
MONITOR_FIELDS: tuple[tuple[str, str], ...] = (
    ("execution_time_s", "execution_time"),
    ("ipc", "ipc"),
    ("dram_power_w", "dram_power"),
    ("cpu_power_w", "cpu_power"),
    ("peak_power_w", "peak_power"),
    ("cpu_temp_c", "cpu_temperature"),
    ("mpki", "mpki"),
    ("server_mtbf_h", "server_mtbf"),
    ("system_mtbf_h", "system_mtbf"),
    ("capex", "capex"),
    ("opex", "opex"),
)
MONITOR_NAMES: tuple[str, ...] = tuple(name for name, _ in MONITOR_FIELDS)

# Canonical requirement order: (csv column name, short name in check messages).
REQUIREMENT_FIELDS: tuple[tuple[str, str], ...] = (
    ("performance_s", "performance"),
    ("power_w", "power"),
    ("energy_j", "energy"),
    ("availability", "availability"),
    ("cost", "cost"),
)
REQUIREMENT_NAMES: tuple[str, ...] = tuple(name for name, _ in REQUIREMENT_FIELDS)

_MONITOR_ATTRS = tuple(attr for _, attr in MONITOR_FIELDS)
_REQUIREMENT_ATTRS = tuple(attr for _, attr in REQUIREMENT_FIELDS)
_MONITOR_COLUMN = {name: j for j, name in enumerate(MONITOR_NAMES)}
_REQUIREMENT_COLUMN = {name: j for j, name in enumerate(REQUIREMENT_NAMES)}
_NON_NEGATIVE_MONITORS = ("dram_power", "cpu_power", "peak_power", "mpki", "capex", "opex")
_NON_NEGATIVE_REQUIREMENTS = ("performance", "power", "energy", "cost")

# Numbers are rendered with 12 significant digits so a written file
# re-reads to the same rendered values.
_FLOAT_FMT = ".12g"
# Rows the CSV writer formats, and records the reader parses, at a time:
# the text held in memory is one block's, not the whole table's.
_BLOCK_ROWS = 256


def _require_name(what: str, value) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{what} must be a non-empty string, got {value!r}")
    if "\r" in value or "\n" in value:  # a CSV line could not hold it
        raise ValueError(f"{what} may not contain a line break, got {value!r}")


@dataclass(frozen=True)
class KnobLevel:
    """One selectable setting of a knob.

    ``value`` carries the physical magnitude when the level has one
    (e.g. a frequency in GHz), stored as a float; purely categorical
    levels leave it None.
    """

    label: str
    value: float | None = None

    def __post_init__(self):
        _require_name("knob level label", self.label)
        if self.value is not None:
            value = require_number(f"knob level {self.label!r}: value", self.value, FINITE)
            object.__setattr__(self, "value", value)


@dataclass(frozen=True)
class KnobDef:
    """A named knob with at least two ordered levels and a baseline."""

    name: str
    levels: tuple[KnobLevel, ...]
    baseline: int

    def __post_init__(self):
        _require_name("knob name", self.name)
        if len(self.levels) < 2:
            raise ValueError(f"knob {self.name!r} needs at least 2 levels")
        labels = [lv.label for lv in self.levels]
        if len(set(labels)) != len(labels):
            raise ValueError(f"knob {self.name!r} has duplicate level labels")
        require_int(f"knob {self.name!r} baseline", self.baseline)
        if not 0 <= self.baseline < len(self.levels):
            raise ValueError(f"knob {self.name!r} baseline index out of range")
        values = [lv.value for lv in self.levels]
        with_value = [v for v in values if v is not None]
        if with_value and len(with_value) != len(values):
            raise ValueError(
                f"knob {self.name!r}: either every level has a numeric value or none does"
            )
        if with_value and any(b <= a for a, b in zip(with_value, with_value[1:])):
            raise ValueError(f"knob {self.name!r}: numeric level values must strictly increase")

    def level_index(self, label: str) -> int:
        for i, lv in enumerate(self.levels):
            if lv.label == label:
                return i
        raise KeyError(f"knob {self.name!r} has no level {label!r}")

    def numeric_value(self, index: int) -> float:
        """Numeric encoding of a level: physical value if present, else the index."""
        lv = self.levels[index]
        return lv.value if lv.value is not None else float(index)


@dataclass(frozen=True)
class KnobSpace:
    """An ordered collection of knobs spanning a sweep."""

    knobs: tuple[KnobDef, ...]

    def __post_init__(self):
        if not self.knobs:
            raise ValueError("knob space must contain at least one knob")
        names = [k.name for k in self.knobs]
        if len(set(names)) != len(names):
            raise ValueError("knob names must be unique")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(k.name for k in self.knobs)

    def knob(self, name: str) -> KnobDef:
        return self.knobs[self.knob_index(name)]

    @property
    def level_dtype(self) -> np.dtype:
        """The smallest signed integer dtype that holds every knob's largest level index."""
        # -len is -1 - top, which a signed dtype holds exactly when it holds top
        return np.min_scalar_type(-max(len(k.levels) for k in self.knobs))

    def knob_index(self, name: str) -> int:
        for i, k in enumerate(self.knobs):
            if k.name == name:
                return i
        raise KeyError(f"no knob named {name!r}")

    def baseline_configuration(self) -> "Configuration":
        return Configuration(tuple(k.baseline for k in self.knobs))

    def validate_configuration(self, config: "Configuration") -> None:
        if len(config.levels) != len(self.knobs):
            raise ValueError(
                f"configuration has {len(config.levels)} levels, space has {len(self.knobs)} knobs"
            )
        for knob, idx in zip(self.knobs, config.levels):
            if not 0 <= idx < len(knob.levels):
                raise ValueError(f"level index {idx} out of range for knob {knob.name!r}")

    def to_json_dict(self) -> dict:
        return {
            "knobs": [
                {
                    "name": k.name,
                    "levels": [
                        {"label": lv.label} if lv.value is None
                        else {"label": lv.label, "value": lv.value}
                        for lv in k.levels
                    ],
                    "baseline": k.baseline,
                }
                for k in self.knobs
            ]
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "KnobSpace":
        try:
            knobs = []
            for kd in data["knobs"]:
                levels = tuple(KnobLevel(lv["label"], lv.get("value")) for lv in kd["levels"])
                knobs.append(KnobDef(kd["name"], levels, kd.get("baseline", 0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad knob space description: {exc}") from exc
        return cls(tuple(knobs))


@dataclass(frozen=True)
class Configuration:
    """One point in a knob space, stored as per-knob level indices."""

    levels: tuple[int, ...]

    def labels(self, space: KnobSpace) -> tuple[str, ...]:
        space.validate_configuration(self)
        return tuple(k.levels[i].label for k, i in zip(space.knobs, self.levels))


def enumerate_configs(space: KnobSpace) -> list[Configuration]:
    """All configurations in lexicographic order, first knob slowest-varying."""
    ranges = [range(len(k.levels)) for k in space.knobs]
    return [Configuration(tuple(p)) for p in itertools.product(*ranges)]


def enumeration_rank(space: KnobSpace, config: Configuration) -> int:
    """Position of ``config`` within ``enumerate_configs(space)``; rejects one outside ``space``."""
    if len(config.levels) != len(space.knobs):
        space.validate_configuration(config)  # raises, naming the mismatch
    rank = 0
    for knob, idx in zip(space.knobs, config.levels):
        if not 0 <= idx < (size := len(knob.levels)):
            space.validate_configuration(config)  # raises, naming the knob
        rank = rank * size + idx
    return rank


def zscore(series: np.ndarray) -> np.ndarray:
    """Standardize a series with the sample (n-1) standard deviation."""
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("zscore needs a 1-d series with at least 2 values")
    sd = arr.std(ddof=1)
    if sd == 0.0:
        raise DegenerateSeriesError("series has zero variance")
    return (arr - arr.mean()) / sd


def _energy_mismatch(c):
    """Where energy is not performance * power by math.isclose's rule, both tolerances 1e-9."""
    with np.errstate(invalid="ignore"):  # such rows fail the finiteness rules first
        tolerance = np.maximum(1e-9 * np.maximum(np.abs(c["energy"]), np.abs(c["product"])), 1e-9)
        return ~(np.isfinite(c["product"]) & (np.abs(c["energy"] - c["product"]) <= tolerance))


def _repeats(c):
    """Where a row's rank equals an earlier row's rank."""
    order = np.argsort(c["rank"], kind="stable")
    repeat = np.zeros(len(order), dtype=bool)
    repeat[order[1:]] = np.diff(c["rank"][order]) == 0
    return repeat


_NON_NEGATIVE_MONITOR_MASK = np.array([a in _NON_NEGATIVE_MONITORS for a in _MONITOR_ATTRS])
_NON_NEGATIVE_REQUIREMENT_MASK = np.array([a in _NON_NEGATIVE_REQUIREMENTS
                                           for a in _REQUIREMENT_ATTRS])

# The sweep's value rules in reporting order, a group at a time: (bad,
# messages). ``bad`` maps named columns and column groups to a [rows, rules]
# mask, true where a row breaks the group's rule k; ``messages[k]`` is
# formatted with that row's values. A group's rules follow the canonical
# column order; a rule a group leaves out is never true.
_MONITOR_RULES = (
    (lambda c: ~np.isfinite(c["monitors"]),
     tuple(f"monitor {a} must be finite, got {{{a}!r}}" for a in _MONITOR_ATTRS)),
    (lambda c: (c["execution_time"] <= 0)[:, None], ("execution_time must be positive",)),
    (lambda c: (c["monitors"] < 0) & _NON_NEGATIVE_MONITOR_MASK,
     tuple(f"monitor {a} must be non-negative" for a in _MONITOR_ATTRS)),
    (lambda c: (c["peak_power"] < c["cpu_power"])[:, None],
     ("peak_power must be at least cpu_power",)),
    (lambda c: ((c["server_mtbf"] <= 0) | (c["system_mtbf"] <= 0))[:, None],
     ("MTBF monitors must be positive",)),
)
_REQUIREMENT_RULES = (
    (lambda c: ~np.isfinite(c["requirements"]),
     tuple(f"requirement {a} must be finite, got {{{a}!r}}" for a in _REQUIREMENT_ATTRS)),
    # a NaN availability has failed the finiteness rule already
    (lambda c: ((c["availability"] < 0.0) | (c["availability"] > 1.0))[:, None],
     ("availability must lie in [0, 1]",)),
    (lambda c: (c["requirements"] < 0) & _NON_NEGATIVE_REQUIREMENT_MASK,
     tuple(f"requirement {a} must be non-negative" for a in _REQUIREMENT_ATTRS)),
    (lambda c: _energy_mismatch(c)[:, None],
     ("energy must equal performance times power ({energy!r} vs {product!r})",)),
)


def _rules(space: KnobSpace, derived: bool) -> tuple:
    """The rule table in reporting order: level signs, values, level ranges, then repeats.

    A level range rule names a level that is out of range, and a repeated
    row is named for any other fault it has.
    """
    sizes = np.array([len(knob.levels) for knob in space.knobs])
    return (
        (lambda c: c["levels"] < 0, ("level indices must be non-negative",) * len(sizes)),
        *_MONITOR_RULES,
        *(_REQUIREMENT_RULES if derived else ()),
        (lambda c: c["levels"] >= sizes,
         tuple(f"level index {{levels[{j}]}} out of range for knob {{knobs[{j}]!r}}"
               for j in range(len(sizes)))),
        (lambda c: _repeats(c)[:, None], ("duplicate configuration {config}",)),
    )


def _first_fault(space: KnobSpace, rank: np.ndarray, levels: np.ndarray, monitors: np.ndarray,
                 requirements: np.ndarray | None) -> tuple[int, str] | None:
    """The first bad row's index and ": " plus the first rule it breaks, or None.

    ``rank`` is each row's enumeration rank, a level out of range clipped.
    Each group of rules is applied once, to the rows before the first bad
    row found so far. Its mask's first true entry in row-major order is its
    first bad row and, within that row, its first broken rule, so the
    result is that of applying each rule in table order.
    """
    c = {"levels": levels, "rank": rank, "monitors": monitors,
         **dict(zip(_MONITOR_ATTRS, monitors.T))}
    if requirements is not None:
        c.update(zip(_REQUIREMENT_ATTRS, requirements.T), requirements=requirements)
        with np.errstate(over="ignore", invalid="ignore"):
            c["product"] = c["performance"] * c["power"]
    i, message = len(levels), None
    for bad, messages in _rules(space, requirements is not None):
        mask = bad(c)[:i]
        row, k = divmod(int(mask.argmax()), len(messages))  # 0 when no entry is true
        if mask[row, k]:
            i, message = row, messages[k]
            if not i:  # no row comes before row 0, and argmax takes no empty mask
                break
    if message is None:
        return None
    # Python values, so a float renders as 1.0, not np.float64(1.0)
    row = {name: column[i:i + 1].tolist()[0] for name, column in c.items()}
    return i, ": " + message.format(knobs=space.names, config=tuple(row["levels"]), **row)


def _stored(values, arr: np.ndarray, dtype) -> np.ndarray:
    """``values`` itself if it is a read-only, C-ordered ``dtype`` array, else a read-only copy.

    ``arr`` is ``np.asarray(values)``. A writable array is copied, never
    frozen, so a caller's array is not aliased.
    """
    if not (arr is values and not arr.flags.writeable and arr.flags.c_contiguous
            and arr.dtype == dtype):
        arr = np.array(arr, dtype=dtype, order="C")
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SweepDataset:
    """A knob space plus one row per swept configuration, held as columns.

    ``levels`` holds each row's level index per knob ([rows, knobs], in
    ``space.level_dtype``: int8 for up to 128 levels per knob),
    ``monitors`` the eleven monitor values (float64, [rows, 11]) and
    ``requirements`` the five requirement values (float64, [rows, 5]), or
    None before derivation; all three are read-only, columns in the
    canonical orders. An array given that is already read-only, C-ordered
    and of the stored dtype is kept, not copied, so no writable view of it
    may change it later; anything else is copied.
    ``rank`` is each row's position in ``enumerate_configs(space)``. Every
    column is checked once here, level indices as given, before the cast;
    levels must be integers and values real numbers, not bools or strings.

    ``metadata`` holds provenance strings (seed, parameter hash) which
    are written out as comment lines in the CSV form. A row that breaks
    a rule raises RowError, naming the row's index.
    """

    space: KnobSpace
    levels: np.ndarray
    monitors: np.ndarray
    requirements: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)
    rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.levels)
        if not n:
            raise ValueError("dataset must contain at least one row")
        given = {}
        # checked, not coerced: the cast alone would read level 1.7 as 1 and '2' as 2
        for what, kinds, width in (
                ("levels", "iu", len(self.space.knobs)),
                ("monitors", "iuf", len(MONITOR_NAMES)),
                ("requirements", "iuf", len(REQUIREMENT_NAMES))):
            if (values := getattr(self, what)) is not None:
                arr = np.asarray(values)
                fault = f"dtype {arr.dtype}" if arr.dtype.kind not in kinds else None
                # numpy promotes a bool among numbers in a list to their dtype, so a
                # list is scanned element by element; an array has one dtype
                if not (fault or isinstance(values, np.ndarray)) and any(
                        isinstance(v, (bool, np.bool_))
                        for v in np.asarray(values, dtype=object).flat):
                    fault = "a bool"
                if fault:
                    noun = "integers" if what == "levels" else "real numbers"
                    raise ValueError(f"{what} must be {noun}, got {fault}")
                if arr.shape != (n, width):
                    raise ValueError(f"{what} must have shape ({n}, {width}), got {arr.shape}")
                given[what] = arr
        for what in ("monitors", "requirements"):
            if what in given:
                object.__setattr__(self, what, _stored(getattr(self, what), given[what], float))
        # the level rules read the indices as given: the narrow cast would wrap 300 to 44.
        # A level out of range is clipped in the rank and named by its own rule.
        levels = given["levels"]
        rank = np.ravel_multi_index(levels.T, [len(k.levels) for k in self.space.knobs],
                                    mode="clip")
        if fault := _first_fault(self.space, rank, levels, self.monitors, self.requirements):
            raise RowError(*fault)
        object.__setattr__(self, "levels", _stored(self.levels, levels, self.space.level_dtype))
        rank.setflags(write=False)
        object.__setattr__(self, "rank", rank)

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def is_derived(self) -> bool:
        return self.requirements is not None

    def config(self, i: int) -> Configuration:
        return Configuration(tuple(self.levels[i].tolist()))

    def configs(self) -> list[Configuration]:
        return [Configuration(tuple(lv)) for lv in self.levels.tolist()]

    def monitor_column(self, name: str) -> np.ndarray:
        if name not in _MONITOR_COLUMN:
            raise KeyError(f"unknown monitor {name!r}")
        return self.monitors[:, _MONITOR_COLUMN[name]].copy()

    def requirement_column(self, name: str) -> np.ndarray:
        if name not in _REQUIREMENT_COLUMN:
            raise KeyError(f"unknown requirement {name!r}")
        if self.requirements is None:
            raise ValueError("dataset has underived rows; derive requirements first")
        return self.requirements[:, _REQUIREMENT_COLUMN[name]].copy()

    def knob_column(self, name: str) -> np.ndarray:
        knob = self.space.knob(name)
        values = np.array([knob.numeric_value(i) for i in range(len(knob.levels))])
        return values[self.levels[:, self.space.knob_index(name)]]

    def index_of(self, config: Configuration) -> int:
        """The row holding ``config``; KeyError when there is none."""
        try:
            # ranks are unique, so no row or one; unpacking no row raises ValueError too
            (row,) = np.flatnonzero(self.rank == enumeration_rank(self.space, config))
        except ValueError:
            raise KeyError(f"no row for configuration {config.levels}") from None
        return int(row)


def export_csv(ds: SweepDataset, path_or_file) -> None:
    """Write a dataset as UTF-8 CSV with comment-line metadata.

    Knob columns carry level labels, monitor and requirement columns
    carry numbers rendered with 12 significant digits.
    """
    if hasattr(path_or_file, "write"):
        _write_csv(ds, path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
            _write_csv(ds, fh)


def _csv_cell(text: str) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _write_csv(ds: SweepDataset, fh) -> None:
    lines = []
    for key in sorted(ds.metadata):
        value = str(ds.metadata[key])
        if ":" in key or any(c in key + value for c in "\r\n"):
            raise ValueError(
                f"metadata key {key!r}: keys may not contain ':' and neither keys "
                "nor values may contain line breaks"
            )
        lines.append(f"# {key}: {value}\n")
    fh.writelines(lines)
    header = [f"knob:{n}" for n in ds.space.names]
    header += [f"mon:{n}" for n in MONITOR_NAMES]
    columns = [ds.monitors]
    if ds.requirements is not None:
        header += [f"req:{n}" for n in REQUIREMENT_NAMES]
        columns.append(ds.requirements)
    csv.writer(fh, lineterminator="\n").writerow(header)
    # each label as csv.writer quotes it; '%.12g' % x is format(x, '.12g')
    cells = [[_csv_cell(lv.label) for lv in k.levels] for k in ds.space.knobs]
    fmt = ",".join(["%s"] * len(cells) + ["%" + _FLOAT_FMT] * (len(header) - len(cells))) + "\n"
    for start in range(0, len(ds), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        levels = ds.levels[block].T.tolist()
        knob_text = zip(*([c[i] for i in col] for c, col in zip(cells, levels)))
        values = np.hstack([part[block] for part in columns]).tolist()
        fh.writelines(fmt % (*k, *v) for k, v in zip(knob_text, values))


def export_csv_string(ds: SweepDataset) -> str:
    buf = io.StringIO()
    _write_csv(ds, buf)
    return buf.getvalue()


def ingest_csv(path_or_file, space: KnobSpace) -> SweepDataset:
    """Read a sweep CSV back into a dataset, validating against ``space``.

    Raises IngestionError on a missing or repeated column, or names the
    first bad record's row, the header being row 1, and its first fault.
    Reading stops at the first record with a parse fault (see
    ``_parse_fault``); a ``SweepDataset`` rule that a record before it
    breaks is named first, else that parse fault.
    """
    if hasattr(path_or_file, "read"):
        return _read_csv(path_or_file, space)
    with open(path_or_file, "r", encoding="utf-8", newline="") as fh:
        return _read_csv(fh, space)


def split_metadata(lines) -> tuple[dict[str, str], Iterator[str]]:
    """Split sweep CSV lines into comment metadata and a lazy iterator of non-blank data lines.

    Metadata is read only above the header, exactly as the writer's
    ``# key: value`` lines hold it; comment lines there without a ``:``
    carry none. From the header on, every non-blank line is data. Only
    the lines up to the header are read here; the iterator reads the rest
    of ``lines`` as it is consumed.
    """
    lines = iter(lines)
    metadata = {}
    for line in lines:
        if not line.startswith("#"):
            if line.strip():
                return metadata, filter(str.strip, itertools.chain([line], lines))
            continue
        key, sep, value = line[1:].rstrip("\r\n").removeprefix(" ").partition(":")
        if sep:
            metadata[key] = value.removeprefix(" ")
    return metadata, iter(())


def _records(reader) -> Iterator:
    """The reader's records; a csv.Error it raises stands in for the record it could not read."""
    try:
        yield from reader
    except csv.Error as exc:
        yield exc


def _parse_fault(record, header: list[str], knobs, number_cols) -> str | None:
    """A record's first parse fault, the text after its row number, or None.

    The one statement of their order: the record as read (unreadable, or a
    wrong cell count), then its labels in knob order, then its numbers in
    column order. ``knobs`` holds (knob, label codes, cell index) triples.
    """
    if isinstance(record, csv.Error):
        return f": {record}"
    if len(record) != len(header):
        return f": expected {len(header)} cells, got {len(record)}"
    for knob, code, ci in knobs:
        if record[ci] not in code:
            return f": unknown level {record[ci]!r} for knob {knob.name!r}"
    for ci in number_cols:
        try:
            if not math.isfinite(float(record[ci])):
                return f", column {header[ci]}: non-finite value {record[ci]!r}"
        except ValueError:
            return f", column {header[ci]}: not a number: {record[ci]!r}"
    return None


def _columns(records: list, header: list[str], knobs, number_cols, level_dtype) -> tuple | None:
    """A block's levels (``level_dtype``), monitors and requirements, each C-ordered and
    parsed a column at a time; None if a record has a parse fault.

    Only a block's last record can be a csv.Error: the reader stops there.
    """
    if isinstance(records[-1], csv.Error) or any(len(record) != len(header) for record in records):
        return None
    cells = list(zip(*records))
    try:
        levels = [list(map(code.__getitem__, cells[ci])) for _, code, ci in knobs]
        numbers = np.array([list(map(float, cells[ci])) for ci in number_cols])
    except (KeyError, ValueError):
        return None
    if not np.isfinite(numbers).all():
        return None
    m = len(MONITOR_NAMES)
    return tuple(np.ascontiguousarray(part.T)
                 for part in (np.array(levels, level_dtype), numbers[:m], numbers[m:]))


def _read_csv(fh, space: KnobSpace) -> SweepDataset:
    metadata, data = split_metadata(fh)
    records = _records(csv.reader(data))
    if (header := next(records, None)) is None:
        raise IngestionError("empty file: no header row")
    if isinstance(header, csv.Error):
        raise IngestionError(f"row 1: {header}")

    col_index = {}
    for i, name in enumerate(header):
        if col_index.setdefault(name, i) != i:
            raise IngestionError(f"duplicate column {name!r}")
    for key in [f"knob:{n}" for n in space.names] + [f"mon:{n}" for n in MONITOR_NAMES]:
        if key not in col_index:
            raise IngestionError(f"missing column {key!r}")
    mon_cols = [col_index[f"mon:{n}"] for n in MONITOR_NAMES]
    missing = [n for n in REQUIREMENT_NAMES if f"req:{n}" not in col_index]
    if 0 < len(missing) < len(REQUIREMENT_NAMES):
        raise IngestionError(f"partial requirement columns; missing req:{missing[0]}")
    req_cols = [] if missing else [col_index[f"req:{n}"] for n in REQUIREMENT_NAMES]
    knobs = [(k, {lv.label: i for i, lv in enumerate(k.levels)}, col_index[f"knob:{k.name}"])
             for k in space.knobs]
    layout = (header, knobs, mon_cols + req_cols)  # the cells a record's parse reads

    # the blocks of each column group: levels, monitors, requirements
    groups, fault, level_dtype = ([], [], []), None, space.level_dtype
    while not fault and (block := list(itertools.islice(records, _BLOCK_ROWS))):
        if (parsed := _columns(block, *layout, level_dtype)) is None:
            # the first faulty record ends the read; the records before it are checked below
            r, text = next((r, text) for r, text in enumerate(
                _parse_fault(record, *layout) for record in block) if text)
            fault = f"row {_BLOCK_ROWS * len(groups[0]) + r + 2}{text}"  # the header is row 1
            parsed = _columns(block[:r], *layout, level_dtype) if r else ()
        for parts, part in zip(groups, parsed):
            parts.append(part)
    if not groups[0]:
        raise IngestionError(fault or "no rows in the data section")

    # Each group is joined on its own and its blocks released before the next,
    # so the table is held about once; C-ordered and read-only, the dataset
    # keeps each uncopied.
    joined = []
    for parts in groups:
        joined.append(np.concatenate(parts))
        parts.clear()
        joined[-1].setflags(write=False)
    levels, monitors, requirements = joined
    requirements = requirements if req_cols else None
    try:
        dataset = SweepDataset(space, levels, monitors, requirements, metadata)
    except RowError as exc:  # a rule fault of the records before a faulty one comes first
        raise IngestionError(f"row {exc.row + 2}{exc.fault}") from exc
    if fault:
        raise IngestionError(fault)
    return dataset
