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
from dataclasses import dataclass, field

import numpy as np

from .errors import FINITE, DegenerateSeriesError, IngestionError, require_int, require_number

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


def _require_name(what: str, value) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{what} must be a non-empty string, got {value!r}")


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

    def knob_index(self, name: str) -> int:
        for i, k in enumerate(self.knobs):
            if k.name == name:
                return i
        raise KeyError(f"no knob named {name!r}")

    def size(self) -> int:
        n = 1
        for k in self.knobs:
            n *= len(k.levels)
        return n

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


# The sweep's value rules in reporting order: (bad, message). ``bad`` maps
# named columns to a mask, true where a row breaks the rule; ``message``
# is formatted with that row's values.
_MONITOR_RULES = (
    *((lambda c, a=a: ~np.isfinite(c[a]), f"monitor {a} must be finite, got {{{a}!r}}")
      for a in _MONITOR_ATTRS),
    (lambda c: c["execution_time"] <= 0, "execution_time must be positive"),
    *((lambda c, a=a: c[a] < 0, f"monitor {a} must be non-negative")
      for a in _NON_NEGATIVE_MONITORS),
    (lambda c: c["peak_power"] < c["cpu_power"], "peak_power must be at least cpu_power"),
    (lambda c: (c["server_mtbf"] <= 0) | (c["system_mtbf"] <= 0),
     "MTBF monitors must be positive"),
)
_REQUIREMENT_RULES = (
    *((lambda c, a=a: ~np.isfinite(c[a]), f"requirement {a} must be finite, got {{{a}!r}}")
      for a in _REQUIREMENT_ATTRS),
    # a NaN availability has failed the finiteness rule already
    (lambda c: (c["availability"] < 0.0) | (c["availability"] > 1.0),
     "availability must lie in [0, 1]"),
    *((lambda c, a=a: c[a] < 0, f"requirement {a} must be non-negative")
      for a in _NON_NEGATIVE_REQUIREMENTS),
    (_energy_mismatch, "energy must equal performance times power ({energy!r} vs {product!r})"),
)


def _rules(space: KnobSpace, derived: bool) -> tuple:
    """The full rule table: level signs, monitors, requirements, then level ranges."""
    return (
        *((lambda c, j=j: c["levels"][:, j] < 0, "level indices must be non-negative")
          for j in range(len(space.knobs))),
        *_MONITOR_RULES,
        *(_REQUIREMENT_RULES if derived else ()),
        *((lambda c, j=j, size=len(knob.levels): c["levels"][:, j] >= size,
           f"level index {{levels[{j}]}} out of range for knob {{knobs[{j}]!r}}")
          for j, knob in enumerate(space.knobs)),
    )


def _first_fault(space: KnobSpace, levels: np.ndarray, monitors: np.ndarray,
                 requirements: np.ndarray | None) -> tuple[int, str] | None:
    """The first row that breaks a rule and the first rule it breaks, or None."""
    c = {"levels": levels, **dict(zip(_MONITOR_ATTRS, monitors.T))}
    if requirements is not None:
        c.update(zip(_REQUIREMENT_ATTRS, requirements.T))
        with np.errstate(over="ignore", invalid="ignore"):
            c["product"] = c["performance"] * c["power"]
    rules = _rules(space, requirements is not None)
    bad = np.zeros(len(levels), dtype=bool)
    for fails, _ in rules:
        bad |= fails(c)
    if not (first := np.flatnonzero(bad)).size:
        return None
    i = int(first[0])
    row = {name: column[i:i + 1] for name, column in c.items()}
    message = next(message for fails, message in rules if fails(row)[0])
    # Python values, so a float renders as 1.0, not np.float64(1.0)
    return i, message.format(knobs=space.names, **{n: v[0].tolist() for n, v in row.items()})


@dataclass(frozen=True, eq=False)
class SweepDataset:
    """A knob space plus one row per swept configuration, held as columns.

    ``levels`` holds each row's level index per knob (int, [rows, knobs]),
    ``monitors`` the eleven monitor values (float64, [rows, 11]) and
    ``requirements`` the five requirement values (float64, [rows, 5]), or
    None before derivation; all three are read-only, columns in the
    canonical orders. ``rank`` is each row's position in
    ``enumerate_configs(space)``. Every column is checked once here.

    ``metadata`` holds provenance strings (seed, parameter hash) which
    are written out as comment lines in the CSV form.
    ``requirement_spec`` optionally pins the feasibility thresholds the
    dataset was built against; ranking falls back to defaults when it
    is absent.
    """

    space: KnobSpace
    levels: np.ndarray
    monitors: np.ndarray
    requirements: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)
    requirement_spec: object | None = None
    rank: np.ndarray = field(init=False, repr=False)
    _row_of_rank: dict = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.levels)
        if not n:
            raise ValueError("dataset must contain at least one row")
        for what, dtype, width in (("levels", np.int64, len(self.space.knobs)),
                                   ("monitors", float, len(MONITOR_NAMES)),
                                   ("requirements", float, len(REQUIREMENT_NAMES))):
            if (values := getattr(self, what)) is not None:
                arr = np.array(values, dtype=dtype, order="C")
                if arr.shape != (n, width):
                    raise ValueError(f"{what} must have shape ({n}, {width}), got {arr.shape}")
                arr.setflags(write=False)
                object.__setattr__(self, what, arr)
        if fault := _first_fault(self.space, self.levels, self.monitors, self.requirements):
            raise ValueError(f"row {fault[0]}: {fault[1]}")
        # the mixed-radix enumeration rank
        rank = np.ravel_multi_index(self.levels.T, [len(k.levels) for k in self.space.knobs])
        row_of_rank = {}
        for i, r in enumerate(rank.tolist()):
            if row_of_rank.setdefault(r, i) != i:
                raise ValueError(f"duplicate configuration {tuple(self.levels[i].tolist())}")
        rank.setflags(write=False)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_row_of_rank", row_of_rank)

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
            return self._row_of_rank[enumeration_rank(self.space, config)]
        except (KeyError, ValueError):
            raise KeyError(f"no row for configuration {config.levels}") from None


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
    values = ds.monitors
    if ds.requirements is not None:
        header += [f"req:{n}" for n in REQUIREMENT_NAMES]
        values = np.hstack([values, ds.requirements])
    csv.writer(fh, lineterminator="\n").writerow(header)
    # each label as csv.writer quotes it; '%.12g' % x is format(x, '.12g')
    cells = [[_csv_cell(lv.label) for lv in k.levels] for k in ds.space.knobs]
    knob_text = zip(*([c[i] for i in col] for c, col in zip(cells, ds.levels.T.tolist())))
    fmt = ",".join(["%s"] * len(cells) + ["%" + _FLOAT_FMT] * values.shape[1]) + "\n"
    fh.writelines(fmt % (*k, *v) for k, v in zip(knob_text, values.tolist()))


def export_csv_string(ds: SweepDataset) -> str:
    buf = io.StringIO()
    _write_csv(ds, buf)
    return buf.getvalue()


def ingest_csv(path_or_file, space: KnobSpace) -> SweepDataset:
    """Read a sweep CSV back into a dataset, validating against ``space``.

    Raises IngestionError naming the offending row and column on any
    missing column, unknown level label, duplicate configuration or
    non-finite number.
    """
    if hasattr(path_or_file, "read"):
        return _read_csv(path_or_file, space)
    with open(path_or_file, "r", encoding="utf-8", newline="") as fh:
        return _read_csv(fh, space)


def split_metadata(lines) -> tuple[dict[str, str], list[str]]:
    """Split sweep CSV lines into comment metadata and non-blank data lines.

    Reads back exactly what the writer's ``# key: value`` lines hold.
    Comment lines without a ``:`` carry no metadata and are skipped.
    """
    metadata = {}
    data = []
    for line in lines:
        if line.startswith("#"):
            body = line[1:].rstrip("\r\n")
            key, sep, value = body.removeprefix(" ").partition(":")
            if sep:
                metadata[key] = value.removeprefix(" ")
        elif line.strip():
            data.append(line)
    return metadata, data


def _read_csv(fh, space: KnobSpace) -> SweepDataset:
    metadata, rows_text = split_metadata(fh)
    if not rows_text:
        raise IngestionError("empty file: no header row")

    reader = csv.reader(rows_text)
    header = next(reader)
    col_index = {name: i for i, name in enumerate(header)}
    for key in [f"knob:{n}" for n in space.names] + [f"mon:{n}" for n in MONITOR_NAMES]:
        if key not in col_index:
            raise IngestionError(f"missing column {key!r}")
    knob_cols = [col_index[f"knob:{n}"] for n in space.names]
    mon_cols = [col_index[f"mon:{n}"] for n in MONITOR_NAMES]
    has_reqs = all(f"req:{n}" in col_index for n in REQUIREMENT_NAMES)
    any_reqs = any(f"req:{n}" in col_index for n in REQUIREMENT_NAMES)
    if any_reqs and not has_reqs:
        missing = [n for n in REQUIREMENT_NAMES if f"req:{n}" not in col_index]
        raise IngestionError(f"partial requirement columns; missing req:{missing[0]}")
    req_cols = [col_index[f"req:{n}"] for n in REQUIREMENT_NAMES] if has_reqs else None

    codes = [{lv.label: i for i, lv in enumerate(k.levels)}.__getitem__ for k in space.knobs]
    blocks = []
    try:  # a column at a time, in blocks of rows to bound the memory held as text;
        # any fault sends the file to the row-wise check below
        while records := list(itertools.islice(reader, 1024)):
            if any(len(record) != len(header) for record in records):
                raise ValueError("ragged row")
            cells = list(zip(*records))
            blocks.append((
                np.array([list(map(code, cells[ci])) for code, ci in zip(codes, knob_cols)]).T,
                np.array([list(map(float, cells[ci])) for ci in mon_cols + (req_cols or [])]).T,
            ))
        if not blocks:
            raise IngestionError("no rows in the data section")
        levels, numbers = (np.concatenate(part) for part in zip(*blocks))
        return SweepDataset(space, levels, numbers[:, :len(mon_cols)],
                            numbers[:, len(mon_cols):] if req_cols else None, metadata)
    except (KeyError, ValueError) as exc:
        records = csv.reader(rows_text)
        next(records)  # the header
        _raise_first_bad_row(space, header, records, knob_cols, mon_cols, req_cols)
        raise IngestionError(str(exc)) from exc


def _raise_first_bad_row(space, header, records, knob_cols, mon_cols, req_cols) -> None:
    """Check the records in file order, raising IngestionError at the first fault.

    Records are parsed one by one up to the first parse fault. The rule
    table then checks the records before it at once, and a rule fault in
    an earlier record is raised in its place.
    """
    parsed = {}  # each record's numbers by its levels, in file order
    parse_fault = None
    try:
        for lineno, record in enumerate(records, start=2):
            if len(record) != len(header):
                raise IngestionError(
                    f"row {lineno}: expected {len(header)} cells, got {len(record)}")
            levels = []
            for knob, ci in zip(space.knobs, knob_cols):
                label = record[ci]
                try:
                    levels.append(knob.level_index(label))
                except KeyError:
                    raise IngestionError(
                        f"row {lineno}: unknown level {label!r} for knob {knob.name!r}"
                    ) from None
            levels = tuple(levels)
            if levels in parsed:
                raise IngestionError(f"row {lineno}: duplicate configuration {levels}")
            parsed[levels] = [_parse_number(record[ci], lineno, header[ci])
                              for ci in mon_cols + (req_cols or [])]
    except IngestionError as exc:
        parse_fault = exc
    if parsed:
        numbers = np.array(list(parsed.values()))
        if fault := _first_fault(space, np.array(list(parsed)), numbers[:, :len(mon_cols)],
                                 numbers[:, len(mon_cols):] if req_cols else None):
            raise IngestionError(f"row {fault[0] + 2}: {fault[1]}")
    if parse_fault is not None:
        raise parse_fault


def _parse_number(text: str, lineno: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise IngestionError(f"row {lineno}, column {column}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise IngestionError(f"row {lineno}, column {column}: non-finite value {text!r}")
    return value
