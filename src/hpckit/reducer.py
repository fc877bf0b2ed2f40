"""Correlation-driven reduction of requirements, monitors and knobs.

The reduction runs in three steps over a derived sweep dataset:

1. Prune mutually correlated columns. Among all pairs with |r| at or
   above the threshold, the strongest pair is resolved by removing the
   member whose summed |r| against the other live columns is smaller,
   and the scan repeats until no pair crosses the threshold. The same
   procedure runs first over requirement columns, then over monitor
   columns.
2. Map every surviving requirement to the surviving monitor with the
   largest |r|. The union of mapped monitors is the reduced monitor
   set an operator actually needs to observe.
3. Keep the knobs whose |r| against at least one monitor in the
   reduced set reaches the knob threshold; the rest are fixed at
   baseline.

Zero-variance columns cannot carry a defined correlation; they are
excluded up front with a warning and reported as removed, never
silently coerced to r = 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import FINITE, DegenerateSeriesError, MappingError, require_number
from .sweep import MONITOR_NAMES, REQUIREMENT_NAMES, SweepDataset

log = logging.getLogger(__name__)

DEFAULT_REQUIREMENT_THRESHOLD = 0.90
DEFAULT_KNOB_THRESHOLD = 0.40

Column = tuple[str, np.ndarray]


def pearson(x, y) -> float:
    """Pearson correlation of two equal-length series, clamped to [-1, 1].

    Raises DegenerateSeriesError when either series has zero variance;
    the coefficient is undefined there and must not be reported as 0.

    Exactly affine pairs (y = a*x + b) return exactly +1.0 or -1.0: by
    the Cauchy-Schwarz equality condition |r| = 1 holds only for linear
    dependence, so a result within 1e-12 of the bound (reachable only
    through round-off on affine data, never by non-degenerate series)
    is snapped to the bound.
    """
    r = _corr(*_centered([x, y]))
    if math.isnan(r):
        raise DegenerateSeriesError("correlation undefined for a zero-variance series")
    return r


def _centered(series: Sequence) -> list[tuple[np.ndarray, float]]:
    """Each series minus its mean, and the norm of that: pearson's work per series.

    A mean is ``np.add.reduce`` over the series divided by its length, the
    pairwise sum ``mean`` takes without ``mean``'s Python-level wrapper.
    Each series stays its own array: at 8192 rows a stacked copy is a fresh
    allocation of up to 1 MB, whose page faults cost more than the calls it
    saves. Each norm is its own ``dot`` (BLAS ddot), as a matrix product
    would sum in another order.
    """
    arrays = [np.asarray(s, dtype=float) for s in series]
    if any(arr.ndim != 1 or arr.size < 2 for arr in arrays):
        raise ValueError("pearson needs 1-d series of at least 2 points")
    if len({arr.size for arr in arrays}) > 1:
        raise ValueError("pearson needs two series of equal length")
    centered = [arr - np.add.reduce(arr) / arr.size for arr in arrays]
    return [(dx, math.sqrt(float(dx.dot(dx)))) for dx in centered]


def _corr(cx: tuple[np.ndarray, float], cy: tuple[np.ndarray, float]) -> float:
    """pearson of two ``_centered`` series; NaN where either has zero variance."""
    (dx, sx), (dy, sy) = cx, cy
    if sx == 0.0 or sy == 0.0:
        return math.nan
    r = float(dx.dot(dy)) / (sx * sy)
    if 1.0 - abs(r) <= 1e-12:
        return math.copysign(1.0, r)
    return max(-1.0, min(1.0, r))


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Labeled correlation table; NaN marks an undefined entry."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    values: np.ndarray

    @classmethod
    def build(cls, rows: Sequence[Column], cols: Sequence[Column]) -> "CorrelationMatrix":
        """Every row column's ``pearson`` r against every col column; NaN where undefined.

        Both sides are centered in one ``_centered`` call, each column once,
        and each pair keeps its own ``dot``, so every entry is ``pearson``'s,
        bit for bit.
        """
        values = np.empty((len(rows), len(cols)))
        if rows is cols:  # a set against itself: each pair is correlated once
            centered = _centered([y for _, y in cols])
            for i, cx in enumerate(centered):
                values[i, i:] = values[i:, i] = [_corr(cx, cy) for cy in centered[i:]]
        else:
            centered = _centered([y for _, y in cols] + [x for _, x in rows])
            for i, cx in enumerate(centered[len(cols):]):
                values[i] = [_corr(cx, cy) for cy in centered[:len(cols)]]
        return cls(tuple(n for n, _ in rows), tuple(n for n, _ in cols), values)

    def to_json_dict(self) -> dict:
        return {
            "rows": list(self.row_labels),
            "cols": list(self.col_labels),
            "values": [[None if math.isnan(v) else v for v in row] for row in self.values.tolist()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CorrelationMatrix":
        rows, cols = tuple(data["rows"]), tuple(data["cols"])
        cells = [[math.nan if c is None else require_number("coefficient", c, FINITE) for c in row]
                 for row in data["values"]]
        if [len(row) for row in cells] != [len(cols)] * len(rows):
            raise ValueError(f"coefficient cells do not match their {len(rows)}x{len(cols)} labels")
        return cls(rows, cols, np.array(cells).reshape(len(rows), len(cols)))


@dataclass(frozen=True)
class RemovalRecord:
    """Why one column left the analysis."""

    removed: str
    reason: str  # "correlated", "zero_variance" or "unmapped"
    partner: str | None = None
    coefficient: float | None = None
    removed_sum: float | None = None
    partner_sum: float | None = None


class MonitorMatch(NamedTuple):
    monitor: str
    coefficient: float


class KnobSelection(NamedTuple):
    knob: str
    monitor: str
    coefficient: float


def prune_correlated(
    columns: Sequence[Column], threshold: float
) -> tuple[list[str], list[RemovalRecord]]:
    """Iteratively remove one member of each over-threshold pair.

    Returns the kept labels in their original order and the removal
    log. Threshold comparisons use |r|. When the two members of a pair
    tie on summed correlation, the later-listed column is removed.
    """
    _check_threshold(threshold, "correlation")
    names = [n for n, _ in columns]
    if len(set(names)) != len(names):
        raise ValueError("column labels must be unique")

    # The matrix is built once, the diagonal too: a column is zero-variance
    # where its own coefficient is undefined. A removal zeroes its row and
    # column of the |r| triangle the scan reads and leaves ``live``, so every
    # later scan meets the live pairs in the same row-major order, and sums
    # the same live |r| in the same order, as a fresh computation would.
    corr = CorrelationMatrix.build(columns, columns).values
    flat = np.isnan(corr.diagonal())
    removals: list[RemovalRecord] = []
    for name in (n for n, is_flat in zip(names, flat) if is_flat):
        log.warning("column %s has zero variance; excluded from pruning", name)
        removals.append(RemovalRecord(name, "zero_variance"))
    names = [n for n, is_flat in zip(names, flat) if not is_flat]
    corr = corr[~flat][:, ~flat]
    magnitude = np.abs(corr)
    upper = np.triu(magnitude, 1)
    live = np.ones(len(names), dtype=bool)
    for _ in range(len(names) - 1):
        # the strongest pair above the diagonal; argmax takes the first in row-major order
        i, j = divmod(int(upper.argmax()), len(names))
        if upper[i, j] < threshold:
            break
        # Summed |r| against every other live column decides which
        # member goes; the shared pair entry cancels out.
        sums = {k: float(magnitude[k][live].sum() - 1.0) for k in (i, j)}
        drop, keep = (i, j) if sums[i] < sums[j] else (j, i)
        removals.append(RemovalRecord(
            removed=names[drop], reason="correlated", partner=names[keep],
            coefficient=float(corr[i, j]), removed_sum=sums[drop], partner_sum=sums[keep],
        ))
        live[drop] = False
        upper[drop] = upper[:, drop] = 0.0

    return [n for n, is_live in zip(names, live) if is_live], removals


def map_requirements_to_monitors(
    requirements: Sequence[Column], monitors: Sequence[Column]
) -> dict[str, MonitorMatch]:
    """Pick the strongest-|r| monitor for each requirement.

    Ties go to the earlier-listed monitor. A requirement whose
    correlation is undefined against every monitor cannot be mapped
    and raises MappingError naming it.
    """
    if not monitors:
        raise ValueError("no monitors to map against")
    table = CorrelationMatrix.build(requirements, monitors)
    mapping: dict[str, MonitorMatch] = {}
    for i, req_name in enumerate(table.row_labels):
        best = _strongest(table, i)
        if best is None:
            raise MappingError(
                f"requirement {req_name!r} has no defined correlation with any monitor"
            )
        mapping[req_name] = MonitorMatch(*best)
    return mapping


def select_knobs(
    knobs: Sequence[Column], monitors: Sequence[Column], threshold: float
) -> tuple[list[KnobSelection], list[KnobSelection], CorrelationMatrix]:
    """Split knobs into selected and rejected against the monitor set.

    A knob is selected when its strongest |r| against any of the given
    monitors reaches the threshold. Returns (selected, rejected, full
    coefficient table); each entry records the knob's best monitor.
    """
    _check_threshold(threshold, "knob")
    if not monitors:
        raise ValueError("no monitors to correlate knobs against")
    table = CorrelationMatrix.build(knobs, monitors)
    selected: list[KnobSelection] = []
    rejected: list[KnobSelection] = []
    for i, knob_name in enumerate(table.row_labels):
        best = _strongest(table, i)
        if best is None:
            log.warning("knob %s has no defined correlation with any monitor", knob_name)
            rejected.append(KnobSelection(knob_name, "", 0.0))
        elif abs(best[1]) >= threshold:
            selected.append(KnobSelection(knob_name, *best))
        else:
            rejected.append(KnobSelection(knob_name, *best))
    return selected, rejected, table


def _strongest(table: CorrelationMatrix, i: int) -> tuple[str, float] | None:
    """Column label and r of row ``i``'s largest defined |r|; ties go to the earlier column."""
    row = table.values[i].tolist()
    j = max((j for j, r in enumerate(row) if not math.isnan(r)), key=lambda j: abs(row[j]),
            default=None)
    return None if j is None else (table.col_labels[j], row[j])


@dataclass(frozen=True)
class ReductionReport:
    """Everything the reduction decided and why."""

    requirement_threshold: float
    knob_threshold: float
    kept_requirements: tuple[str, ...]
    removed_requirements: tuple[RemovalRecord, ...]
    kept_monitors: tuple[str, ...]
    removed_monitors: tuple[RemovalRecord, ...]
    requirement_to_monitor: dict[str, MonitorMatch]
    selected_knobs: tuple[KnobSelection, ...]
    rejected_knobs: tuple[KnobSelection, ...]
    knob_coefficients: CorrelationMatrix

    @property
    def selected_knob_names(self) -> tuple[str, ...]:
        return tuple(k.knob for k in self.selected_knobs)

    def to_json_dict(self) -> dict:
        return {
            "thresholds": {
                "requirement": self.requirement_threshold,
                "knob": self.knob_threshold,
            },
            "kept_requirements": list(self.kept_requirements),
            "removed_requirements": [asdict(r) for r in self.removed_requirements],
            "kept_monitors": list(self.kept_monitors),
            "removed_monitors": [asdict(r) for r in self.removed_monitors],
            "requirement_to_monitor": {
                req: m._asdict() for req, m in self.requirement_to_monitor.items()
            },
            "selected_knobs": [k._asdict() for k in self.selected_knobs],
            "rejected_knobs": [k._asdict() for k in self.rejected_knobs],
            "knob_coefficients": self.knob_coefficients.to_json_dict(),
        }

    def coefficients_csv(self) -> str:
        """Knob-by-monitor coefficient table as CSV text."""
        table = self.knob_coefficients
        out = ["knob," + ",".join(table.col_labels)]
        for knob, row in zip(table.row_labels, table.values.tolist()):
            out.append(knob + "," + ",".join("" if math.isnan(v) else f"{v:.6f}" for v in row))
        return "\n".join(out) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "ReductionReport":
        """The report ``to_json_dict`` gave; ValueError names a value of the wrong type."""
        report = cls(
            requirement_threshold=data["thresholds"]["requirement"],
            knob_threshold=data["thresholds"]["knob"],
            kept_requirements=tuple(data["kept_requirements"]),
            removed_requirements=tuple(RemovalRecord(**d) for d in data["removed_requirements"]),
            kept_monitors=tuple(data["kept_monitors"]),
            removed_monitors=tuple(RemovalRecord(**d) for d in data["removed_monitors"]),
            requirement_to_monitor={
                req: MonitorMatch(**d) for req, d in data["requirement_to_monitor"].items()
            },
            selected_knobs=tuple(KnobSelection(**d) for d in data["selected_knobs"]),
            rejected_knobs=tuple(KnobSelection(**d) for d in data["rejected_knobs"]),
            knob_coefficients=CorrelationMatrix.from_json_dict(data["knob_coefficients"]),
        )
        for kind in ("requirement", "knob"):
            threshold = getattr(report, f"{kind}_threshold")
            _check_threshold(require_number(f"{kind} threshold", threshold), kind)
        removals = report.removed_requirements + report.removed_monitors
        knobs = report.selected_knobs + report.rejected_knobs
        matches = (*report.requirement_to_monitor.values(), *knobs)
        for value in (*(m.coefficient for m in matches),
                      *(v for r in removals for v in (r.coefficient, r.removed_sum, r.partner_sum)
                        if v is not None)):
            require_number("coefficient", value, FINITE)
        table = report.knob_coefficients
        names = [*report.kept_requirements, *report.kept_monitors,
                 *(m.monitor for m in matches), *(k.knob for k in knobs),
                 *(r.removed for r in removals),
                 *(r.partner for r in removals if r.partner is not None),
                 *table.row_labels, *table.col_labels]
        if bad := [name for name in names if not isinstance(name, str)]:
            raise ValueError(f"a name must be a string, got {bad[0]!r}")
        return report


def reduce(
    ds: SweepDataset,
    requirement_threshold: float = DEFAULT_REQUIREMENT_THRESHOLD,
    knob_threshold: float = DEFAULT_KNOB_THRESHOLD,
) -> ReductionReport:
    """Run the full three-step reduction over a derived dataset."""
    if not ds.is_derived:
        raise ValueError("dataset has underived rows; derive requirements first")
    if len(ds) < 3:
        raise ValueError("reduction needs at least 3 rows")

    # Canonicalize row order so the report is bit-identical under any permutation
    # of the input rows: summation order would otherwise leak row order into the
    # last bits of every coefficient. Stable, to share sweep's sort kernel.
    order = np.argsort(ds.rank, kind="stable")
    # each group gathered as one C-ordered [columns, rows] array: every column contiguous
    req_columns = list(zip(REQUIREMENT_NAMES, np.take(ds.requirements.T, order, axis=1)))
    mon_columns = list(zip(MONITOR_NAMES, np.take(ds.monitors.T, order, axis=1)))

    kept_reqs, removed_reqs = prune_correlated(req_columns, requirement_threshold)
    surviving_mons, removed_mons = prune_correlated(mon_columns, requirement_threshold)

    mapping = map_requirements_to_monitors(
        [c for c in req_columns if c[0] in kept_reqs],
        [c for c in mon_columns if c[0] in surviving_mons],
    )

    mapped = {m.monitor for m in mapping.values()}
    kept_monitors = tuple(n for n in MONITOR_NAMES if n in mapped)
    removed = list(removed_mons)
    for name in surviving_mons:
        if name not in mapped:
            removed.append(RemovalRecord(name, "unmapped"))

    knob_columns = [(n, ds.knob_column(n)[order]) for n in ds.space.names]
    selected, rejected, table = select_knobs(
        knob_columns,
        [c for c in mon_columns if c[0] in kept_monitors],
        knob_threshold,
    )

    return ReductionReport(
        requirement_threshold=requirement_threshold,
        knob_threshold=knob_threshold,
        kept_requirements=tuple(kept_reqs),
        removed_requirements=tuple(removed_reqs),
        kept_monitors=kept_monitors,
        removed_monitors=tuple(removed),
        requirement_to_monitor=mapping,
        selected_knobs=tuple(selected),
        rejected_knobs=tuple(rejected),
        knob_coefficients=table,
    )


def _check_threshold(value: float, kind: str) -> None:
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{kind} threshold must lie in (0, 1], got {value}")
