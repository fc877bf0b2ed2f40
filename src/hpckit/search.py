"""Configuration ranking in the full and the reduced space.

The exhaustive route scores every feasible configuration on all five
requirement columns at once and serves as the reference answer. The
reduced route mimics what an operator would do after the correlation
reduction: sweep only the selected knobs (everything else pinned at
the baseline), watch only the kept monitors, and rank by those. The
validation step compares the two picks requirement by requirement.

Scores are averages of z-scored columns, sign-adjusted so that lower
is always better, so a configuration's score is its mean distance (in
standard deviations) from the sweep average across the columns in
play. Columns with zero spread carry no ranking information and are
dropped with a warning; the remaining columns keep equal weights.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoFeasibleConfigurationError
from .metrics import RequirementSpec
from .reducer import ReductionReport
from .sweep import MONITOR_NAMES, REQUIREMENT_NAMES, Configuration, SweepDataset

log = logging.getLogger(__name__)

# The monitor and requirement columns whose larger readings are
# preferable; every other column is lower-is-better.
HIGHER_IS_BETTER = frozenset({"ipc", "server_mtbf_h", "system_mtbf_h", "availability"})


def _overshoots(requirements: np.ndarray, spec: RequirementSpec) -> np.ndarray:
    """Each threshold's relative overshoot for one row or many ([..., 5] -> [..., 4]).

    A row meets a threshold exactly when its overshoot is at most 0: for
    a finite threshold m > 0, ``(p - m) / m <= 0`` holds just when ``p <= m``.
    """
    performance, power, energy, availability, _ = requirements.T
    return np.stack([
        (performance - spec.performance_max_s) / spec.performance_max_s,
        (power - spec.power_max_w) / spec.power_max_w,
        (energy - spec.energy_max_j) / spec.energy_max_j,
        (spec.availability_min - availability) / spec.availability_min,
    ], axis=-1)


def _meets(requirements: np.ndarray, spec: RequirementSpec):
    """The feasibility rule over requirement values, one row or many ([..., 5])."""
    return (_overshoots(requirements, spec) <= 0.0).all(axis=-1)


def is_feasible(requirements, spec: RequirementSpec) -> bool:
    """True when one row's five requirement values meet every threshold (inclusive)."""
    return bool(_meets(np.asarray(requirements, dtype=float), spec))


def feasible_rows(dataset: SweepDataset, spec: RequirementSpec) -> np.ndarray:
    """``is_feasible`` for every row at once, as a boolean mask."""
    if dataset.requirements is None:
        raise ValueError("dataset has no derived requirement values")
    return _meets(dataset.requirements, spec)


def check_weight(name: str, w: float) -> float:
    """``w`` as the scoring weight of column ``name``: finite and non-negative."""
    if not 0.0 <= w < math.inf:
        raise ConfigError(f"weight for {name} must be finite and non-negative, got {w}")
    return w


def _combined_zscores(
    columns: list[tuple[str, np.ndarray]],
    weights: dict[str, float] | None = None,
) -> np.ndarray:
    """Weighted sum of lower-is-better z-scores, skipping flat columns.

    Weights default to equal shares. Flat (zero-spread) columns carry
    no ranking information; they are dropped with a warning and the
    remaining weights are renormalized to keep the total weight at 1.

    The columns are handled as one [columns, rows] array, each reduced
    along its row in the same summation order as a one-column call, so
    every z-score is ``zscore``'s and the flat check ``np.std``'s, bit
    for bit.
    """
    table = np.array([values for _, values in columns], dtype=float)
    n = table.shape[1]
    deviations = table - np.add.reduce(table, axis=1, keepdims=True) / n
    squares = np.add.reduce(deviations * deviations, axis=1)
    flat = (squares / n == 0.0).tolist()  # np.std (ddof=0) is 0 just when this variance is
    live, factors = [], []
    for j, ((name, _), is_flat) in enumerate(zip(columns, flat)):
        w = 1.0 if weights is None else check_weight(name, float(weights.get(name, 1.0)))
        if is_flat:
            log.warning("column %s has zero spread; excluded from scoring", name)
            continue
        live.append(j)
        factors.append((-1.0 if name in HIGHER_IS_BETTER else 1.0, w))
    total = sum(w for _, w in factors)
    if not live or total == 0.0:
        raise ConfigError("every scoring column is flat or zero-weighted; nothing to rank on")
    z = deviations[live] / np.sqrt(squares[live] / (n - 1))[:, None]  # zscore's ddof=1
    # sign, then weight: two products, as a one-column pass makes them
    z *= np.array([sign for sign, _ in factors])[:, None]
    z *= np.array([w / total for _, w in factors])[:, None]
    return np.sum(z, axis=0)


def score_requirements(
    dataset: SweepDataset, weights: dict[str, float] | None = None
) -> np.ndarray:
    """Per-row combined requirement score, in dataset row order.

    With default weights each live requirement contributes 1/5 (0.2)
    of the score; lower scores are better.
    """
    if not dataset.is_derived:
        raise ValueError("dataset has no derived requirement values")
    if len(dataset) < 2:
        raise ValueError("scoring needs at least two rows")
    return _combined_zscores(list(zip(REQUIREMENT_NAMES, dataset.requirements.T)), weights)


def _resolve_spec(dataset: SweepDataset, spec: RequirementSpec | None) -> RequirementSpec:
    """``spec``, else the default thresholds, once ``dataset`` meets its Monte Carlo floor."""
    spec = RequirementSpec() if spec is None else spec
    spec.check_mc_iterations(dataset)
    return spec


def row_json_dict(dataset: SweepDataset, i: int) -> dict:
    """Row ``i``'s configuration labels and requirement values, by name."""
    return {
        "configuration": dict(zip(dataset.space.names, dataset.config(i).labels(dataset.space))),
        "requirements": dict(zip(REQUIREMENT_NAMES, dataset.requirements[i].tolist())),
    }


@dataclass(frozen=True)
class RankedConfig:
    """A feasible row of a derived dataset: its configuration, score and index."""

    config: Configuration
    score: float
    index: int

    @classmethod
    def at(cls, dataset: SweepDataset, i: int, scores: np.ndarray) -> "RankedConfig":
        """Feasible row ``i`` of ``dataset`` with its score."""
        return cls(dataset.config(i), float(scores[i]), i)

    def to_json_dict(self, dataset: SweepDataset) -> dict:
        return {**row_json_dict(dataset, self.index), "score": self.score, "feasible": True}


def _feasible_order(
    dataset: SweepDataset,
    indices: np.ndarray,
    scores: np.ndarray,
    spec: RequirementSpec,
) -> list[int]:
    """The feasible rows among ``indices``, best first.

    Lowest score first, ties to the earliest configuration in enumeration
    order. With no feasible row, raises NoFeasibleConfigurationError naming
    the row whose worst relative threshold overshoot is smallest.
    """
    feasible = indices[feasible_rows(dataset, spec)[indices]]
    if not feasible.size:
        violation = np.maximum(0.0, _overshoots(dataset.requirements[indices], spec).max(axis=-1))
        least = int(indices[np.argmin(violation)])
        closest = " ".join(f"{k}={v}" for k, v in
                           row_json_dict(dataset, least)["configuration"].items())
        raise NoFeasibleConfigurationError(
            f"no configuration meets every requirement threshold; the closest overshoots "
            f"one by {violation.min():.2%}: {closest}",
            least_violating=dataset.config(least),
            violation=float(violation.min()),
        )
    # Python's sort: np.lexsort would map about 0.1 MB more of numpy's code
    score, rank = scores.tolist(), dataset.rank.tolist()
    return sorted(feasible.tolist(), key=lambda i: (score[i], rank[i]))


def rank_feasible(
    dataset: SweepDataset,
    spec: RequirementSpec | None = None,
    weights: dict[str, float] | None = None,
) -> tuple[np.ndarray, list[int]]:
    """Every row's full requirement score, and the feasible rows best first.

    A lone row has nothing to rank against and scores 0. Raises
    NoFeasibleConfigurationError when no row is feasible.
    """
    spec = _resolve_spec(dataset, spec)
    scores = np.zeros(1) if len(dataset) == 1 else score_requirements(dataset, weights)
    return scores, _feasible_order(dataset, np.arange(len(dataset)), scores, spec)


def oracle_best(
    dataset: SweepDataset,
    spec: RequirementSpec | None = None,
    weights: dict[str, float] | None = None,
) -> RankedConfig:
    """Best feasible configuration under the full requirement score."""
    scores, order = rank_feasible(dataset, spec, weights)
    return RankedConfig.at(dataset, order[0], scores)


def reduced_best(
    dataset: SweepDataset,
    report: ReductionReport,
    spec: RequirementSpec | None = None,
    baseline: Configuration | None = None,
) -> RankedConfig:
    """Best feasible configuration reachable through the reduced lens.

    Only rows whose unselected knobs sit at their baseline levels are
    considered, and only the kept monitors contribute to the score.
    """
    spec = _resolve_spec(dataset, spec)
    selected = set(report.selected_knob_names)
    if not selected:
        raise ConfigError("reduction selected no knobs; nothing to sweep")
    if not report.kept_monitors:
        raise ConfigError("reduction kept no monitors; nothing to rank on")
    unknown = selected - set(dataset.space.names)
    if unknown:
        raise ConfigError(f"selected knobs not in this space: {sorted(unknown)}")
    unknown = set(report.kept_monitors) - set(MONITOR_NAMES)
    if unknown:
        raise ConfigError(f"kept monitors not among the sweep's monitors: {sorted(unknown)}")
    baseline = baseline or dataset.space.baseline_configuration()
    dataset.space.validate_configuration(baseline)

    pinned = [
        i for i, name in enumerate(dataset.space.names) if name not in selected
    ]
    indices = np.flatnonzero(
        (dataset.levels[:, pinned] == np.array(baseline.levels)[pinned]).all(axis=1)
    )
    if len(indices) < 2:
        raise ConfigError("reduced slice has fewer than two rows; cannot rank")

    columns = [(name, dataset.monitors[indices, MONITOR_NAMES.index(name)])
               for name in report.kept_monitors]
    scores = np.full(len(dataset), math.inf)
    scores[indices] = _combined_zscores(columns)
    return RankedConfig.at(dataset, _feasible_order(dataset, indices, scores, spec)[0], scores)


def _lower_is_better(name: str, *values: float) -> tuple[float, ...]:
    """``values`` of requirement ``name`` on a lower-is-better scale.

    Availability, the one higher-is-better requirement, becomes unavailability.
    """
    return tuple(1.0 - v for v in values) if name in HIGHER_IS_BETTER else values


def _percent_difference(name: str, oracle_value: float, reduced_value: float) -> float:
    """Signed relative regret of the reduced pick; positive favors it.

    Availability is compared through unavailability so that a drop
    from 0.9999 to 0.99 registers as the hundredfold regression it is.
    A zero oracle baseline with a differing reduced value has no
    finite relative measure; it is capped at one full unit (sign
    preserved), which no simulated dataset comes close to exercising.
    """
    base, other = _lower_is_better(name, oracle_value, reduced_value)
    if base == 0.0:
        return 0.0 if other == 0.0 else math.copysign(1.0, base - other)
    return (base - other) / base


def _improvement_ratio(name: str, baseline_value: float, picked_value: float) -> float | None:
    """How many times better the pick is than the baseline; None if undefined."""
    base, pick = _lower_is_better(name, baseline_value, picked_value)
    if pick == 0.0:
        return 1.0 if base == 0.0 else None
    return base / pick


@dataclass(frozen=True)
class ValidationResult:
    oracle: RankedConfig
    reduced: RankedConfig
    percent_differences: dict[str, float]
    max_negative_pct: float
    oracle_improvement: dict[str, float | None]
    reduced_improvement: dict[str, float | None]

    @property
    def picks_agree(self) -> bool:
        return self.oracle.config == self.reduced.config

    def to_json_dict(self, dataset: SweepDataset) -> dict:
        return {
            "oracle": self.oracle.to_json_dict(dataset),
            "reduced": self.reduced.to_json_dict(dataset),
            "picks_agree": self.picks_agree,
            "percent_differences": self.percent_differences,
            "max_negative_pct": self.max_negative_pct,
            "oracle_improvement_vs_baseline": self.oracle_improvement,
            "reduced_improvement_vs_baseline": self.reduced_improvement,
        }


def validate(
    dataset: SweepDataset,
    report: ReductionReport,
    spec: RequirementSpec | None = None,
    baseline: Configuration | None = None,
    weights: dict[str, float] | None = None,
) -> ValidationResult:
    """Quantify what the reduced-space search gives up, if anything."""
    spec = _resolve_spec(dataset, spec)
    baseline = baseline or dataset.space.baseline_configuration()
    try:
        baseline_index = dataset.index_of(baseline)
    except KeyError:
        raise ConfigError("baseline configuration missing from the dataset") from None
    if dataset.requirements is None:
        raise ConfigError("dataset has no derived requirement values")

    oracle = oracle_best(dataset, spec, weights)
    reduced = reduced_best(dataset, report, spec, baseline)

    o, r, b = (dict(zip(REQUIREMENT_NAMES, dataset.requirements[i].tolist()))
               for i in (oracle.index, reduced.index, baseline_index))
    pct = {name: _percent_difference(name, o[name], r[name]) for name in REQUIREMENT_NAMES}
    return ValidationResult(
        oracle=oracle,
        reduced=reduced,
        percent_differences=pct,
        max_negative_pct=max(0.0, max(-p for p in pct.values())),
        oracle_improvement={n: _improvement_ratio(n, b[n], o[n]) for n in REQUIREMENT_NAMES},
        reduced_improvement={n: _improvement_ratio(n, b[n], r[n]) for n in REQUIREMENT_NAMES},
    )
