"""Shared builders for the synthetic datasets used across the test suite.

Exact-correlation fixtures scale columns by powers of two: multiplying
a float by 2**k only shifts the exponent, so every arithmetic step in a
correlation or z-score computation commutes with the scaling bit for
bit. That makes "this column is a perfect proxy of that one" hold
exactly, not just to within round-off.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from hpckit.reducer import (
    CorrelationMatrix,
    KnobSelection,
    MonitorMatch,
    ReductionReport,
)
from hpckit.sweep import (
    MONITOR_FIELDS,
    REQUIREMENT_NAMES,
    KnobDef,
    KnobLevel,
    KnobSpace,
    SweepDataset,
    enumerate_configs,
)

MONITOR_DEFAULTS = dict(
    execution_time=500.0,
    ipc=1.0,
    dram_power=10.0,
    cpu_power=60.0,
    peak_power=80.0,
    cpu_temperature=50.0,
    mpki=1.0,
    server_mtbf=1.0e6,
    system_mtbf=5.0e5,
    capex=5000.0,
    opex=50.0,
)


def monitor_vector(**overrides) -> tuple[float, ...]:
    """One row's eleven monitor values in MONITOR_NAMES order, set by short name."""
    if unknown := set(overrides) - set(MONITOR_DEFAULTS):
        raise TypeError(f"unknown monitor(s) {sorted(unknown)}")
    values = {**MONITOR_DEFAULTS, **overrides}
    if "peak_power" not in overrides and values["cpu_power"] > values["peak_power"]:
        values["peak_power"] = values["cpu_power"] * 1.25
    return tuple(values[attr] for _, attr in MONITOR_FIELDS)


def requirement_values(
    performance: float = 500.0,
    power: float = 70.0,
    availability: float = 0.995,
    cost: float = 5050.0,
    energy: float | None = None,
) -> tuple[float, ...]:
    """One row's five requirement values in REQUIREMENT_NAMES order."""
    if energy is None:
        energy = performance * power
    return (performance, power, energy, availability, cost)


def named(values, fields=MONITOR_FIELDS) -> SimpleNamespace:
    """One row's values as attributes named by the short names of ``fields``."""
    return SimpleNamespace(**{attr: float(v) for (_, attr), v in zip(fields, values)})


def space_of(*sizes: int) -> KnobSpace:
    """A space of categorical knobs K0, K1, ... with the given level counts."""
    knobs = tuple(
        KnobDef(
            name=f"K{i}",
            levels=tuple(KnobLevel(f"L{j}") for j in range(n)),
            baseline=0,
        )
        for i, n in enumerate(sizes)
    )
    return KnobSpace(knobs)


def build_dataset(
    space: KnobSpace,
    monitor_rows,
    requirement_rows=None,
    metadata=None,
) -> SweepDataset:
    """Dataset over the full enumeration of ``space`` with given row values."""
    configs = enumerate_configs(space)
    if len(monitor_rows) != len(configs):
        raise ValueError("one monitor vector per enumerated configuration required")
    return SweepDataset(space, [c.levels for c in configs], monitor_rows, requirement_rows,
                        metadata or {})


def dataset_from_requirements(
    perf, power, availability, cost, monitor_seed: int = 0
) -> SweepDataset:
    """Derived dataset with prescribed requirement columns.

    Energy is always performance times power, as the dataset's checks require.
    Monitors get mild random variation so every monitor column is
    usable, without influencing the requirement columns under test.
    """
    n = len(perf)
    sizes = _factor_sizes(n)
    space = space_of(*sizes)
    rng = np.random.default_rng(monitor_seed)
    mons = []
    reqs = []
    for i in range(n):
        scale = 1.0 +0.1 * rng.random()
        mons.append(
            monitor_vector(
                execution_time=400.0 * scale,
                cpu_power=55.0 * scale,
                dram_power=9.0 * scale,
                peak_power=90.0 * scale,
                cpu_temperature=45.0 * scale,
                ipc=1.1 * scale,
                mpki=0.8 * scale,
            )
        )
        reqs.append(
            requirement_values(
                performance=float(perf[i]),
                power=float(power[i]),
                energy=float(perf[i]) * float(power[i]),
                availability=float(availability[i]),
                cost=float(cost[i]),
            )
        )
    return build_dataset(space, mons, reqs)


def _factor_sizes(n: int) -> tuple[int, ...]:
    """Knob level counts whose product is n (n must be a power of two >= 4)."""
    sizes = []
    remaining = n
    if remaining < 4 or remaining & (remaining - 1):
        raise ValueError("row count must be a power of two >= 4")
    while remaining > 1:
        step = 4 if remaining % 4 == 0 else 2
        sizes.append(step)
        remaining //= step
    return tuple(sizes)


def planted_columns(seed: int, n: int = 64, n_noise: int = 3, noise_div: float = 100.0):
    """Requirement and monitor columns with a planted pairing.

    Each requirement series reappears as one monitor plus gaussian
    noise whose standard deviation is the signal's divided by
    ``noise_div`` (amplitude signal-to-noise ratio of ``noise_div``).
    Remaining monitors are independent noise. Returns (requirement
    columns, monitor columns, planted mapping by name).
    """
    rng = np.random.default_rng(seed)
    n_reqs = 5
    reqs = [(f"r{i}", rng.normal(0.0, 1.0, n)) for i in range(n_reqs)]
    total = n_reqs + n_noise
    slots = list(rng.permutation(total))
    mons: list = [None] * total
    planted = {}
    for i, (req_name, series) in enumerate(reqs):
        slot = slots[i]
        sigma = series.std(ddof=1) / noise_div
        mons[slot] = (f"m{slot}", series + rng.normal(0.0, sigma, n))
        planted[req_name] = f"m{slot}"
    for slot in range(total):
        if mons[slot] is None:
            mons[slot] = (f"m{slot}", rng.normal(0.0, 1.0, n))
    return reqs, mons, planted


# Proxy monitors for the perfect-proxy dataset, with the power-of-two
# factor tying each to its requirement column.
PROXY_PAIRS = (
    ("performance_s", "execution_time_s"),
    ("power_w", "cpu_power_w"),
    ("energy_j", "capex"),
    ("availability", "system_mtbf_h"),
    ("cost", "opex"),
)


def proxy_dataset() -> SweepDataset:
    """8-row dataset whose monitors are exact proxies of the requirements.

    execution_time equals performance; cpu_power is power / 2; capex is
    energy / 1024; system_mtbf is availability * 2**20; opex is
    cost / 32. All scalings are powers of two, so z-scores of proxy and
    requirement agree bit for bit and a search over the proxies must
    land on the oracle's row.
    """
    space = space_of(2, 2, 2)
    mons = []
    reqs = []
    for config in enumerate_configs(space):
        b0, b1, b2 = config.levels
        perf = 100.0 + 40.0 * b0 + 17.0 * b1 + 6.0 * b2
        power = 50.0 + 3.0 * b0 + 20.0 * b1 + 9.0 * b2
        energy = perf * power
        availability = 0.9 + 0.01 * (4 * b0 + 2 * b1 + b2)
        cost = 1000.0 + 100.0 * b0 + 200.0 * b1 + 400.0 * b2
        reqs.append((perf, power, energy, availability, cost))
        mons.append(
            monitor_vector(
                execution_time=perf,
                ipc=1.0,
                dram_power=power / 4.0,
                cpu_power=power / 2.0,
                peak_power=power,
                cpu_temperature=40.0,
                mpki=1.0,
                server_mtbf=1.0e6,
                system_mtbf=availability * 2.0**20,
                capex=energy / 2.0**10,
                opex=cost / 2.0**5,
            )
        )
    return build_dataset(space, mons, reqs)


def proxy_report(ds: SweepDataset) -> ReductionReport:
    """Reduction report keeping the five proxy monitors and every knob."""
    kept = tuple(m for _, m in PROXY_PAIRS)
    knob_cols = [
        (name, np.array([c.levels[i] for c in ds.configs()], dtype=float))
        for i, name in enumerate(ds.space.names)
    ]
    mon_cols = [(m, ds.monitor_column(m)) for m in kept]
    matrix = CorrelationMatrix.build(knob_cols, mon_cols)
    selected = tuple(
        KnobSelection(name, kept[0], 1.0) for name in ds.space.names
    )
    mapping = {req: MonitorMatch(mon, 1.0) for req, mon in PROXY_PAIRS}
    return ReductionReport(
        requirement_threshold=0.90,
        knob_threshold=0.40,
        kept_requirements=tuple(REQUIREMENT_NAMES),
        removed_requirements=(),
        kept_monitors=kept,
        removed_monitors=(),
        requirement_to_monitor=mapping,
        selected_knobs=selected,
        rejected_knobs=(),
        knob_coefficients=matrix,
    )


def make_report(
    ds: SweepDataset,
    kept_monitors,
    selected,
    requirement_threshold: float = 0.90,
    knob_threshold: float = 0.40,
) -> ReductionReport:
    """Hand-built reduction report for search tests.

    Only ``kept_monitors`` and the selected knob names influence the
    reduced search; the rest is filled with plausible bookkeeping.
    """
    kept = tuple(kept_monitors)
    knob_cols = [(n, ds.knob_column(n)) for n in ds.space.names]
    mon_cols = [(m, ds.monitor_column(m)) for m in kept]
    matrix = CorrelationMatrix.build(knob_cols, mon_cols)
    selected_t = tuple(KnobSelection(n, kept[0], 1.0) for n in selected)
    rejected_t = tuple(
        KnobSelection(n, kept[0], 0.0) for n in ds.space.names if n not in selected
    )
    return ReductionReport(
        requirement_threshold=requirement_threshold,
        knob_threshold=knob_threshold,
        kept_requirements=tuple(REQUIREMENT_NAMES),
        removed_requirements=(),
        kept_monitors=kept,
        removed_monitors=(),
        requirement_to_monitor={REQUIREMENT_NAMES[0]: MonitorMatch(kept[0], 1.0)},
        selected_knobs=selected_t,
        rejected_knobs=rejected_t,
        knob_coefficients=matrix,
    )


def textbook_pearson(x, y) -> float:
    """Independent textbook Pearson: covariance over product of sample sds.

    Deliberately a different arithmetic route from the implementation
    under test: explicit Python-loop sums, no numpy dot products, no
    clamping and no affine snapping.
    """
    n = len(x)
    mx = sum(float(v) for v in x) / n
    my = sum(float(v) for v in y) / n
    sxy = 0.0
    sxx = 0.0
    syy = 0.0
    for a, b in zip(x, y):
        dx = float(a) - mx
        dy = float(b) - my
        sxy += dx * dy
        sxx += dx * dx
        syy += dy * dy
    return sxy / ((sxx**0.5) * (syy**0.5))


def brute_force_system_availability(servers: int, required: int, a: float) -> float:
    """Probability of >= required servers up, by enumerating all 2**S states."""
    total = 0.0
    for state in range(2**servers):
        up = state.bit_count()
        if up >= required:
            total += a**up * (1.0 - a) ** (servers - up)
    return total
