"""Requirement derivation: performance, power, energy, availability, cost.

Four of the five requirements are simple combinations of measured
monitors. Availability folds in an over-provisioning step: a server
count S is grown until the probability that at least N of S servers
are up meets the target, and capex/opex then price that S. The derived
capex and opex are written back into the monitor columns so the cost
monitors reflect the provisioned system rather than placeholders.

The power, energy, per-server availability and cost formulas take floats
or whole numpy columns alike; ``derive_dataset`` applies them to columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .errors import NON_NEGATIVE, POSITIVE, UnreachableTargetError, require_int, require_number
from .sweep import MONITOR_NAMES, SweepDataset


@dataclass(frozen=True)
class AvailabilityModel:
    """Repair time and provisioning policy for the availability requirement."""

    mttr_h: float = 24.0               # hours to restore a failed server
    required_servers: int = 2          # N servers that must be up
    availability_target: float = 0.99  # minimum acceptable system availability
    max_servers: int = 16              # provisioning cap for the search

    def __post_init__(self):
        require_number("mttr_h", self.mttr_h, POSITIVE)
        require_int("required_servers", self.required_servers, 1)
        if not 0.0 < require_number("availability_target", self.availability_target) < 1.0:
            raise ValueError("availability_target must lie in (0, 1)")
        require_int("max_servers", self.max_servers, self.required_servers)


@dataclass(frozen=True)
class CostModel:
    """Unit prices for capex and opex."""

    server_price: float = 2000.0       # per server, currency
    infra_price: float = 500.0         # per server share of racks/cooling
    energy_price_per_j: float = 1e-6   # currency per joule
    maintenance_rate: float = 0.01     # yearly fraction of capex

    def __post_init__(self):
        for f in fields(self):
            require_number(f.name, getattr(self, f.name), NON_NEGATIVE)


@dataclass(frozen=True)
class RequirementSpec:
    """Thresholds for the feasibility filter.

    Performance, power and energy are upper bounds; availability is a
    lower bound; cost has no threshold and is only minimized. The
    Monte Carlo iteration count is a workload accuracy floor, checked
    once per dataset by ``check_mc_iterations``. A spec is an argument
    of each call that applies it; a dataset carries none.
    """

    performance_max_s: float = 600.0
    power_max_w: float = 81.0
    energy_max_j: float = 48600.0
    availability_min: float = 0.99
    min_mc_iterations: int = 10_000

    def __post_init__(self):
        for name in ("performance_max_s", "power_max_w", "energy_max_j"):
            require_number(name, getattr(self, name), POSITIVE)
        if not 0.0 < require_number("availability_min", self.availability_min) < 1.0:
            raise ValueError("availability_min must lie in (0, 1)")
        require_int("min_mc_iterations", self.min_mc_iterations, 1)

    def check_mc_iterations(self, ds: SweepDataset) -> None:
        """Reject ``ds`` if its ``mc_iterations`` metadata is below the floor or is not a number."""
        raw = ds.metadata.get("mc_iterations", "inf")
        try:
            iterations = float(raw)
        except (TypeError, ValueError):
            raise ValueError(f"mc_iterations metadata is not a number: {raw!r}") from None
        if not iterations >= self.min_mc_iterations:
            raise ValueError(f"dataset has mc_iterations {raw}, below the accuracy floor "
                             f"metrics.min_mc_iterations {self.min_mc_iterations}")


class CostBreakdown(NamedTuple):
    capex: float
    opex: float
    total: float


def derive_power(cpu_power: float, dram_power: float) -> float:
    """Total input power: CPU plus DRAM."""
    if np.any(cpu_power < 0) or np.any(dram_power < 0):
        raise ValueError("power readings must be non-negative")
    return cpu_power + dram_power


def derive_energy(performance: float, power: float) -> float:
    """Energy to solution: run time times input power."""
    if np.any(performance < 0) or np.any(power < 0):
        raise ValueError("performance and power must be non-negative")
    return performance * power


def server_availability(mtbf: float, mttr: float) -> float:
    """Steady-state availability of one server: MTBF / (MTBF + MTTR)."""
    if np.any(mtbf <= 0) or np.any(mttr <= 0):
        raise ValueError("mtbf and mttr must be positive")
    return mtbf / (mtbf + mttr)


def system_availability(servers: int, required: int, a: float) -> float:
    """Probability that at least ``required`` of ``servers`` are up.

    Servers fail independently, each up with probability ``a``.
    """
    if servers < 1 or required < 1 or required > servers:
        raise ValueError("need 1 <= required <= servers")
    if not 0.0 <= a <= 1.0:
        raise ValueError("per-server availability must lie in [0, 1]")
    total = 0.0
    for k in range(required, servers + 1):
        total += math.comb(servers, k) * a**k * (1.0 - a) ** (servers - k)
    return min(total, 1.0)


def min_servers(required: int, a: float, target: float, cap: int = 16) -> tuple[int, float]:
    """Smallest server count meeting the availability target, and its availability.

    Scans S from ``required`` to ``cap`` and returns the first S with
    system_availability(S, required, a) >= target, together with that
    availability. Raises UnreachableTargetError carrying the best
    achievable availability when even the cap falls short.
    """
    if cap < required:
        raise ValueError("cap must be at least required")
    best = 0.0
    for servers in range(required, cap + 1):
        avail = system_availability(servers, required, a)
        if avail >= target:
            return servers, avail
        best = max(best, avail)
    raise UnreachableTargetError(
        f"no server count up to {cap} reaches availability {target}; the best is {best}", best
    )


def derive_cost(servers: int, energy: float, model: CostModel) -> CostBreakdown:
    """Price a provisioned system.

    Capex buys the servers and their infrastructure share; opex charges
    the energy of one run on every provisioned server plus maintenance
    as a fraction of capex.
    """
    if np.any(servers < 1):
        raise ValueError("servers must be at least 1")
    if np.any(energy < 0):
        raise ValueError("energy must be non-negative")
    capex = servers * (model.server_price + model.infra_price)
    opex = energy * model.energy_price_per_j * servers + model.maintenance_rate * capex
    return CostBreakdown(capex, opex, capex + opex)


@np.errstate(over="ignore", invalid="ignore")  # the dataset's rules name an overflow
def derive_dataset(
    ds: SweepDataset,
    avail_model: AvailabilityModel,
    cost_model: CostModel,
    spec: RequirementSpec | None = None,
) -> SweepDataset:
    """Fill requirement values (and derived monitors) for every row.

    First rejects a dataset whose Monte Carlo iterations miss the floor
    of ``spec``, or of the default ``RequirementSpec()`` when it is None.

    The provisioned server count sets system MTBF (server MTBF divided by
    the count, a series model), capex and opex. Each step is the scalar
    formula applied elementwise, so every value is the float a per-row
    loop would give. The availability binomial stays the scalar
    ``system_availability`` over Python floats: a vectorised power
    differs from Python's ``**`` in the last bit.
    """
    (RequirementSpec() if spec is None else spec).check_mc_iterations(ds)
    monitors = ds.monitors
    col = {name: j for j, name in enumerate(MONITOR_NAMES)}
    performance = monitors[:, col["execution_time_s"]]
    power = derive_power(monitors[:, col["cpu_power_w"]], monitors[:, col["dram_power_w"]])
    energy = derive_energy(performance, power)
    server_mtbf = monitors[:, col["server_mtbf_h"]]
    a = server_availability(server_mtbf, avail_model.mttr_h).tolist()
    required = avail_model.required_servers
    servers, availability = zip(*(min_servers(required, x, avail_model.availability_target,
                                              avail_model.max_servers) for x in a))
    servers = np.array(servers, dtype=float)  # as Python converts an int times a float
    cost = derive_cost(servers, energy, cost_model)
    provisioned = monitors.copy()
    provisioned[:, col["system_mtbf_h"]] = server_mtbf / servers
    provisioned[:, col["capex"]] = cost.capex
    provisioned[:, col["opex"]] = cost.opex
    requirements = np.column_stack([performance, power, energy, availability, cost.total])
    # read-only and fresh, so the dataset keeps them uncopied; it shares ds.levels likewise
    provisioned.setflags(write=False)
    requirements.setflags(write=False)
    return replace(ds, monitors=provisioned, requirements=requirements, metadata=dict(ds.metadata))
