"""Default knob space, workload and response-surface calibration.

The defaults describe a pool of two two-socket servers (16 cores each)
running a 20000-iteration Monte Carlo batch under a 600 second
deadline with an 81 watt input-power cap. Six platform knobs are
swept: core frequency plus five binary toggles, 128 configurations in
all. The effect magnitudes are synthetic calibration constants chosen
to behave like a compute-bound batch job; they are not measurements of
any physical machine.

Every scalar default is the field default of its dataclass in
``simulator`` or ``metrics``; this module adds the knob space, the
per-level effect table and the default seed.

Notes on individual knobs:

* SMT raises throughput substantially on this workload and costs CPU
  power and DRAM traffic.
* Turbo is a power-capped boost: opportunistic clock bursts within the
  same average power budget buy a few percent of throughput, while the
  reserved burst headroom shows up as a peak-power surcharge.
* Hardware prefetchers help a little and cut cache misses.
* ChipkillDC protection costs a sliver of throughput and power and
  slightly lowers the failure rate.
* Redundancy runs the batch mirrored on half the cores of each server:
  per-server failure rate drops sharply (spare cores absorb faults),
  but throughput halves and power stays, since the mirror cores do the
  same work.
"""

from __future__ import annotations

from .metrics import AvailabilityModel, CostModel, RequirementSpec
from .simulator import FaultModel, KnobEffects, LevelEffect, WorkloadParams
from .sweep import KnobDef, KnobLevel, KnobSpace

DEFAULT_SEED = 12

DVFS_LEVELS_GHZ = (1.2, 1.7, 2.2, 2.6)


def default_knob_space() -> KnobSpace:
    """The six-knob, 128-configuration default sweep space."""
    return KnobSpace((
        KnobDef(
            "DVFS",
            tuple(KnobLevel(f"{f:.1f}GHz", f) for f in DVFS_LEVELS_GHZ),
            baseline=len(DVFS_LEVELS_GHZ) - 1,
        ),
        KnobDef("SMT", (KnobLevel("Disable"), KnobLevel("Enable")), baseline=0),
        KnobDef(
            "DRAM Protection",
            (KnobLevel("No Protection"), KnobLevel("ChipkillDC")),
            baseline=0,
        ),
        KnobDef("Turbo Mode", (KnobLevel("Disable"), KnobLevel("Enable")), baseline=1),
        KnobDef("Prefetchers", (KnobLevel("Disable"), KnobLevel("Enable")), baseline=1),
        KnobDef("Redundancy", (KnobLevel("Disable"), KnobLevel("Enable")), baseline=0),
    ))


def default_workload() -> WorkloadParams:
    return WorkloadParams()


def default_effects() -> KnobEffects:
    """The response surface with the per-level effects of the default knobs."""
    return KnobEffects(levels={
        "SMT": {
            "Enable": LevelEffect(
                throughput=1.70,
                cpu_power=1.45,
                dram_activity=1.15,
                mpki=1.12,
            ),
        },
        "Turbo Mode": {
            "Enable": LevelEffect(
                throughput=1.03,
                peak_surcharge_w=12.0,
            ),
        },
        "Prefetchers": {
            "Enable": LevelEffect(
                throughput=1.08,
                cpu_power=1.01,
                dram_activity=1.06,
                mpki=0.75,
            ),
        },
        "DRAM Protection": {
            "ChipkillDC": LevelEffect(
                throughput=0.98,
                cpu_power=1.005,
                dram_activity=1.05,
                dram_background_w=0.8,
                mpki=1.02,
            ),
        },
        "Redundancy": {
            "Enable": LevelEffect(
                cores=0.5,
                fit=0.35,
            ),
        },
    })


def default_fault_model() -> FaultModel:
    return FaultModel()


def default_availability_model() -> AvailabilityModel:
    return AvailabilityModel()


def default_cost_model() -> CostModel:
    return CostModel()


def default_requirement_spec() -> RequirementSpec:
    return RequirementSpec()
