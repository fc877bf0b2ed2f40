"""Synthetic cluster sweep generator.

Models a small server pool running a fixed Monte Carlo workload in
repeated deadline-bounded intervals. Knob settings move the response
surfaces (iteration throughput, power draw, temperature, miss rate,
failure rate) through per-level multipliers; measurement noise and
fault injection come from a seeded generator so a given seed always
reproduces the same dataset bit for bit.

Per interval, each up server can fail. A failure mid-interval
reassigns the remaining work to the surviving servers, stretching the
finish time, and keeps the failed server down for a configurable
number of repair intervals. Interval outcomes are classified into the
no-fault case, a fault absorbed within the deadline, a deadline miss
with the full pool up, and a deadline miss while a server is offline.
Only the last two count against interval availability. The reported
execution time is the trimmed mean (min and max dropped) of the
fault-free interval times.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import operator
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import FINITE, NON_NEGATIVE, POSITIVE, require_int, require_number
from .sweep import (
    Configuration,
    KnobSpace,
    SweepDataset,
    enumerate_configs,
    enumeration_rank,
)


@dataclass(frozen=True)
class WorkloadParams:
    """Fixed properties of the simulated Monte Carlo batch."""

    mc_iterations: int = 20_000
    deadline_s: float = 600.0
    servers: int = 2                 # server pool running the batch
    cores_per_server: int = 16       # two CPUs with eight cores each
    base_seconds: float = 1.85       # seconds per iteration per core at 1 GHz
    result_processing_s: float = 20.0

    def __post_init__(self):
        for name in ("mc_iterations", "servers", "cores_per_server"):
            require_int(name, getattr(self, name), 1)
        for name in ("deadline_s", "base_seconds", "result_processing_s"):
            require_number(name, getattr(self, name), POSITIVE)


@dataclass(frozen=True)
class LevelEffect:
    """How one knob level shifts the response surfaces.

    All factors are multiplicative with neutral value 1.0 except the
    two additive watt terms. ``cores`` scales the usable core count
    (0.5 models core sparing that idles half the cores).
    """

    throughput: float = 1.0
    frequency: float = 1.0
    cores: float = 1.0
    cpu_power: float = 1.0
    dram_activity: float = 1.0
    dram_background_w: float = 0.0
    temperature: float = 1.0
    mpki: float = 1.0
    fit: float = 1.0
    peak_surcharge_w: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            require_number(f.name, getattr(self, f.name),
                           NON_NEGATIVE if f.name.endswith("_w") else POSITIVE)


@dataclass(frozen=True)
class NoiseParams:
    """Relative (or absolute, where noted) measurement noise levels."""

    time: float = 0.008
    cpu_power: float = 0.005
    dram_power: float = 0.008
    peak_margin: float = 0.10
    temperature_c: float = 2.0   # absolute, degrees
    ipc: float = 0.01
    mpki: float = 0.30
    fit: float = 0.10

    def __post_init__(self):
        for f in fields(self):
            require_number(f"noise level {f.name}", getattr(self, f.name), NON_NEGATIVE)


@dataclass(frozen=True)
class KnobEffects:
    """Response-surface model: scalars plus per-knob level factors.

    The default magnitudes are synthetic calibration constants shaped
    to resemble a compute-bound Monte Carlo batch on small two-socket
    servers; they are not measurements.
    """

    frequency_knob: str = "DVFS"
    reference_frequency_ghz: float = 2.6
    cpu_power_base_w: float = 63.5
    cpu_power_exponent: float = 1.5
    dram_background_w: float = 4.5
    dram_activity_w: float = 6.5
    temperature_ambient_c: float = 28.0
    temperature_per_watt: float = 0.35
    peak_margin_w: float = 1.5
    ipc_per_core: float = 1.08
    mpki_base: float = 0.013
    base_fit: float = 300_000.0      # server failures per 1e9 hours
    noise: NoiseParams = field(default_factory=NoiseParams)
    levels: dict = field(default_factory=dict)  # knob name -> level label -> LevelEffect

    def __post_init__(self):
        if not isinstance(self.frequency_knob, str):
            raise ValueError(f"frequency_knob must be a string, got {self.frequency_knob!r}")
        for names, rule in (
            (("reference_frequency_ghz", "cpu_power_base_w", "ipc_per_core",
              "mpki_base", "base_fit", "temperature_per_watt"), POSITIVE),
            (("dram_background_w", "dram_activity_w", "peak_margin_w"), NON_NEGATIVE),
            (("cpu_power_exponent", "temperature_ambient_c"), FINITE),
        ):
            for name in names:
                require_number(name, getattr(self, name), rule)
        for knob_name, table in self.levels.items():
            for label, eff in table.items():
                if not isinstance(eff, LevelEffect):
                    raise ValueError(
                        f"effect for {knob_name}/{label} must be a LevelEffect"
                    )


@dataclass(frozen=True)
class CombinedEffect:
    """Product of all level effects for one configuration."""

    frequency_ghz: float
    usable_cores: float
    throughput: float
    cpu_power: float
    dram_activity: float
    dram_background_w: float
    temperature: float
    mpki: float
    fit: float
    peak_surcharge_w: float


def combine_effects(space: KnobSpace, config: Configuration, effects: KnobEffects) -> CombinedEffect:
    """Multiply (or add) the level effects of ``config`` knob by knob, in space order.

    A level without an entry in ``effects.levels`` is skipped: its
    neutral factors (1.0, or 0.0 for the non-negative watt terms) would
    leave every product and sum bit for bit unchanged.
    """
    space.validate_configuration(config)
    return _combine_effects(space, config, effects)


def _combine_effects(space: KnobSpace, config: Configuration, effects: KnobEffects) -> CombinedEffect:
    """combine_effects for a configuration already checked against ``space``."""
    frequency = effects.reference_frequency_ghz
    freq_mult = cores_mult = throughput = cpu_power = dram_act = 1.0
    temp = mpki = fit = 1.0
    dram_bg = surcharge = 0.0
    tables, frequency_knob = effects.levels, effects.frequency_knob
    for knob, idx in zip(space.knobs, config.levels):
        level = knob.levels[idx]
        if knob.name == frequency_knob and level.value is not None:
            frequency = level.value
        table = tables.get(knob.name)
        if table is None or (eff := table.get(level.label)) is None:
            continue
        freq_mult *= eff.frequency
        cores_mult *= eff.cores
        throughput *= eff.throughput
        cpu_power *= eff.cpu_power
        dram_act *= eff.dram_activity
        dram_bg += eff.dram_background_w
        temp *= eff.temperature
        mpki *= eff.mpki
        fit *= eff.fit
        surcharge += eff.peak_surcharge_w
    return CombinedEffect(
        frequency_ghz=frequency * freq_mult,
        usable_cores=cores_mult,
        throughput=throughput,
        cpu_power=cpu_power,
        dram_activity=dram_act,
        dram_background_w=dram_bg,
        temperature=temp,
        mpki=mpki,
        fit=fit,
        peak_surcharge_w=surcharge,
    )


def _interval_seconds(params: WorkloadParams, eff: CombinedEffect, servers_up: int) -> float:
    cores = params.cores_per_server * eff.usable_cores
    rate = servers_up * cores * eff.frequency_ghz * eff.throughput
    return params.mc_iterations * params.base_seconds / rate + params.result_processing_s


def interval_time(
    space: KnobSpace,
    config: Configuration,
    params: WorkloadParams,
    effects: KnobEffects,
    servers_up: int,
) -> float:
    """Noise-free seconds for one interval with ``servers_up`` servers."""
    if servers_up < 1:
        raise ValueError("servers_up must be at least 1")
    return _interval_seconds(params, combine_effects(space, config, effects), servers_up)


class FaultCase(enum.Enum):
    NO_FAULT = "no_fault"
    CASE1 = "fault_within_deadline"
    CASE2 = "deadline_miss_full_servers"
    CASE3 = "deadline_miss_server_offline"


def classify_fault_outcome(
    delay_applied: float,
    finish_time: float,
    deadline: float,
    servers_remaining: int,
    servers_required: int,
) -> FaultCase:
    """Classify one interval; ``delay_applied`` > 0 marks a fault.

    A fault-free interval is never an availability event, even when it
    overruns the deadline: chronic slowness belongs to the performance
    requirement, not the availability ledger. A faulty interval that
    still meets the deadline is absorbed; past the deadline, the case
    depends on whether the full pool is still standing.
    """
    if deadline <= 0:
        raise ValueError("deadline must be positive")
    if delay_applied <= 0:
        return FaultCase.NO_FAULT
    if finish_time <= deadline:
        return FaultCase.CASE1
    if servers_remaining >= servers_required:
        return FaultCase.CASE2
    return FaultCase.CASE3


@dataclass(frozen=True)
class FaultModel:
    """Per-interval fault injection.

    With ``probability`` unset, the per-server failure probability is
    derived from the configuration's FIT rate over a nominal interval.
    A failed server stays down for ``repair_intervals`` subsequent
    intervals; zero means in-place recovery within the same interval.
    """

    probability: float | None = None
    probability_scale: float = 1.0
    repair_intervals: int = 2

    def __post_init__(self):
        p = self.probability
        if p is not None and not 0.0 <= require_number("probability", p) < 1.0:
            raise ValueError("probability must lie in [0, 1)")
        require_number("probability_scale", self.probability_scale, NON_NEGATIVE)
        require_int("repair_intervals", self.repair_intervals, 0)

    def per_interval_probability(self, fit: float, interval_hours: float) -> float:
        if self.probability is not None:
            return self.probability
        return min(0.5, fit * 1e-9 * interval_hours * self.probability_scale)


class IntervalRecord(NamedTuple):
    duration: float
    outcome: FaultCase
    servers_up: int


@dataclass(frozen=True)
class SimulationResult:
    monitors: tuple[float, ...]  # in MONITOR_NAMES order
    intervals: tuple[IntervalRecord, ...]
    successes: int  # intervals that count for availability: no deadline miss after a fault


def _trimmed(values: list[float]) -> float:
    """trimmed_mean of a non-empty list of floats."""
    ordered = sorted(values)
    if len(ordered) >= 3:
        ordered = ordered[1:-1]
    if ordered[0] == ordered[-1]:
        # the mean of identical values is that value; sum()/len() would
        # round it through 3*t/3 and lose bit-exactness
        return ordered[0]
    return sum(ordered) / len(ordered)


def trimmed_mean(values) -> float:
    """Mean after dropping the single smallest and largest value."""
    if not (values := list(map(float, values))):
        raise ValueError("trimmed_mean needs at least one value")
    return _trimmed(values)


DEFAULT_INTERVALS = 7


def _seed(seed) -> int:
    """``seed`` as a non-negative int; numpy integers pass, ``bool`` and floats do not."""
    is_int = hasattr(seed, "__index__") and not isinstance(seed, bool)
    if (value := operator.index(seed) if is_int else -1) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return value


# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_STREAM_BLOCK = 1024  # ranks hashed together by _stream_words


def _hash_constants(const: int, mult: int):
    """The (current, next) hash constant pairs SeedSequence steps through, mod 2**32."""
    while True:
        step = const * mult & 0xFFFFFFFF
        yield const, step
        const = step


def _hash(value: np.ndarray, constants) -> np.ndarray:
    """One SeedSequence hash round on a uint32 column: xor, multiply, fold the high half down."""
    const, step = next(constants)
    value = (value ^ const) * step
    return value ^ value >> 16


@functools.lru_cache(maxsize=1)
def _stream_words(seed: int, block: int) -> np.ndarray:
    """``SeedSequence([seed, r]).generate_state(4, np.uint64)`` for the ranks ``r``
    of ``block``, as one read-only ``[1024, 4]`` array; ``seed`` and every rank
    must lie below 2**32, so each is one entropy word.

    This is SeedSequence's hash for 2-word entropy, run on uint32 columns of
    1024 ranks, where uint32 arithmetic wraps mod 2**32 as the C code does:
    hashmix each word of the 4-word pool (seed, rank, 0, 0), mix every pool
    word into every other, then hash the pool cyclically into 8 output words.
    """
    pool = np.zeros((4, _STREAM_BLOCK), np.uint32)
    pool[0] = seed
    pool[1] = np.arange(block * _STREAM_BLOCK, (block + 1) * _STREAM_BLOCK, dtype=np.uint32)
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(word, constants) for word in pool]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_MULT_L - _hash(pool[src], constants) * _MIX_MULT_R
                pool[dst] = mixed ^ mixed >> 16
    # Output word 2k is the low half of uint64 k. It comes first in memory on
    # a little-endian host and second on a big-endian one, which is what
    # generate_state's little-endian view gives.
    swap = int(sys.byteorder == "big")
    words = np.empty((_STREAM_BLOCK, 8), np.uint32)
    constants = _hash_constants(_INIT_B, _MULT_B)
    for i in range(8):
        words[:, i ^ swap] = _hash(pool[i % 4], constants)
    block_words = words.view(np.uint64)
    block_words.flags.writeable = False
    return block_words


@functools.cache
def _rank_seed_type() -> type:
    """The seed sequence that hands PCG64 one rank's row of ``_stream_words``.

    Built on first use: subclassing ``ISeedSequence`` loads ``numpy.random``,
    which importing this module does not.
    """
    from numpy.random.bit_generator import ISeedSequence

    class RankSeed(ISeedSequence):
        def __init__(self, seed: int, rank: int, words: np.ndarray):
            self.seed, self.rank, self.words = seed, rank, words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words == 4 and np.dtype(dtype) == np.uint64:
                return self.words
            return np.random.SeedSequence([self.seed, self.rank]).generate_state(n_words, dtype)

    return RankSeed


def _stream(seed: int, rank: int):
    """The generator of configuration ``rank``: the stream ``default_rng([seed, rank])`` gives."""
    random = np.random
    if seed >> 32 or rank >> 32:  # more than one entropy word: not what _stream_words hashes
        seq = random.SeedSequence([seed, rank])
    else:
        block, row = divmod(rank, _STREAM_BLOCK)
        seq = _rank_seed_type()(seed, rank, _stream_words(seed, block)[row])
    return random.Generator(random.PCG64(seq))


def _noisy(scale: float, sigma: float, z: list[float]) -> list[float]:
    """``scale`` times the noise factors ``1 + sigma*z``, each floored at 0.05 to stay positive."""
    return [scale * (0.05 if (x := 1.0 + sigma * v) < 0.05 else x) for v in z]


def _interval_log(
    params: WorkloadParams, fault_model: FaultModel, times: list[float],
    time_noise: list[float], uniforms, p_fail: float,
) -> tuple[list[IntervalRecord], list[float]]:
    """Interval records and fault-free interval times, reading ``uniforms`` as drawn."""
    servers = params.servers
    down = [0] * servers
    records: list[IntervalRecord] = []
    fault_free_times: list[float] = []
    for i in range(len(time_noise)):
        servers_up = down.count(0)
        down = [max(0, d - 1) for d in down]
        if servers_up == 0:
            # Whole pool offline: the interval is lost outright.
            records.append(IntervalRecord(2.0 * params.deadline_s, FaultCase.CASE3, 0))
            continue
        t0 = times[servers_up] * time_noise[i]
        failures = 0
        for s in range(servers):
            if down[s] == 0 and next(uniforms) < p_fail:
                failures += 1
                down[s] = fault_model.repair_intervals
        if failures == 0:
            records.append(IntervalRecord(t0, FaultCase.NO_FAULT, servers_up))
            fault_free_times.append(t0)
            continue
        survivors = servers_up - failures
        done = next(uniforms)
        if survivors == 0:
            finish = max(2.0 * params.deadline_s, 2.0 * t0)
        else:
            # Work done before the failure stands; the rest is
            # reassigned across the surviving servers.
            finish = done * t0 + (1.0 - done) * t0 * servers_up / survivors
        remaining = down.count(0)
        outcome = classify_fault_outcome(
            finish - t0, finish, params.deadline_s, remaining, servers
        )
        records.append(IntervalRecord(finish, outcome, servers_up))
    return records, fault_free_times


def simulate_config_detailed(
    space: KnobSpace,
    config: Configuration,
    params: WorkloadParams,
    effects: KnobEffects,
    fault_model: FaultModel,
    n_intervals: int = DEFAULT_INTERVALS,
    seed: int = 0,
) -> SimulationResult:
    """Measure one configuration, returning monitors and interval log.

    The configuration draws from its own stream,
    ``Generator(PCG64(SeedSequence([seed, rank])))`` (the stream
    ``default_rng([seed, rank])`` gives) with ``rank`` its position in
    ``enumerate_configs(space)``: first 7n+1 standard normals, n each
    for cpu power, dram power, peak margin, temperature, ipc and mpki,
    one for the FIT rate and n for the interval time; then the fault
    uniforms: per interval, one for each server not under repair and
    one more for the failure point if a server failed.
    """
    seed = _seed(seed)
    require_int("n_intervals", n_intervals)
    if n_intervals < 5:
        raise ValueError("n_intervals must be at least 5 for a trimmed mean")
    rank = enumeration_rank(space, config)  # also checks config against space
    eff = _combine_effects(space, config, effects)
    rng = _stream(seed, rank)
    noise, n, servers = effects.noise, n_intervals, params.servers

    # Generator.normal(loc, s) is loc + s*z on the same standard normal z,
    # so one draw of all the normals keeps every value bit for bit.
    z = rng.standard_normal(7 * n + 1).tolist()
    # The most an interval draws is one uniform per server plus the failure point.
    u = rng.random(n * (servers + 1)).tolist()
    time_noise = _noisy(1.0, noise.time, z[6 * n + 1:])

    fit = effects.base_fit * eff.fit * _noisy(1.0, noise.fit, z[6 * n:6 * n + 1])[0]
    times = [0.0] + [_interval_seconds(params, eff, up) for up in range(1, servers + 1)]
    nominal = times[servers]
    p_fail = fault_model.per_interval_probability(fit, nominal / 3600.0)
    if min(u[:n * servers]) >= p_fail:
        # No server fails, so the interval loop would read exactly these
        # uniforms and log every interval fault-free on the full pool.
        fault_free = [nominal * t for t in time_noise]
        records = [IntervalRecord(t, FaultCase.NO_FAULT, servers) for t in fault_free]
        successes = n
    else:
        records, fault_free = _interval_log(params, fault_model, times, time_noise, iter(u), p_fail)
        successes = sum(r.outcome not in (FaultCase.CASE2, FaultCase.CASE3) for r in records)

    f_ratio = eff.frequency_ghz / effects.reference_frequency_ghz
    cpu_w = effects.cpu_power_base_w * f_ratio**effects.cpu_power_exponent * eff.cpu_power
    cpu = _noisy(cpu_w, noise.cpu_power, z[:n])
    dram_w = (effects.dram_background_w + eff.dram_background_w
              + effects.dram_activity_w * f_ratio * eff.dram_activity)
    dram = _noisy(dram_w, noise.dram_power, z[n:2 * n])
    margins = _noisy(effects.peak_margin_w, noise.peak_margin, z[2 * n:3 * n])
    surcharge = eff.peak_surcharge_w
    peak = [c + d + m + surcharge for c, d, m in zip(cpu, dram, margins)]
    ambient, per_watt = effects.temperature_ambient_c, effects.temperature_per_watt
    heat, sigma = eff.temperature, noise.temperature_c
    temp = [ambient + per_watt * c * heat + (0.0 + sigma * v)  # as Generator.normal(0.0, sigma)
            for c, v in zip(cpu, z[3 * n:4 * n])]
    ipc = effects.ipc_per_core * (params.cores_per_server * eff.usable_cores) * eff.throughput
    mpki = effects.mpki_base * eff.mpki

    server_mtbf = 1e9 / fit
    monitors = (
        _trimmed(fault_free) if fault_free else nominal,  # execution time
        _trimmed(_noisy(ipc, noise.ipc, z[4 * n:5 * n])),
        _trimmed(dram),
        _trimmed(cpu),
        _trimmed(peak),
        _trimmed(temp),
        _trimmed(_noisy(mpki, noise.mpki, z[5 * n:6 * n])),
        server_mtbf,
        server_mtbf,  # system MTBF, provisional; provisioning divides it later
        0.0,          # capex and opex, filled by requirement derivation
        0.0,
    )
    return SimulationResult(monitors, tuple(records), successes)


def parameters_digest(
    space: KnobSpace,
    params: WorkloadParams,
    effects: KnobEffects,
    fault_model: FaultModel,
) -> str:
    """Stable hash of everything that shapes the sweep besides the seed."""
    payload = {
        "space": space.to_json_dict(),
        "workload": asdict(params),
        "effects": asdict(effects),
        "fault_model": asdict(fault_model),
    }
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def generate_sweep(
    space: KnobSpace,
    params: WorkloadParams,
    effects: KnobEffects,
    fault_model: FaultModel,
    seed: int,
    n_intervals: int = DEFAULT_INTERVALS,
) -> SweepDataset:
    """Simulate every configuration in the space once.

    Rows come out in enumeration order with requirement values left
    underived; metadata records the seed, the parameter digest and the
    aggregate interval success fraction.
    """
    seed = _seed(seed)
    levels, monitors, good = [], [], 0
    for config in enumerate_configs(space):
        result = simulate_config_detailed(
            space, config, params, effects, fault_model, n_intervals, seed
        )
        levels.append(config.levels)
        monitors.append(result.monitors)
        good += result.successes
    metadata = {
        "seed": str(seed),
        "parameters": parameters_digest(space, params, effects, fault_model),
        "mc_iterations": str(params.mc_iterations),
        "n_intervals": str(n_intervals),
        "interval_success_fraction": format(good / (len(levels) * n_intervals), ".6f"),
    }
    return SweepDataset(space, levels, monitors, metadata=metadata)
