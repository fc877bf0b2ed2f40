"""Release gate: the ten checks this toolkit promises to its users.

Each test prints exactly one verdict line so the whole gate can be read
at a glance with ``pytest tests/test_acceptance.py -s``:

    [acceptance] criterion  1: PASS  ...

The checks cover, in order: (1) the headline dimensionality reduction on
the default simulated sweep, (2) the reduced-vs-exhaustive validation
gap, (3) threshold consistency of the energy derivation, (4) the
binomial availability model against state enumeration, (5) the Pearson
routine against an independent textbook implementation, (6) recovery of
planted requirement-to-monitor pairings, (7) pruning of an energy column
that is performance times constant power, (8) zero gap under perfect
proxy monitors with every knob selected, (9) byte-identical artifacts
from repeated deterministic runs, and (10) the breadth of the randomized
property-test suite.
"""

import math
import re
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from hpckit import cli
from hpckit.defaults import (
    DEFAULT_SEED,
    default_availability_model,
    default_cost_model,
    default_effects,
    default_fault_model,
    default_knob_space,
    default_requirement_spec,
    default_workload,
)
from hpckit.metrics import (
    RequirementSpec,
    derive_dataset,
    derive_energy,
    min_servers,
    system_availability,
)
from hpckit.reducer import (
    map_requirements_to_monitors,
    pearson,
    prune_correlated,
    reduce as reduce_dataset,
)
from hpckit.search import validate
from hpckit.simulator import generate_sweep
from util import (
    brute_force_system_availability,
    planted_columns,
    proxy_dataset,
    proxy_report,
    textbook_pearson,
)


def _verdict(num: int, ok: bool, detail: str) -> str:
    line = f"[acceptance] criterion {num:>2}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    return line


def _default_pipeline(seed: int):
    raw = generate_sweep(
        default_knob_space(),
        default_workload(),
        default_effects(),
        default_fault_model(),
        seed,
    )
    return derive_dataset(
        raw,
        default_availability_model(),
        default_cost_model(),
        default_requirement_spec(),
    )


@pytest.fixture(scope="module")
def timed_default_run():
    """The default-seed sweep, derived and reduced, with wall time."""
    start = perf_counter()
    ds = _default_pipeline(DEFAULT_SEED)
    report = reduce_dataset(ds)
    elapsed = perf_counter() - start
    return ds, report, elapsed


def test_criterion_01_dimensionality_reduction(timed_default_run):
    _, report, elapsed = timed_default_run
    kept = set(report.kept_monitors)
    selected = set(report.selected_knob_names)
    ok = (
        kept == {"execution_time_s", "cpu_power_w", "capex"}
        and len(report.kept_monitors) == 3
        and selected == {"DVFS", "SMT", "Redundancy"}
        and len(report.selected_knobs) == 3
        and elapsed < 5.0
    )
    line = _verdict(
        1, ok,
        f"kept monitors {sorted(kept)}, selected knobs {sorted(selected)}, "
        f"{elapsed:.2f}s (< 5s)",
    )
    assert ok, line


def test_criterion_02_validation_gap(timed_default_run):
    ds, report, _ = timed_default_run
    default_gap = validate(ds, report).max_negative_pct

    seeds = np.random.default_rng(123).integers(0, 2**31 - 1, 25)
    gaps = []
    for seed in seeds:
        d = _default_pipeline(int(seed))
        gaps.append(validate(d, reduce_dataset(d)).max_negative_pct)
    median_gap = statistics.median(gaps)

    ok = default_gap <= 0.05 and median_gap <= 0.05
    line = _verdict(
        2, ok,
        f"default-seed gap {default_gap:.4f} <= 0.05, "
        f"median over 25 seeds {median_gap:.4f} <= 0.05",
    )
    assert ok, line


def test_criterion_03_energy_threshold_consistency():
    value = derive_energy(600.0, 81.0)
    ok = value == 48600.0
    line = _verdict(3, ok, f"derive_energy(600, 81) = {value} (exact == 48600)")
    assert ok, line


def test_criterion_04_availability_matches_state_enumeration():
    start = perf_counter()
    worst = 0.0
    cases = 0
    for servers in range(1, 13):
        for a in (0.1, 0.5, 0.9, 0.99):
            # One pass over all 2**S equal-availability states, bucketed
            # by up-count; suffix sums then give every required-count N.
            by_up = [0.0] * (servers + 1)
            for state in range(2**servers):
                up = state.bit_count()
                by_up[up] += a**up * (1.0 - a) ** (servers - up)
            for required in range(1, servers + 1):
                brute = math.fsum(by_up[required:])
                got = system_availability(servers, required, a)
                worst = max(worst, abs(got - brute))
                cases += 1

    # Independent minimal-server scan for the provisioning example.
    scan = 2
    while brute_force_system_availability(scan, 2, 0.99) < 0.99:
        scan += 1
    picked, _ = min_servers(2, 0.99, 0.99)
    elapsed = perf_counter() - start

    ok = worst <= 1e-12 and picked == 3 and scan == 3 and elapsed < 1.0
    line = _verdict(
        4, ok,
        f"max |error| {worst:.2e} over {cases} (S, N, a) cases (tol 1e-12), "
        f"min_servers(2, 0.99, 0.99) = {picked} (brute force {scan}), "
        f"{elapsed:.2f}s (< 1s)",
    )
    assert ok, line


def test_criterion_05_pearson_against_textbook_formula():
    rng = np.random.default_rng(1905)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 501))
        x = rng.normal(0.0, rng.uniform(0.5, 3.0), n)
        y = rng.normal(0.0, rng.uniform(0.5, 3.0), n)
        worst = max(worst, abs(pearson(x, y) - textbook_pearson(x, y)))

    exact = 0
    trials = 200
    for _ in range(trials):
        n = int(rng.integers(2, 101))
        x = rng.normal(0.0, 1.0, n)
        slope = float(rng.uniform(0.1, 5.0) * rng.choice((-1.0, 1.0)))
        intercept = float(rng.uniform(-1e3, 1e3))
        if pearson(x, slope * x + intercept) == math.copysign(1.0, slope):
            exact += 1

    ok = worst <= 1e-12 and exact == trials
    line = _verdict(
        5, ok,
        f"max |diff| {worst:.2e} over 1000 random pairs (tol 1e-12), "
        f"exact +/-1 on {exact}/{trials} affine pairs",
    )
    assert ok, line


def test_criterion_06_planted_correlation_recovery():
    hits = 0
    for seed in range(50):
        reqs, mons, planted = planted_columns(seed)
        mapping = map_requirements_to_monitors(reqs, mons)
        if all(mapping[req].monitor == mon for req, mon in planted.items()):
            hits += 1
    ok = hits == 50
    line = _verdict(
        6, ok, f"planted requirement-monitor pairs recovered in {hits}/50 seeded datasets"
    )
    assert ok, line


def test_criterion_07_energy_pruned_when_proportional_to_performance():
    rng = np.random.default_rng(77)
    failures = 0
    cases = 100
    for _ in range(cases):
        n = int(rng.integers(32, 129))
        perf = rng.uniform(100.0, 1000.0, n)
        # Constant power, a power of two so that energy = power * perf
        # is a bit-exact rescaling of the performance column.
        const_power = float(rng.choice((16.0, 32.0, 64.0, 128.0)))
        columns = [
            ("performance_s", perf),
            ("power_w", np.full(n, const_power)),
            ("energy_j", const_power * perf),
            ("availability", rng.uniform(0.9, 0.9999, n)),
            ("cost", rng.uniform(1e3, 1e4, n)),
        ]
        kept, removed = prune_correlated(columns, 0.90)
        energy_removed = any(
            r.removed == "energy_j"
            and r.reason == "correlated"
            and r.partner == "performance_s"
            for r in removed
        )
        if not (energy_removed and "performance_s" in kept and "energy_j" not in kept):
            failures += 1
    ok = failures == 0
    line = _verdict(
        7, ok,
        f"energy removed in favor of performance in {cases - failures}/{cases} "
        f"proportional datasets",
    )
    assert ok, line


def test_criterion_08_perfect_proxies_give_zero_gap():
    spec = RequirementSpec(
        performance_max_s=1e6,
        power_max_w=1e6,
        energy_max_j=1e12,
        availability_min=1e-6,
    )
    ds = proxy_dataset()
    result = validate(ds, proxy_report(ds), spec)
    ok = result.max_negative_pct == 0.0 and result.picks_agree
    line = _verdict(
        8, ok,
        f"gap {result.max_negative_pct} (exact == 0.0), "
        f"picks agree: {result.picks_agree}",
    )
    assert ok, line


_ARTIFACTS = (
    "sweep.csv", "derived.csv", "reduction.json", "coefficients.csv",
    "search.json", "leaderboard.txt", "validation.json", "improvement.txt",
    "report.txt",
)


def _run_cli_pipeline() -> None:
    """Deterministic 7-stage run writing the standard artifact names."""
    def run(*args) -> int:
        return cli.main(["--deterministic", *args])

    assert run("simulate", "--seed", str(DEFAULT_SEED), "--out", "sweep.csv") == 0
    assert run("derive", "--dataset", "sweep.csv", "--out", "derived.csv") == 0
    assert run("reduce", "--dataset", "derived.csv", "--out", "reduction.json",
               "--coefficients", "coefficients.csv") == 0
    assert run("search", "--dataset", "derived.csv", "--out", "search.json",
               "--leaderboard", "leaderboard.txt") == 0
    assert run("validate", "--dataset", "derived.csv",
               "--reduction", "reduction.json",
               "--out", "validation.json", "--table", "improvement.txt") == 0
    assert run("report", "--sweep", "sweep.csv", "--reduction", "reduction.json",
               "--search", "search.json", "--validation", "validation.json",
               "--out", "report.txt") == 0


def test_criterion_09_deterministic_runs_are_byte_identical(tmp_path, monkeypatch):
    dirs = []
    for name in ("first", "second"):
        d = tmp_path / name
        d.mkdir()
        monkeypatch.chdir(d)
        _run_cli_pipeline()
        dirs.append(d)

    produced = sorted(p.name for p in dirs[0].iterdir())
    identical = [
        name for name in _ARTIFACTS
        if (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    ]
    ok = produced == sorted(_ARTIFACTS) and len(identical) == len(_ARTIFACTS)
    line = _verdict(
        9, ok,
        f"{len(identical)}/{len(_ARTIFACTS)} artifacts byte-identical "
        f"across two deterministic runs",
    )
    assert ok, line


# The library documents 24 randomized invariants across its modules
# (enumeration, round trips, normalization, availability monotonicity,
# pruning replay, ranking dominance, simulator monotonicity, ...); each
# must be backed by at least one hypothesis property test running at
# least 100 cases.
_REQUIRED_PROPERTY_TESTS = 24
_MIN_CASES = 100


def test_criterion_10_property_suite_breadth():
    here = Path(__file__).parent
    sources = {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(here.glob("test_*.py"))
        if p.name != "test_acceptance.py"
    }
    given_count = sum(src.count("@given") for src in sources.values())
    example_counts = [
        int(m) for src in sources.values()
        for m in re.findall(r"max_examples=(\d+)", src)
    ]
    ok = (
        given_count >= _REQUIRED_PROPERTY_TESTS
        and all(c >= _MIN_CASES for c in example_counts)
    )
    line = _verdict(
        10, ok,
        f"{given_count} property tests (>= {_REQUIRED_PROPERTY_TESTS} required), "
        f"all explicit example counts >= {_MIN_CASES}",
    )
    assert ok, line
