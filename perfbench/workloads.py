"""What the benchmark feeds the program: knob spaces, seeds and commands.

Everything here is written out from the README rather than read from
the program, so that the correctness checks compare the program's
outputs against an independent statement of its inputs and model.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

WORKLOADS = ("cli-quickstart", "pipeline-8192", "seeds-128")

SEED_MODULUS = 2**31 - 1

# The README's default space: (name, [(label, numeric value or None)], baseline index).
DEFAULT_SPACE = (
    ("DVFS", [("1.2GHz", 1.2), ("1.7GHz", 1.7), ("2.2GHz", 2.2), ("2.6GHz", 2.6)], 3),
    ("SMT", [("Disable", None), ("Enable", None)], 0),
    ("DRAM Protection", [("No Protection", None), ("ChipkillDC", None)], 0),
    ("Turbo Mode", [("Disable", None), ("Enable", None)], 1),
    ("Prefetchers", [("Disable", None), ("Enable", None)], 1),
    ("Redundancy", [("Disable", None), ("Enable", None)], 0),
)

# Six binary knobs without any level effect grow the space to 8192 rows.
NOOP_KNOBS = tuple((f"X{i}", [("off", None), ("on", None)], 0) for i in range(6))
SPACE_8192 = DEFAULT_SPACE + NOOP_KNOBS

# Defaults of the requirement model, as the README documents them.
MODEL = {
    "mttr_h": 24.0,
    "required_servers": 2,
    "availability_target": 0.99,
    "max_servers": 16,
    "server_price": 2000.0,
    "infra_price": 500.0,
    "energy_price_per_j": 1e-6,
    "maintenance_rate": 0.01,
    "performance_max_s": 600.0,
    "power_max_w": 81.0,
    "energy_max_j": 48600.0,
    "availability_min": 0.99,
    "req_threshold": 0.90,
    "knob_threshold": 0.40,
}

MONITORS = (
    "execution_time_s", "ipc", "dram_power_w", "cpu_power_w", "peak_power_w",
    "cpu_temp_c", "mpki", "server_mtbf_h", "system_mtbf_h", "capex", "opex",
)
REQUIREMENTS = ("performance_s", "power_w", "energy_j", "availability", "cost")


def space_json(space) -> dict:
    """A space tuple above in the program's knob-space JSON form."""
    return {
        "knobs": [
            {
                "name": name,
                "levels": [
                    {"label": label} if value is None else {"label": label, "value": value}
                    for label, value in levels
                ],
                "baseline": baseline,
            }
            for name, levels, baseline in space
        ]
    }


def sweep_seed(seed: int) -> int:
    """Simulator seed for one benchmark run; the program needs it non-negative."""
    return seed % SEED_MODULUS


def seed_list(seed: int) -> list[int]:
    """The 25 sweep seeds of ``seeds-128``.

    They are the seeds of acceptance criterion 2 (the first 25 draws of
    ``default_rng(123)``), shifted by the run seed, so ``--seed 0``
    gives exactly that list.
    """
    import numpy as np

    base = np.random.default_rng(123).integers(0, SEED_MODULUS, 25)
    return [int((b + seed) % SEED_MODULUS) for b in base]


def quickstart_commands(seed: int) -> list[tuple[str, list[str]]]:
    """The README's six quick-start subcommands, with relative paths."""
    return [
        ("simulate", ["simulate", "--seed", str(sweep_seed(seed)), "--out", "sweep.csv"]),
        ("derive", ["derive", "--dataset", "sweep.csv", "--out", "derived.csv"]),
        ("reduce", ["reduce", "--dataset", "derived.csv", "--out", "reduction.json",
                    "--coefficients", "coefficients.csv"]),
        ("search", ["search", "--dataset", "derived.csv", "--out", "search.json",
                    "--leaderboard", "leaderboard.txt"]),
        ("validate", ["validate", "--dataset", "derived.csv", "--reduction", "reduction.json",
                      "--out", "validation.json", "--table", "improvement.txt"]),
        ("report", ["report", "--sweep", "sweep.csv", "--reduction", "reduction.json",
                    "--search", "search.json", "--validation", "validation.json",
                    "--out", "report.txt"]),
    ]


QUICKSTART_ARTIFACTS = (
    "sweep.csv", "derived.csv", "reduction.json", "coefficients.csv", "search.json",
    "leaderboard.txt", "validation.json", "improvement.txt", "report.txt",
)


def child_env() -> dict:
    """Environment for every child process: the checkout's sources, no user config.

    Bytecode caching is left on, as in an installed package, so that a
    cold start measures interpreter start and imports, not compilation.
    """
    env = dict(os.environ)
    env.pop("HPCKIT_CONFIG", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def has_program() -> bool:
    return os.path.isfile(os.path.join(SRC, "hpckit", "__init__.py"))


PYTHON = sys.executable
