"""Spans and call counts around the program's public functions.

The tracer wraps functions at their module attributes from outside the
program. A wrapped name is patched in every loaded ``hpckit`` module
that holds the same function object, so a call counts wherever it is
made from. Spans (name, start, end, parent) and counts stay in memory
until the run writes them out.

Run as a script, it is ``python -m hpckit.cli`` with the tracer
installed, and writes the spans and counts of that one command to a
JSON file:

    python3 perfbench/tracing.py TRACE.json --deterministic simulate --out sweep.csv
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import Counter

# Public functions timed as spans: "<module>.<function>".
SPANS = (
    "simulator.generate_sweep",
    "sweep.export_csv",
    "sweep.ingest_csv",
    "metrics.derive_dataset",
    "reducer.reduce",
    "reducer.prune_correlated",
    "reducer.map_requirements_to_monitors",
    "reducer.select_knobs",
    "search.oracle_best",
    "search.reduced_best",
    "search.validate",
)

# Functions whose calls are only counted: too frequent for a span each.
COUNTS = (
    "simulator.combine_effects",
    "simulator.interval_time",
    "simulator.simulate_config_detailed",
    "sweep.enumeration_rank",
    "metrics.system_availability",
    "reducer.pearson",
    "search.is_feasible",
)

# Spans whose file argument's size adds to the "sweep.csv_bytes" count.
SIZED = ("sweep.export_csv", "sweep.ingest_csv")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _span(self, name, fn):
        counts = self.counts
        sized = name in SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                path = next((a for a in args if isinstance(a, (str, os.PathLike))), None)
                if sized and path is not None and os.path.exists(path):
                    counts["sweep.csv_bytes"] += os.path.getsize(path)
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every name in SPANS and COUNTS; a missing one is noted as absent."""
        self.absent = []
        for names, make in ((SPANS, self._span), (COUNTS, self._count)):
            for name in names:
                module, attr = name.split(".")
                original = getattr(sys.modules.get(f"hpckit.{module}"), attr, None)
                if original is None:
                    self.absent.append(name)
                    continue
                wrapped = make(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name == "hpckit" or mod_name.startswith("hpckit.")) \
                            and getattr(mod, attr, None) is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def adopt(self, spans, counts, absent, parent: int) -> None:
        """Take over another process's spans and counts, below span ``parent``."""
        offset = len(self.spans)
        for name, start, end, up in spans:
            self.spans.append([name, start, end, parent if up < 0 else up + offset])
        self.counts.update(counts)
        self.absent = sorted(set(self.absent) | set(absent))

    # -- results -----------------------------------------------------------

    def figures(self, rounds) -> dict[str, float]:
        """Medians over traced rounds of ``<name>_s`` and ``<layer>.self_s``.

        Each round is a dict whose ``first_span`` and ``end_span`` delimit
        its spans. Every wrapped function and its layer has a figure, 0.0
        in a round that did not call it.
        """
        present = [n for n in SPANS if n not in self.absent]
        per_round = []
        for r in rounds:
            spans = self.spans[: r["end_span"]]
            figures = {f"{name}_s": 0.0 for name in present}
            figures.update({f"{name.split('.')[0]}.self_s": 0.0 for name in present})
            figures.update({f"{name}_s": v
                            for name, v in durations_by_name(spans, r["first_span"]).items()})
            figures.update({f"{layer}.self_s": v
                            for layer, v in self_time_by_layer(spans, r["first_span"]).items()})
            per_round.append(figures)
        names = sorted({k for f in per_round for k in f})
        return {n: statistics.median(f.get(n, 0.0) for f in per_round) for n in names}

    def count_figures(self, counts) -> dict[str, int]:
        """``<name>.calls`` for every counted function, and ``sweep.csv_bytes``."""
        out = {f"{name}.calls": counts.get(name, 0) for name in COUNTS if name not in self.absent}
        if any(name not in self.absent for name in SIZED):
            out["sweep.csv_bytes"] = counts.get("sweep.csv_bytes", 0)
        return out

    def layer_metrics(self, rounds) -> dict:
        """Per-layer figures from traced rounds that each hold their ``counts``.

        Counts come from the first round; ``counts_repeat`` is False when a
        later round counted otherwise.
        """
        if not rounds:
            return {}
        out = self.figures(rounds)
        out.update(self.count_figures(rounds[0]["counts"]))
        if any(r["counts"] != rounds[0]["counts"] for r in rounds):
            out["counts_repeat"] = False
        return out

    def dump(self, path: str, **meta) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "span_fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "absent": self.absent}, fh)


def durations_by_name(spans, first: int = 0) -> dict[str, float]:
    """Total wall time per span name over ``spans[first:]``."""
    totals: dict[str, float] = {}
    for name, start, end, _ in spans[first:]:
        totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def self_time_by_layer(spans, first: int = 0) -> dict[str, float]:
    """Self time per layer: each span's duration minus its direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans[first:]:
        if parent >= first:
            child[parent] += end - start
    totals: dict[str, float] = {}
    for i in range(first, len(spans)):
        name, start, end, _ = spans[i]
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + (end - start) - child[i]
    return totals


def main(argv) -> int:
    out, cli_args = argv[0], argv[1:]
    # every traced module is loaded before patching, whatever cli imports lazily
    from hpckit import cli, metrics, reducer, search, simulator, sweep  # noqa: F401

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(out, counts=dict(tracer.counts))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
