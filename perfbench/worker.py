"""The library workloads, each run in a cold process of its own.

    python3 perfbench/worker.py --workload pipeline-8192 --seed 1 --seconds 10 \
        --trace 0 --workdir perfbench/out/w

With ``--setup-only`` the process does its set-up (imports, space and
models) and prints the ``time.perf_counter()`` reading at which it was
ready; the parent, which started it, turns that into ``setup_s``.
Otherwise it runs whole rounds until ``--seconds`` have passed and
prints one JSON summary line. It leaves the outputs of its first round
in ``--workdir`` for the parent to check (the CSVs as last written), and
a digest of every round's outputs so the parent can tell that all
rounds wrote the same bytes.

The program is called only through public functions, looked up on
their modules at call time so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from workloads import DEFAULT_SPACE, MONITORS, OUT, REQUIREMENTS, SPACE_8192, WORKLOADS, \
    seed_list, space_json, sweep_seed

# Operations per round: pipeline-8192 makes eight calls; seeds-128 makes
# five per seed.
PIPELINE_OPS = 8
SEED_OPS = 5


class Context:
    """The modules and models of one workload, built during set-up."""

    def __init__(self, workload: str, seed: int):
        import hpckit.defaults as defaults
        from hpckit import metrics, reducer, search, simulator, sweep

        self.simulator, self.sweep, self.metrics = simulator, sweep, metrics
        self.reducer, self.search = reducer, search
        space = SPACE_8192 if workload == "pipeline-8192" else DEFAULT_SPACE
        self.space = sweep.KnobSpace.from_json_dict(space_json(space))
        self.workload = defaults.default_workload()
        self.effects = defaults.default_effects()
        self.fault = defaults.default_fault_model()
        self.avail = defaults.default_availability_model()
        self.cost = defaults.default_cost_model()
        self.spec = defaults.default_requirement_spec()
        self.seeds = [sweep_seed(seed)] if workload == "pipeline-8192" else seed_list(seed)


def table(ds, derived: bool) -> dict:
    """A dataset's knob labels and value columns, in row order."""
    labels = [c.labels(ds.space) for c in ds.configs()]
    return {
        # (name, labels) pairs, as JSON objects would lose the knob order
        "knobs": [(name, [row[k] for row in labels]) for k, name in enumerate(ds.space.names)],
        "mon": {n: ds.monitor_column(n).tolist() for n in MONITORS},
        "req": {n: ds.requirement_column(n).tolist() for n in REQUIREMENTS} if derived else None,
    }


def pipeline_round(c: Context, workdir: str, keep: bool) -> dict:
    raw_path = os.path.join(workdir, "raw.csv")
    derived_path = os.path.join(workdir, "derived.csv")
    t0 = time.perf_counter()
    raw = c.simulator.generate_sweep(c.space, c.workload, c.effects, c.fault, c.seeds[0])
    c.sweep.export_csv(raw, raw_path)
    t1 = time.perf_counter()
    ds = c.sweep.ingest_csv(raw_path, c.space)
    derived = c.metrics.derive_dataset(ds, c.avail, c.cost, c.spec)
    c.sweep.export_csv(derived, derived_path)
    report = c.reducer.reduce(derived)
    best = c.search.oracle_best(derived, c.spec)
    result = c.search.validate(derived, report, c.spec)
    t2 = time.perf_counter()

    outputs = {
        "reduction": report.to_json_dict(),
        "oracle": best.to_json_dict(derived),
        "validation": result.to_json_dict(derived),
    }
    digest = hashlib.sha256()
    for path in (raw_path, derived_path):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    digest.update(json.dumps(outputs, sort_keys=True).encode())
    if keep:
        with open(os.path.join(workdir, "outputs.json"), "w", encoding="utf-8") as fh:
            json.dump(outputs, fh)
        # arrays rather than JSON lists, to keep the worker's peak memory the program's
        np.savez(os.path.join(workdir, "columns.npz"),
                 **{f"generated:{n}": raw.monitor_column(n) for n in MONITORS},
                 **{f"ingested:{n}": ds.monitor_column(n) for n in MONITORS},
                 ingested_levels=np.array([cfg.levels for cfg in ds.configs()]))
    return {"simulate_s": t1 - t0, "analyze_s": t2 - t1, "quickstart_s": t2 - t0,
            "digest": digest.hexdigest()}


def seeds_round(c: Context, workdir: str, keep: bool) -> dict:
    simulate = analyze = 0.0
    per_seed = []
    for seed in c.seeds:
        t0 = time.perf_counter()
        raw = c.simulator.generate_sweep(c.space, c.workload, c.effects, c.fault, seed)
        t1 = time.perf_counter()
        derived = c.metrics.derive_dataset(raw, c.avail, c.cost, c.spec)
        report = c.reducer.reduce(derived)
        best = c.search.oracle_best(derived, c.spec)
        result = c.search.validate(derived, report, c.spec)
        t2 = time.perf_counter()
        simulate += t1 - t0
        analyze += t2 - t1
        per_seed.append({
            "seed": seed,
            "raw": table(raw, derived=False),
            "derived": table(derived, derived=True),
            "reduction": report.to_json_dict(),
            "oracle": best.to_json_dict(derived),
            "validation": result.to_json_dict(derived),
        })
    text = json.dumps(per_seed, sort_keys=True)
    if keep:
        with open(os.path.join(workdir, "outputs.json"), "w", encoding="utf-8") as fh:
            fh.write(text)
    return {"simulate_s": simulate, "analyze_s": analyze, "quickstart_s": simulate + analyze,
            "digest": hashlib.sha256(text.encode()).hexdigest()}


def run(args) -> dict:
    ctx = Context(args.workload, args.seed)
    if args.workload == "pipeline-8192":
        one_round, ops = pipeline_round, PIPELINE_OPS
    else:
        one_round, ops = seeds_round, SEED_OPS * len(ctx.seeds)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    rounds: list[dict] = []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while (not rounds or time.perf_counter() < deadline
           or (tracer is not None and len(rounds) < 2)):
        # In a traced run, odd rounds are traced and even rounds are not,
        # so the overhead is measured against interleaved plain rounds.
        traced = tracer is not None and len(rounds) % 2 == 1
        first_span = 0
        if traced:
            tracer.counts.clear()
            tracer.install()
            first_span = len(tracer.spans)
            root = tracer.open("bench.round")
        attempted += ops
        try:
            timing = one_round(ctx, args.workdir, keep=not rounds)
        except Exception as exc:  # a failing call fails the rest of its round
            print(f"round {len(rounds)} failed: {exc!r}", file=sys.stderr)
            failed += ops
            timing = None
        finally:
            if traced:
                tracer.close(root)
                tracer.uninstall()
        if timing is None:
            rounds.append({"traced": traced, "failed": True})
            continue
        timing["traced"] = traced
        if traced:
            timing["first_span"] = first_span
            timing["end_span"] = len(tracer.spans)
            timing["counts"] = dict(tracer.counts)
        rounds.append(timing)

    summary = {"attempted": attempted, "failed": failed, "rounds": rounds}
    if tracer is not None:
        summary["absent"] = tracer.absent
        summary["layers"] = tracer.layer_metrics(
            [r for r in rounds if r.get("traced") and not r.get("failed")])
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                    workload=args.workload, seed=args.seed,
                    rounds=[{k: v for k, v in r.items() if k != "digest"} for r in rounds])
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.setup_only:
        if args.workload == "cli-quickstart":
            import hpckit.cli as cli

            cfg = cli.load_config(None)
            cli.build_space(cfg)
            cli.build_workload(cfg)
            cli.build_effects(cfg)
            cli.build_metrics(cfg)
            cli.build_analysis(cfg)
        else:
            Context(args.workload, args.seed)
        print(repr(time.perf_counter()))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
