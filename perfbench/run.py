"""End-to-end benchmark of hpckit.

    python3 perfbench/run.py --workload cli-quickstart --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each is there):

* ``cli-quickstart``: the README's six quick-start subcommands, each a
  cold ``python -m hpckit.cli`` process, on the default 128-row space;
* ``pipeline-8192``: simulate, export, ingest, derive, export, reduce,
  search and validate on the default space plus six no-op knobs;
* ``seeds-128``: the in-memory library pipeline on 25 seeds of the
  default space.

Each run first times several cold set-ups, then repeats whole rounds of
its workload for ``--seconds`` with one caller and no threads, checks
the outputs of the first round against independent computations and
that every later round gave the same bytes, and prints every metric by
name with its unit. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. A traced run alternates traced and plain rounds so that
it can report its own overhead, and writes its spans to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import OUT, PYTHON, QUICKSTART_ARTIFACTS, ROOT, DEFAULT_SPACE, SPACE_8192, \
    NOOP_KNOBS, WORKLOADS, child_env, has_program, quickstart_commands

SETUP_SAMPLES = 5        # cold set-ups before and again after the rounds; setup_s is their median
IMPORT_SAMPLES = 5       # cold interpreter starts per probe in a traced run
DEADLINE_S = 170         # a run that is not done by then is stopped

WORKER = os.path.join(ROOT, "perfbench", "worker.py")
TRACED_CLI = os.path.join(ROOT, "perfbench", "tracing.py")

QUICKSTART_OPS = 6       # subcommands per quick-start round
CLI_ROUNDS = 2           # traced quick-start rounds a traced library run adds for the cli layer

END_TO_END = {
    "setup_s": "s",
    "quickstart_s": "s",
    "simulate_s": "s",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"cli.{name}_s": "s" for name in
       ("simulate", "derive", "reduce", "search", "validate", "report", "import", "numpy_import")},
    "cli.self_s": "s",
    "simulator.generate_sweep_s": "s",
    "simulator.combine_effects.calls": "count",
    "simulator.interval_time.calls": "count",
    "simulator.simulate_config_detailed.calls": "count",
    "simulator.self_s": "s",
    "sweep.export_csv_s": "s",
    "sweep.ingest_csv_s": "s",
    "sweep.csv_bytes": "bytes",
    "sweep.enumeration_rank.calls": "count",
    "sweep.self_s": "s",
    "metrics.derive_dataset_s": "s",
    "metrics.system_availability.calls": "count",
    "metrics.self_s": "s",
    "reducer.reduce_s": "s",
    "reducer.prune_correlated_s": "s",
    "reducer.map_requirements_to_monitors_s": "s",
    "reducer.select_knobs_s": "s",
    "reducer.pearson.calls": "count",
    "reducer.self_s": "s",
    "search.oracle_best_s": "s",
    "search.reduced_best_s": "s",
    "search.validate_s": "s",
    "search.is_feasible.calls": "count",
    "search.self_s": "s",
    "trace.overhead_pct": "%",
}


class Deadline(Exception):
    """The run outlasted DEADLINE_S."""


class Child:
    """One finished child process: wall time, exit code and peak memory."""

    def __init__(self, argv, cwd, out_path):
        env = child_env()
        with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
            self.start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.end = time.perf_counter()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.wall = self.end - self.start
        self.peak_mb = usage.ru_maxrss / 1024.0
        self.out_path = out_path

    def stdout(self) -> str:
        with open(self.out_path, "r", encoding="utf-8") as fh:
            return fh.read()

    def stderr(self) -> str:
        with open(self.out_path + ".err", "r", encoding="utf-8", errors="replace") as fh:
            return fh.read()


def warm_up(workload: str, seed: int, workdir: str) -> None:
    """Untimed starts that fill the bytecode cache for every module used later."""
    Child([PYTHON, "-c", "import hpckit.cli"], ROOT, os.path.join(workdir, "warmup.out"))
    setup_times(workload, seed, workdir, count=1)


def setup_times(workload: str, seed: int, workdir: str, count: int = SETUP_SAMPLES) -> list[float]:
    """Cold set-ups: spawn to ready, as read by the ready process's own clock.

    The machine's speed drifts over tens of seconds, so a run takes half
    its samples before the rounds and half after them.
    """
    argv = [PYTHON, WORKER, "--setup-only", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(count):
        child = Child(argv, ROOT, os.path.join(workdir, "setup.out"))
        if child.code != 0:
            raise RuntimeError(f"set-up failed: {child.stderr()}")
        times.append(float(child.stdout().split()[-1]) - child.start)
    return times


def import_times(workdir: str) -> dict[str, float]:
    """cli.import_s and cli.numpy_import_s: cold import minus a bare start."""
    probes = {"bare": "pass", "cli": "import hpckit.cli", "numpy": "import numpy"}
    walls = {name: [] for name in probes}
    for _ in range(IMPORT_SAMPLES):
        for name, code in probes.items():
            walls[name].append(Child([PYTHON, "-c", code], ROOT,
                                     os.path.join(workdir, f"import-{name}.out")).wall)
    med = {name: statistics.median(v) for name, v in walls.items()}
    return {"cli.import_s": med["cli"] - med["bare"],
            "cli.numpy_import_s": med["numpy"] - med["bare"]}


def digest_files(directory: str, names) -> str:
    h = hashlib.sha256()
    for name in names:
        path = os.path.join(directory, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# cli-quickstart


def quickstart_round(seed: int, directory: str, workdir: str, tracer=None):
    """The six subcommands, cold and in order, in a new ``directory``.

    Returns the round's figures and how many subcommands failed. With a
    tracer, each subcommand runs under ``tracing.py`` in its own process,
    and its spans and counts join the tracer below a ``cli.<subcommand>``
    span, so that ``cli.self_s`` is the time outside the library layers.
    """
    os.makedirs(directory)
    walls, peaks, children = {}, [], []
    failed = 0
    if tracer is not None:
        tracer.counts.clear()
        first_span = len(tracer.spans)
        root = tracer.open("bench.round")
    start = time.perf_counter()
    for name, argv in quickstart_commands(seed):
        trace_path = os.path.join(workdir, f"{name}.trace.json")
        if tracer is not None:
            span = tracer.open(f"cli.{name}")
            program = [TRACED_CLI, trace_path]
        else:
            program = ["-m", "hpckit.cli"]
        child = Child([PYTHON, *program, "--deterministic", *argv], directory,
                      os.path.join(workdir, f"{name}.out"))
        if tracer is not None:
            tracer.close(span)
            children.append((span, trace_path))
        if child.code != 0:
            failed += 1
            print(f"{directory}: {name} exited {child.code}: {child.stderr().strip()}",
                  file=sys.stderr)
        walls[name] = child.wall
        peaks.append(child.peak_mb)
    end = time.perf_counter()
    result = {
        "traced": tracer is not None,
        "quickstart_s": end - start,
        "simulate_s": walls["simulate"],
        "analyze_s": sum(walls[n] for n in ("derive", "reduce", "search", "validate")),
        "peak_rss_mb": max(peaks),
        "digest": digest_files(directory, QUICKSTART_ARTIFACTS),
    }
    if tracer is not None:
        tracer.close(root)
        for span, trace_path in children:
            if os.path.exists(trace_path):
                with open(trace_path, "r", encoding="utf-8") as fh:
                    dump = json.load(fh)
                os.remove(trace_path)
                tracer.adopt(dump["spans"], dump["counts"], dump["absent"], span)
        result.update(first_span=first_span, end_span=len(tracer.spans),
                      counts=dict(tracer.counts))
    return result, failed


def run_quickstart(args, workdir: str):
    from tracing import Tracer

    tracer = Tracer()
    rounds = []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() < deadline or (args.trace and len(rounds) < 2):
        traced = bool(args.trace) and len(rounds) % 2 == 1
        directory = os.path.join(workdir, f"round{len(rounds)}")
        result, failures = quickstart_round(args.seed, directory, workdir,
                                            tracer if traced else None)
        attempted += QUICKSTART_OPS
        failed += failures
        rounds.append(result)
        if len(rounds) > 1:
            shutil.rmtree(directory)
    return rounds, attempted, failed, tracer


def cli_layer(args, workdir: str):
    """The cli layer for a library workload, which does not go through the CLI.

    Runs CLI_ROUNDS traced quick-start rounds and keeps their ``cli.*``
    figures. Returns (figures, attempted, failed, errors).
    """
    from tracing import Tracer

    tracer = Tracer()
    rounds, failed = [], 0
    for i in range(CLI_ROUNDS):
        result, failures = quickstart_round(args.seed, os.path.join(workdir, f"cli-round{i}"),
                                            workdir, tracer)
        rounds.append(result)
        failed += failures
    errors = check_quickstart(os.path.join(workdir, "cli-round0"))
    if len({r["digest"] for r in rounds}) > 1:
        errors.append("quick-start rounds on the same inputs gave different outputs")
    figures = {k: v for k, v in tracer.figures(rounds).items() if k.startswith("cli.")}
    return figures, QUICKSTART_OPS * CLI_ROUNDS, failed, errors


def check_quickstart(directory: str) -> list[str]:
    """Checks on the artifacts one quick-start round wrote to ``directory``."""
    import checks

    missing = [n for n in QUICKSTART_ARTIFACTS if not os.path.exists(os.path.join(directory, n))]
    if missing:
        return [f"quick start did not write {missing}"]

    def load(name):
        with open(os.path.join(directory, name), "r", encoding="utf-8") as fh:
            return json.load(fh)

    raw = checks.parse_csv(os.path.join(directory, "sweep.csv"))
    derived = checks.parse_csv(os.path.join(directory, "derived.csv"))
    search = load("search.json")
    errors = checks.check_carried(raw, derived)
    errors += checks.check_analysis(raw, derived, load("reduction.json"), [search["best"]],
                                    load("validation.json"), DEFAULT_SPACE)
    with open(os.path.join(directory, "report.txt"), "r", encoding="utf-8") as fh:
        report = fh.read()
    for section in ("dataset", "reduction", "search", "validation"):
        if f"\n{section}\n" not in report:
            errors.append(f"report.txt has no {section} section")
    return errors


# ---------------------------------------------------------------------------
# library workloads


def run_library(args, workdir: str):
    argv = [PYTHON, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    child = Child(argv, ROOT, os.path.join(workdir, "worker.out"))
    if child.code != 0:
        raise RuntimeError(f"worker exited {child.code}: {child.stderr()}")
    summary = json.loads(child.stdout().strip().splitlines()[-1])
    for r in summary["rounds"]:
        r["peak_rss_mb"] = child.peak_mb
    return summary


def check_library(workload: str, workdir: str) -> list[str]:
    import checks
    import numpy as np

    with open(os.path.join(workdir, "outputs.json"), "r", encoding="utf-8") as fh:
        outputs = json.load(fh)
    if workload == "pipeline-8192":
        raw = checks.parse_csv(os.path.join(workdir, "raw.csv"))
        derived = checks.parse_csv(os.path.join(workdir, "derived.csv"))
        with np.load(os.path.join(workdir, "columns.npz")) as columns:
            errors = checks.check_round_trip(raw, columns, SPACE_8192)
        errors += checks.check_carried(raw, derived)
        return errors + checks.check_analysis(
            raw, derived, outputs["reduction"], [outputs["oracle"]], outputs["validation"],
            SPACE_8192, must_reject=[name for name, _, _ in NOOP_KNOBS])
    errors = []
    for entry in outputs:
        found = checks.check_analysis(
            checks.as_arrays(entry["raw"]), checks.as_arrays(entry["derived"]),
            entry["reduction"], [entry["oracle"]], entry["validation"], DEFAULT_SPACE)
        errors += [f"seed {entry['seed']}: {e}" for e in found]
    return errors


# ---------------------------------------------------------------------------
# reporting


def machine() -> str:
    model = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return (f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs"
            f"{' (' + model + ')' if model else ''}, Python {platform.python_version()}")


def trimmed_mean(values) -> float:
    """Mean without the smallest and the largest value (plain mean below five values).

    The run-to-run drift of this shared machine dominates the spread; over
    ten runs per workload the mean of a run's rounds spread less than
    their median, and trimming keeps one disturbed round from moving it.
    """
    values = sorted(values)
    if len(values) >= 5:
        values = values[1:-1]
    return sum(values) / len(values)


def over_rounds(rounds, key) -> float:
    return trimmed_mean([r[key] for r in rounds])


def measure(args, workdir: str):
    """Run the workload; return (metrics, attempted, failed, errors, notes)."""
    warm_up(args.workload, args.seed, workdir)
    setups = setup_times(args.workload, args.seed, workdir)
    notes = []
    if args.workload == "cli-quickstart":
        rounds, attempted, failed, tracer = run_quickstart(args, workdir)
        setups += setup_times(args.workload, args.seed, workdir)
        errors = check_quickstart(os.path.join(workdir, "round0"))
        layers, absent = {}, tracer.absent
        if args.trace:
            tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                        workload=args.workload, seed=args.seed)
            layers = tracer.layer_metrics([r for r in rounds if r["traced"]])
    else:
        summary = run_library(args, workdir)
        setups += setup_times(args.workload, args.seed, workdir)
        rounds, attempted, failed = summary["rounds"], summary["attempted"], summary["failed"]
        errors = check_library(args.workload, workdir)
        layers, absent = summary.get("layers", {}), summary.get("absent", [])
        if args.trace:
            figures, cli_attempted, cli_failed, cli_errors = cli_layer(args, workdir)
            layers.update(figures)
            attempted += cli_attempted
            failed += cli_failed
            errors += cli_errors
    if layers.pop("counts_repeat", True) is False:
        errors.append("call counts differ between traced rounds")
    notes += [f"absent: {name} (no such function in this version)" for name in absent]
    good = [r for r in rounds if "digest" in r]
    if len({r["digest"] for r in good}) > 1:
        errors.append("rounds on the same inputs gave different outputs")
    plain = [r for r in good if not r["traced"]]
    notes.append(f"set-up samples (s): {', '.join(f'{t:.4f}' for t in setups)}")
    notes.append(f"{len(rounds)} rounds, {len(plain)} untraced; end-to-end figures are "
                 "trimmed means over untraced rounds, layer figures medians over traced ones")
    notes += ["round: " + ", ".join(f"{k} {r[k]:.4f}" for k in
                                    ("quickstart_s", "simulate_s", "analyze_s")) for r in good]
    if not plain:
        return {}, attempted, failed, errors, notes
    if args.trace:
        traced = [r for r in good if r["traced"]]
        base = over_rounds(plain, "quickstart_s")
        metrics = dict(layers)
        metrics["trace.overhead_pct"] = 100.0 * (over_rounds(traced, "quickstart_s") - base) / base
        metrics.update(import_times(workdir))
    else:
        metrics = {"setup_s": statistics.median(setups)}
        for key in ("quickstart_s", "simulate_s", "analyze_s", "peak_rss_mb"):
            metrics[key] = over_rounds(plain, key)
    return metrics, attempted, failed, errors, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of hpckit.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not has_program():
        print(f"run.py: no hpckit sources under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    def on_alarm(signum, frame):
        raise Deadline(f"run not finished after {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        metrics, attempted, failed, errors, notes = measure(args, workdir)
    except Deadline as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# hpckit benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"# machine: {machine()}")
    for line in notes:
        print(f"# {line}")
    declared = PER_LAYER if args.trace else END_TO_END
    result = {name: {"value": metrics[name], "unit": unit}
              for name, unit in declared.items() if name in metrics}
    for name, m in result.items():
        value = f"{m['value']:.6f}" if isinstance(m["value"], float) else str(m["value"])
        print(f"{name:42s} {value:>16s} {m['unit']}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(f"checks: {'pass' if not errors else f'{len(errors)} failed'}; "
          f"{attempted} operations attempted, {failed} failed")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
