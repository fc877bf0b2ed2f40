"""Command-line pipeline: simulate, ingest, derive, reduce, search, validate, report.

Each subcommand reads its inputs, runs one pipeline stage and writes
artifacts that embed a run manifest (tool version, resolved settings,
input/output paths, dataset seed and digest) so every file records how
it was produced. A JSON config file, passed via ``--config`` or the
``HPCKIT_CONFIG`` environment variable, can override any model setting;
missing sections fall back to the built-in defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone
from typing import NamedTuple

from . import __version__
from .defaults import DEFAULT_SEED, default_effects, default_knob_space
from .errors import (ConfigError, HpckitError, IngestionError, NoFeasibleConfigurationError,
                     RowError, UnreachableTargetError, require_number)
from .metrics import AvailabilityModel, CostModel, RequirementSpec, derive_dataset
from .reducer import (
    DEFAULT_KNOB_THRESHOLD,
    DEFAULT_REQUIREMENT_THRESHOLD,
    ReductionReport,
    _check_threshold,
    reduce,
)
from .search import (REQUIREMENT_NAMES, RankedConfig, check_weight, rank_feasible,
                     row_json_dict, validate)
from .simulator import (DEFAULT_INTERVALS, FaultModel, KnobEffects, LevelEffect, WorkloadParams,
                        _check_intervals, _seed, generate_sweep)
from .sweep import (
    Configuration,
    KnobSpace,
    SweepDataset,
    export_csv,
    ingest_csv,
    split_metadata,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_FEASIBLE = 2
EXIT_INGESTION = 3

# the file flags a manifest records, each when the subcommand has it and it was given
_INPUT_FLAGS = ("dataset", "space", "params", "reduction", "sweep", "search", "validation")
_OUTPUT_FLAGS = ("out", "coefficients", "leaderboard", "table")
_CONFIG_SECTIONS = ("space", "workload", "effects", "metrics", "analysis", "baseline")
# each analysis threshold: its config key (and, dashed, its reduce flag), kind and default
_THRESHOLDS = (("req_threshold", "requirement", DEFAULT_REQUIREMENT_THRESHOLD),
               ("knob_threshold", "knob", DEFAULT_KNOB_THRESHOLD))


# ---------------------------------------------------------------------------
# config handling


def _check_keys(data: dict, allowed, where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    return value


def _override(base, section: dict, where: str):
    """``base`` (a dataclass) with the fields named in ``section`` replaced.

    Unknown keys and values the dataclass rejects raise ConfigError
    naming ``where``.
    """
    _check_keys(_object(section, where), [f.name for f in fields(base)], where)
    try:
        return replace(base, **section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path: str | None) -> dict:
    """The JSON config with its section names checked and its ``null`` (absent) sections dropped.

    Falls back to $HPCKIT_CONFIG, then to {}.
    """
    source = "--config"
    if path is None:
        path, source = os.environ.get("HPCKIT_CONFIG"), "HPCKIT_CONFIG"
        if not path:
            return {}
    data = _read_json(path, source)
    _check_keys(data, _CONFIG_SECTIONS, f"config file {path}")
    return {name: section for name, section in data.items() if section is not None}


def _space(data, where: str) -> KnobSpace:
    try:
        return KnobSpace.from_json_dict(data)
    except ValueError as exc:  # from_json_dict turns a KeyError or TypeError into one
        raise ConfigError(f"{where}: {exc}") from exc


def build_space(cfg: dict) -> KnobSpace:
    section = cfg.get("space")
    return default_knob_space() if section is None else _space(section, "config section 'space'")


def build_workload(cfg: dict) -> WorkloadParams:
    return _override(WorkloadParams(), cfg.get("workload", {}), "config section 'workload'")


def build_effects(cfg: dict) -> tuple[KnobEffects, FaultModel]:
    where = "config section 'effects'"
    section = dict(_object(cfg.get("effects", {}), where))
    base = default_effects()
    fault = _override(FaultModel(), section.pop("fault", {}), f"{where}.fault")
    noise = _override(base.noise, section.pop("noise", {}), f"{where}.noise")
    levels = {knob: dict(table) for knob, table in base.levels.items()}
    for knob, table in _object(section.pop("levels", {}), f"{where}.levels").items():
        known = levels.setdefault(knob, {})  # a label without a default starts from neutral
        for label, over in _object(table, f"{where}.levels[{knob}]").items():
            known[label] = _override(known.get(label, LevelEffect()), over,
                                     f"{where}.levels[{knob}][{label}]")
    return _override(base, {**section, "noise": noise, "levels": levels}, where), fault


def build_metrics(cfg: dict) -> tuple[AvailabilityModel, CostModel, RequirementSpec]:
    """The three metrics models; the section's keys are their field names."""
    where = "config section 'metrics'"
    section = _object(cfg.get("metrics", {}), where)
    models = (AvailabilityModel(), CostModel(), RequirementSpec())
    names = [{f.name for f in fields(m)} for m in models]
    _check_keys(section, set().union(*names), where)
    return tuple(_override(m, {k: v for k, v in section.items() if k in n}, where)
                 for m, n in zip(models, names))


def build_analysis(cfg: dict) -> dict:
    """The analysis settings: ``req_threshold``, ``knob_threshold`` and ``weights``."""
    where = "config section 'analysis'"
    section = _object(cfg.get("analysis", {}), where)
    _check_keys(section, [*(key for key, _, _ in _THRESHOLDS), "weights"], where)
    weights = section.get("weights")
    if weights is not None:
        _check_keys(_object(weights, f"{where}.weights"), REQUIREMENT_NAMES, f"{where}.weights")
    try:
        thresholds = {key: require_number(key, section.get(key, default))
                      for key, _, default in _THRESHOLDS}
        for key, kind, _ in _THRESHOLDS:
            _check_threshold(thresholds[key], kind)
        if weights is not None:
            weights = {name: check_weight(name, require_number(f"weight for {name}", v))
                       for name, v in weights.items()}
            if not any(weights.get(name, 1.0) for name in REQUIREMENT_NAMES):
                raise ConfigError("every weight is zero; nothing to rank on")
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return {**thresholds, "weights": weights}


def build_baseline(cfg: dict, space: KnobSpace) -> Configuration:
    where = "config section 'baseline'"
    section = _object(cfg.get("baseline", {}), where)
    _check_keys(section, space.names, where)
    levels = []
    for name in space.names:
        knob = space.knob(name)
        label = section.get(name, knob.levels[knob.baseline].label)
        try:
            levels.append(knob.level_index(label))
        except KeyError:
            raise ConfigError(f"{where}: unknown level {label!r} for knob {name!r}") from None
    return Configuration(tuple(levels))


class _Run(NamedTuple):
    """One run's settings: the built-in defaults, then the config, then the flags."""

    space: KnobSpace
    workload: WorkloadParams
    effects: KnobEffects
    fault: FaultModel
    metrics: tuple[AvailabilityModel, CostModel, RequirementSpec]
    analysis: dict
    baseline: Configuration


def _resolve(args, cfg: dict) -> _Run:
    """Each setting of the run: the config's sections, then the flags, then the baseline.

    Every section is built whatever the subcommand, so a broken config fails alike everywhere.
    """
    space = build_space(cfg)
    workload = build_workload(cfg)
    effects, fault = build_effects(cfg)
    metrics = build_metrics(cfg)
    analysis = build_analysis(cfg)
    if getattr(args, "space", None):
        space = _space(_read_json(args.space, "--space"), f"--space {args.space}")
    if getattr(args, "params", None):
        workload = _override(workload, _read_json(args.params, "--params"),
                             f"--params {args.params}")
    for flag, check, *rule in (*((key, _check_threshold, kind) for key, kind, _ in _THRESHOLDS),
                               ("seed", _seed), ("intervals", _check_intervals)):
        if (value := getattr(args, flag, None)) is not None:
            try:
                check(value, *rule)
            except ValueError as exc:
                raise ConfigError(f"--{flag.replace('_', '-')}: {exc}") from exc
            if flag in analysis:
                analysis[flag] = value
    return _Run(space, workload, effects, fault, metrics, analysis, build_baseline(cfg, space))


# ---------------------------------------------------------------------------
# run manifest


def _metrics_json(*models) -> dict:
    return {key: value for m in models for key, value in asdict(m).items()}


def make_manifest(args, config: dict, dataset_seed: int | None = None,
                  dataset_digest: str | None = None) -> dict:
    """The run manifest: the subcommand and every file flag given, as parsed from ``args``."""
    manifest = {
        "subcommand": args.subcommand,
        "tool_version": __version__,
        "dataset_seed": dataset_seed,
        "dataset_digest": dataset_digest,
        "inputs": {k: getattr(args, k) for k in _INPUT_FLAGS if getattr(args, k, None)},
        "outputs": {k: getattr(args, k) for k in _OUTPUT_FLAGS if getattr(args, k, None)},
        "config": config,
    }
    if not args.deterministic:
        manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
    return manifest


def _manifest_comment(manifest: dict) -> str:
    return json.dumps(manifest, sort_keys=True, separators=(",", ":"))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")


def _write_text(path: str, manifest: dict, body: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# manifest: {_manifest_comment(manifest)}\n\n")
        fh.write(body)


# ---------------------------------------------------------------------------
# shared loading


class _HashedBytes(io.RawIOBase):
    """A binary file's bytes as a reader pulls them, hashed on the way."""

    def __init__(self, fh):
        self._fh, self.sha256, self.bytes_read = fh, hashlib.sha256(), 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._fh.readinto(buffer)
        self.sha256.update(memoryview(buffer)[:n])
        self.bytes_read += n
        return n


@contextlib.contextmanager
def _open(path: str, flag: str, fault=ConfigError):
    """The input file ``flag`` names, opened once, as UTF-8 text read in chunks.

    The text stream's ``buffer`` is a ``_HashedBytes`` that hashes the bytes
    read so far. A read that fails raises ConfigError, and text that is
    not UTF-8 raises ``fault``, naming the bad byte's offset in the file.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            source = _HashedBytes(fh)
            yield io.TextIOWrapper(source, encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"{flag} {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        # exc.start counts from the bytes the decoder was given: the last chunk
        # read, after any bytes of a character the chunk before it left unfinished
        at = source.bytes_read - len(exc.object) + exc.start
        raise fault(f"{flag} {path}: not UTF-8 text: {exc.reason} at byte {at}") from exc


def _read_json(path: str, flag: str) -> dict:
    with _open(path, flag) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{flag} {path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{flag} {path}: expected a JSON object")
    return data


def _read_reduction(path: str) -> ReductionReport:
    """The ``--reduction`` artifact, as both validate and report read it."""
    try:
        return ReductionReport.from_json_dict(_read_json(path, "--reduction"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"--reduction {path}: not a reduction artifact: {exc}") from exc


class _Dataset(NamedTuple):
    """A loaded ``--dataset``: its rows, file digest and recorded seed."""

    ds: SweepDataset
    digest: str
    seed: int | None

    def manifest(self, args, **config) -> dict:
        """The run manifest of a stage that read this dataset."""
        return make_manifest(args, {"space": self.ds.space.to_json_dict(), **config},
                             self.seed, self.digest)


def _load_dataset(args, space: KnobSpace, derived: bool = True) -> _Dataset:
    """Read ``--dataset`` against ``space``; ``derived`` requires requirement columns.

    Ingest stops at a faulty record, so the error of a file it rejects
    names that record, whatever the lines after it hold.
    """
    path = args.dataset
    with _open(path, "--dataset", IngestionError) as fh:
        try:
            ds = ingest_csv(fh, space)
        except IngestionError as exc:
            raise IngestionError(f"{path}: {exc}") from exc
    if derived and not ds.is_derived:
        raise ConfigError(
            f"{path}: dataset has no derived requirement columns; run 'hpckit derive' first"
        )
    digest = fh.buffer.sha256.hexdigest()[:16]  # ingest read to the end of a file it accepts
    raw_seed = ds.metadata.get("seed", "")
    seed = int(raw_seed) if raw_seed.removeprefix("-").isdecimal() else None
    return _Dataset(ds, digest, seed)


# ---------------------------------------------------------------------------
# subcommands


def _stage(source: str, compute, *inputs, first_row: int = 0):
    """``compute(*inputs)``; a ValueError or UnreachableTargetError it raises blames ``source``.

    A row that breaks a dataset rule is numbered from ``first_row``.
    """
    try:
        return compute(*inputs)
    except RowError as exc:
        raise ConfigError(f"{source}: row {exc.row + first_row}{exc.fault}") from exc
    except (ValueError, UnreachableTargetError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def cmd_simulate(args, run: _Run) -> int:
    ds = _stage("the workload and effects settings give a bad sweep", generate_sweep, run.space,
                run.workload, run.effects, run.fault, args.seed, args.intervals)

    resolved = {
        "space": run.space.to_json_dict(),
        "workload": asdict(run.workload),
        "effects": {**asdict(run.effects), "fault": asdict(run.fault)},
    }
    manifest = make_manifest(args, resolved, args.seed, ds.metadata.get("parameters"))
    ds.metadata["manifest"] = _manifest_comment(manifest)
    export_csv(ds, args.out)
    print(f"wrote {args.out}: {len(ds)} rows, seed {args.seed}, "
          f"interval success {ds.metadata['interval_success_fraction']}")
    return EXIT_OK


def cmd_ingest(args, run: _Run) -> int:
    data = _load_dataset(args, run.space, derived=False)
    state = "derived" if data.ds.is_derived else "underived"
    print(f"{args.dataset}: {len(data.ds)} rows, {len(run.space.names)} knobs, {state}, "
          f"digest {data.digest}")
    if args.out:
        data.ds.metadata["manifest"] = _manifest_comment(data.manifest(args))
        export_csv(data.ds, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_derive(args, run: _Run) -> int:
    data = _load_dataset(args, run.space, derived=False)
    derived = _stage(f"--dataset {args.dataset}", derive_dataset, data.ds, *run.metrics,
                     first_row=2)  # as ingest numbers the file's records
    derived.metadata["manifest"] = _manifest_comment(
        data.manifest(args, metrics=_metrics_json(*run.metrics)))
    export_csv(derived, args.out)
    print(f"wrote {args.out}: {len(derived)} rows with requirement columns")
    return EXIT_OK


def cmd_reduce(args, run: _Run) -> int:
    data = _load_dataset(args, run.space)
    thresholds = {key: run.analysis[key] for key, _, _ in _THRESHOLDS}
    report = _stage(f"--dataset {args.dataset}", reduce, data.ds, *thresholds.values())

    manifest = data.manifest(args, analysis=thresholds)
    _write_json(args.out, {"manifest": manifest, **report.to_json_dict()})
    with open(args.coefficients, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# manifest: {_manifest_comment(manifest)}\n")
        fh.write(report.coefficients_csv())
    print(f"wrote {args.out} and {args.coefficients}: "
          f"kept {len(report.kept_monitors)} monitors, "
          f"selected knobs {', '.join(report.selected_knob_names)}")
    return EXIT_OK


def cmd_search(args, run: _Run) -> int:
    ds, _, _ = data = _load_dataset(args, run.space)
    scores, order = _stage(f"--dataset {args.dataset}", rank_feasible, ds, run.metrics[2],
                           run.analysis["weights"])
    best = RankedConfig.at(ds, order[0], scores)
    entries = [{"rank": rank, "score": float(scores[i]), **row_json_dict(ds, i)}
               for rank, i in enumerate(order[:args.top], start=1)]

    manifest = data.manifest(args, metrics=_metrics_json(*run.metrics),
                             analysis={"weights": run.analysis["weights"]})
    payload = {
        "manifest": manifest,
        "total_rows": len(ds),
        "feasible_rows": len(order),
        "best": best.to_json_dict(ds),
        "leaderboard": entries,
    }
    _write_json(args.out, payload)
    _write_text(args.leaderboard, manifest, _section("search", render_search(payload)))
    config_str = " ".join(f"{k}={v}" for k, v in
                          zip(run.space.names, best.config.labels(run.space)))
    print(f"wrote {args.out} and {args.leaderboard}: best {config_str} "
          f"(score {best.score:+.4f})")
    return EXIT_OK


def cmd_validate(args, run: _Run) -> int:
    ds, _, _ = data = _load_dataset(args, run.space)
    report = _read_reduction(args.reduction)
    result = _stage(f"--dataset {args.dataset}", validate, ds, report, run.metrics[2],
                    run.baseline, run.analysis["weights"])

    manifest = data.manifest(
        args, metrics=_metrics_json(*run.metrics), analysis={"weights": run.analysis["weights"]},
        baseline=dict(zip(run.space.names, run.baseline.labels(run.space))),
    )
    payload = {"manifest": manifest, **result.to_json_dict(ds)}
    _write_json(args.out, payload)
    _write_text(args.table, manifest, _section("validation", render_validation(payload)))
    print(f"wrote {args.out} and {args.table}: picks "
          f"{'agree' if result.picks_agree else 'differ'}, "
          f"worst regression {result.max_negative_pct:.4%}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def _sweep_summary(path: str) -> list[str]:
    with _open(path, "--sweep") as fh:
        metadata, data = split_metadata(fh)
        rows = max(0, sum(1 for _ in data) - 1)  # less the header
    lines = [f"file: {path}", f"rows: {rows}"]
    for key in ("seed", "parameters", "mc_iterations", "n_intervals",
                "interval_success_fraction"):
        if key in metadata:
            lines.append(f"{key.replace('_', ' ')}: {metadata[key]}")
    return lines


# One renderer per JSON artifact. The stage's own text file and ``report``
# both use it, so they show the same text. Renderers read knobs in sorted
# order and requirements in REQUIREMENT_NAMES order, so a payload renders
# the same before and after its JSON round trip.


def _config_text(configuration: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(configuration.items()))


def _removal_text(rec: dict) -> str:
    if rec["reason"] == "correlated":
        return f"  removed {rec['removed']} (r = {rec['coefficient']:+.4f} with {rec['partner']})"
    return f"  removed {rec['removed']} ({rec['reason']})"


def render_reduction(data: dict) -> list[str]:
    """Text lines for a reduction artifact."""
    thresholds = data["thresholds"]
    mapping = data["requirement_to_monitor"]
    lines = [f"thresholds: requirement {thresholds['requirement']}, knob {thresholds['knob']}",
             "kept requirements: " + ", ".join(data["kept_requirements"])]
    lines += [_removal_text(rec) for rec in data["removed_requirements"]]
    lines.append("kept monitors:     " + ", ".join(data["kept_monitors"]))
    lines += [_removal_text(rec) for rec in data["removed_monitors"]]
    lines.append("requirement -> monitor:")
    for req in (name for name in REQUIREMENT_NAMES if name in mapping):
        lines.append(f"  {req:<14} -> {mapping[req]['monitor']} "
                     f"(r = {mapping[req]['coefficient']:+.4f})")
    lines.append("selected knobs: " + ", ".join(k["knob"] for k in data["selected_knobs"]))
    lines.append("rejected knobs: " + ", ".join(k["knob"] for k in data["rejected_knobs"]))
    return lines


def render_search(data: dict) -> list[str]:
    """Text lines for a search artifact: the best pick and the leaderboard."""
    best = data["best"]
    lines = [f"feasible rows: {data['feasible_rows']} of {data['total_rows']}",
             f"best configuration: {_config_text(best['configuration'])}",
             f"best score: {best['score']:+.4f}",
             f"leaderboard (top {len(data['leaderboard'])} feasible, lower score is better):"]
    for e in data["leaderboard"]:
        req = e["requirements"]
        lines.append(f"  {e['rank']:>3}. {e['score']:+8.4f}  {_config_text(e['configuration'])}")
        lines.append(f"       t={req['performance_s']:.1f}s  P={req['power_w']:.2f}W  "
                     f"E={req['energy_j']:.0f}J  A={req['availability']:.5f}  "
                     f"C={req['cost']:.1f}")
    return lines


def _ratio_text(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.3f}x"


def render_validation(data: dict) -> list[str]:
    """Text lines for a validation artifact: both picks and their gap."""
    pct = data["percent_differences"]
    oracle = data["oracle_improvement_vs_baseline"]
    reduced = data["reduced_improvement_vs_baseline"]
    lines = [f"oracle pick:  {_config_text(data['oracle']['configuration'])}",
             f"reduced pick: {_config_text(data['reduced']['configuration'])}",
             f"picks agree: {'yes' if data['picks_agree'] else 'no'}",
             "relative difference per requirement (positive favors reduced):"]
    lines += [f"  {name:<15} {pct[name]:+.4%}" for name in REQUIREMENT_NAMES]
    lines.append(f"worst regression: {data['max_negative_pct']:.4%}")
    lines.append("improvement over baseline (ratio, higher is better):")
    lines += [f"  {name:<15} oracle {_ratio_text(oracle[name]):>9s}   "
              f"reduced {_ratio_text(reduced[name]):>9s}" for name in REQUIREMENT_NAMES]
    return lines


def _section(title: str, lines: list[str]) -> str:
    return "\n".join([title, "-" * len(title), *("  " + line for line in lines)]) + "\n"


def cmd_report(args, run: _Run) -> int:
    if not any((args.sweep, args.reduction, args.search, args.validation)):
        raise ConfigError(
            "report needs at least one artifact "
            "(--sweep, --reduction, --search or --validation)"
        )
    sections = []
    if args.sweep:
        sections.append(_section("dataset", _sweep_summary(args.sweep)))
    for name, render in (("reduction", render_reduction), ("search", render_search),
                         ("validation", render_validation)):
        path = getattr(args, name)
        if path:
            data = (_read_reduction(path).to_json_dict() if name == "reduction"
                    else _read_json(path, f"--{name}"))
            try:
                sections.append(_section(name, render(data)))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"--{name} {path}: not a {name} artifact: {exc}") from exc
    body = "hpckit pipeline report\n======================\n" + "".join(
        "\n" + section for section in sections)
    _write_text(args.out, make_manifest(args, {}), body)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def positive_int(text: str) -> int:
    """An argument type: an integer of at least 1."""
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_dataset_arg(sub) -> None:
    sub.add_argument("--dataset", required=True, help="sweep CSV to read")
    sub.add_argument("--space", help="knob-space JSON file (default: config or built-in space)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hpckit",
        description="Reduce an HPC configuration space by correlating monitors, "
                    "requirements and tuning knobs, then validate the reduced search.",
    )
    parser.add_argument("--config", help="JSON config file (fallback: $HPCKIT_CONFIG)")
    parser.add_argument("--deterministic", action="store_true",
                        help="omit timestamps so identical runs produce identical bytes")
    parser.add_argument("--version", action="version", version=f"hpckit {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    sim = subs.add_parser("simulate", help="generate a synthetic sweep dataset")
    sim.add_argument("--space", help="knob-space JSON file")
    sim.add_argument("--params", help="workload parameters JSON file")
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED, help="simulator seed")
    sim.add_argument("--intervals", type=int, default=DEFAULT_INTERVALS,
                     help="measurement intervals per configuration (>= 5)")
    sim.add_argument("--out", default="sweep.csv", help="output CSV path")
    sim.set_defaults(handler=cmd_simulate)

    ing = subs.add_parser("ingest", help="validate a sweep CSV and summarize it")
    _add_dataset_arg(ing)
    ing.add_argument("--out", help="optional normalized re-export path")
    ing.set_defaults(handler=cmd_ingest)

    der = subs.add_parser("derive", help="fill requirement columns from monitors")
    _add_dataset_arg(der)
    der.add_argument("--out", default="derived.csv", help="output CSV path")
    der.set_defaults(handler=cmd_derive)

    red = subs.add_parser("reduce", help="run the correlation-based reduction")
    _add_dataset_arg(red)
    red.add_argument("--req-threshold", type=float, default=None,
                     help="requirement/monitor pruning threshold (default 0.90)")
    red.add_argument("--knob-threshold", type=float, default=None,
                     help="knob selection threshold (default 0.40)")
    red.add_argument("--out", default="reduction.json", help="reduction JSON path")
    red.add_argument("--coefficients", default="coefficients.csv",
                     help="knob-by-monitor coefficient CSV path")
    red.set_defaults(handler=cmd_reduce)

    sea = subs.add_parser("search", help="rank configurations by the requirement score")
    _add_dataset_arg(sea)
    sea.add_argument("--top", type=positive_int, default=10, help="leaderboard length")
    sea.add_argument("--out", default="search.json", help="search JSON path")
    sea.add_argument("--leaderboard", default="leaderboard.txt",
                     help="plain-text leaderboard path")
    sea.set_defaults(handler=cmd_search)

    val = subs.add_parser("validate", help="compare the reduced-space pick to the oracle")
    _add_dataset_arg(val)
    val.add_argument("--reduction", required=True, help="reduction JSON artifact")
    val.add_argument("--out", default="validation.json", help="validation JSON path")
    val.add_argument("--table", default="improvement.txt",
                     help="plain-text improvement table path")
    val.set_defaults(handler=cmd_validate)

    rep = subs.add_parser("report", help="render a summary from earlier artifacts")
    rep.add_argument("--sweep", help="sweep CSV from simulate/derive")
    rep.add_argument("--reduction", help="reduction JSON from reduce")
    rep.add_argument("--search", help="search JSON from search")
    rep.add_argument("--validation", help="validation JSON from validate")
    rep.add_argument("--out", default="report.txt", help="report text path")
    rep.set_defaults(handler=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args, _resolve(args, load_config(args.config)))
    except IngestionError as exc:
        print(f"hpckit: ingestion error: {exc}", file=sys.stderr)
        return EXIT_INGESTION
    except NoFeasibleConfigurationError as exc:
        # only search and validate raise it, and both read --dataset
        print(f"hpckit: {args.dataset}: {exc}", file=sys.stderr)
        return EXIT_NO_FEASIBLE
    except (HpckitError, OSError) as exc:
        print(f"hpckit: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
