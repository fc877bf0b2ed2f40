"""Correctness checks on the program's outputs, computed apart from it.

Each check takes outputs as plain data (a table parsed from a sweep CSV
or built from a dataset's columns, and the JSON forms of the reduction,
search and validation results) and returns a list of error strings; an
empty list means the check passed. Reference values come from numpy,
scipy and the model as the README states it (``workloads.MODEL``), never
from a stored copy of earlier output.

A table is ``{"knobs": {name: [label per row]}, "mon": {name: values},
"req": {name: values} or None}``; ``parse_csv`` adds ``"text"``, the
monitor cells as written.
"""

from __future__ import annotations

import csv
import itertools

import numpy as np

from workloads import MODEL, MONITORS, REQUIREMENTS

EPS = 1e-9          # slack for values that passed through 12-digit CSV cells
REL = 1e-10         # relative slack for sums and products of such values

# +1: lower is better; -1: higher is better (availability).
REQ_DIRECTION = {"performance_s": 1, "power_w": 1, "energy_j": 1, "availability": -1, "cost": 1}


def parse_csv(path: str) -> dict:
    """Read a sweep CSV with the csv module alone."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#") and line.strip()]
    header, *body = list(csv.reader(lines))
    columns = list(zip(*body)) if body else [()] * len(header)
    table = {"knobs": {}, "mon": {}, "req": None, "text": {}}
    for name, col in zip(header, columns):
        kind, _, key = name.partition(":")
        if kind == "knob":
            table["knobs"][key] = list(col)
        elif kind == "mon":
            table["mon"][key] = np.array(col, dtype=float)
            table["text"][key] = list(col)
        elif kind == "req":
            table["req"] = table["req"] or {}
            table["req"][key] = np.array(col, dtype=float)
    return table


def as_arrays(table: dict) -> dict:
    """A table built from JSON lists, with its value columns as arrays."""
    out = dict(table)
    out["knobs"] = dict(table["knobs"])
    out["mon"] = {k: np.asarray(v, dtype=float) for k, v in table["mon"].items()}
    if table.get("req") is not None:
        out["req"] = {k: np.asarray(v, dtype=float) for k, v in table["req"].items()}
    return out


def _close(a, b, rel=REL, abs_=0.0) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) <= np.maximum(rel * np.maximum(np.abs(a), np.abs(b)), abs_)


def _bad_rows(ok: np.ndarray) -> str:
    rows = np.flatnonzero(~ok)
    return f"{rows.size} rows, first row {rows[0]}" if rows.size else ""


# ---------------------------------------------------------------------------
# simulator output


def check_sweep(table: dict, space) -> list[str]:
    """Row count, enumeration order, finite monitors, peak >= cpu, DVFS speed-up."""
    errors = []
    names = [name for name, _, _ in space]
    if list(table["knobs"]) != names:
        return [f"knob columns {list(table['knobs'])}, expected {names}"]
    missing = [m for m in MONITORS if m not in table["mon"]]
    if missing:
        return [f"missing monitor columns {missing}"]
    expected_rows = int(np.prod([len(levels) for _, levels, _ in space]))
    n = len(table["mon"]["execution_time_s"])
    if n != expected_rows:
        return [f"{n} rows, expected the product of the level counts, {expected_rows}"]
    order = list(itertools.product(*[[label for label, _ in levels] for _, levels, _ in space]))
    rows = list(zip(*[table["knobs"][name] for name in names]))
    if rows != order:
        first = next(i for i, (a, b) in enumerate(zip(rows, order)) if a != b)
        errors.append(f"configurations not in enumeration order from row {first}")
    for name in MONITORS:
        values = table["mon"][name]
        if not np.all(np.isfinite(values)):
            errors.append(f"monitor {name} not finite in {_bad_rows(np.isfinite(values))}")
    peak_ok = table["mon"]["peak_power_w"] >= table["mon"]["cpu_power_w"]
    if not peak_ok.all():
        errors.append(f"peak_power_w < cpu_power_w in {_bad_rows(peak_ok)}")
    dvfs_levels = [label for label, _ in dict((n, l) for n, l, _ in space)["DVFS"]]
    dvfs = np.array([dvfs_levels.index(v) for v in table["knobs"]["DVFS"]])
    means = [float(table["mon"]["execution_time_s"][dvfs == k].mean())
             for k in range(len(dvfs_levels))]
    if not all(b < a for a, b in zip(means, means[1:])):
        errors.append(f"mean execution time does not fall as DVFS rises: {means}")
    return errors


# ---------------------------------------------------------------------------
# derived columns


def provisioning(server_mtbf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest server count S meeting the target, and the availability at S."""
    from scipy.stats import binom

    a = server_mtbf / (server_mtbf + MODEL["mttr_h"])
    need = MODEL["required_servers"]
    servers = np.zeros(a.shape, dtype=int)
    avail = np.zeros(a.shape)
    for s in range(need, MODEL["max_servers"] + 1):
        up = binom.sf(need - 1, s, a)           # P(at least `need` of s up)
        pick = (servers == 0) & (up >= MODEL["availability_target"])
        servers[pick] = s
        avail[pick] = up[pick]
    return servers, avail


def check_derived(table: dict) -> list[str]:
    """Power, energy, availability, system MTBF, capex, opex and cost, recomputed."""
    req, mon = table["req"], table["mon"]
    if req is None or any(r not in req for r in REQUIREMENTS):
        return ["requirement columns missing"]
    servers, avail = provisioning(mon["server_mtbf_h"])
    if not servers.all():
        return [f"availability target unreachable in {_bad_rows(servers > 0)}"]
    capex = servers * (MODEL["server_price"] + MODEL["infra_price"])
    opex = (req["energy_j"] * MODEL["energy_price_per_j"] * servers
            + MODEL["maintenance_rate"] * capex)
    expected = {
        "performance_s": (req["performance_s"], mon["execution_time_s"], REL, 0.0),
        "power_w": (req["power_w"], mon["cpu_power_w"] + mon["dram_power_w"], REL, 0.0),
        "energy_j": (req["energy_j"], req["performance_s"] * req["power_w"], REL, 0.0),
        "availability": (req["availability"], avail, 0.0, EPS),
        "system_mtbf_h": (mon["system_mtbf_h"], mon["server_mtbf_h"] / servers, REL, 0.0),
        "capex": (mon["capex"], capex, REL, 0.0),
        "opex": (mon["opex"], opex, 1e-9, 0.0),
        "cost": (req["cost"], mon["capex"] + mon["opex"], REL, 0.0),
    }
    errors = []
    for name, (got, want, rel, abs_) in expected.items():
        ok = _close(got, want, rel, abs_)
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            errors.append(f"{name} differs from its recomputation in {_bad_rows(ok)}: "
                          f"{float(np.asarray(got)[i])!r} vs {float(np.asarray(want)[i])!r}")
    return errors


# ---------------------------------------------------------------------------
# CSV round trip


def check_round_trip(raw: dict, columns, space) -> list[str]:
    """Exported cells render the generated values; ingest reads them back exactly.

    ``columns`` maps ``generated:<monitor>`` and ``ingested:<monitor>`` to
    the in-memory columns before export and after ingest, and
    ``ingested_levels`` to the ingested rows' level indices.
    """
    errors = []
    for name in MONITORS:
        text = raw["text"][name]
        rendered = [format(v, ".12g") for v in columns[f"generated:{name}"].tolist()]
        if text != rendered:
            errors.append(f"raw CSV column {name} is not the .12g rendering "
                          "of the generated values")
        if not np.array_equal(columns[f"ingested:{name}"], np.array(text, dtype=float)):
            errors.append(f"ingested column {name} differs from the values written")
    ranges = [range(len(levels)) for _, levels, _ in space]
    if not np.array_equal(columns["ingested_levels"], np.array(list(itertools.product(*ranges)))):
        errors.append("ingested rows are not each configuration once, in enumeration order")
    return errors


def check_carried(raw: dict, derived: dict) -> list[str]:
    """Derive rewrites only system MTBF, capex and opex; other cells pass through."""
    errors = []
    if derived["knobs"] != raw["knobs"]:
        errors.append("derived CSV knob cells differ from the raw CSV")
    for name in MONITORS:
        if name not in ("system_mtbf_h", "capex", "opex") and derived["text"][name] != raw["text"][name]:
            errors.append(f"derived CSV column {name} differs from the raw CSV")
    return errors


# ---------------------------------------------------------------------------
# reduction


def _corr(columns: dict[str, np.ndarray], names: list[str]) -> np.ndarray:
    return np.corrcoef(np.vstack([columns[n] for n in names])) if names else np.zeros((0, 0))


def knob_encoding(table: dict, space) -> dict[str, np.ndarray]:
    """Numeric value of each level where the knob has them, else the level index."""
    out = {}
    for name, levels, _ in space:
        code = {label: (value if value is not None else float(i))
                for i, (label, value) in enumerate(levels)}
        out[name] = np.array([code[v] for v in table["knobs"][name]], dtype=float)
    return out


def _check_pruning(kind, columns, kept, removals, threshold) -> list[str]:
    errors = []
    listed = list(kept) + [r["removed"] for r in removals]
    if sorted(listed) != sorted(columns):
        return [f"{kind}s kept and removed {sorted(listed)} do not partition {sorted(columns)}"]
    survivors = [r["removed"] for r in removals if r["reason"] == "unmapped"] + list(kept)
    corr = _corr(columns, survivors)
    for i, j in itertools.combinations(range(len(survivors)), 2):
        if abs(corr[i, j]) >= threshold + EPS:
            errors.append(f"surviving {kind}s {survivors[i]} and {survivors[j]} have "
                          f"|r| = {abs(corr[i, j]):.6f} >= {threshold}")
    for rec in removals:
        if rec["reason"] == "zero_variance":
            if np.std(columns[rec["removed"]]) != 0.0:
                errors.append(f"{rec['removed']} removed for zero variance but varies")
        elif rec["reason"] == "correlated":
            r = float(_corr(columns, [rec["removed"], rec["partner"]])[0, 1])
            if abs(r) < threshold - EPS or abs(r - rec["coefficient"]) > EPS:
                errors.append(f"{rec['removed']} removed against {rec['partner']} with "
                              f"r = {rec['coefficient']}, numpy.corrcoef gives {r}")
    return errors


def check_reduction(table: dict, reduction: dict, space, must_reject=()) -> list[str]:
    """The three reduction steps against numpy.corrcoef."""
    req_thr = reduction["thresholds"]["requirement"]
    knob_thr = reduction["thresholds"]["knob"]
    errors = []
    if (req_thr, knob_thr) != (MODEL["req_threshold"], MODEL["knob_threshold"]):
        errors.append(f"thresholds {req_thr}, {knob_thr} are not the defaults")
    reqs = {n: table["req"][n] for n in REQUIREMENTS}
    mons = {n: table["mon"][n] for n in MONITORS}
    errors += _check_pruning("requirement", reqs, reduction["kept_requirements"],
                             reduction["removed_requirements"], req_thr)
    errors += _check_pruning("monitor", mons, reduction["kept_monitors"],
                             reduction["removed_monitors"], req_thr)
    if errors:
        return errors

    survivors = [m for m in MONITORS if m in reduction["kept_monitors"]
                 or any(r["removed"] == m and r["reason"] == "unmapped"
                        for r in reduction["removed_monitors"])]
    mapping = reduction["requirement_to_monitor"]
    if sorted(mapping) != sorted(reduction["kept_requirements"]):
        errors.append(f"mapped requirements {sorted(mapping)} are not the kept ones")
    for req, match in mapping.items():
        r = {m: float(np.corrcoef(reqs[req], mons[m])[0, 1]) for m in survivors}
        best = max(abs(v) for v in r.values())
        got = r.get(match["monitor"])
        if got is None or abs(got) < best - EPS or abs(got - match["coefficient"]) > EPS:
            errors.append(f"{req} maps to {match['monitor']} (r = {match['coefficient']}), "
                          f"but the largest |r| is {best}")
    mapped = {m["monitor"] for m in mapping.values()}
    if set(reduction["kept_monitors"]) != mapped:
        errors.append(f"kept monitors {reduction['kept_monitors']} are not the mapped {sorted(mapped)}")

    knobs = knob_encoding(table, space)
    selected = {k["knob"] for k in reduction["selected_knobs"]}
    rejected = {k["knob"] for k in reduction["rejected_knobs"]}
    if selected | rejected != set(knobs) or selected & rejected:
        errors.append(f"selected {sorted(selected)} and rejected {sorted(rejected)} "
                      "do not partition the knobs")
    for name, series in knobs.items():
        best = max(abs(float(np.corrcoef(series, mons[m])[0, 1]))
                   for m in reduction["kept_monitors"])
        if abs(best - knob_thr) <= EPS:
            continue
        if (best >= knob_thr) != (name in selected):
            errors.append(f"knob {name} has max |r| {best:.6f} against the kept monitors, "
                          f"but is {'selected' if name in selected else 'rejected'}")
    for name in must_reject:
        if name not in rejected:
            errors.append(f"no-effect knob {name} is not rejected")
    return errors


# ---------------------------------------------------------------------------
# search and validation


def _row(table: dict, labels: dict, space) -> int | None:
    names = [name for name, _, _ in space]
    if sorted(labels) != sorted(names):
        return None
    hit = np.ones(len(table["knobs"][names[0]]), dtype=bool)
    for name in names:
        hit &= np.array(table["knobs"][name]) == labels[name]
    rows = np.flatnonzero(hit)
    return int(rows[0]) if rows.size == 1 else None


def feasible(table: dict) -> np.ndarray:
    req = table["req"]
    return ((req["performance_s"] <= MODEL["performance_max_s"])
            & (req["power_w"] <= MODEL["power_max_w"])
            & (req["energy_j"] <= MODEL["energy_max_j"])
            & (req["availability"] >= MODEL["availability_min"]))


def scores(table: dict) -> np.ndarray:
    """Equal-weight mean of sign-adjusted z-scores; flat columns are skipped."""
    zs = []
    for name in REQUIREMENTS:
        x = table["req"][name]
        sd = np.std(x, ddof=1)
        if sd > 0:
            zs.append(REQ_DIRECTION[name] * (x - x.mean()) / sd)
    return np.mean(zs, axis=0)


def check_oracle(table: dict, pick: dict, space) -> list[str]:
    """The oracle pick is feasible and no feasible row scores better."""
    i = _row(table, pick["configuration"], space)
    if i is None:
        return [f"oracle pick {pick['configuration']} is not one row of the sweep"]
    ok = feasible(table)
    if not ok[i]:
        return [f"oracle pick (row {i}) is infeasible"]
    s = scores(table)
    errors = []
    if s[i] > s[ok].min() + EPS:
        errors.append(f"oracle pick (row {i}) scores {s[i]:.9f}, but feasible row "
                      f"{int(np.flatnonzero(ok)[np.argmin(s[ok])])} scores {s[ok].min():.9f}")
    if "score" in pick and abs(pick["score"] - s[i]) > 1e-6:
        errors.append(f"oracle score {pick['score']} differs from the recomputed {s[i]}")
    return errors


def _gap(oracle: dict, reduced: dict) -> dict[str, float]:
    pct = {}
    for name in REQUIREMENTS:
        o, r = float(oracle[name]), float(reduced[name])
        base, other = (1.0 - o, 1.0 - r) if REQ_DIRECTION[name] < 0 else (o, r)
        pct[name] = (base - other) / base if base else (0.0 if other == base else
                                                         float(np.copysign(1.0, base - other)))
    return pct


def check_validation(table: dict, validation: dict, reduction: dict, space) -> list[str]:
    """Oracle and reduced picks, the pinned knobs and the recomputed gap."""
    errors = check_oracle(table, validation["oracle"], space)
    i = _row(table, validation["reduced"]["configuration"], space)
    if i is None:
        return errors + ["reduced pick is not one row of the sweep"]
    if not feasible(table)[i]:
        errors.append(f"reduced pick (row {i}) is infeasible")
    selected = {k["knob"] for k in reduction["selected_knobs"]}
    for name, levels, baseline in space:
        label = validation["reduced"]["configuration"][name]
        if name not in selected and label != levels[baseline][0]:
            errors.append(f"reduced pick sets unselected knob {name} to {label}")
    o = _row(table, validation["oracle"]["configuration"], space)
    if o is None:
        return errors
    for k, side in ((o, "oracle"), (i, "reduced")):
        got = validation[side]["requirements"]
        for n in REQUIREMENTS:
            if not _close(got[n], table["req"][n][k], REL, EPS if n == "availability" else 0.0):
                errors.append(f"{side} pick reports {n} {got[n]!r}, its row holds "
                              f"{table['req'][n][k]!r}")
    # From the picks' own values: 1 - availability would lose digits through a CSV cell.
    pct = _gap(validation["oracle"]["requirements"], validation["reduced"]["requirements"])
    worst = max(0.0, max(-p for p in pct.values()))
    if abs(validation["max_negative_pct"] - worst) > 1e-12:
        errors.append(f"max_negative_pct {validation['max_negative_pct']!r}, "
                      f"recomputed from the two picks {worst!r}")
    for name, p in pct.items():
        if abs(validation["percent_differences"][name] - p) > 1e-12:
            errors.append(f"percent difference for {name} {validation['percent_differences'][name]!r}, "
                          f"recomputed {p!r}")
    if validation["picks_agree"] != (o == i):
        errors.append("picks_agree does not match the two picks")
    return errors


def check_analysis(raw: dict, derived: dict, reduction: dict, picks: list[dict],
                   validation: dict, space, must_reject=()) -> list[str]:
    """Every check on one sweep, from raw rows to the validated pick."""
    errors = check_sweep(raw, space) + check_sweep(derived, space)
    if errors:
        return errors
    errors += check_derived(derived)
    if errors:
        return errors
    errors += check_reduction(derived, reduction, space, must_reject)
    for pick in picks:
        errors += check_oracle(derived, pick, space)
    return errors + check_validation(derived, validation, reduction, space)
