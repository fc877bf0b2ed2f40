"""SHA-256 of the raw sweep CSVs for seeds 12-16 at 128 and 8192 rows.

    python3 perfbench/digests.py

The CSV is what ``sweep.export_csv`` writes for ``generate_sweep`` on
the benchmark's spaces (no run manifest), the file the ``pipeline-8192``
workload writes and reads. The digests are a reference for keeping
simulator output and CSV bytes identical across changes, not a check
the benchmark applies.
"""

from __future__ import annotations

import hashlib
import sys

from workloads import DEFAULT_SPACE, SPACE_8192, SRC, space_json

SEEDS = range(12, 17)


def main() -> int:
    sys.path.insert(0, SRC)
    from hpckit import defaults, simulator, sweep

    for space_desc in (DEFAULT_SPACE, SPACE_8192):
        space = sweep.KnobSpace.from_json_dict(space_json(space_desc))
        for seed in SEEDS:
            ds = simulator.generate_sweep(space, defaults.default_workload(),
                                          defaults.default_effects(),
                                          defaults.default_fault_model(), seed)
            text = sweep.export_csv_string(ds)
            print(f"{len(ds):5d} rows  seed {seed}  "
                  f"{hashlib.sha256(text.encode('utf-8')).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
