"""The benchmark worker runs against the library's current API.

``perfbench/worker.py`` calls the library through its public names. If
one of them goes, every round raises and the benchmark's result line
carries no metrics. One round of the smallest library workload, run
in-process here, fails on such a removal instead.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import worker  # noqa: E402


def test_one_seeds_round_runs_without_failures(tmp_path, capsys):
    assert worker.main(["--workload", "seeds-128", "--seed", "3", "--seconds", "0",
                        "--workdir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    summary = json.loads(out.splitlines()[-1])
    assert len(summary["rounds"]) == 1, err
    assert summary["failed"] == 0, err
    assert summary["rounds"][0]["simulate_s"] > 0.0


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_setup_only_prints_the_ready_time(workload, capsys):
    assert worker.main(["--workload", workload, "--seed", "3", "--setup-only"]) == 0
    assert float(capsys.readouterr().out.splitlines()[-1]) > 0.0
