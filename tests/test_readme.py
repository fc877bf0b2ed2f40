"""The README's quick-start console block is what the CLI prints.

Each ``$ hpckit ...`` line of the block runs through ``cli.main`` in an
empty directory, and the lines it prints must equal the lines the README
shows under it, so the README cannot drift from the program.
"""

import re
import shlex
from pathlib import Path

from hpckit import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> list[tuple[list[str], list[str]]]:
    """Each quick-start command's arguments and the lines the README shows it printing."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Quick start\n.*?^```console\n(.*?)^```$", text, re.M | re.S)
    steps = []
    for line in block.group(1).splitlines():
        if line.startswith("$ "):
            command, *argv = shlex.split(line[2:])
            assert command == "hpckit", line
            steps.append((argv, []))
        else:
            steps[-1][1].append(line)
    return steps


def test_readme_quickstart_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HPCKIT_CONFIG", raising=False)
    steps = _quickstart()
    assert len(steps) == 6
    for argv, shown in steps:
        assert cli.main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert (out.splitlines(), err) == (shown, ""), argv
