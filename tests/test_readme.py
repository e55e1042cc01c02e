"""README's command-line examples, run in-process through the CLI."""

import json
import re
import shlex
from pathlib import Path

import pytest

from jetfact.cli import COMMANDS, run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def command_lines():
    section = README.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("jetfact ")]


def test_readme_lists_commands():
    assert len(command_lines()) == 9


def test_command_table_matches_readme():
    # Each command is one row of the table and one README line, so a
    # command without a README line, and so without a golden report, fails.
    pairs = [(group, name) for group, name, *_ in COMMANDS]
    assert len(set(pairs)) == len(pairs)
    assert sorted(pairs) == sorted(tuple(shlex.split(line)[1:3]) for line in command_lines())


@pytest.mark.parametrize("line", command_lines())
def test_readme_command_passes(line, tmp_path):
    argv = shlex.split(line)[1:]
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["command"] == " ".join(argv[:2])


def test_readme_aliasing_example(tmp_path, capsys):
    prose = " ".join(README.split())
    command, message = re.search(r'\(`(num laurent [^`]*)`: "([^"]*)"', prose).groups()
    argv = shlex.split(command) + ["--out", str(tmp_path / "report.json")]
    assert run(argv) == 2
    assert message in capsys.readouterr().err
