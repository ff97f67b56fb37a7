"""README.md names only repository paths that exist, and its commands run."""

import re
import shlex
from pathlib import Path

import pytest

from jacobipc.cli import main

ROOT = Path(__file__).resolve().parent.parent
REPO_PATH = re.compile(r"(?<![\w./-])(?:src|tests|tools|perfbench)/[\w./-]*")


def command_line_examples():
    """The ``jacobipc ...`` lines of the sh block in README's Command line section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("jacobipc ")]


def test_every_repository_path_named_in_the_readme_exists():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    named = {match.rstrip(".") for match in REPO_PATH.findall(text)}
    assert "tests/digest_grid.py" in named  # the pattern finds paths at all
    assert sorted(path for path in named if not (ROOT / path).exists()) == []


def test_the_command_line_section_has_its_examples():
    assert len(command_line_examples()) == 8


@pytest.mark.parametrize("command", command_line_examples())
def test_each_command_line_example_exits_0(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[1:]) == 0
