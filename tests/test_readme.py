"""The README's examples run as written."""

import json
import re
import shlex
from pathlib import Path

import pytest

from circunits.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(section: str, language: str) -> str:
    """The first fenced block of the given language under a '## ' heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"```{language}\n(.*?)```", body, re.DOTALL)
    assert match is not None, f"no {language} block under {section!r}"
    return match.group(1)


COMMANDS = [
    line
    for line in fenced_block("Command line", "sh").splitlines()
    if line.startswith("circunits ")
]


def test_command_block_is_not_empty():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_example(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line, comments=True)[1:]
    assert main(argv) == 0
    capsys.readouterr()


def test_library_example(capsys):
    exec(fenced_block("Library example", "python"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1+r_1+r_2"


def test_certificate_example(capsys):
    assert main(["verify", "--n", "5"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert json.loads(fenced_block("Certificates", "json")) == printed
