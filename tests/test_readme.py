"""The README's command-line examples run as written, and print what their comments say."""

import re
import shlex
from pathlib import Path

import pytest

from pfmattack import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """[argv, expected] per 'pfmattack ...' line of the Command line block.

    Backslash continuations are joined; expected is the '# ->' comment that
    follows a command, or None.
    """
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line$.*?^```sh$(.*?)^```$", text, re.S | re.M).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("pfmattack "):
            commands.append([shlex.split(line)[1:], None])
        elif line.startswith("# ->"):
            commands[-1][1] = line
    return commands


COMMANDS = readme_commands()


def test_readme_states_an_expected_output():
    assert any(expected for _, expected in COMMANDS)


@pytest.mark.parametrize("argv, expected", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_readme_command(argv, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    if expected:
        printed = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
        pairs = re.findall(r"(\w+) ([-+.\deE]+)", expected)
        assert pairs
        for key, value in pairs:
            assert printed[key] == value, key
