"""The README runs as written: its commands print what their comments say, and its library block executes."""

import re
import shlex
from pathlib import Path

import pytest

from pfmattack import build_ensemble, build_suboptimal_povm, cli, run_oracle
from pfmattack.attack import AttackReport
from pfmattack.mcoracle import OracleEstimate

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


def test_readme_library_block():
    """The python block under '## Library' runs as written, so a renamed field or signature on that path fails, and
    its block form gives what its cells' point calls give."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library$.*?^```python$(.*?)^```$", text, re.S | re.M).group(1)
    names = {}
    exec(compile(block, f"{README}:Library", "exec"), names)
    assert isinstance(names["report"], AttackReport) and isinstance(names["estimate"], OracleEstimate)
    assert names["estimate"].n_trials == 10**7
    # the block's rows are its cells' point calls: x, and the counts behind each per-state tally, row r seeded 42 + r
    block, povms, counts = names["block"], names["povms"], names["counts"]
    assert names["refusals"] == povms.refusals == [None, None] and counts.shape == (2, 4, 4)
    for r, (epsilon, delta) in enumerate(zip(block.epsilon.tolist(), block.delta.tolist())):
        ens = build_ensemble(epsilon, delta)
        strat = build_suboptimal_povm(ens)
        own = run_oracle(ens, strat, 10**7, seed=42 + r)
        assert povms.x[r] == strat.x
        tallies = counts[r, :, 2], counts[r, :, 1:3].sum(axis=1), counts[r, :, :3].sum(axis=1), counts[r].sum(axis=1)
        assert [t.tolist() for t in tallies] == [list(own.errors_by_state), list(own.sifted_by_state),
                                                 list(own.conclusive_by_state), list(own.trials_by_state)]
