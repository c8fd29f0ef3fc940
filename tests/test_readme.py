"""The commands of README's "Example" block print what it says.

Each `olog …` command of the block (with its `\\` continuation lines) is
run through `cli.main` from the repository root, and its stdout must be
the `# ` lines under it, in order.
"""

import shlex
from pathlib import Path

import pytest

from ologs.cli import main

ROOT = Path(__file__).resolve().parent.parent


def example_commands():
    """(argv, expected stdout lines) for each command of the block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Example\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    examples = []
    for line in block.splitlines():
        if line.startswith("olog "):
            examples.append((shlex.split(line)[1:], []))
        elif line.startswith("# "):
            examples[-1][1].append(line[2:])
    return examples


EXAMPLES = example_commands()


def test_example_block_has_both_commands():
    assert [argv[0] for argv, _ in EXAMPLES] == ["read", "search-conforming"]


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[argv[0] for argv, _ in EXAMPLES])
def test_example_output(argv, expected, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == expected
