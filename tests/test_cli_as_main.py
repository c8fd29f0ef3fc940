"""`python -m ologs.cli` runs `main` and exits with its code."""

import os
import subprocess
import sys
from pathlib import Path

import ologs
from ologs.cli import main

SRC = Path(ologs.__file__).resolve().parent.parent
ROOT = Path(__file__).resolve().parent.parent


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "ologs.cli", *argv], capture_output=True,
        text=True, encoding="utf-8", cwd=ROOT, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)))


def test_module_run_answers_as_main(capsys, monkeypatch):
    argv = ["read", "tests/fixtures/amino.olog", "--facts"]
    done = run_module(*argv)
    monkeypatch.chdir(ROOT)
    code = main(argv)
    assert (done.returncode, done.stdout) == (code, capsys.readouterr().out)
    assert code == 0 and done.stdout


def test_module_run_without_arguments_exits_two():
    assert run_module().returncode == 2
