"""tools/ab.py --corpus fixtures --expect FILE: named output changes.

A copied checkout with one error message changed passes when the file
lists exactly the invocations whose output changed, and marks them
expected; it fails when the file leaves one of them out, naming it as
a plain difference; and it fails when the file lists an invocation
whose output did not change, naming it too.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COUNT = re.compile(r"corpus fixtures: (\d+) invocations compared, (\d+) differ")
UNCHANGED = "validate <corpus>/amino.olog"


def ab_expect(new, listed, expect_file):
    expect_file.write_text("".join(f"{line}\n" for line in listed),
                           encoding="utf-8")
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(new),
         "--corpus", "fixtures", "--expect", str(expect_file)],
        capture_output=True, text=True, encoding="utf-8", timeout=300)


@pytest.fixture(scope="module")
def changed(tmp_path_factory):
    """A copy of the program with one error message changed, and the
    invocations, as the corpus prints them, whose output it changes."""
    new = tmp_path_factory.mktemp("new")
    shutil.copytree(ROOT / "src" / "ologs", new / "src" / "ologs",
                    ignore=shutil.ignore_patterns("__pycache__"))
    dsl = new / "src" / "ologs" / "dsl.py"
    text = dsl.read_text(encoding="utf-8")
    assert text.count('"unterminated string"') == 1
    dsl.write_text(text.replace('"unterminated string"', '"unclosed string"'),
                   encoding="utf-8")
    done = ab_expect(new, [], new / "none.txt")
    assert done.returncode == 1, done.stdout + done.stderr
    *named, last = done.stdout.splitlines()
    assert 0 < int(COUNT.fullmatch(last)[2]) == len(named)
    listed = [line.split(": ", 1)[0] for line in named]
    assert UNCHANGED not in listed
    return new, listed


def test_listed_changes_pass(changed, tmp_path):
    new, listed = changed
    done = ab_expect(new, listed, tmp_path / "expect.txt")
    assert done.returncode == 0, done.stdout + done.stderr
    *named, last = done.stdout.splitlines()
    assert int(COUNT.fullmatch(last)[2]) == len(listed) == len(named)
    assert all(line.endswith(" (expected)") for line in named)


def test_an_unlisted_change_fails(changed, tmp_path):
    new, listed = changed
    done = ab_expect(new, listed[1:], tmp_path / "expect.txt")
    assert done.returncode == 1, done.stdout + done.stderr
    plain = [line for line in done.stdout.splitlines()[:-1]
             if not line.endswith(" (expected)")]
    assert len(plain) == 1
    assert plain[0].startswith(f"{listed[0]}: stderr differs: ")


def test_a_listed_invocation_that_did_not_change_fails(changed, tmp_path):
    new, listed = changed
    done = ab_expect(new, [*listed, UNCHANGED], tmp_path / "expect.txt")
    assert done.returncode == 1, done.stdout + done.stderr
    *named, last = done.stdout.splitlines()
    assert int(COUNT.fullmatch(last)[2]) == len(listed)
    assert named[-1] == f"{UNCHANGED}: expected to differ, but did not"
    assert all(line.endswith(" (expected)") for line in named[:-1])
