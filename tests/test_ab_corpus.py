"""tools/ab.py --corpus fixtures: the fixture corpus compared on two checkouts.

A checkout compared with itself gives no difference and counts the
invocations it ran; a copied checkout with one error message changed
exits 1 and names each invocation whose stderr differs, and one that
writes the pulled-back olog differently names the written file.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT = re.compile(r"corpus fixtures: (\d+) invocations compared, (\d+) differ")


def ab_corpus(old, new):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(old), str(new),
         "--corpus", "fixtures"],
        capture_output=True, text=True, encoding="utf-8", timeout=300)


def test_a_checkout_compared_with_itself_passes():
    done = ab_corpus(ROOT, ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    compared, differ = map(int, COUNT.fullmatch(lines[0]).groups())
    assert compared > 1000 and differ == 0


def test_one_changed_error_message_is_caught(tmp_path):
    shutil.copytree(ROOT / "src" / "ologs", tmp_path / "src" / "ologs",
                    ignore=shutil.ignore_patterns("__pycache__"))
    dsl = tmp_path / "src" / "ologs" / "dsl.py"
    text = dsl.read_text(encoding="utf-8")
    assert text.count('"unterminated string"') == 1
    dsl.write_text(text.replace('"unterminated string"', '"unclosed string"'),
                   encoding="utf-8")
    done = ab_corpus(ROOT, tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    *named, last = done.stdout.splitlines()
    compared, differ = map(int, COUNT.fullmatch(last).groups())
    assert 0 < differ == len(named) < compared
    for line in named:
        assert re.match(r"[a-z -]+ <corpus>/\w+\.c\d\d\.(olog|map)\b", line), line
        assert ": stderr differs: " in line and "unterminated" in line, line


def test_one_changed_written_file_is_caught(tmp_path):
    shutil.copytree(ROOT / "src" / "ologs", tmp_path / "src" / "ologs",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "ologs" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    old = 'FsPath(args.out).write_text(text, encoding="utf-8")'
    assert text.count(old) == 1
    cli.write_text(text.replace(old, old.replace("(text,", '(text + "\\n",')),
                   encoding="utf-8")
    done = ab_corpus(ROOT, tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    *named, last = done.stdout.splitlines()
    assert 0 < int(COUNT.fullmatch(last)[2]) == len(named)
    for line in named:
        assert line.startswith("pullback <corpus>/"), line
        assert line.endswith(": written file pulled.olog differs"), line
