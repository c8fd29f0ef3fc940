"""tools/ab.py --corpus fixtures runs corrupted tables too.

Every fixture table gets seeded one-character corruptions, each run
under the commands that read it.  A checkout compared with itself still
passes, and a copied checkout whose plain-table reader takes a line with
two commas (it checks only that the fields pair up, not where the
separators fall) is caught on a corrupted table.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT = re.compile(r"corpus fixtures: (\d+) invocations compared, (\d+) differ")
SHAPE_CHECK = '''(lines.encode().translate(None, NOT_SEPARATOR)
                != (b",\\n" * len(keys))[:-1])'''
PARITY = "len(fields) % 2"


def ab_corpus(old, new):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(old), str(new),
         "--corpus", "fixtures"],
        capture_output=True, text=True, encoding="utf-8", timeout=300)


def test_a_checkout_compared_with_itself_passes_with_tables():
    done = ab_corpus(ROOT, ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    compared, differ = map(int, COUNT.fullmatch(done.stdout.strip()).groups())
    # 1,764 olog and map invocations, and 380 on corrupted tables.
    assert compared == 2144 and differ == 0


def test_a_plain_reader_taking_two_commas_on_a_line_is_caught(tmp_path):
    shutil.copytree(ROOT / "src" / "ologs", tmp_path / "src" / "ologs",
                    ignore=shutil.ignore_patterns("__pycache__"))
    instance = tmp_path / "src" / "ologs" / "instance.py"
    text = instance.read_text(encoding="utf-8")
    assert text.count(SHAPE_CHECK) == 1
    instance.write_text(text.replace(SHAPE_CHECK, PARITY),
                        encoding="utf-8")
    done = ab_corpus(ROOT, tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    *named, last = done.stdout.splitlines()
    assert 0 < int(COUNT.fullmatch(last)[2]) == len(named)
    for line in named:
        # Only invocations on a corrupted table differ: a bundle copy
        # <bundle>.<table>.cNN, or a map copy naming a corrupted table.
        assert re.search(r"<corpus>/(data/\w+\.\w+\.c\d\d\b"
                         r"|\w+\.(alpha|beta)\.c\d\d\.map )", line), line
