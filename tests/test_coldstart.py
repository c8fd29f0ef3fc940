"""tools/coldstart.py: cold-start timing of two checkouts.

A checkout compared with itself prints one ratio line per command and
exits 0; a copy whose readings differ is refused with exit 1, naming
the commands whose stdout differs, and the bytecode cache leaves no
__pycache__ in the copy.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"(import ologs\.cli|olog [\w. -]+): 2 pairs; "
                  r"OLD median ms [\d.]+ \(quartiles [\d.]+-[\d.]+\), "
                  r"NEW median ms [\d.]+ \(quartiles [\d.]+-[\d.]+\); "
                  r"NEW/OLD median [\d.]+ \(quartiles [\d.]+-[\d.]+\)")


def coldstart(old, new):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "coldstart.py"), str(old),
         str(new), "--pairs", "2"],
        capture_output=True, text=True, encoding="utf-8", timeout=300)


def test_a_checkout_compared_with_itself_prints_ratios():
    done = coldstart(ROOT, ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    names = [LINE.fullmatch(line)[1] for line in done.stdout.splitlines()]
    assert names == ["import ologs.cli", "olog validate amino.olog",
                     "olog read amino.olog --facts",
                     "olog check-mapping marriage.map"]


def test_a_difference_in_output_fails(tmp_path):
    shutil.copytree(ROOT / "src" / "ologs", tmp_path / "src" / "ologs",
                    ignore=shutil.ignore_patterns("__pycache__"))
    language = tmp_path / "src" / "ologs" / "language.py"
    text = language.read_text(encoding="utf-8")
    language.write_text(text.replace(", which ", ", that "),
                        encoding="utf-8")
    done = coldstart(ROOT, tmp_path)
    assert done.returncode == 1
    assert ("olog read amino.olog --facts: the sides differ in stdout"
            in done.stdout.splitlines())
    assert not list(tmp_path.rglob("__pycache__"))
