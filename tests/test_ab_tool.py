"""tools/ab.py: interleaved A/B timing of two checkouts.

Run as a script on the workloads' tiny sizes: two equal checkouts give
a ratio line and exit 0; a checkout whose readings differ is refused
with exit 1, naming the command whose stdout differs.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def ab(old, new, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(old), str(new),
         "--tiny", "--rounds", "2", *args],
        capture_output=True, text=True, encoding="utf-8", timeout=300)


def test_equal_checkouts_print_a_ratio():
    done = ab(ROOT, ROOT, "--workload", "schema-scale")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("schema-scale: 2 rounds of 2 operations; ")
    assert "NEW/OLD median " in done.stdout


def test_a_difference_in_output_fails(tmp_path):
    shutil.copytree(ROOT / "src" / "ologs", tmp_path / "src" / "ologs",
                    ignore=shutil.ignore_patterns("__pycache__"))
    language = tmp_path / "src" / "ologs" / "language.py"
    text = language.read_text(encoding="utf-8")
    language.write_text(text.replace(", which ", ", that "),
                        encoding="utf-8")
    done = ab(ROOT, tmp_path, "--workload", "schema-scale")
    assert done.returncode == 1
    assert "--facts: stdout differs" in done.stdout
