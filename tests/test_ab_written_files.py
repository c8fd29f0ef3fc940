"""tools/ab.py compares the files each `olog` call writes under `--out`.

A checkout that writes one value differently, in a way that reads back
to the same instance, leaves every exit code, stdout and stderr alone;
the tool must still refuse it, naming the written file.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Appended to a copy of instance.py: after each two-column table is
# written, its first row's key is quoted.  csv reads the file back to the
# same rows, so only the written bytes differ.
QUOTE_FIRST_KEY = '''

def write_table_file(path, table, _write=write_table_file):
    _write(path, table)
    if len(table.header) == 2 and table.rows:
        key = table.rows[0][0]
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(f"\\n{key},", f'\\n"{key}",', 1),
                        encoding="utf-8")
'''


def ab(old, new):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(old), str(new),
         "--tiny", "--rounds", "2", "--workload", "instance-data"],
        capture_output=True, text=True, encoding="utf-8", timeout=300)


def test_equal_checkouts_write_equal_files():
    done = ab(ROOT, ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("instance-data: 2 rounds of 2 operations; ")


def test_a_difference_in_a_written_file_fails(tmp_path):
    shutil.copytree(ROOT / "src" / "ologs", tmp_path / "src" / "ologs",
                    ignore=shutil.ignore_patterns("__pycache__"))
    instance = tmp_path / "src" / "ologs" / "instance.py"
    instance.write_text(instance.read_text(encoding="utf-8")
                        + QUOTE_FIRST_KEY, encoding="utf-8")
    done = ab(ROOT, tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    assert " migrate " in lines[0]
    assert lines[0].endswith(": written file g.csv differs")
