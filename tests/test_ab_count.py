"""tools/ab.py --count: bytecodes of one workload round on each side.

Two equal checkouts give equal totals and NEW/OLD 1.000, and a second
run prints the same lines, since a count repeats exactly.  A checkout
with one Python loop planted in `validate_instance` counts more on
instance-data, and the split puts the extra work in `instance.py`.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def count(old, new, workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(old), str(new),
         "--workload", workload, "--tiny", "--count"],
        capture_output=True, text=True, encoding="utf-8", timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout.splitlines()


def counts(line):
    """OLD, NEW and NEW/OLD of one printed line."""
    found = re.search(r"OLD ([\d,]+), NEW ([\d,]+); NEW/OLD ([\d.]+)$", line)
    assert found, line
    old, new, ratio = found.groups()
    return int(old.replace(",", "")), int(new.replace(",", "")), ratio


def test_equal_checkouts_count_equal_and_repeat():
    lines = count(ROOT, ROOT, "merge-search")
    assert lines[0].startswith(
        "merge-search: bytecodes of one round of 2 operations: ")
    old, new, ratio = counts(lines[0])
    assert old == new > 0 and ratio == "1.000"
    split = [line.strip().split(":")[0] for line in lines[1:]]
    assert "mapping.py" in split and split[-1] == "other"
    assert sum(counts(line)[0] for line in lines[1:]) == old
    assert count(ROOT, ROOT, "merge-search") == lines


def test_a_planted_loop_counts_more(tmp_path):
    shutil.copytree(ROOT / "src" / "ologs", tmp_path / "src" / "ologs",
                    ignore=shutil.ignore_patterns("__pycache__"))
    instance = tmp_path / "src" / "ologs" / "instance.py"
    text = instance.read_text(encoding="utf-8")
    anchor = "    report = check_totality(inst)\n"
    assert text.count(anchor) == 1
    instance.write_text(text.replace(
        anchor, anchor + "    for _ in range(100):\n        pass\n"),
        encoding="utf-8")
    lines = count(ROOT, tmp_path, "instance-data")
    old, new, _ = counts(lines[0])
    assert new > old
    by_module = {line.strip().split(":")[0]: counts(line) for line in lines[1:]}
    old, new, _ = by_module.pop("instance.py")
    assert new > old
    assert all(o == n for o, n, _ in by_module.values())
