"""The package imports and runs every command with no site-packages.

Each command runs in a fresh `python -I -S` from the repository root, so
neither the environment nor `site` can supply a module: what runs is the
standard library and `src/` alone.  The inputs are the fixtures, with
`./…/` spellings of their paths, and small ologs and maps written here:
a `[1]` fact side, unusual author-list spellings, and two rewritten
copies of `merge_is.map` that must answer as the fixture map does.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import ologs

SRC = Path(ologs.__file__).resolve().parent.parent
ROOT = Path(__file__).resolve().parent.parent
F = "tests/fixtures"
RUN = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
       "from ologs.cli import main; sys.exit(main(sys.argv[1:]))")


def olog(*argv):
    return subprocess.run(
        [sys.executable, "-I", "-S", "-c", RUN, *map(str, argv)],
        capture_output=True, cwd=ROOT, timeout=60)


def write_lines(path, *lines):
    path.write_text("".join(f"{line}\n" for line in lines),
                    encoding="utf-8", newline="")
    return path


DATA = ("--src-data", f"{F}/data/human", "--dst-data", f"{F}/data/person")


@pytest.mark.parametrize("argv", [
    ("validate", f"{F}/amino.olog"),
    ("read", f"{F}/amino.olog", "--facts"),
    ("check-instance", f"{F}/father.olog", f"{F}/data/bush"),
    ("check-instance", f"{F}/father.olog", f"./{F}/data/bush/"),
    ("search-conforming", f"./{F}/merge_is.map",
     "--src-data", f"./{F}/data/human/", "--dst-data", f"./{F}/data/person/"),
    ("check-mapping", f"{F}/merge_is.map", *DATA),
    ("search-conforming", f"{F}/merge_is.map", *DATA),
    ("migrate", f"{F}/merge_is.map", "--dst-data", f"{F}/data/person",
     "--out", "{tmp}/m"),
    ("pullback", f"{F}/marriage.map", "--out", "{tmp}/p.olog"),
], ids=lambda argv: " ".join(argv[:2]))
def test_fixture_commands(argv, tmp_path):
    done = olog(*(arg.format(tmp=tmp_path) for arg in argv))
    assert done.returncode == 0, done.stderr


def test_a_unit_fact_side_reads(tmp_path):
    loop = write_lines(tmp_path / "loop.olog", 'olog "loop"',
                       'type t = "a thing" by {A}',
                       'aspect f : t -> t = "turns into" by {A}',
                       'fact e : [f ; f] ~ [1] by {A}')
    for extra in ((), ("--json",)):
        done = olog("read", loop, "--facts", *extra)
        assert done.returncode == 0, done.stderr


LISTS = ('olog "lists"', 'type t = "a thing" by { A ,B }# c',
         'type u = "a unit" by {A}', 'aspect f : t -> u = "has" by {A}',
         'fact e : [f] ~ [f] by{}')


def test_unusual_author_lists_read(tmp_path):
    lists = write_lines(tmp_path / "lists.olog", *LISTS)
    for argv in (("validate", lists), ("read", lists, "--facts")):
        done = olog(*argv)
        assert done.returncode == 0, done.stderr


def test_an_author_list_that_is_not_a_list_is_a_parse_error(tmp_path):
    bad = write_lines(tmp_path / "bad.olog",
                      *(re.sub(r"by \{A\}$", "by {A B}", line)
                        for line in LISTS))
    done = olog("validate", bad)
    assert done.returncode == 2
    assert b"parse error" in done.stdout + done.stderr


def rewritten_maps(tmp_path):
    """Two copies of merge_is.map with absolute paths: one with a tab
    after each keyword, `by{S}` and trailing comments, read by the line
    pattern; one with `source"…"`, read by the token parser."""
    lines = (ROOT / F / "merge_is.map").read_text(encoding="utf-8")
    absolute = [line if line.startswith("mapping") else
                re.sub(r'"([^"]*)"$',
                       lambda q: f'"{ROOT / F / q.group(1)}"', line)
                for line in lines.splitlines()]
    tabs = [re.sub(r"^([a-z]*) ", "\\1\t", line).replace("by {S}", "by{S}")
            + " # a comment" for line in absolute]
    quote = [re.sub(r'^source "', 'source"', line) for line in absolute]
    return (write_lines(tmp_path / "tabs.map", *tabs),
            write_lines(tmp_path / "quote.map", *quote))


def test_rewritten_maps_answer_as_the_fixture_map(tmp_path):
    expected = olog("check-mapping", f"{F}/merge_is.map", *DATA, "--json")
    assert expected.returncode == 0, expected.stderr
    tabs, quote = rewritten_maps(tmp_path)
    assert "source\t" in tabs.read_text(encoding="utf-8")
    assert 'source"' in quote.read_text(encoding="utf-8")
    for copy in (tabs, quote):
        done = olog("check-mapping", copy, *DATA, "--json")
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected.stdout
