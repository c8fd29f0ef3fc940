"""A table's shape errors name the table, under every command that reads it.

`InstanceTable` refuses a table with no one or two columns, a row whose
width is not the header's, and a repeated row.  `read_table_file` puts
the table's path before each of these messages, as before its `csv`
errors, so the user learns which file to mend: a bundle table under
`check-instance`, `check-mapping` with data, `migrate` and
`search-conforming`, and a correspondence table under `check-mapping`
with data and `search-conforming`.
"""

import csv
import shutil

import pytest

from conftest import FIXTURES
from ologs import cli


def repeat_a_row(lines):
    return [*lines, lines[-1]]


def widen_a_row(lines):
    width = len(next(csv.reader(lines[:1])))
    return [*lines, ",".join(["x"] * (width + 1))]


def add_two_columns(lines):
    return [lines[0] + ",x,y", *lines[1:]]


SHAPES = [
    (repeat_a_row, "duplicate rows"),
    (widen_a_row, "row width does not match header"),
    (add_two_columns, "tables have one or two columns"),
]

MERGE_DATA = ["--src-data", "{f}/data/human", "--dst-data", "{f}/data/person"]
# (command line, with {f} for the fixture copy, and the table it reads)
CASES = {
    "check-instance": (["check-instance", "{f}/father.olog", "{f}/data/bush"],
                       "data/bush/person.csv"),
    "check-mapping-src": (["check-mapping", "{f}/merge_is.map", *MERGE_DATA],
                          "data/human/h.csv"),
    "check-mapping-dst": (["check-mapping", "{f}/merge_is.map", *MERGE_DATA],
                          "data/person/a.csv"),
    "check-mapping-correspondence": (
        ["check-mapping", "{f}/merge_is.map", *MERGE_DATA], "data/alpha.csv"),
    "migrate": (["migrate", "{f}/merge_is.map", "--dst-data",
                 "{f}/data/person", "--out", "{f}/migrated"],
                "data/person/a.csv"),
    "search-conforming": (
        ["search-conforming", "{f}/merge_is.map", *MERGE_DATA],
        "data/human/h.csv"),
    "search-conforming-correspondence": (
        ["search-conforming", "{f}/merge_is.map", *MERGE_DATA],
        "data/alpha.csv"),
}


@pytest.mark.parametrize("damage, message", SHAPES,
                         ids=[message for _, message in SHAPES])
@pytest.mark.parametrize("case", sorted(CASES))
def test_the_error_names_the_table(tmp_path, capsys, case, damage, message):
    f = tmp_path / "f"
    shutil.copytree(FIXTURES, f)
    argv, rel = CASES[case]
    table = f / rel
    lines = table.read_text(encoding="utf-8").splitlines()
    table.write_text("\n".join(damage(lines)) + "\n", encoding="utf-8")
    code = cli.main([arg.format(f=f) for arg in argv])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {table}: {message}\n")
    assert not (f / "migrated").exists()
