"""The data commands check both bundles before they open a
correspondence table.

`check-mapping --src-data/--dst-data` and `search-conforming` get a map
whose one `table` line names a file that does not exist, and a source
bundle whose aspect table lacks a row.  Both exit 1 with the totality
finding alone: the missing table is never opened, so no error names it.
With the row put back, the same commands open the table and exit 2.
"""

import json
import shutil

import pytest

from conftest import FIXTURES
from ologs.cli import main

MAP = """\
mapping "self"
source "father.olog"
target "father.olog"
object person -> person
object father -> father
aspect has -> [has]
component person = "is" by {S}
component father = "is" by {S}
square has by {S}
table person = "missing.csv"
"""

FINDING = "'has' has no value for token 'Jeb Bush'"


def make_inputs(tmp_path, total: bool) -> list[str]:
    shutil.copy(FIXTURES / "father.olog", tmp_path)
    (tmp_path / "self.map").write_text(MAP, encoding="utf-8")
    for side in ("src", "dst"):
        shutil.copytree(FIXTURES / "data" / "bush", tmp_path / side)
    if not total:
        has = tmp_path / "src" / "has.csv"
        rows = has.read_text(encoding="utf-8").splitlines(keepends=True)
        has.write_text("".join(row for row in rows
                               if not row.startswith("Jeb Bush,")),
                       encoding="utf-8")
    return [str(tmp_path / "self.map"), "--src-data", str(tmp_path / "src"),
            "--dst-data", str(tmp_path / "dst")]


@pytest.mark.parametrize("command", ["check-mapping", "search-conforming"])
def test_a_totality_failure_ends_the_command_first(tmp_path, capsys,
                                                   command):
    args = make_inputs(tmp_path, total=False)
    assert main([command, *args]) == 1
    assert capsys.readouterr() == ("", f"totality-violation: {FINDING}\n")
    assert main([command, *args, "--json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {"ok": False, "findings": [
        {"code": "totality-violation", "message": FINDING}]}


@pytest.mark.parametrize("command", ["check-mapping", "search-conforming"])
def test_total_bundles_open_the_missing_table(tmp_path, capsys, command):
    args = make_inputs(tmp_path, total=True)
    assert main([command, *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: [Errno 2] ") and "missing.csv" in err
