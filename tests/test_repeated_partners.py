"""A correspondence key with more than one partner is reported once.

`check-mapping` with data gives one `ambiguous-correspondence` finding
per repeated key, in sorted key order, naming how many partners the key
has; `search-conforming` reads the same table as its declared pairs.
"""

import json
import shutil

import pytest

from conftest import FIXTURES
from ologs import cli

TABLE = ('a human,"is a person, namely"\n'
         "Emmy Noether,Emmy Noether\n"
         "Emmy Noether,George W. Bush\n"
         "Emmy Noether,Max\n"
         "George W. Bush,George W. Bush\n")
FINDING = "table at 'h' declares 3 partners for 'Emmy Noether'"


@pytest.fixture
def args(tmp_path):
    """merge_is.map's arguments with data, its table holding TABLE."""
    f = tmp_path / "f"
    shutil.copytree(FIXTURES, f)
    (f / "data" / "alpha.csv").write_text(TABLE, encoding="utf-8")
    return [str(f / "merge_is.map"), "--src-data", str(f / "data" / "human"),
            "--dst-data", str(f / "data" / "person")]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_a_key_with_three_partners_is_one_finding(args, capsys):
    assert run(capsys, "check-mapping", *args) == (
        1, "", f"ambiguous-correspondence: {FINDING}\n")
    code, out, err = run(capsys, "check-mapping", *args, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "findings": [
        {"code": "ambiguous-correspondence", "message": FINDING}]}


def test_search_conforming_reads_every_partner(args, capsys):
    assert run(capsys, "search-conforming", *args) == (0, (
        "candidates: 25\n"
        "morphism 1:\n"
        "  h: Emmy Noether -> Emmy Noether\n"
        "  h: George W. Bush -> George W. Bush\n"
        "morphism 2:\n"
        "  h: Emmy Noether -> George W. Bush\n"
        "  h: George W. Bush -> George W. Bush\n"
        "conforming: 2\n"), "")
