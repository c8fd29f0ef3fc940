"""Two reference rules of the DSL.

A `square` line names a source aspect: a square key that is not one
exits 2 with `error: unknown source aspect '<key>'`, as an unknown key
on any other mapping line does, and not with an `empty-square-authors`
warning.  A type and an aspect may not share an id: a bundle holds one
`<id>.csv` per type and per aspect, so `migrate` would write the
aspect's table over the type's.  Such an olog exits 2 before any file
is written.
"""

import shutil

import pytest

from ologs.cli import main
from ologs.dsl import olog_from_document, parse_olog
from ologs.errors import DuplicateId

SOURCE = """olog "src"
type x = "a thing" by {A}
type y = "a place" by {A}
aspect x : x -> y = "is in" by {A}
"""
TARGET = """olog "dst"
type a = "a thing" by {A}
type b = "a place" by {A}
aspect f : a -> b = "is in" by {A}
"""
MAP = """mapping "m"
source "src.olog"
target "dst.olog"
object x -> a
object y -> b
aspect x -> [f]
component x = "is" by {A}
component y = "is" by {A}
square x by {A}
"""
TABLES = {"a.csv": "a thing\nt1\n", "b.csv": "a place\np1\n",
          "f.csv": 'a thing,"is in a place, namely"\nt1,p1\n'}


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_square_on_no_source_aspect_is_refused(fixtures, tmp_path, capsys):
    for name in ("child.olog", "marriage.olog"):
        shutil.copy(fixtures / name, tmp_path)
    text = (fixtures / "marriage.map").read_text(encoding="utf-8")
    map_file = tmp_path / "marriage.map"
    map_file.write_text(text.replace("square has_m by", "square has_mm by"),
                        encoding="utf-8")
    assert run(capsys, "check-mapping", map_file) == (
        2, "", "error: unknown source aspect 'has_mm'\n")


def test_an_earlier_aspect_line_keeps_its_error(fixtures, tmp_path, capsys):
    for name in ("child.olog", "marriage.olog"):
        shutil.copy(fixtures / name, tmp_path)
    text = (fixtures / "marriage.map").read_text(encoding="utf-8")
    map_file = tmp_path / "marriage.map"
    text = text.replace("square has_m by", "square has_mm by")
    map_file.write_text(text.replace("-> [inc_w]", "-> [inc_ww]"),
                        encoding="utf-8")
    assert run(capsys, "check-mapping", map_file) == (
        2, "", "error: unknown target aspect 'inc_ww'\n")


def test_an_aspect_may_not_take_a_type_id():
    with pytest.raises(DuplicateId, match="aspect 'x' has the id of a type"):
        olog_from_document(parse_olog(SOURCE))


def test_an_aspect_and_a_fact_may_share_an_id():
    text = SOURCE.replace("aspect x", "aspect z")
    o = olog_from_document(parse_olog(text + "fact z : [z] ~ [z] by {A}\n"))
    assert [eq.name for eq in o.category.equations] == ["z"]


@pytest.fixture
def shared_id(tmp_path):
    (tmp_path / "src.olog").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "dst.olog").write_text(TARGET, encoding="utf-8")
    (tmp_path / "m.map").write_text(MAP, encoding="utf-8")
    (tmp_path / "dst").mkdir()
    for name, text in TABLES.items():
        (tmp_path / "dst" / name).write_text(text, encoding="utf-8")
    return tmp_path


def test_validate_refuses_a_shared_id(shared_id, capsys):
    assert run(capsys, "check-instance", shared_id / "dst.olog",
               shared_id / "dst") == (0, "", "")
    assert run(capsys, "validate", shared_id / "src.olog") == (
        2, "", "error: aspect 'x' has the id of a type\n")


def test_migrate_writes_nothing_for_a_shared_id(shared_id, capsys):
    out = shared_id / "out"
    assert run(capsys, "migrate", shared_id / "m.map", "--dst-data",
               shared_id / "dst", "--out", out) == (
        2, "", "error: aspect 'x' has the id of a type\n")
    assert not out.exists()


def test_the_same_map_migrates_once_the_ids_differ(shared_id, capsys):
    for name, old, new in (("src.olog", "aspect x", "aspect in"),
                           ("m.map", "aspect x", "aspect in"),
                           ("m.map", "square x", "square in")):
        path = shared_id / name
        path.write_text(path.read_text(encoding="utf-8").replace(old, new),
                        encoding="utf-8")
    out = shared_id / "out"
    assert run(capsys, "migrate", shared_id / "m.map", "--dst-data",
               shared_id / "dst", "--out", out) == (0, "", "")
    written = sorted(p.name for p in out.iterdir())
    assert written == ["in.csv", "x.csv", "y.csv"]
    assert run(capsys, "check-instance", shared_id / "src.olog", out) == (
        0, "", "")
