"""Files the mapping commands cannot read give one `error:` line naming
the file, and exit 2.

A map with no `source` or `target` line names the map and the missing
line.  A map, olog or table that is not UTF-8 names the file that would
not decode.
"""

import shutil

import pytest

from ologs.cli import main

NOT_UTF8 = b"\xff\xfe"
DECODE = "'utf-8' codec can't decode byte 0xff in position 0"


def refused(capsys, *argv):
    """The single stderr line of a command that must exit 2 and print
    nothing on stdout."""
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return lines[0]


def copy_fixtures(fixtures, tmp_path):
    for item in fixtures.iterdir():
        if item.is_dir():
            shutil.copytree(item, tmp_path / item.name)
        else:
            shutil.copy(item, tmp_path / item.name)
    return tmp_path


def commands(root, map_file):
    """Each mapping command's argv on `map_file`, with the merge fixture's
    bundles where the command reads data."""
    data = root / "data"
    return {
        "check-mapping": ["check-mapping", map_file],
        "pullback": ["pullback", map_file, "--out", root / "out.olog"],
        "migrate": ["migrate", map_file, "--dst-data", data / "person",
                    "--out", root / "migrated"],
        "search-conforming": ["search-conforming", map_file,
                              "--src-data", data / "human",
                              "--dst-data", data / "person"],
    }


COMMANDS = ("check-mapping", "pullback", "migrate", "search-conforming")


@pytest.mark.parametrize("side", ("source", "target"))
@pytest.mark.parametrize("command", COMMANDS)
def test_map_without_an_endpoint_line(command, side, fixtures, tmp_path,
                                      capsys):
    root = copy_fixtures(fixtures, tmp_path)
    text = (root / "merge_is.map").read_text(encoding="utf-8")
    kept = [line for line in text.splitlines()
            if not line.startswith(f"{side} ")]
    map_file = root / f"no{side}.map"
    map_file.write_text("\n".join(kept) + "\n", encoding="utf-8")
    line = refused(capsys, *commands(root, map_file)[command])
    assert line == f"error: {map_file}: no {side} line"
    assert not (root / "out.olog").exists()
    assert not (root / "migrated").exists()


def test_map_without_either_line_names_the_source(fixtures, tmp_path,
                                                  capsys):
    map_file = tmp_path / "bare.map"
    map_file.write_text('mapping "bare"\n', encoding="utf-8")
    line = refused(capsys, "check-mapping", map_file)
    assert line == f"error: {map_file}: no source line"


@pytest.mark.parametrize("command", COMMANDS)
def test_map_that_is_not_utf8(command, fixtures, tmp_path, capsys):
    root = copy_fixtures(fixtures, tmp_path)
    map_file = root / "merge_is.map"
    map_file.write_bytes(NOT_UTF8 + map_file.read_bytes())
    line = refused(capsys, *commands(root, map_file)[command])
    assert line.startswith(f"error: {map_file}: {DECODE}")


@pytest.mark.parametrize("which", ("source", "target"))
def test_mapped_olog_that_is_not_utf8(which, fixtures, tmp_path, capsys):
    root = copy_fixtures(fixtures, tmp_path)
    olog = root / ("human.olog" if which == "source" else "person1.olog")
    olog.write_bytes(NOT_UTF8 + olog.read_bytes())
    line = refused(capsys, "check-mapping", root / "merge_is.map")
    assert line.startswith(f"error: {olog}: {DECODE}")


def test_olog_that_is_not_utf8(fixtures, tmp_path, capsys):
    olog = tmp_path / "amino.olog"
    olog.write_bytes(NOT_UTF8 + (fixtures / "amino.olog").read_bytes())
    for argv in (["validate", olog], ["read", olog, "--facts"]):
        line = refused(capsys, *argv)
        assert line.startswith(f"error: {olog}: {DECODE}")


def test_bundle_table_that_is_not_utf8(fixtures, tmp_path, capsys):
    root = copy_fixtures(fixtures, tmp_path)
    table = root / "data" / "human" / "h.csv"
    table.write_bytes(NOT_UTF8 + table.read_bytes())
    line = refused(capsys, "check-instance", root / "human.olog",
                   root / "data" / "human")
    assert line.startswith(f"error: {table}: {DECODE}")
    line = refused(capsys, *commands(root, root / "merge_is.map")
                   ["search-conforming"])
    assert line.startswith(f"error: {table}: {DECODE}")


def test_correspondence_table_that_is_not_utf8(fixtures, tmp_path, capsys):
    root = copy_fixtures(fixtures, tmp_path)
    table = root / "data" / "alpha.csv"
    table.write_bytes(NOT_UTF8 + table.read_bytes())
    data = root / "data"
    for command in ("check-mapping", "search-conforming"):
        line = refused(capsys, command, root / "merge_is.map",
                       "--src-data", data / "human",
                       "--dst-data", data / "person")
        assert line.startswith(f"error: {table}: {DECODE}")
