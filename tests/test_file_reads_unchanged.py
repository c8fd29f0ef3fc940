"""Reading files by one binary read and listing a bundle by `os.scandir`
keep every output.

Ologs, maps and plain tables are read by one unbuffered binary read and
one strict UTF-8 decode, and a bundle is listed by `os.scandir` and its
tables named by `str` joins.  The tables a bundle holds, the names
errors give them and the paths that are no bundle, line endings, a
byte-order mark and the position of a byte that is not UTF-8 in an olog
or a map must read as they did when files were read in text mode and a
bundle listed by `Path.glob("*.csv")`.  The expected texts are those of
those readers, but for three changes: a bundle directory that cannot be
listed is an error, not an empty bundle; a bundle path that is no
directory gives `os.scandir`'s own error; and a bad byte in a table is
placed in the whole file, not in its 8 KiB decoding block.
"""

import errno
import os
import random
import shutil
from pathlib import Path as FsPath

import pytest

from conftest import FIXTURES
from ologs import cli
from ologs.dsl import load_olog
from ologs.instance import (
    _bind,
    _header_index,
    _load_plain,
    load_bundle,
    read_table_file,
)


@pytest.fixture
def work(tmp_path, monkeypatch):
    """A copy of the fixtures at `f/`, in the working directory."""
    shutil.copytree(FIXTURES, tmp_path / "f")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def bush_with(name, files):
    """A copy of the bush bundle at `name`, with `files` added: bytes
    are written as they are, None makes a directory."""
    shutil.copytree("f/data/bush", name)
    for file_name, content in files.items():
        if content is None:
            os.mkdir(os.path.join(name, file_name))
        else:
            with open(os.path.join(name, file_name), "wb") as handle:
                handle.write(content)
    return name


ADA = b"a person\nAda\n"


@pytest.mark.parametrize("files, expected", [
    # A hidden table is a table.
    ({".x.csv": ADA},
     (1, "", "bad-bundle: .x.csv: no type or aspect named '.x'\n")),
    # FsPath(".csv").stem is ".csv", not "".
    ({".csv": ADA},
     (1, "", "bad-bundle: .csv: no type or aspect named '.csv'\n")),
    # The suffix is matched case by case.
    ({"a.CSV": b"junk\n"}, (0, "", "")),
    ({"x.csv": None},
     (2, "", "error: [Errno 21] Is a directory: 'b/x.csv'\n")),
    # A byte-order mark is part of the header.
    ({"person.csv": "\ufeffa person\nAda\n".encode()},
     (1, "", "bad-bundle: no type reads '\\ufeffa person'\n")),
    # A bad byte is placed in the whole file, past the first 8 KiB too.
    ({"person.csv": b"a person\n" + b"x" * 9000 + b"\xff\n"},
     (2, "", "error: b/person.csv: 'utf-8' codec can't decode byte 0xff "
             "in position 9009: invalid start byte\n")),
])
def test_bundle_listing(work, capsys, files, expected):
    bush_with("b", files)
    assert run(capsys, "check-instance", "f/father.olog", "b") == expected


@pytest.mark.parametrize("directory, shown", [
    ("./b/", "b/person.csv"),
    ("b//", "b/person.csv"),
    ("./b/./", "b/person.csv"),
])
def test_bundle_paths_are_named_as_pathlib_names_them(work, capsys,
                                                      directory, shown):
    bush_with("b", {"person.csv": b""})
    assert run(capsys, "check-instance", "f/father.olog", directory) == (
        2, "", f"error: {shown}: empty table file\n")


@pytest.mark.parametrize("directory", [".", "", "./"])
def test_the_working_directory_as_bundle(work, capsys, monkeypatch,
                                         directory):
    bush_with("b", {"person.csv": b""})
    monkeypatch.chdir("b")
    assert run(capsys, "check-instance", "../f/father.olog", directory) == (
        2, "", "error: person.csv: empty table file\n")


NOT_A_DIRECTORY = f"[Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}"
LOOP = f"[Errno {errno.ELOOP}] {os.strerror(errno.ELOOP)}"


# `os.scandir`'s own error: a path through a file is ENOTDIR, and a
# symbolic-link loop ELOOP.
@pytest.mark.parametrize("directory, shown", [
    ("./nope/", "[Errno 2] No such file or directory: 'nope'"),
    ("f/father.olog/", "[Errno 20] Not a directory: 'f/father.olog'"),
    ("f/father.olog/x", f"{NOT_A_DIRECTORY}: 'f/father.olog/x'"),
    ("loop", f"{LOOP}: 'loop'"),
    ("./loop/x", f"{LOOP}: 'loop/x'"),
])
def test_a_bundle_path_that_is_no_directory(work, capsys, directory, shown):
    os.symlink("loop", "loop")
    assert run(capsys, "check-instance", "f/father.olog", directory) == (
        2, "", f"error: {shown}\n")


def test_a_bundle_path_holding_a_nul_is_a_value_error():
    with pytest.raises(ValueError) as caught:
        load_bundle("a\0b", load_olog(FIXTURES / "father.olog"))
    assert str(caught.value) == "embedded null byte"


def test_a_bundle_that_cannot_be_listed_is_an_error(work, capsys,
                                                     monkeypatch):
    """`Path.glob` read such a directory as an empty bundle (exit 0)."""
    scandir = os.scandir

    def refused(path="."):
        if os.fspath(path) == "f/data/bush":
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                                  path)
        return scandir(path)

    monkeypatch.setattr(os, "scandir", refused)
    assert run(capsys, "check-instance", "f/father.olog",
               "./f/data/bush/") == (
        2, "", "error: [Errno 13] Permission denied: 'f/data/bush'\n")


def rewrite(path, newline):
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data.replace(b"\n", newline))


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_line_endings_of_ologs_and_maps(work, capsys, newline):
    commands = [
        ("read", "f/father.olog", "--facts"),
        ("check-mapping", "f/merge_is.map", "--src-data", "f/data/human",
         "--dst-data", "f/data/person"),
        ("search-conforming", "f/merge_is.map", "--src-data",
         "f/data/human", "--dst-data", "f/data/person", "--json"),
        ("pullback", "f/marriage.map", "--out", "pulled.olog"),
    ]
    before = [run(capsys, *argv) for argv in commands]
    pulled = FsPath("pulled.olog").read_bytes()
    for name in os.listdir("f"):
        if name.endswith((".olog", ".map")):
            rewrite(f"f/{name}", newline)
    assert [run(capsys, *argv) for argv in commands] == before
    assert FsPath("pulled.olog").read_bytes() == pulled
    assert before[1] == (0, "", "")


def test_a_byte_order_mark_stays_in_an_olog(work, capsys):
    with open("bom.olog", "wb") as handle:
        handle.write("\ufeff".encode() + FsPath("f/father.olog").read_bytes())
    assert run(capsys, "read", "bom.olog") == (
        2, "", "parse error: line 1, column 1: expected 'olog', "
               "got '\\ufeffolog'\n")


@pytest.mark.parametrize("name, argv", [
    ("late.olog", ("read", "./late.olog")),
    ("late.map", ("check-mapping", "./late.map")),
])
def test_a_late_bad_byte_is_placed_in_the_whole_file(work, capsys, name,
                                                     argv):
    source = "f/father.olog" if name.endswith(".olog") else "f/merge_is.map"
    data = FsPath(source).read_bytes()
    with open(name, "wb") as handle:
        handle.write(data + b"# " + b"x" * 9000 + b"\xff\n")
    position = len(data) + 9002
    assert run(capsys, *argv) == (
        2, "", f"error: ./{name}: 'utf-8' codec can't decode byte 0xff in "
               f"position {position}: invalid start byte\n")


def test_map_references_are_joined_as_pathlib_joins_them(work, capsys):
    os.mkdir("f/sub")
    text = FsPath("f/merge_is.map").read_text(encoding="utf-8")
    FsPath("f/sub/a.map").write_text(
        text.replace('"human.olog"', '"./../human.olog"')
            .replace('"person1.olog"', '"nope//x.olog"'), encoding="utf-8")
    assert run(capsys, "check-mapping", "./f//sub/a.map") == (
        2, "", "error: [Errno 2] No such file or directory: "
               "'f/sub/nope/x.olog'\n")
    FsPath("f/sub/b.map").write_text(
        text.replace('"human.olog"', '"../human.olog"')
            .replace('"person1.olog"', '"../person1.olog"')
            .replace('"data/alpha.csv"', '".//missing.csv"'),
        encoding="utf-8")
    assert run(capsys, "search-conforming", "f/sub/b.map", "--src-data",
               "./f/data/human/", "--dst-data", "f/data/person") == (
        2, "", "error: [Errno 2] No such file or directory: "
               "'f/sub/missing.csv'\n")


PIECES = ["a", "b", ",", '"', "\r", "\n", "\r\n", " "]
HEADERS = ["a\n", '"a"\n', "a\r\n", "a\r", "a\rb\n", '"a\nb"\n', '"a\rb"\n',
           'a,"a, b"\n', 'a,"a, b"\r\n', '"a",a\n', 'x"y,"a\n', '"a"b\n',
           "a,b\n", "\n", ""]


def test_plain_answers_are_the_csv_readers_whatever_the_header(tmp_path):
    """Wherever the plain reader answers, it answers as `read_table_file`
    and `_bind` do, for headers csv reads in one line or in more."""
    o = load_olog(FIXTURES / "father.olog")
    index = _header_index(o)
    for header in ("a", ("a", "a, b"), ("a\nb",), ("a\rb",), ("a", "b"),
                   ('x"y', "a\n")):
        header = (header,) if isinstance(header, str) else header
        index[header] = ["person" if len(header) == 1 else "has"]
    rng = random.Random(27)
    path = tmp_path / "t.csv"
    answered = 0
    for _ in range(3000):
        body = "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 8)))
        path.write_bytes((rng.choice(HEADERS) + body).encode())
        plain = _load_plain(str(path), index)
        if plain is not None:
            answered += 1
            assert plain == _bind(read_table_file(path), index)
    assert answered > 100
