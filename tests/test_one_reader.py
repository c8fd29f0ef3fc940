"""Every input file is read by one function, `instance._read_utf8`.

Ologs, maps, bundle tables and correspondence tables are all read by one
unbuffered binary read and one strict UTF-8 decode, so a byte that is
not UTF-8 is reported at its offset in the whole file, whichever kind of
file holds it.  A guard over the package's source keeps every other read
out: no `open` in a read mode outside `_read_utf8`, and no
`Path.read_text` or `Path.read_bytes`.
"""

import ast
import shutil

import pytest

from conftest import FIXTURES, TESTS_DIR
from ologs import cli

SOURCES = sorted((TESTS_DIR.parent / "src" / "ologs").glob("*.py"))
OFFSET = 9009


@pytest.fixture
def work(tmp_path, monkeypatch):
    """A copy of the fixtures at `f/`, in the working directory."""
    shutil.copytree(FIXTURES, tmp_path / "f")
    monkeypatch.chdir(tmp_path)


def fixture_bytes(name):
    return (FIXTURES / name).read_bytes()


@pytest.mark.parametrize("file, prefix, argv", [
    ("f/father.olog", fixture_bytes("father.olog") + b"# ",
     ("read", "f/father.olog")),
    ("f/merge_is.map", fixture_bytes("merge_is.map") + b"# ",
     ("check-mapping", "f/merge_is.map")),
    ("f/data/bush/person.csv", b"a person\n",
     ("check-instance", "f/father.olog", "f/data/bush")),
    # Read by `load_correspondences`'s fallback, `read_table_file`.
    ("f/data/alpha.csv", b'a human,"is a person, namely"\nEmmy Noether,',
     ("check-mapping", "f/merge_is.map", "--src-data", "f/data/human",
      "--dst-data", "f/data/person")),
], ids=["olog", "map", "bundle-table", "correspondence-table"])
def test_a_bad_byte_is_placed_in_the_whole_file(work, capsys, file, prefix,
                                                argv):
    with open(file, "wb") as handle:
        handle.write(prefix + b"x" * (OFFSET - len(prefix)) + b"\xff\n")
    assert cli.main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert (out, err) == (
        "", f"error: {file}: 'utf-8' codec can't decode byte 0xff in "
            f"position {OFFSET}: invalid start byte\n")


def is_write_mode(call):
    """Whether an `open` call's mode, its second argument or `mode=`, is
    a string that writes and does not read."""
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    modes += call.args[1:2]
    return any(isinstance(mode, ast.Constant) and isinstance(mode.value, str)
               and set(mode.value) & set("wax") and "+" not in mode.value
               for mode in modes)


def offences(source):
    """(line, text) for each file read in `source` outside `_read_utf8`:
    an `open` call in a read mode, or a `.read_text()`/`.read_bytes()`
    call.  Also the read-mode `open` calls inside `_read_utf8`, as
    (line, "reader")."""
    tree = ast.parse(source)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_read_utf8":
            inside.update(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name == "open" and not is_write_mode(node):
            where = "reader" if id(node) in inside else ast.unparse(node)
            found.append((node.lineno, where))
        elif isinstance(func, ast.Attribute) and name in ("read_text",
                                                          "read_bytes"):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_the_guard_finds_a_planted_read():
    assert offences("def _read_utf8(p):\n    return open(p, 'rb')\n") == [
        (2, "reader")]
    assert offences("def f(p):\n    return open(p, newline='')\n") == [
        (2, "open(p, newline='')")]
    assert offences("def f(p):\n    return p.read_bytes()\n") == [
        (2, "p.read_bytes()")]
    assert offences("def f(p):\n    open(p, mode='w')\n"
                    "    return read_text(p)\n") == []


def test_only_read_utf8_reads_a_file():
    found = {path.name: offences(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    readers = [(name, line) for name, lines in found.items()
               for line, where in lines if where == "reader"]
    others = {name: [item for item in lines if item[1] != "reader"]
              for name, lines in found.items()}
    assert len(readers) == 1 and readers[0][0] == "instance.py"
    assert others == {name: [] for name in found}
