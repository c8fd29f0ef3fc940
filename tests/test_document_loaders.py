"""One loader per document kind: `load_olog` and `load_mapping`.

Each reads its file by `instance._read_utf8` and nothing else, and hands
the text to its parser, whose `_nonblank_lines` alone reads line ends,
so a document reads alike with "\\n", "\\r\\n" or a lone "\\r" ends.
`load_mapping` also holds a map to its format's rule that it names both
ologs by a nonempty path, and says which line breaks it before any olog
is read.
"""

import pytest

from conftest import FIXTURES
from ologs import cli, dsl
from ologs.dsl import load_mapping, load_olog
from ologs.errors import OlogError

OLOGS = sorted(path.name for path in FIXTURES.glob("*.olog"))
MAPS = sorted(path.name for path in FIXTURES.glob("*.map"))
NEWLINES = {"lf": b"\n", "crlf": b"\r\n", "cr": b"\r"}


@pytest.fixture
def reads(monkeypatch):
    """The paths that `dsl` reads, in order, while a test runs."""
    paths = []
    read_utf8 = dsl._read_utf8

    def recording(path):
        paths.append(str(path))
        return read_utf8(path)
    monkeypatch.setattr(dsl, "_read_utf8", recording)
    return paths


def copies(tmp_path, name):
    """The fixture `name` written with each kind of line end, by kind."""
    data = (FIXTURES / name).read_bytes()
    assert b"\r" not in data
    paths = {}
    for kind, newline in NEWLINES.items():
        path = tmp_path / f"{kind}-{name}"
        path.write_bytes(data.replace(b"\n", newline))
        paths[kind] = path
    return paths


@pytest.mark.parametrize("name", OLOGS)
def test_an_olog_loads_alike_whatever_its_line_ends(tmp_path, reads, name):
    paths = copies(tmp_path, name)
    ologs = {kind: load_olog(path) for kind, path in paths.items()}
    assert reads == [str(path) for path in paths.values()]
    assert ologs["crlf"] == ologs["lf"]
    assert ologs["cr"] == ologs["lf"]


@pytest.mark.parametrize("name", MAPS)
def test_a_map_loads_alike_whatever_its_line_ends(tmp_path, reads, name):
    paths = copies(tmp_path, name)
    docs = {kind: load_mapping(path) for kind, path in paths.items()}
    assert reads == [str(path) for path in paths.values()]
    for kind in ("crlf", "cr"):
        assert docs[kind] == docs["lf"]
        assert docs[kind].endpoint_lines == {"source", "target"}


ENDPOINTS = 'source "human.olog"\ntarget "person1.olog"\n'


@pytest.mark.parametrize("endpoints, message", [
    ('target "nope.olog"\n', "no source line"),
    ('source ""\ntarget "nope.olog"\n', "empty source reference"),
    ('source "nope.olog"\n', "no target line"),
    ('source "nope.olog"\ntarget ""\n', "empty target reference"),
    ('source ""\ntarget ""\n', "empty source reference"),
    ("", "no source line"),
])
def test_a_map_must_name_both_ologs(tmp_path, reads, capsys, endpoints,
                                    message):
    text = (FIXTURES / "merge_is.map").read_text(encoding="utf-8")
    path = tmp_path / "m.map"
    path.write_text(text.replace(ENDPOINTS, endpoints), encoding="utf-8")
    with pytest.raises(OlogError) as caught:
        load_mapping(path)
    assert str(caught.value) == f"{path}: {message}"
    # The command stops at the map: no olog is read, so none is missing.
    reads.clear()
    assert cli.main(["check-mapping", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
    assert reads == [str(path)]

