"""A bundle path that is missing, or is a regular file, is an error.

Each command that reads a bundle prints one `error:` line naming the
path and exits 2; none reads the path as an empty instance.
"""

import pytest

from ologs.cli import main
from ologs.dsl import load_olog
from ologs.instance import load_bundle


def bad_bundle(kind, tmp_path):
    path = tmp_path / "bundle"
    if kind == "file":
        path.write_text("a person\nAda\n", encoding="utf-8")
    return path


KINDS = ("missing", "file")


def assert_refused(capsys, argv, path):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert str(path) in lines[0]


@pytest.mark.parametrize("kind", KINDS)
def test_load_bundle_raises_naming_the_path(kind, fixtures, tmp_path):
    path = bad_bundle(kind, tmp_path)
    expected = FileNotFoundError if kind == "missing" else NotADirectoryError
    with pytest.raises(expected) as caught:
        load_bundle(path, load_olog(fixtures / "father.olog"))
    assert caught.value.filename == str(path)


@pytest.mark.parametrize("kind", KINDS)
def test_check_instance(kind, fixtures, tmp_path, capsys):
    path = bad_bundle(kind, tmp_path)
    assert_refused(capsys, ["check-instance", fixtures / "father.olog",
                            path, "--json"], path)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("side", ("--src-data", "--dst-data"))
@pytest.mark.parametrize("command", ("check-mapping", "search-conforming"))
def test_mapping_with_data(command, kind, side, fixtures, tmp_path, capsys):
    path = bad_bundle(kind, tmp_path)
    data = {"--src-data": fixtures / "data" / "human",
            "--dst-data": fixtures / "data" / "person", side: path}
    assert_refused(capsys, [command, fixtures / "merge_is.map",
                            *(a for item in data.items() for a in item)], path)


@pytest.mark.parametrize("kind", KINDS)
def test_migrate_writes_nothing(kind, fixtures, tmp_path, capsys):
    path = bad_bundle(kind, tmp_path)
    out_dir = tmp_path / "migrated"
    assert_refused(capsys, ["migrate", fixtures / "merge_is.map",
                            "--dst-data", path, "--out", out_dir], path)
    assert not out_dir.exists()
