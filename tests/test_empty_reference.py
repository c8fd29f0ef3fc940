"""A map whose `source` or `target` line names no file is told so.

`source ""` is a line present but empty; the four mapping commands exit
2 with `error: <map>: empty source reference`, not with the
`no source line` message of a map that lacks the line.
"""

import pytest

from ologs.dsl import parse_mapping
from test_file_errors import COMMANDS, commands, copy_fixtures, refused


@pytest.mark.parametrize("side", ("source", "target"))
@pytest.mark.parametrize("command", COMMANDS)
def test_map_with_an_empty_endpoint_line(command, side, fixtures, tmp_path,
                                         capsys):
    root = copy_fixtures(fixtures, tmp_path)
    lines = (root / "merge_is.map").read_text(encoding="utf-8").splitlines()
    kept = [f'{side} ""' if line.startswith(f"{side} ") else line
            for line in lines]
    map_file = root / f"empty{side}.map"
    map_file.write_text("\n".join(kept) + "\n", encoding="utf-8")
    line = refused(capsys, *commands(root, map_file)[command])
    assert line == f"error: {map_file}: empty {side} reference"
    assert not (root / "out.olog").exists()
    assert not (root / "migrated").exists()


def test_an_empty_source_is_named_before_a_missing_target(tmp_path, capsys):
    map_file = tmp_path / "half.map"
    map_file.write_text('mapping "half"\nsource ""\n', encoding="utf-8")
    line = refused(capsys, "check-mapping", map_file)
    assert line == f"error: {map_file}: empty source reference"


def test_documents_that_differ_only_in_an_empty_line_are_equal():
    bare = parse_mapping('mapping "m"\n')
    empty = parse_mapping('mapping "m"\nsource ""\ntarget ""\n')
    assert bare == empty
    assert bare.endpoint_lines == frozenset()
    assert empty.endpoint_lines == {"source", "target"}
