"""The plain-table reader's field limit and the binder's repeated keys.

`_load_plain` measures field lengths only in a body longer than
`csv.field_size_limit()`, since a field over the limit needs such a
body: a long body of short fields is still read by splits, a field of
exactly the limit is read, and one of the limit plus one is left to
`read_table_file`, which refuses it.  `_bind` builds an aspect table's
token function in one pass, and a repeated key raises DuplicateKey
naming the first key, in row order, that a row repeats.
"""

import csv
import io

import pytest

from ologs.dsl import olog_from_document, parse_olog
from ologs.errors import DuplicateKey
from ologs.instance import (
    _bind,
    _header_index,
    _load_plain,
    generator_header,
    read_table_file,
    type_header,
)

OLOG = olog_from_document(parse_olog(
    'olog "limits"\n'
    'type t = "a token" by {A}\n'
    'type u = "a value" by {A}\n'
    'aspect f : t -> u = "is filed under" by {A}\n'))
INDEX = _header_index(OLOG)
LIMIT = csv.field_size_limit()


def header_line(header):
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow(header)
    return line.getvalue()


def write(tmp_path, header, body):
    path = tmp_path / "table.csv"
    path.write_bytes((header_line(header) + body).encode("utf-8"))
    return path


def one_column(tmp_path, tokens):
    return write(tmp_path, type_header(OLOG, "t"),
                 "".join(f"{x}\n" for x in tokens))


def two_column(tmp_path, rows):
    return write(tmp_path, generator_header(OLOG, "f"),
                 "".join(f"{x},{y}\n" for x, y in rows))


def test_a_long_one_column_body_of_short_fields_is_read_by_splits(tmp_path):
    tokens = [f"x{i:06d}" for i in range(LIMIT // 7 + 1)]
    path = one_column(tmp_path, tokens)
    assert len(path.read_text(encoding="utf-8")) > LIMIT
    answer = _load_plain(path, INDEX)
    assert answer == ("tokens", "t", tuple(tokens))
    assert answer == _bind(read_table_file(path), INDEX)


def test_a_long_two_column_body_of_short_fields_is_read_by_splits(tmp_path):
    rows = [(f"x{i:06d}", f"y{i % 10}") for i in range(LIMIT // 10 + 1)]
    path = two_column(tmp_path, rows)
    assert len(path.read_text(encoding="utf-8")) > LIMIT
    answer = _load_plain(path, INDEX)
    assert answer == ("function", "f", dict(rows))
    assert answer == _bind(read_table_file(path), INDEX)


def long_field_tables(tmp_path, length):
    """A table whose one long field is a token, a key or a value."""
    field = "a" * length
    return [one_column(tmp_path / "token", ["x", field, "y"]),
            two_column(tmp_path / "key", [("x", "y"), (field, "y")]),
            two_column(tmp_path / "value", [("x", "y"), ("z", field)])]


@pytest.fixture
def where(tmp_path):
    for name in ("token", "key", "value"):
        (tmp_path / name).mkdir()
    return tmp_path


def test_a_field_of_exactly_the_limit_is_read(where):
    for path in long_field_tables(where, LIMIT):
        answer = _load_plain(path, INDEX)
        assert answer is not None
        assert answer == _bind(read_table_file(path), INDEX)


def test_a_field_over_the_limit_is_refused(where):
    for path in long_field_tables(where, LIMIT + 1):
        assert _load_plain(path, INDEX) is None
        with pytest.raises(ValueError, match="field larger than field limit"):
            read_table_file(path)


def quoted_aspect_table(tmp_path, keys):
    """An aspect table whose keys need quoting, one row per key."""
    rows = [(key, f"v{n}") for n, key in enumerate(keys)]
    path = tmp_path / "quoted.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(generator_header(OLOG, "f"))
        writer.writerows(rows)
    assert '"' in path.read_text(encoding="utf-8").split("\n", 1)[1]
    return path, rows


@pytest.mark.parametrize("keys, first", [
    (['a,1', 'b"2', 'b"2', 'a,1'], 'b"2'),
    (['a,1', 'b"2', 'a,1', 'b"2'], 'a,1'),
    (['c', 'a,1', 'b"2', 'b"2', 'a,1'], 'b"2'),
])
def test_bind_names_the_first_repeated_key_in_row_order(tmp_path, keys, first):
    path, _ = quoted_aspect_table(tmp_path, keys)
    assert _load_plain(path, INDEX) is None
    with pytest.raises(DuplicateKey) as caught:
        _bind(read_table_file(path), INDEX)
    assert str(caught.value) == f"two rows for token {first!r}"


def test_bind_keeps_distinct_keys_in_row_order(tmp_path):
    path, rows = quoted_aspect_table(tmp_path, ['z"9', 'a,1', 'b\n2', 'm'])
    kind, target, mapping = _bind(read_table_file(path), INDEX)
    assert (kind, target) == ("function", "f")
    assert list(mapping.items()) == rows
