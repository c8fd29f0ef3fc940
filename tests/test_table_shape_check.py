"""The plain reader's separator check against the rejoin it replaced.

`_load_plain` checks a two-column body's shape on its separator bytes
alone.  The criterion it replaced rebuilt the body from its fields, one
comma between key and value and one newline between rows, and refused
the table unless that gave the body back; it is written out below as
the reference.  Over seeded random bodies, in both `pairs` modes, the
reader must refuse exactly where the reference refuses and otherwise
give the same content.
"""

import random

import pytest

from ologs.category import Generator, PathCategory
from ologs.instance import _bind, _header_index, _load_plain, read_table_file
from ologs.language import AtomicVerb, NounPhrase
from ologs.olog import AspectLabel, LinguisticStructure, Olog, TypeLabel

OLOG = Olog("one", PathCategory(("o0",), (Generator("g0", "o0", "o0"),)),
            LinguisticStructure(
                {"o0": TypeLabel(NounPhrase("a thing o0"), frozenset())},
                {"g0": AspectLabel(AtomicVerb("relates via g0 to"),
                                   frozenset())}))
INDEX = _header_index(OLOG)
HEADERS = {1: "a thing o0\n",
           2: '"a thing o0","relates via g0 to a thing o0, namely"\n'}
# Separators come up most often, so that most bodies reach the check.
PIECES = "aaaéé,,,\n\n\n\n\"\r"


def reference(body, width, pairs):
    """What the reader answered with the rejoin criterion: the content,
    or None."""
    if '"' in body or "\r" in body or "\0" in body:
        return None
    lines = body.removesuffix("\n")
    if width == 1:
        fields = lines.split("\n") if body else []
        if "," in lines or "" in fields or len(set(fields)) != len(fields):
            return None
        return tuple(fields)
    fields = lines.replace(",", "\n").split("\n") if body else []
    keys, values = fields[0::2], fields[1::2]
    content = (frozenset if pairs else dict)(zip(keys, values))
    if ("\n".join(map(",".join, zip(keys, values))) != lines
            or len(content) != len(keys)):
        return None
    return content


def check(tmp_path, body):
    """Compare the reader with the reference on `body`, at both widths
    and in both modes; return how many of the four answers were not
    None."""
    answered = 0
    for width, header in HEADERS.items():
        path = tmp_path / f"w{width}.csv"
        path.write_bytes((header + body).encode("utf-8"))
        for pairs in (False, True):
            token_sets = {}
            plain = _load_plain(path, INDEX, pairs, token_sets)
            expected = reference(body, width, pairs)
            assert (plain is None) == (expected is None), (body, width, pairs)
            if plain is None:
                assert token_sets == {}, body
                continue
            answered += 1
            assert plain[2] == expected, (body, width, pairs)
            assert type(plain[2]) is type(expected)
            if width == 1:
                assert token_sets == {"o0": set(expected)}, body
            else:
                assert token_sets == {}, body
            if not pairs:
                assert plain == _bind(read_table_file(path), INDEX), body
    return answered


@pytest.mark.parametrize("body, answers", [
    ("", 4),  # no rows: the empty tokens, dict and frozenset
    ("\n", 0),  # one blank line
    ("a,b\n\n", 0),  # a trailing blank line
    ("a\n\n", 0),
    ("a\nb,c,d\n", 0),  # no comma, then two commas: still four fields
    ("a,b,c\nd\n", 0),
    ("a,b\n", 2),
    ("a\nb\n", 2),
    ("a,b\nc,d", 2),
    ("a,\n,é\n", 2),
    ("é,b\na,b\n", 2),
    ("a,b\na,c\n", 1),  # a repeated key: only pairs takes it
    ("a,b\na,b\n", 0),  # a repeated row
    ("a,b\nc\n", 0),
    ("a,b\r\n", 0),
    ('"a",b\n', 0),
])
def test_edge_bodies(tmp_path, body, answers):
    assert check(tmp_path, body) == answers


def test_one_column_body_with_a_comma(tmp_path):
    # A comma in a one-column table is a second column, so csv decides.
    path = tmp_path / "t.csv"
    path.write_text(HEADERS[1] + "a\nb,c\n", encoding="utf-8")
    assert _load_plain(path, INDEX) is None
    assert check(tmp_path, "a\nb,c\n") == 0


def test_random_bodies_match_the_rejoin(tmp_path):
    rng = random.Random(18)
    answered = 0
    for _ in range(4000):
        body = "".join(rng.choice(PIECES)
                       for _ in range(rng.randint(0, 14)))
        answered += check(tmp_path, body)
    assert answered > 1000  # the reader takes many, not only trivial ones
