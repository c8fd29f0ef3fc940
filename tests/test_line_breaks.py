"""The DSL ends a line only at "\\n", "\\r\\n" or "\\r".

`str.splitlines` also breaks at VT, FF, the separators \\x1c-\\x1e, NEL
and the Unicode line and paragraph separators.  `serialize_olog` writes
those characters as they are, so a noun or verb that holds one must
read back whole, and one inside a comment must not move the line
numbers of later lines.
"""

import pytest

from ologs.dsl import (
    AspectDecl,
    OlogDocument,
    TypeDecl,
    load_olog,
    parse_olog,
    serialize_olog,
)
from ologs.errors import ParseError

# Every character other than "\n" and "\r" at which `str.splitlines` breaks.
OTHER_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029"]


def document(noun="a thing", verb="is filed under"):
    return OlogDocument("breaks", [
        TypeDecl("a", noun, ("A",)),
        TypeDecl("b", "a place", ("A",)),
    ], [AspectDecl("f", "a", "b", verb, ("A",))])


def test_every_other_break_is_one_that_splitlines_takes():
    for ch in OTHER_BREAKS:
        assert f"x{ch}y".splitlines() == ["x", "y"]


@pytest.mark.parametrize("ch", OTHER_BREAKS, ids=ascii)
def test_a_noun_holding_the_character_reads_back(ch, tmp_path):
    doc = document(noun=f"a x{ch}y")
    text = serialize_olog(doc)
    assert parse_olog(text) == doc
    assert serialize_olog(parse_olog(text)) == text
    path = tmp_path / "breaks.olog"
    path.write_text(text, encoding="utf-8", newline="")
    assert str(load_olog(path).noun("a")) == f"a x{ch}y"


@pytest.mark.parametrize("ch", OTHER_BREAKS, ids=ascii)
def test_a_verb_holding_the_character_reads_back(ch):
    doc = document(verb=f"is filed{ch}under")
    text = serialize_olog(doc)
    assert parse_olog(text) == doc
    assert serialize_olog(parse_olog(text)) == text


@pytest.mark.parametrize("ch", OTHER_BREAKS, ids=ascii)
def test_a_comment_holding_the_character_is_one_line(ch):
    text = serialize_olog(document())
    head, rest = text.split("\n", 1)
    commented = f"{head}\n# one{ch}comment{ch}line\n{rest}"
    assert parse_olog(commented) == document()
    # Line 1 is the header, 2 the comment, 3 to 5 the declarations.
    with pytest.raises(ParseError) as caught:
        parse_olog(commented + "type c = oops by {A}\n")
    assert (caught.value.line, caught.value.column) == (6, 10)


@pytest.mark.parametrize("ch", OTHER_BREAKS, ids=ascii)
def test_line_numbers_count_newlines_only(ch):
    text = f'olog "o"\ntype a = "a x{ch}y" by {{A}}\n# x{ch}{ch}y\nbad line\n'
    with pytest.raises(ParseError) as caught:
        parse_olog(text)
    assert caught.value.line == 4


@pytest.mark.parametrize("end", ["", "\n", "\r\n", "\r"], ids=repr)
def test_the_three_breaks_end_a_line_and_a_final_one_adds_none(end):
    text = 'olog "o"\r\ntype a = "a thing" by {A}\rtype b = "a place" by {A}'
    doc = parse_olog(text + end)
    assert [t.name for t in doc.types] == ["a", "b"]
    with pytest.raises(ParseError) as caught:
        parse_olog(text + "\nbad line" + end)
    assert caught.value.line == 4
