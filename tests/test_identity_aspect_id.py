"""No aspect may have the id `1`.

A path is written as its aspect ids, and `[1]` is the identity path.  A
fact or map image could not start with an aspect named `1`, and an olog
built in the library with such an aspect would write `[1]` where it
means the aspect, which reads back as the identity: a different fact.
So the DSL refuses the olog, for every command that reads it.
"""

import pytest

from ologs.category import Equation, Generator, Path, PathCategory
from ologs.cli import main
from ologs.dsl import (document_from_olog, olog_from_document, parse_olog,
                       serialize_olog)
from ologs.errors import DuplicateId
from ologs.language import AtomicVerb, NounPhrase
from ologs.olog import AspectLabel, LinguisticStructure, Olog, TypeLabel

OLOG = """olog "one"
type a = "a thing" by {S}
aspect 1 : a -> a = "is next to" by {S}
aspect g : a -> a = "is near" by {S}
"""
ERROR = "error: aspect '1' has the id of the identity path [1]\n"


@pytest.mark.parametrize("command", [["validate"], ["read"],
                                     ["read", "--facts", "--json"]])
def test_every_command_refuses_the_olog(tmp_path, capsys, command):
    path = tmp_path / "one.olog"
    path.write_text(OLOG, encoding="utf-8")
    assert main([command[0], str(path), *command[1:]]) == 2
    assert capsys.readouterr() == ("", ERROR)


def test_a_type_may_have_the_id_1(tmp_path, capsys):
    path = tmp_path / "one.olog"
    path.write_text(OLOG.replace("aspect 1 : a -> a", "type 1")
                    .replace('"is next to"', '"a unit"'), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr() == ("", "")


def test_a_library_olog_does_not_read_back_as_another():
    S = frozenset("S")
    category = PathCategory(
        ("a",), (Generator("1", "a", "a"), Generator("g", "a", "a")),
        (Equation("h", Path("a", ("1",)), Path("a", ("g",))),))
    structure = LinguisticStructure(
        {"a": TypeLabel(NounPhrase("a thing"), S)},
        {"1": AspectLabel(AtomicVerb("is next to"), S),
         "g": AspectLabel(AtomicVerb("is near"), S)},
        {"h": S})
    text = serialize_olog(document_from_olog(Olog("one", category, structure)))
    assert "fact h : [1] ~ [g] by {S}\n" in text
    with pytest.raises(DuplicateId, match=r"the identity path \[1\]"):
        olog_from_document(parse_olog(text))
