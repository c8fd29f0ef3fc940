"""DSL parsing, serialization, and document-to-olog elaboration."""

import pytest

from ologs.category import Path
from ologs.dsl import (
    document_from_olog,
    load_olog,
    morphism_from_document,
    olog_from_document,
    parse_mapping,
    parse_olog,
    serialize_mapping,
    serialize_olog,
)
from ologs.errors import (
    BadNounPhrase,
    BadVerbPhrase,
    DanglingReference,
    DuplicateId,
    ParseError,
    ShapeMismatch,
)

OLOG_FIXTURES = [
    "address.olog", "amino.olog", "child.olog", "father.olog", "human.olog",
    "man.olog", "marriage.olog", "parents.olog", "person1.olog", "weight.olog",
]
MAP_FIXTURES = [
    "marriage.map", "merge_father.map", "merge_is.map",
    "weight_F.map", "weight_G.map",
]


@pytest.mark.parametrize("name", OLOG_FIXTURES)
def test_olog_fixture_round_trip(fixtures, name):
    text = (fixtures / name).read_text(encoding="utf-8")
    canonical = serialize_olog(parse_olog(text))
    assert serialize_olog(parse_olog(canonical)) == canonical


@pytest.mark.parametrize("name", MAP_FIXTURES)
def test_mapping_fixture_round_trip(fixtures, name):
    text = (fixtures / name).read_text(encoding="utf-8")
    canonical = serialize_mapping(parse_mapping(text))
    assert serialize_mapping(parse_mapping(canonical)) == canonical


def test_serialization_is_canonical():
    scrambled = (
        'olog "o"\n'
        'type b = "a bee" by {Z, A}\n'
        'aspect g : b -> a = "stings" by {}\n'
        'type a = "an ant" by {A}\n'
        'fact e : [g] ~ [g] by {A}\n'
    )
    assert serialize_olog(parse_olog(scrambled)) == (
        'olog "o"\n'
        'type a = "an ant" by {A}\n'
        'type b = "a bee" by {A, Z}\n'
        'aspect g : b -> a = "stings" by {}\n'
        'fact e : [g] ~ [g] by {A}\n'
    )


def test_comments_and_blank_lines_ignored():
    text = (
        '# a comment\n'
        '\n'
        'olog "o"  # trailing comment\n'
        'type a = "an ant" by {A}\n'
    )
    doc = parse_olog(text)
    assert doc.name == "o"
    assert len(doc.types) == 1


def test_string_escapes_round_trip():
    text = 'olog "o"\ntype a = "a \\"quoted\\" \\\\ thing" by {}\n'
    doc = parse_olog(text)
    assert doc.types[0].noun == 'a "quoted" \\ thing'
    assert serialize_olog(doc) == text


def test_identity_path_round_trip():
    text = (
        'olog "o"\n'
        'type a = "an ant" by {A}\n'
        'aspect f : a -> a = "loops to" by {A}\n'
        'fact e : [f ; f] ~ [1] by {A}\n'
    )
    o = olog_from_document(parse_olog(text))
    eq = o.category.equations[0]
    assert eq.right == Path("a")
    assert serialize_olog(document_from_olog(o)) == text


def test_parse_error_position_and_message():
    with pytest.raises(ParseError) as exc:
        parse_olog('olog "o"\ntype = "a b" by {A}\n')
    assert exc.value.line == 2
    assert exc.value.column == 6
    assert "expected" in str(exc.value)


def test_unterminated_string():
    with pytest.raises(ParseError) as exc:
        parse_olog('olog "unfinished\n')
    assert exc.value.line == 1
    assert "unterminated" in str(exc.value)


def test_missing_header():
    with pytest.raises(ParseError):
        parse_olog("")
    with pytest.raises(ParseError):
        parse_olog('type a = "an ant" by {}\n')


def test_unknown_keyword_position():
    with pytest.raises(ParseError) as exc:
        parse_olog('olog "o"\nbanana a = "an ant" by {}\n')
    assert exc.value.line == 2
    assert exc.value.column == 1


def test_duplicate_type_rejected():
    text = ('olog "o"\n'
            'type a = "an ant" by {}\n'
            'type a = "an ant" by {}\n')
    with pytest.raises(DuplicateId):
        olog_from_document(parse_olog(text))


def test_dangling_aspect_endpoint():
    text = ('olog "o"\n'
            'type a = "an ant" by {}\n'
            'aspect f : a -> ghost = "sees" by {}\n')
    with pytest.raises(DanglingReference):
        olog_from_document(parse_olog(text))


def test_dangling_fact_reference():
    text = ('olog "o"\n'
            'type a = "an ant" by {}\n'
            'fact e : [ghost] ~ [1] by {}\n')
    with pytest.raises(DanglingReference):
        olog_from_document(parse_olog(text))


def test_double_identity_fact_rejected():
    text = ('olog "o"\n'
            'type a = "an ant" by {}\n'
            'fact e : [1] ~ [1] by {}\n')
    with pytest.raises(ShapeMismatch):
        olog_from_document(parse_olog(text))


def test_bare_noun_phrase_rejected():
    text = 'olog "o"\ntype p = "person" by {S}\n'
    with pytest.raises(BadNounPhrase):
        olog_from_document(parse_olog(text))


def test_empty_aspect_verb_names_the_aspect():
    text = 'olog "o"\ntype a = "an a" by {A}\naspect f : a -> a = "" by {A}\n'
    with pytest.raises(BadVerbPhrase,
                       match="^aspect 'f': verb phrase text must be nonempty$"):
        olog_from_document(parse_olog(text))


def test_empty_component_verb_names_the_component(fixtures):
    doc = parse_mapping('mapping "m"\n'
                        "object person -> person\n"
                        "object father -> father\n"
                        "aspect has -> [has]\n"
                        'component father = "" by {S}\n')
    olog = load_olog(fixtures / "father.olog")
    with pytest.raises(BadVerbPhrase, match="^component 'father': "
                       "verb phrase text must be nonempty$"):
        morphism_from_document(doc, olog, olog)


def test_document_from_olog_flattens_pullback_verbs(fixtures):
    from ologs.category import identity_functor
    from ologs.mapping import pullback_olog

    amino = load_olog(fixtures / "amino.olog")
    pulled = pullback_olog(identity_functor(amino.category), amino)
    doc = document_from_olog(pulled)
    text = serialize_olog(doc)
    assert serialize_olog(parse_olog(text)) == text


def test_mapping_duplicate_object_rejected():
    text = ('mapping "m"\n'
            'object a -> b\n'
            'object a -> c\n')
    with pytest.raises(DuplicateId):
        parse_mapping(text)


def test_mapping_identity_aspect_image(fixtures):
    text = ('mapping "m"\n'
            'source "father.olog"\n'
            'target "father.olog"\n'
            'object person -> person\n'
            'object father -> father\n'
            'aspect has -> [1]\n'
            'component person = "is" by {S}\n'
            'component father = "is" by {S}\n')
    doc = parse_mapping(text)
    assert doc.aspect_map["has"] is None
    assert serialize_mapping(parse_mapping(serialize_mapping(doc))) == \
        serialize_mapping(doc)


def test_mapping_unknown_keyword():
    with pytest.raises(ParseError):
        parse_mapping('mapping "m"\nfrobnicate x\n')


class TestParseErrorsAndEdges:
    def test_unterminated_string_beats_earlier_grammar_error(self):
        text = ('olog "o"\n'
                'type a "an ant" by {A}\n'
                'type b = "oops\n')
        with pytest.raises(ParseError) as exc:
            parse_olog(text)
        assert str(exc.value) == "line 3, column 10: unterminated string"

    def test_declaration_before_the_header(self):
        with pytest.raises(ParseError) as exc:
            parse_olog('type a = "an ant" by {A}\nolog "o"\n')
        assert str(exc.value) == (
            "line 1, column 1: expected 'olog', got 'type'")

    def test_identity_followed_by_more_ids(self):
        with pytest.raises(ParseError) as exc:
            parse_olog('olog "o"\nfact f : [1 ; g] ~ [g] by {}\n')
        assert str(exc.value) == "line 2, column 13: expected ']', got ';'"

    def test_one_after_other_ids_is_an_identifier(self):
        doc = parse_olog('olog "o"\nfact f : [g ; 1] ~ [g] by {}\n')
        assert doc.facts[0].left == ("g", "1")

    def test_hash_inside_noun_kept_trailing_comment_dropped(self):
        doc = parse_olog('olog "o"\n'
                         'type a = "a #1 ant" by {A}  # a comment\n')
        assert doc.types[0].noun == "a #1 ant"
        assert doc.types[0].authors == ("A",)


@pytest.mark.parametrize("line", [
    'source "b.olog"', 'target "b.olog"', 'table a = "y.csv"',
])
def test_mapping_repeated_reference_rejected(line):
    text = ('mapping "m"\n'
            'source "a.olog"\n'
            'target "a.olog"\n'
            'table a = "x.csv"\n'
            f'{line}\n')
    with pytest.raises(DuplicateId):
        parse_mapping(text)


@pytest.mark.parametrize("line, column", [
    ('type a = "an a"', 16),
    ('type a = "an \\"a\\" thing"', 26),
    ('type a = "an a" by {A', 22),
])
def test_end_of_line_error_points_past_the_last_token(line, column):
    with pytest.raises(ParseError) as exc:
        parse_olog(f'olog "o"\n{line}\n')
    assert exc.value.line == 2
    assert exc.value.column == column
    assert str(exc.value).endswith("got end of line")


@pytest.mark.parametrize("line, message", [
    ('source "b.olog"', "source declared twice"),
    ('target "b.olog"', "target declared twice"),
    ("object a -> c", "object 'a' mapped twice"),
    ("aspect f -> [1]", "aspect 'f' mapped twice"),
    ('component a = "is" by {}', "component at 'a' declared twice"),
    ("square f by {}", "square at 'f' declared twice"),
    ('table a = "y.csv"', "table at 'a' declared twice"),
])
def test_mapping_repeated_declaration_message(line, message):
    text = ('mapping "m"\n'
            'source "a.olog"\n'
            'target "a.olog"\n'
            "object a -> b\n"
            "aspect f -> [g]\n"
            'component a = "is" by {S}\n'
            "square f by {S}\n"
            'table a = "x.csv"\n'
            f"{line} extra\n")
    with pytest.raises(DuplicateId) as exc:
        parse_mapping(text)
    assert str(exc.value) == message
