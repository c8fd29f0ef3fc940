"""parse_mapping's compiled line patterns against the token parser.

Whenever `_match_mapping_entry` reads a line, the token parser must read
the same (keyword, key, value) from it; whole documents, corrupted or
not, must parse to equal documents or fail with the same error, in the
same order, as when the token parser reads every line.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES
from ologs.dsl import (
    MappingDocument,
    _LineParser,
    _mapping_entry,
    _match_mapping_entry,
    _nonblank_lines,
    _tokenize_line,
    parse_mapping,
    serialize_mapping,
)
from ologs.errors import DuplicateId, ParseError
from randgen import random_mapping_document

FIXTURE_LINES = sorted({
    line
    for path in FIXTURES.glob("*.map")
    for line in path.read_text(encoding="utf-8").splitlines()
})
EDGE_LINES = [
    'square topby {A}',
    'square top by{A}',
    'square top#by {A}',
    'source"x"',
    'source "x"# note',
    'target  "a \\"b\\" \\\\ c \\x"\t',
    'aspect g -> [1]',
    'aspect g -> [1 ; h]',
    'aspect g -> [ 1;h ]',
    'aspect g -> [h ; 1]',
    'aspect g->[h;k]#x',
    'aspect g -> [10 ; h]',
    'object　a　->　b',
    'object a->b',
    'object a -> b->',
    'object a -> b extra',
    'object a-b ->>c',
    'component a = "says \\"hi\\"" by {A, B}',
    'component　a　=　"is"　by　{　}',
    'component a = "is" by {A,}',
    'table a = "t.csv" # the table',
    'table a "t.csv"',
    'mapping "m"',
    'object',
    '# only a comment',
]
# One-character insertions; None deletes the character instead.
INSERTS = ['"', "\\", "#", "-", ">", "[", "]", "{", "}", ",", ";", "=",
           "1", "\t", " ", "　"]


def token_entry(line):
    """The token parser's (keyword, key, value) on `line`, or its error."""
    try:
        lp = _LineParser(_tokenize_line(line, 1), 1)
        entry = _mapping_entry(lp)
        lp.end()
        return entry
    except ParseError as exc:
        return str(exc)


def token_parse(text):
    """parse_mapping as the token parser alone reads it: the loop written
    out once more, with no fast path."""
    lines = list(_nonblank_lines(text))
    if not lines:
        raise ParseError(1, 1, "expected 'mapping \"<name>\"'")
    head = lines[0]
    head.take("WORD", "mapping", "'mapping'")
    doc = MappingDocument(head.string("mapping name"))
    head.end()
    refs = {}
    for lp in lines[1:]:
        keyword = lp.word("a mapping declaration")
        if keyword in ("source", "target"):
            table, key, what = refs, keyword, f"{keyword} declared"
            value = lp.string("olog file path")
        elif keyword == "object":
            table, key = doc.object_map, lp.word("object identifier")
            lp.arrow()
            value = lp.word("object identifier")
            what = f"object {key!r} mapped"
        elif keyword == "aspect":
            table, key = doc.aspect_map, lp.word("aspect identifier")
            lp.arrow()
            value = lp.path_ids()
            what = f"aspect {key!r} mapped"
        elif keyword == "component":
            table, key = doc.components, lp.word("object identifier")
            lp.punct("=")
            value = (lp.string("verb phrase"), lp.authors())
            what = f"component at {key!r} declared"
        elif keyword == "square":
            table, key = doc.squares, lp.word("aspect identifier")
            value = lp.authors()
            what = f"square at {key!r} declared"
        elif keyword == "table":
            table, key = doc.tables, lp.word("object identifier")
            lp.punct("=")
            value = lp.string("csv file path")
            what = f"table at {key!r} declared"
        else:
            lp.pos = 0
            lp.fail("'source', 'target', 'object', 'aspect', 'component', "
                    "'square', or 'table'")
        if key in table:
            raise DuplicateId(f"{what} twice")
        table[key] = value
        lp.end()
    doc.source_ref = refs.get("source", "")
    doc.target_ref = refs.get("target", "")
    return doc


def outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, DuplicateId) as exc:
        return type(exc).__name__, str(exc)


def random_document_text(seed):
    return serialize_mapping(random_mapping_document(random.Random(seed)))


def corrupt(line, edits):
    for position, insert in edits:
        position %= len(line) + 1
        if insert is not None:
            line = line[:position] + insert + line[position:]
        elif position < len(line):
            line = line[:position] + line[position + 1:]
    return line


def test_every_line_of_the_fixture_maps_matches():
    for path in FIXTURES.glob("*.map"):
        lines = path.read_text(encoding="utf-8").splitlines()
        for line in lines[1:]:
            assert _match_mapping_entry(line) is not None
            assert _match_mapping_entry(line) == token_entry(line)


def test_every_line_of_serialized_random_documents_matches():
    for seed in range(200):
        lines = random_document_text(seed).splitlines()
        assert _match_mapping_entry(lines[0]) is None  # the header
        for line in lines[1:]:
            assert _match_mapping_entry(line) is not None
            assert _match_mapping_entry(line) == token_entry(line)


def test_edge_lines():
    expected = {
        'square topby {A}': None,
        'square top by{A}': ("square", "top", ("A",)),
        'source"x"': None,
        'source "x"# note': ("source", "source", "x"),
        'target  "a \\"b\\" \\\\ c \\x"\t':
            ("target", "target", 'a "b" \\ c \\x'),
        'aspect g -> [1]': ("aspect", "g", None),
        'aspect g -> [1 ; h]': None,
        'aspect g -> [h ; 1]': ("aspect", "g", ("h", "1")),
        'object　a　->　b': ("object", "a", "b"),
        'object a -> b extra': None,
        'object a-b ->>c': ("object", "a-b", ">c"),
        'component a = "says \\"hi\\"" by {A, B}':
            ("component", "a", ('says "hi"', ("A", "B"))),
        'component a = "is" by {A,}': None,
        'table a = "t.csv" # the table': ("table", "a", "t.csv"),
        'mapping "m"': None,
    }
    for line, entry in expected.items():
        assert _match_mapping_entry(line) == entry
    assert token_entry('square topby {A}') == (
        "line 1, column 14: expected 'by', got '{'")
    assert token_entry('aspect g -> [1 ; h]') == (
        "line 1, column 16: expected ']', got ';'")
    assert token_entry('source"x"') == ("source", "source", "x")
    for line in EDGE_LINES:
        fast = _match_mapping_entry(line)
        if fast is not None:
            assert fast == token_entry(line)


@pytest.mark.parametrize("text, error", [
    ('mapping "m"\nobject a -> b\nobject a -> c extra\n',
     (DuplicateId, "object 'a' mapped twice")),
    ('mapping "m"\nobject a -> b\nobject a -> c\nobject b ->\n',
     (DuplicateId, "object 'a' mapped twice")),
    ('mapping "m"\nobject b ->\nobject a -> b\nobject a -> c\n',
     (ParseError, "line 2, column 12: expected object identifier, "
                  "got end of line")),
    ('mapping "m"\nsource "x"\nsource "y"\n',
     (DuplicateId, "source declared twice")),
    ('mapping "m"\nsquare g by {}\nsquare g by {A} # again\n',
     (DuplicateId, "square at 'g' declared twice")),
    ('mapping "m"\nobject a -> b\nobject a -> c\ntable a = "x\n',
     (ParseError, "line 4, column 11: unterminated string")),
])
def test_errors_come_in_the_token_parsers_order(text, error):
    kind, message = error
    for parse in (parse_mapping, token_parse):
        with pytest.raises(kind) as caught:
            parse(text)
        assert str(caught.value) == message


seeds = st.integers(0, 2**32 - 1)
edits = st.lists(
    st.tuples(st.integers(0, 200), st.sampled_from([None, *INSERTS])),
    min_size=1, max_size=3,
)


def random_line(seed, index):
    lines = random_document_text(seed).splitlines()
    return lines[index % len(lines)]


source_lines = st.one_of(
    st.sampled_from(FIXTURE_LINES + EDGE_LINES),
    st.builds(random_line, seeds, st.integers(0, 50)),
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(source_lines, edits)
def test_fast_path_agrees_with_token_parser_on_corrupted_lines(line, changes):
    for text in (line, corrupt(line, changes)):
        fast = _match_mapping_entry(text)
        if fast is not None:
            assert fast == token_entry(text)


def document_lines(seed):
    """A serialized random mapping, or a fixture map for small seeds."""
    maps = sorted(FIXTURES.glob("*.map"))
    if seed < len(maps):
        return maps[seed].read_text(encoding="utf-8").splitlines()
    return random_document_text(seed).splitlines()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(st.integers(0, 10), seeds),
       st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                max_size=2),
       st.lists(st.tuples(st.integers(0, 50), edits), max_size=3))
def test_documents_parse_as_the_token_parser_reads_them(seed, copies, damage):
    lines = document_lines(seed)
    for source, position in copies:  # repeated lines give DuplicateId
        lines.insert(position % (len(lines) + 1), lines[source % len(lines)])
    for index, changes in damage:
        index %= len(lines)
        lines[index] = corrupt(lines[index], changes)
    text = "\n".join(lines) + "\n"
    assert outcome(parse_mapping, text) == outcome(token_parse, text)
