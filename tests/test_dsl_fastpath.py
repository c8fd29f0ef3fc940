"""parse_olog's compiled line patterns against the token parser.

Whenever `_match_declaration` reads a line, the token parser must read
the same declaration from it; whole documents, corrupted or not, must
parse to equal documents or fail with the same ParseError.
"""

import random

from hypothesis import given, settings, strategies as st

from conftest import FIXTURES
from ologs.dsl import (
    AspectDecl,
    FactDecl,
    OlogDocument,
    TypeDecl,
    _declaration,
    _LineParser,
    _match_declaration,
    _nonblank_lines,
    _tokenize_line,
    parse_olog,
    serialize_olog,
)
from ologs.errors import ParseError
from randgen import random_olog_document

FIXTURE_LINES = sorted({
    line
    for path in FIXTURES.glob("*.olog")
    for line in path.read_text(encoding="utf-8").splitlines()
})
EDGE_LINES = [
    'fact f : [1 ; g] ~ [g] by {}',
    'fact e : [g ; 1] ~ [1] by {A, B}',
    'fact e:[1]~[g;h]by{A}# note',
    'type a = "a #1 \\"quoted\\" \\\\ thing \\x" by {A}  # trailing',
    '\taspect f:a->b="has"by{ A ,B }#x',
    '  aspect f : a-b ->>c = "-> is" by {}',
    'type　a　=　"an ant"　by　{}',
    'type 1 = "a one" by {1}',
    'type a = "an ant" by {A,}',
    'aspect f : a -> b = "has" by {A} extra',
]
# One-character insertions; None deletes the character instead.
INSERTS = ['"', "\\", "#", "-", ">", "[", "]", "{", "}", ",", ";", "1",
           "\t", " ", "　"]


def token_declaration(line):
    """The token parser's declaration on `line`, or its ParseError."""
    try:
        return _declaration(_LineParser(_tokenize_line(line, 1), 1))
    except ParseError as exc:
        return str(exc)


def token_parse(text):
    """parse_olog as the token parser alone reads it."""
    lines = list(_nonblank_lines(text))
    if not lines:
        raise ParseError(1, 1, "expected 'olog \"<name>\"'")
    head = lines[0]
    head.take("WORD", "olog", "'olog'")
    doc = OlogDocument(head.string("olog name"))
    head.end()
    kinds = {TypeDecl: doc.types, AspectDecl: doc.aspects,
             FactDecl: doc.facts}
    for lp in lines[1:]:
        decl = _declaration(lp)
        kinds[type(decl)].append(decl)
    return doc


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


def random_document_text(seed):
    return serialize_olog(random_olog_document(random.Random(seed)))


def corrupt(line, edits):
    for position, insert in edits:
        position %= len(line) + 1
        if insert is not None:
            line = line[:position] + insert + line[position:]
        elif position < len(line):
            line = line[:position] + line[position + 1:]
    return line


seeds = st.integers(0, 2**32 - 1)
edits = st.lists(
    st.tuples(st.integers(0, 200), st.sampled_from([None, *INSERTS])),
    min_size=1, max_size=3,
)


def random_line(seed, index):
    lines = random_document_text(seed).splitlines()
    return lines[index % len(lines)]


random_lines = st.builds(random_line, seeds, st.integers(0, 50))
source_lines = st.one_of(
    st.sampled_from(FIXTURE_LINES + EDGE_LINES), random_lines,
)


def test_every_declaration_line_of_the_fixtures_matches():
    for path in FIXTURES.glob("*.olog"):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith(("type", "aspect", "fact")):
                assert _match_declaration(line) == token_declaration(line)


def test_every_line_of_serialized_random_documents_matches():
    for seed in range(200):
        lines = random_document_text(seed).splitlines()
        assert _match_declaration(lines[0]) is None  # the header
        for line in lines[1:]:
            assert _match_declaration(line) == token_declaration(line)


def test_edge_lines():
    expected = {
        'fact f : [1 ; g] ~ [g] by {}': None,
        'fact e : [g ; 1] ~ [1] by {A, B}':
            FactDecl("e", ("g", "1"), None, ("A", "B")),
        'type a = "an ant" by {A,}': None,
        'aspect f : a -> b = "has" by {A} extra': None,
        '  aspect f : a-b ->>c = "-> is" by {}':
            AspectDecl("f", "a-b", ">c", "-> is", ()),
    }
    for line, decl in expected.items():
        assert _match_declaration(line) == decl
    for line in EDGE_LINES:
        fast = _match_declaration(line)
        if fast is not None:
            assert fast == token_declaration(line)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(source_lines, edits)
def test_fast_path_agrees_with_token_parser_on_corrupted_lines(line, changes):
    for text in (line, corrupt(line, changes)):
        fast = _match_declaration(text)
        if fast is not None:
            assert fast == token_declaration(text)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seeds, st.lists(st.tuples(st.integers(0, 50), edits), max_size=3))
def test_documents_parse_as_the_token_parser_reads_them(seed, damage):
    lines = random_document_text(seed).splitlines()
    for index, changes in damage:
        index %= len(lines)
        lines[index] = corrupt(lines[index], changes)
    text = "\n".join(lines) + "\n"
    assert outcome(parse_olog, text) == outcome(token_parse, text)
