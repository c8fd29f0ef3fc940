"""The regex tokenizer against a character-at-a-time reference.

`reference_tokens` reads a line one character at a time, as the token
parser's tokenizer once did.  `_tokenize_line` must give the same
tokens (kind, value, first column and the column just past the end)
or the same ParseError on every line: fixture lines, lines of random
documents, and corrupted lines.  Whole mapping documents, corrupted or
not, must parse alike through either tokenizer.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES
from ologs import dsl
from ologs.dsl import Token, _tokenize_line, parse_mapping, serialize_mapping
from ologs.errors import OlogError, ParseError
from randgen import random_mapping_document, random_olog_document

PUNCT = set("{}[],;:=~")


def reference_tokens(text, lineno):
    """(kind, value, column, end) per token, or ParseError."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if text.startswith("->", i):
            kind, value = "ARROW", "->"
            i += 2
        elif ch in PUNCT:
            kind, value = "PUNCT", ch
            i += 1
        elif ch == '"':
            out = []
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n and text[i + 1] in '"\\':
                    out.append(text[i + 1])
                    i += 2
                else:
                    out.append(text[i])
                    i += 1
            if i >= n:
                raise ParseError(lineno, col, "unterminated string")
            i += 1
            kind, value = "STRING", "".join(out)
        else:
            j = i
            while (j < n and not text[j].isspace() and text[j] not in PUNCT
                   and text[j] != '"' and not text.startswith("->", j)
                   and text[j] != "#"):
                j += 1
            kind, value = "WORD", text[i:j]
            i = j
        tokens.append((kind, value, col, i + 1))
    return tokens


def lex(tokenize, line):
    try:
        return tokenize(line, 3)
    except ParseError as exc:
        return str(exc)


def regex_tokens(line, lineno):
    return [(t.kind, t.value, t.column, t.end)
            for t in _tokenize_line(line, lineno)]


FIXTURE_LINES = sorted({
    line
    for pattern in ("*.olog", "*.map")
    for path in FIXTURES.glob(pattern)
    for line in path.read_text(encoding="utf-8").splitlines()
})
EDGE_LINES = [
    "", "   ", "# only a comment", "->", "->>", "-", "a-b->c", "--->",
    '"', '"\\"', '"\\\\"', '"a\\', '"\\x"', 'a"b"c', '"#"#"', "\\ \\\\",
    'type a = "a #1 \\"quoted\\" \\\\ thing \\x" by {A}  # trailing',
    'type　a　=　"an ant"　by　{}',
    "word\x0bword\x0cword",
    '{}[],;:=~',
    "a # b\nc",
]
INSERTS = ['"', "\\", "#", "-", ">", "[", "]", "{", "}", ",", ";", ":",
           "=", "~", "1", "\t", " ", "　", "é"]


def random_line(seed, index):
    rng = random.Random(seed)
    doc = (random_olog_document(rng) if seed % 2
           else random_mapping_document(rng))
    text = dsl.serialize_olog(doc) if seed % 2 else serialize_mapping(doc)
    lines = text.splitlines()
    return lines[index % len(lines)]


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
    min_size=1, max_size=4,
)
source_lines = st.one_of(
    st.sampled_from(FIXTURE_LINES + EDGE_LINES),
    st.builds(random_line, seeds, st.integers(0, 50)),
)


@pytest.mark.parametrize("line", FIXTURE_LINES + EDGE_LINES)
def test_fixture_and_edge_lines(line):
    assert lex(regex_tokens, line) == lex(reference_tokens, line)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(source_lines, edits)
def test_corrupted_lines(line, edits):
    line = corrupt(line, edits)
    assert lex(regex_tokens, line) == lex(reference_tokens, line)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seeds, st.integers(0, 50))
def test_random_document_lines(seed, index):
    line = random_line(seed, index)
    assert lex(regex_tokens, line) == lex(reference_tokens, line)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.text(alphabet="".join(INSERTS) + "ab->", max_size=30))
def test_arbitrary_lines(line):
    assert lex(regex_tokens, line) == lex(reference_tokens, line)


def reference_token_objects(text, lineno):
    return [Token(*t) for t in reference_tokens(text, lineno)]


def mapping_outcome(text):
    try:
        return parse_mapping(text)
    except OlogError as exc:
        return type(exc).__name__, str(exc)


MAP_TEXTS = [path.read_text(encoding="utf-8")
             for path in sorted(FIXTURES.glob("*.map"))]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(MAP_TEXTS), st.integers(0, 100), edits,
       st.sampled_from(["edit", "delete", "duplicate"]))
def test_corrupted_mapping_documents(text, index, edits, action):
    """parse_mapping gives the same document or the same error through
    the regex tokenizer as through the reference."""
    lines = text.splitlines()
    k = index % len(lines)
    if action == "edit":
        lines[k] = corrupt(lines[k], edits)
    elif action == "delete":
        del lines[k]
    else:
        lines.insert(k, lines[k])
    text = "\n".join(lines) + "\n"
    got = mapping_outcome(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsl, "_tokenize_line", reference_token_objects)
        want = mapping_outcome(text)
    assert got == want
