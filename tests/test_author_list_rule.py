"""The author-list rule, checked on every short brace body.

Every olog and mapping line pattern reads an author list as a plain
brace body, and `_author_ids` decides whether the body is a list of
words.  The reference below is the author group the line patterns had
before, built from `_RUN`: a comma-separated list of runs, with no run
that holds "->".  Every brace body of length 3 or less over a small
alphabet -- a word character, a digit, "-" and ">" (so "->"), every
separator, and three kinds of whitespace -- is put on a line of every
kind that carries an author list.  On each line the fast reader returns
a value exactly when the reference reads the line, that value is the
token parser's reading, and a document holding the line parses as the
token parser alone reads it, or raises the same ParseError.
"""

import itertools
import re
from unittest import mock

import pytest

from ologs import dsl
from ologs.dsl import (
    _RUN,
    _STRING,
    _TAIL,
    _author_ids,
    _declaration,
    _LineParser,
    _mapping_entry,
    _match_declaration,
    _match_mapping_entry,
    _tokenize_line,
    parse_mapping,
    parse_olog,
)
from ologs.errors import ParseError
from test_line_pattern_coverage import (
    MAPPING_INPUTS,
    MAPPING_REFERENCE,
    OLOG_INPUTS,
    OLOG_REFERENCE,
)

ALPHABET = "A1->,;:=~[] \t\u3000"
BODIES = ["".join(chars) for size in range(4)
          for chars in itertools.product(ALPHABET, repeat=size)]
OLD_AUTHORS = rf"by\s*\{{\s*((?:{_RUN}(?:\s*,\s*{_RUN})*)?)\s*\}}{_TAIL}"
# (template, header, the reference pattern with the old author group)
LINES = {
    "type": ('type t = "a thing" by {{{}}}', 'olog "o"',
             rf'\s*type\s+t\s*=\s*{_STRING}\s*{OLD_AUTHORS}'),
    "aspect": ('aspect f : t -> t = "is" by {{{}}}', 'olog "o"',
               rf'\s*aspect\s+f\s*:\s*t\s*->\s*t\s*=\s*{_STRING}\s*'
               rf'{OLD_AUTHORS}'),
    "fact": ("fact e : [f] ~ [f ; f] by {{{}}}", 'olog "o"',
             rf"\s*fact\s+e\s*:\s*\[f\]\s*~\s*\[f ; f\]\s*{OLD_AUTHORS}"),
    "component": ('component t = "is" by {{{}}}', 'mapping "m"',
                  rf'\s*component\s+t\s*=\s*{_STRING}\s*{OLD_AUTHORS}'),
    "square": ("square f by {{{}}}", 'mapping "m"',
               rf"\s*square\s+f\s+{OLD_AUTHORS}"),
}


def old_reading(pattern, line):
    """Whether the old pattern read the line: its author group matched
    and held no "->"."""
    m = re.fullmatch(pattern, line, re.S)
    return m is not None and "->" not in m[m.lastindex]


def token_reading(line, olog):
    lp = _LineParser(_tokenize_line(line, 1), 1)
    if olog:
        return _declaration(lp)
    entry = _mapping_entry(lp)
    lp.end()
    return entry


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


def token_only(parse, text):
    """`parse(text)` with no line read by a fast reader."""
    with mock.patch.object(dsl, "_match_declaration", lambda raw: None), \
            mock.patch.object(dsl, "_match_mapping_entry", lambda raw: None):
        return outcome(parse, text)


def test_the_alphabet_reaches_every_case():
    assert len(BODIES) == 1 + 14 + 14 ** 2 + 14 ** 3
    read = [body for body in BODIES
            if old_reading(LINES["type"][2], LINES["type"][0].format(body))]
    assert {"", "A", " A\t", "A,1", "\u3000A", "A-1", "1>A"} <= set(read)
    assert not {"A 1", "A,", ",A", "A->", "A;1", "A]", "A:1"} & set(read)


@pytest.mark.parametrize("kind", LINES)
def test_author_lists_are_read_exactly_where_the_old_group_read_them(kind):
    template, header, reference = LINES[kind]
    olog = header.startswith("olog")
    fast_reader = _match_declaration if olog else _match_mapping_entry
    parse = parse_olog if olog else parse_mapping
    read = 0
    for body in BODIES:
        line = template.format(body)
        fast = fast_reader(line)
        assert (fast is not None) == old_reading(reference, line), line
        if fast is not None:
            assert fast == token_reading(line, olog), line
            read += 1
        text = f"{header}\n{line}\n"
        assert outcome(parse, text) == token_only(parse, text), line
    assert 0 < read < len(BODIES)


def test_the_coverage_inputs_reach_every_word_arrow_check():
    """For every keyword with a word group, some line of the line-pattern
    coverage inputs has a list of words for its author list (if it has
    one) and is matched by the plain pattern but not by the reference: a
    word or path group holds "->".  So a loose author list does not hide
    an arrow check that no input reaches."""
    for inputs, plain, reference, with_authors in (
            (OLOG_INPUTS, dict.fromkeys(OLOG_REFERENCE, dsl._DECLARATION),
             OLOG_REFERENCE, set(OLOG_REFERENCE)),
            (MAPPING_INPUTS, dict.fromkeys(MAPPING_REFERENCE, dsl._MAPPING_LINE),
             MAPPING_REFERENCE,
             {"component", "square"})):
        refused = set()
        for line in inputs:
            keyword = line.split(None, 1)[0] if line.split() else None
            m = keyword in plain and plain[keyword].fullmatch(line)
            if (m and (keyword not in with_authors
                       or _author_ids(m[m.lastindex]) is not None)
                    and not reference[keyword].fullmatch(line)):
                refused.add(keyword)
        assert refused == set(plain) - {"source", "target"}
