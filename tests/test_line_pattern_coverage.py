"""The line patterns read exactly the lines the word-by-word patterns read.

The olog and mapping line patterns read a word as a plain run of word
characters and send a line whose word, author-list or path group holds
"->" to the token parser.  The reference below is built as the patterns
were before, with the tokenizer's word piece `_WORD`, which never holds
"->".  On every input, `_match_declaration` and `_match_mapping_entry`
must return a value exactly when the reference pattern matches the line,
and that value must be the token parser's reading, so the fast path
neither misreads a line nor leaves one to the slow path that it used to
read.
"""

import random
import re

from conftest import FIXTURES
from ologs import dsl
from ologs.dsl import (
    _COMMENT,
    _STRING,
    _WORD,
    _declaration,
    _LineParser,
    _mapping_entry,
    _match_declaration,
    _match_mapping_entry,
    _tokenize_line,
    serialize_mapping,
    serialize_olog,
)
from randgen import random_mapping_document, random_olog_document

TAIL = rf"\s*(?:{_COMMENT})?"
AUTHORS = rf"by\s*\{{\s*((?:{_WORD}(?:\s*,\s*{_WORD})*)?)\s*\}}{TAIL}"
PATH = rf"\[\s*(?!1\s*;)({_WORD}(?:\s*;\s*{_WORD})*)\s*\]"
OLOG_REFERENCE = {
    "type": re.compile(
        rf"\s*type\s+({_WORD})\s*=\s*{_STRING}\s*{AUTHORS}", re.S),
    "aspect": re.compile(
        rf"\s*aspect\s+({_WORD})\s*:\s*({_WORD})\s*->\s*({_WORD})\s*=\s*"
        rf"{_STRING}\s*{AUTHORS}", re.S),
    "fact": re.compile(
        rf"\s*fact\s+({_WORD})\s*:\s*{PATH}\s*~\s*{PATH}\s*{AUTHORS}", re.S),
}
MAPPING_REFERENCE = {
    "source": re.compile(rf"\s*source\s*{_STRING}{TAIL}", re.S),
    "target": re.compile(rf"\s*target\s*{_STRING}{TAIL}", re.S),
    "object": re.compile(rf"\s*object\s+({_WORD})\s*->\s*({_WORD}){TAIL}",
                         re.S),
    "aspect": re.compile(rf"\s*aspect\s+({_WORD})\s*->\s*{PATH}{TAIL}", re.S),
    "component": re.compile(
        rf"\s*component\s+({_WORD})\s*=\s*{_STRING}\s*{AUTHORS}", re.S),
    "square": re.compile(rf"\s*square\s+({_WORD})\s+{AUTHORS}", re.S),
    "table": re.compile(rf"\s*table\s+({_WORD})\s*=\s*{_STRING}{TAIL}", re.S),
}
# Lines whose words hold hyphens and '>', so that corruptions put "->"
# inside a word of every group.
HYPHENATED = [
    'type a-b = "an -> a-b" by {A-1, B}',
    'aspect f-g : a-b -> c> = "has as -> part" by {A-1}',
    'fact e-1 : [f-g ; h-] ~ [>k] by {A-1, B-}',
    'fact e : [1] ~ [f-g] by {}',
    'object a-b -> c-d',
    'aspect g-h -> [k- ; >m]',
    'component a-b = "is" by {A-1}',
    'square g-h by {A-, B}',
    'table a-b = "t-1.csv"',
]
CORRUPTIONS = ["-", ">", " ", "#", '"', ",", ";", "[", "]", "{", "}"]


def base_lines():
    olog, mapping = [], []
    for path in sorted(FIXTURES.glob("*.olog")):
        olog += path.read_text(encoding="utf-8").splitlines()
    for path in sorted(FIXTURES.glob("*.map")):
        mapping += path.read_text(encoding="utf-8").splitlines()
    for seed in range(200):
        rng = random.Random(seed)
        olog += serialize_olog(random_olog_document(rng)).splitlines()
        mapping += serialize_mapping(random_mapping_document(rng)).splitlines()
    return olog, mapping


def corrupted(lines, seed, per_line=4):
    """Each line, then `per_line` copies with one to three characters
    inserted or overwritten."""
    rng = random.Random(seed)
    out = []
    for line in lines:
        out.append(line)
        for _ in range(per_line):
            text = line
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(text) + 1)
                skip = rng.random() < 0.5 and at < len(text)
                text = text[:at] + rng.choice(CORRUPTIONS) + text[at + skip:]
            out.append(text)
    return out


OLOG_LINES, MAPPING_LINES = base_lines()
HYPHENATED_INPUTS = corrupted(HYPHENATED, seed=3, per_line=1000)
OLOG_INPUTS = corrupted(OLOG_LINES, seed=1) + HYPHENATED_INPUTS
MAPPING_INPUTS = corrupted(MAPPING_LINES, seed=2) + HYPHENATED_INPUTS


def reference_match(line, patterns):
    words = line.split(None, 1)
    pattern = patterns.get(words[0]) if words else None
    return pattern is not None and pattern.fullmatch(line) is not None


def token_declaration(line):
    return _declaration(_LineParser(_tokenize_line(line, 1), 1))


def token_entry(line):
    lp = _LineParser(_tokenize_line(line, 1), 1)
    entry = _mapping_entry(lp)
    lp.end()
    return entry


def test_olog_lines_are_read_exactly_where_the_reference_reads_them():
    read = 0
    for line in OLOG_INPUTS:
        fast = _match_declaration(line)
        assert (fast is not None) == reference_match(line, OLOG_REFERENCE), line
        if fast is not None:
            assert fast == token_declaration(line), line
            read += 1
    assert 0 < read < len(OLOG_INPUTS)


def test_mapping_lines_are_read_exactly_where_the_reference_reads_them():
    read = 0
    for line in MAPPING_INPUTS:
        fast = _match_mapping_entry(line)
        assert (fast is not None) == reference_match(line, MAPPING_REFERENCE), line
        if fast is not None:
            assert fast == token_entry(line), line
            read += 1
    assert 0 < read < len(MAPPING_INPUTS)


def test_the_inputs_reach_every_arrow_check():
    """For every keyword with a word group, some input is matched by the
    plain pattern but not by the reference: a group that holds "->"."""
    for inputs, plain, reference in (
            (OLOG_INPUTS, dict.fromkeys(OLOG_REFERENCE, dsl._DECLARATION),
             OLOG_REFERENCE),
            (MAPPING_INPUTS, dict.fromkeys(MAPPING_REFERENCE, dsl._MAPPING_LINE),
             MAPPING_REFERENCE)):
        refused = set()
        for line in inputs:
            keyword = line.split(None, 1)[0] if line.split() else None
            if (keyword in plain and plain[keyword].fullmatch(line)
                    and not reference[keyword].fullmatch(line)):
                refused.add(keyword)
        assert refused == set(plain) - {"source", "target"}
