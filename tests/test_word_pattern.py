"""The DSL's word pattern and the whitespace rule the olog line reader
relies on.

`_WORD` is written as an unrolled loop; `OLD_WORD` is the plain
alternation it replaced, kept here as the reference.  Author and path
lists are split with str.split, and a line's pattern is picked by its
first str.split word, so both rest on `\\s` matching exactly the
characters for which str.isspace is true.
"""

import itertools
import re
import sys

from ologs.dsl import _WORD

OLD_WORD = r'(?:[^\s{}\[\],;:=~"#-]|-(?!>))+'

# Word characters, the two halves of "->", whitespace (ASCII and an
# ideographic space), punctuation, '"' and '#'.
BOUNDARY = "aé-> \t　{];=~\"#"


def test_backslash_s_is_exactly_isspace():
    space = re.compile(r"\s")
    differ = [hex(code) for code in range(sys.maxunicode + 1)
              if bool(space.fullmatch(chr(code))) != chr(code).isspace()]
    assert differ == []


def test_unrolled_word_matches_the_alternation():
    old, new = re.compile(OLD_WORD), re.compile(_WORD)
    checked = 0
    for length in range(1, 5):
        for chars in itertools.product(BOUNDARY, repeat=length):
            text = "".join(chars)
            for i in range(length):
                m_old, m_new = old.match(text, i), new.match(text, i)
                assert ((m_old and m_old.span()) == (m_new and m_new.span())), (
                    text, i)
                for j in range(i + 1, length + 1):
                    part = text[i:j]
                    assert (bool(old.fullmatch(part))
                            == bool(new.fullmatch(part))), part
                    checked += 1
    assert checked > 300_000


def test_unrolled_word_inside_a_larger_pattern():
    """Backtracking into a word gives the same split as before."""
    texts = ["a-b->c", "a--->b", "-a-", "a-> b", "--", "->", "a->>b", "a-b-"]
    for text in texts:
        for tail in ("-", "->", "", "-?"):
            old = re.fullmatch(rf"({OLD_WORD})({tail}.*)", text, re.S)
            new = re.fullmatch(rf"({_WORD})({tail}.*)", text, re.S)
            assert (old and old.groups()) == (new and new.groups()), (text, tail)
