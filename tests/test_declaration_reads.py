"""How much work reading a well-formed olog takes, counted, not timed.

Every declaration line of a serialized olog is read by the one compiled
declaration pattern, so the token parser tokenizes only the header; and
each distinct author-list text is checked and split once, however many
lines carry it.
"""

from unittest import mock

from ologs import dsl
from ologs.dsl import (
    AspectDecl,
    FactDecl,
    OlogDocument,
    TypeDecl,
    _author_ids,
    parse_olog,
    serialize_olog,
)
from test_author_sets import many_declarations_text


def grid_document(n):
    """An n x n grid of types with east and south aspects and one fact per
    cell, endorsed by author sets that vary along the grid."""
    def authors(i, j):
        return ("A",) + ("B",) * (i % 2) + ("C",) * (j % 3 == 0)
    doc = OlogDocument("grid")
    for i in range(n):
        for j in range(n):
            doc.types.append(TypeDecl(f"v{i}_{j}", f"a node at {i} {j}",
                                      authors(i, j)))
            if j + 1 < n:
                doc.aspects.append(AspectDecl(f"h{i}_{j}", f"v{i}_{j}",
                                              f"v{i}_{j + 1}", "steps east to",
                                              authors(i, j)))
            if i + 1 < n:
                doc.aspects.append(AspectDecl(f"d{i}_{j}", f"v{i}_{j}",
                                              f"v{i + 1}_{j}", "steps south to",
                                              authors(i, j)))
            if i + 1 < n and j + 1 < n:
                doc.facts.append(FactDecl(
                    f"c{i}_{j}", (f"h{i}_{j}", f"d{i}_{j + 1}"),
                    (f"d{i}_{j}", f"h{i + 1}_{j}"), ("A",)))
    return doc


def test_only_the_header_of_a_serialized_grid_is_tokenized():
    text = serialize_olog(grid_document(20))
    assert len(text.splitlines()) == 1 + 400 + 760 + 361
    calls = []

    def counted(line, lineno):
        calls.append(lineno)
        return tokenize(line, lineno)

    tokenize = dsl._tokenize_line
    with mock.patch.object(dsl, "_tokenize_line", counted):
        doc = parse_olog(text)
    assert calls == [1]
    assert serialize_olog(doc) == text


def test_each_distinct_author_list_is_checked_once():
    text = many_declarations_text()
    _author_ids.cache_clear()
    doc = parse_olog(text)
    assert len(doc.types) + len(doc.aspects) + len(doc.facts) == 1000
    info = _author_ids.cache_info()
    assert (info.misses, info.hits) == (3, 997)
