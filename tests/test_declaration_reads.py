"""How much work reading a well-formed olog or map takes, counted, not
timed.

Every declaration line of a serialized olog, and every line of a
serialized map, is read by its document's one compiled line pattern, so
the token parser tokenizes only the header; and each distinct
author-list text is checked and split once, however many lines carry it.
"""

import random
from unittest import mock

from ologs import dsl
from ologs.dsl import (
    AspectDecl,
    FactDecl,
    OlogDocument,
    TypeDecl,
    _author_ids,
    parse_mapping,
    parse_olog,
    serialize_mapping,
    serialize_olog,
)
from randgen import random_mapping_document
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


EVERY_KIND_MAP = (
    'mapping "every kind"\n'
    'source\t"src/a \\"b\\".olog"  # the source\n'
    'target\t"dst.olog"\n'
    'object\tc0 -> d0\n'
    'aspect\tg0 -> [1] # an identity\n'
    'aspect\tg1 -> [h0 ; h1]\n'
    'component\tc0 = "says \\"hi\\"" by {A, B}\n'
    'square\tg1 by{S} # a square\n'
    'table\tc0 = "t.csv" # the table\n'
)


def test_only_the_header_of_a_well_formed_map_is_tokenized():
    texts = [serialize_mapping(random_mapping_document(random.Random(seed)))
             for seed in range(200)]
    calls = []

    def counted(line, lineno):
        calls.append(lineno)
        return tokenize(line, lineno)

    tokenize = dsl._tokenize_line
    with mock.patch.object(dsl, "_tokenize_line", counted):
        for text in texts:
            calls.clear()
            assert serialize_mapping(parse_mapping(text)) == text
            assert calls == [1]
        calls.clear()
        doc = parse_mapping(EVERY_KIND_MAP)
        assert calls == [1]
        assert (doc.source_ref, doc.target_ref) == ('src/a "b".olog', "dst.olog")
        assert doc.object_map == {"c0": "d0"}
        assert doc.aspect_map == {"g0": None, "g1": ("h0", "h1")}
        assert doc.components == {"c0": ('says "hi"', ("A", "B"))}
        assert doc.squares == {"g1": ("S",)}
        assert doc.tables == {"c0": "t.csv"}
        # With no whitespace after its keyword, a line is the token
        # parser's, which reads it all the same.
        calls.clear()
        doc = parse_mapping('mapping "m"\nsource"x"\n')
        assert calls == [1, 2]
        assert (doc.source_ref, doc.endpoint_lines) == ("x", {"source"})
