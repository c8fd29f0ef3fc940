"""Author lists are split once and shared as sets.

An olog built from a document holds one frozenset per distinct author
list, shared by every type, aspect and fact that declares it.  The
author-list split is cached at a bounded size; a document with more
distinct author lists than the cache holds still reads as the token
parser reads it.
"""

from ologs.dsl import (
    AspectDecl,
    FactDecl,
    OlogDocument,
    TypeDecl,
    _author_ids,
    _declaration,
    _nonblank_lines,
    olog_from_document,
    parse_olog,
    serialize_olog,
)

AUTHOR_LISTS = ["{A, B}", "{C}", "{}"]


def many_declarations_text(count=1000):
    """`count` declarations (types, aspects between them, facts) whose
    author lists cycle through AUTHOR_LISTS."""
    lines = ['olog "shared"']
    n_types = count // 2
    n_aspects = count // 4
    for i in range(n_types):
        lines.append(f'type t{i} = "a t{i}" by {AUTHOR_LISTS[i % 3]}')
    for i in range(n_aspects):
        lines.append(f'aspect f{i} : t{i} -> t{i + 1} = "has" '
                     f'by {AUTHOR_LISTS[i % 3]}')
    for i in range(count - n_types - n_aspects):
        lines.append(f'fact e{i} : [f{i}] ~ [f{i}] by {AUTHOR_LISTS[i % 3]}')
    return "\n".join(lines) + "\n"


def token_parse(text):
    """The olog document as the token parser alone reads it."""
    lines = _nonblank_lines(text)
    doc = OlogDocument(lines[0].tokens[1].value)
    kinds = {TypeDecl: doc.types, AspectDecl: doc.aspects,
             FactDecl: doc.facts}
    for lp in lines[1:]:
        decl = _declaration(lp)
        kinds[type(decl)].append(decl)
    return doc


def test_one_frozenset_per_distinct_author_list():
    doc = parse_olog(many_declarations_text())
    assert len(doc.types) + len(doc.aspects) + len(doc.facts) == 1000
    structure = olog_from_document(doc).structure
    sets = [label.authors for label in structure.type_labels.values()]
    sets += [label.authors for label in structure.aspect_labels.values()]
    sets += list(structure.fact_authors.values())
    assert len(sets) == 1000
    assert len({id(s) for s in sets}) == 3
    assert set(sets) == {frozenset({"A", "B"}), frozenset({"C"}), frozenset()}


def test_more_author_lists_than_the_cache_holds():
    count = _author_ids.cache_info().maxsize + 50
    lines = ['olog "wide"']
    for i in range(count):
        lines.append(f'type t{i:04d} = "a t{i}" by {{A{i:04d}, B}}')
    for i in range(count):
        lines.append(f'aspect f{i:04d} : t{i:04d} -> t{i:04d} = "is" '
                     f'by {{A{i:04d}}}')
    text = "\n".join(lines) + "\n"
    doc = parse_olog(text)
    assert doc == token_parse(text)
    assert doc.types[-1].authors == (f"A{count - 1:04d}", "B")
    assert serialize_olog(doc) == text
    assert parse_olog(serialize_olog(doc)) == doc
    assert _author_ids.cache_info().currsize <= _author_ids.cache_info().maxsize
