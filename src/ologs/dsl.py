"""Line-oriented DSL for olog and mapping documents.

Olog grammar ("#" starts a comment, blank lines are ignored):

    olog "<name>"
    type <id> = "<noun phrase>" by {<author>, ...}
    aspect <id> : <type-id> -> <type-id> = "<verb phrase>" by {...}
    fact <id> : [<aspect-id> ; ...] ~ [<aspect-id> ; ...] by {...}

An identity path is written [1].  Mapping grammar:

    mapping "<name>"
    source "<olog file>"
    target "<olog file>"
    object <id> -> <id>
    aspect <id> -> [<aspect-id> ; ...]
    component <type-id> = "<verb phrase>" by {...}
    square <aspect-id> by {...}
    table <type-id> = "<csv file>"

Serialization is canonical: declarations sorted by kind then id, author
lists sorted, LF line endings, trailing newline.

One lexical grammar serves both readers: a word is a maximal run of
characters that are not whitespace, punctuation, '"' or '#', and not
the start of "->"; a string may hold \\" and \\\\ escapes; '#' outside a
string starts a comment.  The tokenizer and the line patterns are
built from the same regex pieces for these rules, but the line patterns
read a word as a plain run of those characters, which the regex engine
scans in one step, and an author list as the plain body between its
braces; a line whose word or path group holds "->", or whose author
list is not a comma-separated list of words, goes to the token parser.

Every line is matched or tokenized before any is parsed.  One rule
reads a well-formed line after the header of either document: one
compiled pattern per document, with one alternative per line kind, each
starting with its keyword and whitespace, so the kind is the line's
first whitespace-separated word.  The value is built from the pattern's
groups; path lists are split with str.split.  Every other line --
headers, comments, identity paths with more ids such as [1 ; a], and
every malformed line -- goes to the token parser, which produces every
ParseError.  Both readings of a mapping line give the same (keyword,
key, value), and one loop checks duplicates and stores them, so a
DuplicateId comes before a later line's ParseError exactly as when the
token parser reads every line.  An author-list body is checked and split
once (the result is cached), and an olog shares one frozenset per
distinct author list.
"""

from __future__ import annotations

import functools
import re
from collections import namedtuple
from dataclasses import dataclass, field

from .category import CatFunctor, Equation, Generator, Path, PathCategory
from .errors import (
    BadVerbPhrase,
    DanglingReference,
    DuplicateId,
    OlogError,
    ParseError,
    ShapeMismatch,
    UnknownGenerator,
)
from .instance import _read_utf8, table_file
from .language import AtomicVerb, NounPhrase, UNIT, read_verb
from .mapping import OlogMorphism
from .olog import AspectLabel, LinguisticStructure, Olog, TypeLabel
from .records import record

# Unrolled: runs of word characters other than '-', each '-' not
# followed by '>'.  The lookaheads refuse an empty word and one that
# starts "->".
_WORD = (r'(?=[^\s{}\[\],;:=~"#])(?!->)'
         r'[^\s{}\[\],;:=~"#-]*(?:-(?!>)[^\s{}\[\],;:=~"#-]*)*')
_STRING = r'"([^"\\]*(?:\\(?:["\\]|(?!["\\]))[^"\\]*)*)"'
_COMMENT = r"#.*"
_ESCAPE = re.compile(r'\\(["\\])')
# Every character starts some alternative, so the matches cover the
# line; a '"' that opens no whole string is unterminated.
_TOKEN = re.compile(
    rf"(?P<ARROW>->)|(?P<PUNCT>[{{}}\[\],;:=~])|(?P<STRING>{_STRING})"
    rf"|(?P<WORD>{_WORD})|(?P<UNTERMINATED>\")|\s+|{_COMMENT}", re.S)


def _unquote(body: str) -> str:
    return _ESCAPE.sub(r"\1", body) if "\\" in body else body


@record
class Token:
    kind: str  # WORD | STRING | PUNCT | ARROW
    value: str
    column: int
    end: int  # the column just past the token


def _tokenize_line(text: str, lineno: int) -> list[Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "UNTERMINATED":
            raise ParseError(lineno, m.start() + 1, "unterminated string")
        if kind:
            value = _unquote(m[0][1:-1]) if kind == "STRING" else m[0]
            tokens.append(Token(kind, value, m.start() + 1, m.end() + 1))
    return tokens


class _LineParser:
    def __init__(self, tokens: list[Token], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def fail(self, expected: str):
        tok = self.peek()
        if tok:
            column, got = tok.column, repr(tok.value)
        else:
            column = self.tokens[-1].end if self.tokens else 1
            got = "end of line"
        raise ParseError(self.lineno, column, f"expected {expected}, got {got}")

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str, value: str | None = None, expected: str | None = None) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind or (value is not None and tok.value != value):
            self.fail(expected or value or kind.lower())
        self.pos += 1
        return tok

    def word(self, expected: str = "identifier") -> str:
        return self.take("WORD", expected=expected).value

    def string(self, expected: str = "quoted string") -> str:
        return self.take("STRING", expected=expected).value

    def punct(self, value: str) -> None:
        self.take("PUNCT", value, f"'{value}'")

    def arrow(self) -> None:
        self.take("ARROW", expected="'->'")

    def skip(self, value: str) -> bool:
        """Consume the punctuation `value` if it comes next."""
        tok = self.peek()
        if tok and tok.kind == "PUNCT" and tok.value == value:
            self.pos += 1
            return True
        return False

    def authors(self) -> tuple[str, ...]:
        self.take("WORD", "by", "'by'")
        self.punct("{")
        if self.skip("}"):
            return ()
        names = [self.word("author identifier")]
        while self.skip(","):
            names.append(self.word("author identifier"))
        self.punct("}")
        return tuple(names)

    def path_ids(self) -> tuple[str, ...] | None:
        """[f ; g] as a tuple of ids; [1] (identity) as None."""
        self.punct("[")
        first = self.word("aspect identifier or '1'")
        if first == "1":
            self.punct("]")
            return None
        ids = [first]
        while self.skip(";"):
            ids.append(self.word("aspect identifier"))
        self.punct("]")
        return tuple(ids)

    def end(self) -> None:
        if self.pos != len(self.tokens):
            self.fail("end of line")


# Declarations are named tuples: cheap to build once per line, and
# never equal across kinds, whose field counts differ.  Authors and each
# fact side are tuples of ids; a side of None is the identity path.
TypeDecl = namedtuple("TypeDecl", "name noun authors")
AspectDecl = namedtuple("AspectDecl", "name source target verb authors")
FactDecl = namedtuple("FactDecl", "name left right authors")
_new = tuple.__new__  # _new(TypeDecl, fields), with no namedtuple __new__ frame


@dataclass
class OlogDocument:
    name: str
    types: list[TypeDecl] = field(default_factory=list)
    aspects: list[AspectDecl] = field(default_factory=list)
    facts: list[FactDecl] = field(default_factory=list)


def _nonblank_lines(text: str, match=None) -> list:
    """Every nonblank line, matched or tokenized before any is parsed, so
    an unterminated string is reported before a grammar error on an
    earlier line.  A line after the header that `match` reads becomes its
    value; every other line becomes a _LineParser.  Lines end only at
    "\\n", "\\r\\n" or "\\r"; no other code reads a document's line ends."""
    lines = []
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.removesuffix("\n").split("\n"), 1):
        value = match(raw) if match and lines else None
        if value is not None:
            lines.append(value)
            continue
        tokens = _tokenize_line(raw, lineno)
        if tokens:
            lines.append(_LineParser(tokens, lineno))
    return lines


def _header(lines: list, keyword: str) -> str:
    """The name on the header line `<keyword> "<name>"`."""
    if not lines:
        raise ParseError(1, 1, f"expected '{keyword} \"<name>\"'")
    head = lines[0]
    head.take("WORD", keyword, f"'{keyword}'")
    name = head.string(f"{keyword} name")
    head.end()
    return name


def _declaration(lp: _LineParser) -> TypeDecl | AspectDecl | FactDecl:
    """The token parser's reading of one olog declaration line."""
    keyword = lp.word("'type', 'aspect', or 'fact'")
    if keyword == "type":
        name = lp.word("type identifier")
        lp.punct("=")
        noun = lp.string("noun phrase")
        auth = lp.authors()
        lp.end()
        return TypeDecl(name, noun, auth)
    if keyword == "aspect":
        name = lp.word("aspect identifier")
        lp.punct(":")
        source = lp.word("source type")
        lp.arrow()
        target = lp.word("target type")
        lp.punct("=")
        verb = lp.string("verb phrase")
        auth = lp.authors()
        lp.end()
        return AspectDecl(name, source, target, verb, auth)
    if keyword == "fact":
        name = lp.word("fact identifier")
        lp.punct(":")
        left = lp.path_ids()
        lp.punct("~")
        right = lp.path_ids()
        auth = lp.authors()
        lp.end()
        return FactDecl(name, left, right, auth)
    lp.pos = 0
    lp.fail("'type', 'aspect', or 'fact'")


# The olog declaration lines as one pattern, built from the tokenizer's
# pieces; the name group that is set tells the kind.  A word is a plain
# _RUN, and one that holds "->" is not a word.  An author list is read
# as its brace body, which _author_ids checks.
_RUN = r'[^\s{}\[\],;:=~"#]+'
_TAIL = rf"\s*(?:{_COMMENT})?"
_AUTHORS = rf'by\s*\{{([^{{}}"#]*)\}}{_TAIL}'
# A path that starts [1 ; is left to the token parser, which rejects it.
_PATH = rf"\[\s*(?!1\s*;)({_RUN}(?:\s*;\s*{_RUN})*)\s*\]"
_DECLARATION = re.compile(
    rf"\s*(?:type\s+({_RUN})\s*=\s*{_STRING}"
    rf"|aspect\s+({_RUN})\s*:\s*({_RUN})\s*->\s*({_RUN})\s*=\s*{_STRING}"
    rf"|fact\s+({_RUN})\s*:\s*{_PATH}\s*~\s*{_PATH})\s*{_AUTHORS}", re.S)
_AUTHOR_LIST = re.compile(rf"\s*(?:{_RUN}(?:\s*,\s*{_RUN})*)?\s*")


@functools.lru_cache(maxsize=256)
def _author_ids(body: str) -> tuple[str, ...] | None:
    """The ids of an author list's brace body, or None if it is not a
    list of words; a few lists recur often."""
    if "->" in body or _AUTHOR_LIST.fullmatch(body) is None:
        return None
    return tuple(body.replace(",", " ").split())


def _path_ids(group: str) -> tuple[str, ...] | None:
    """The ids of a line pattern's path group, split with str.split,
    which splits at exactly the characters that \\s matches; [1] is None."""
    ids = tuple(group.replace(";", " ").split())
    return None if ids == ("1",) else ids


def _match_declaration(raw: str) -> TypeDecl | AspectDecl | FactDecl | None:
    """The declaration on a well-formed olog line, or None for any other line.

    _DECLARATION reads the line: the name group that is set tells its
    kind, and _author_ids checks its author list.  Where it returns a
    declaration, _declaration gives an equal one.  Only the word and path
    groups are checked for "->", a fact's only where the line holds one.
    """
    m = _DECLARATION.fullmatch(raw)
    if m is None:
        return None
    (type_name, noun, aspect_name, source, target, verb,
     name, left, right, auth) = m.groups()
    authors = _author_ids(auth)
    if authors is None:
        return None
    if type_name is not None:
        if "->" in type_name:
            return None
        return _new(TypeDecl, (type_name, _unquote(noun), authors))
    if aspect_name is not None:
        if "->" in aspect_name or "->" in source or "->" in target:
            return None
        return _new(AspectDecl, (aspect_name, source, target, _unquote(verb),
                                 authors))
    if "->" in raw and ("->" in name or "->" in left or "->" in right):
        return None
    return _new(FactDecl, (name, _path_ids(left), _path_ids(right), authors))


def parse_olog(text: str) -> OlogDocument:
    lines = _nonblank_lines(text, match=_match_declaration)
    doc = OlogDocument(_header(lines, "olog"))
    kinds = {TypeDecl: doc.types, AspectDecl: doc.aspects, FactDecl: doc.facts}
    for line in lines[1:]:
        decl = _declaration(line) if isinstance(line, _LineParser) else line
        kinds[type(decl)].append(decl)
    return doc


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _authors_text(authors) -> str:
    return "{" + ", ".join(sorted(authors)) + "}"


def _path_text(ids: tuple[str, ...] | None) -> str:
    if not ids:
        return "[1]"
    return "[" + " ; ".join(ids) + "]"


def serialize_olog(doc: OlogDocument) -> str:
    lines = [f"olog {_quote(doc.name)}"]
    for t in sorted(doc.types, key=lambda d: d.name):
        lines.append(
            f"type {t.name} = {_quote(t.noun)} by {_authors_text(t.authors)}"
        )
    for a in sorted(doc.aspects, key=lambda d: d.name):
        lines.append(
            f"aspect {a.name} : {a.source} -> {a.target} = "
            f"{_quote(a.verb)} by {_authors_text(a.authors)}"
        )
    for fct in sorted(doc.facts, key=lambda d: d.name):
        lines.append(
            f"fact {fct.name} : {_path_text(fct.left)} ~ {_path_text(fct.right)} "
            f"by {_authors_text(fct.authors)}"
        )
    return "\n".join(lines) + "\n"


def olog_from_document(doc: OlogDocument) -> Olog:
    """Build the olog, checking references, duplicates, noun phrases, and
    that each type and aspect id names a `table_file`."""
    type_names = [t.name for t in doc.types]
    declared_types = set(type_names)
    declared_aspects = {a.name: a for a in doc.aspects}
    for kind, decls, unique in (
            ("type", doc.types, declared_types),
            ("aspect", doc.aspects, declared_aspects),
            ("fact", doc.facts, {f.name for f in doc.facts})):
        if len(unique) != len(decls):  # find the first repeated name
            seen = set()
            for d in decls:
                if d.name in seen:
                    raise DuplicateId(f"{kind} {d.name!r} declared twice")
                seen.add(d.name)
    for name in (*type_names, *declared_aspects):
        table_file(name)  # a bundle can hold its table
    if "1" in declared_aspects:  # a path's `[1]` reads as the identity
        raise DuplicateId("aspect '1' has the id of the identity path [1]")
    generators = []
    for a in doc.aspects:
        if a.name in declared_types:  # their tables would share a file
            raise DuplicateId(f"aspect {a.name!r} has the id of a type")
        for endpoint in (a.source, a.target):
            if endpoint not in declared_types:
                raise DanglingReference(
                    f"aspect {a.name!r} refers to undeclared type {endpoint!r}"
                )
        generators.append(Generator(a.name, a.source, a.target))

    def build_path(ids, other_ids, fact_name):
        if ids is None and other_ids is None:
            raise ShapeMismatch(
                f"fact {fact_name!r}: both sides are identity paths; "
                f"the object cannot be inferred"
            )
        for gen in other_ids[:1] if ids is None else ids:
            if gen not in declared_aspects:
                raise DanglingReference(
                    f"fact {fact_name!r} refers to undeclared aspect {gen!r}"
                )
        if ids is None:
            return Path(declared_aspects[other_ids[0]].source)
        return Path(declared_aspects[ids[0]].source, tuple(ids))

    equations = []
    for fct in doc.facts:
        left = build_path(fct.left, fct.right, fct.name)
        right = build_path(fct.right, fct.left, fct.name)
        equations.append(Equation(fct.name, left, right))
    category = PathCategory(tuple(type_names), tuple(generators), tuple(equations))
    # One frozenset per distinct author tuple, shared by every label.
    authors = {ids: frozenset(ids) for ids in {
        d.authors for decls in (doc.types, doc.aspects, doc.facts)
        for d in decls}}
    type_labels = {t.name: TypeLabel(NounPhrase(t.noun), authors[t.authors])
                   for t in doc.types}
    aspect_labels = {}
    try:
        for a in doc.aspects:
            aspect_labels[a.name] = AspectLabel(AtomicVerb(a.verb),
                                                authors[a.authors])
    except BadVerbPhrase as exc:
        raise BadVerbPhrase(f"aspect {a.name!r}: {exc}") from None
    structure = LinguisticStructure(
        type_labels=type_labels,
        aspect_labels=aspect_labels,
        fact_authors={f.name: authors[f.authors] for f in doc.facts},
    )
    return Olog(doc.name, category, structure)


def document_from_olog(o: Olog) -> OlogDocument:
    """Inverse of olog_from_document, up to canonical ordering.

    Composite and unit verb phrases (as arise from pullbacks) are
    flattened to their readings.
    """
    doc = OlogDocument(o.name)
    for obj in o.category.objects:
        label = o.structure.type_labels[obj]
        doc.types.append(TypeDecl(obj, str(label.noun), tuple(sorted(label.authors))))
    for g in o.category.generators:
        label = o.structure.aspect_labels[g.name]
        doc.aspects.append(AspectDecl(
            g.name, g.source, g.target, read_verb(label.verb),
            tuple(sorted(label.authors)),
        ))
    for eq in o.category.equations:
        auth = o.structure.fact_authors.get(eq.name, frozenset())
        doc.facts.append(FactDecl(
            eq.name,
            eq.left.arrows or None,
            eq.right.arrows or None,
            tuple(sorted(auth)),
        ))
    return doc


def load_olog(path) -> Olog:
    return olog_from_document(parse_olog(_read_utf8(path)))


@dataclass
class MappingDocument:
    name: str
    source_ref: str = ""
    target_ref: str = ""
    object_map: dict[str, str] = field(default_factory=dict)
    aspect_map: dict[str, tuple[str, ...] | None] = field(default_factory=dict)
    components: dict[str, tuple[str, tuple[str, ...]]] = field(default_factory=dict)
    squares: dict[str, tuple[str, ...]] = field(default_factory=dict)
    tables: dict[str, str] = field(default_factory=dict)
    # The endpoint keywords with a line, so `source ""` is not "no line".
    endpoint_lines: frozenset[str] = field(default=frozenset(),
                                           compare=False, repr=False)


def _mapping_entry(lp: _LineParser) -> tuple[str, str, object]:
    """The token parser's reading of one mapping line, as (keyword, key,
    value); parse_mapping checks the end of the line."""
    keyword = lp.word("a mapping declaration")
    if keyword in ("source", "target"):
        return keyword, keyword, lp.string("olog file path")
    if keyword == "object":
        key = lp.word("object identifier")
        lp.arrow()
        return keyword, key, lp.word("object identifier")
    if keyword == "aspect":
        key = lp.word("aspect identifier")
        lp.arrow()
        return keyword, key, lp.path_ids()
    if keyword == "component":
        key = lp.word("object identifier")
        lp.punct("=")
        return keyword, key, (lp.string("verb phrase"), lp.authors())
    if keyword == "square":
        return keyword, lp.word("aspect identifier"), lp.authors()
    if keyword == "table":
        key = lp.word("object identifier")
        lp.punct("=")
        return keyword, key, lp.string("csv file path")
    lp.pos = 0
    lp.fail("'source', 'target', 'object', 'aspect', 'component', "
            "'square', or 'table'")


# The mapping lines as one pattern, built as _DECLARATION is.  A square
# needs whitespace before "by", or "square topby {A}" would read as the
# aspect "top".
_MAPPING_LINE = re.compile(
    rf"\s*(?:(?:(source|target)\s+{_STRING}"
    rf"|object\s+({_RUN})\s*->\s*({_RUN})"
    rf"|aspect\s+({_RUN})\s*->\s*{_PATH}"
    rf"|table\s+({_RUN})\s*=\s*{_STRING}){_TAIL}"
    rf"|(?:component\s+({_RUN})\s*=\s*{_STRING}\s*"
    rf"|square\s+({_RUN})\s+){_AUTHORS})", re.S)


def _match_mapping_entry(raw: str) -> tuple[str, str, object] | None:
    """The (keyword, key, value) on a well-formed mapping line, or None for
    any other line.  As in _match_declaration, the key group that is set
    tells the kind; where it returns an entry, _mapping_entry gives an
    equal one."""
    m = _MAPPING_LINE.fullmatch(raw)
    if m is None:
        return None
    (endpoint, ref, obj, image, aspect, path, table, csv_path,
     component, verb, square, auth) = m.groups()
    if endpoint is not None:
        return endpoint, endpoint, _unquote(ref)
    key = obj or aspect or table or component or square
    if "->" in key:
        return None
    if obj is not None:
        return None if "->" in image else ("object", key, image)
    if aspect is not None:
        return None if "->" in path else ("aspect", key, _path_ids(path))
    if table is not None:
        return "table", key, _unquote(csv_path)
    authors = _author_ids(auth)
    if authors is None:
        return None
    if square is not None:
        return "square", key, authors
    return "component", key, (_unquote(verb), authors)


_DUPLICATE = {
    "source": "source declared twice",
    "target": "target declared twice",
    "object": "object {!r} mapped twice",
    "aspect": "aspect {!r} mapped twice",
    "component": "component at {!r} declared twice",
    "square": "square at {!r} declared twice",
    "table": "table at {!r} declared twice",
}


def parse_mapping(text: str) -> MappingDocument:
    lines = _nonblank_lines(text, match=_match_mapping_entry)
    doc = MappingDocument(_header(lines, "mapping"))
    refs = {}
    tables = {"source": refs, "target": refs, "object": doc.object_map,
              "aspect": doc.aspect_map, "component": doc.components,
              "square": doc.squares, "table": doc.tables}
    for line in lines[1:]:
        parsed = isinstance(line, _LineParser)
        keyword, key, value = _mapping_entry(line) if parsed else line
        table = tables[keyword]
        if key in table:
            raise DuplicateId(_DUPLICATE[keyword].format(key))
        table[key] = value
        if parsed:
            line.end()
    doc.source_ref = refs.get("source", "")
    doc.target_ref = refs.get("target", "")
    doc.endpoint_lines = frozenset(refs)
    return doc


def load_mapping(path) -> MappingDocument:
    """The map at `path`, which must name both ologs by a nonempty path."""
    doc = parse_mapping(_read_utf8(path))
    for side, ref in (("source", doc.source_ref), ("target", doc.target_ref)):
        if side in doc.endpoint_lines and not ref:
            raise OlogError(f"{path}: empty {side} reference")
        if not ref:
            raise OlogError(f"{path}: no {side} line")
    return doc


def serialize_mapping(doc: MappingDocument) -> str:
    lines = [f"mapping {_quote(doc.name)}"]
    if doc.source_ref:
        lines.append(f"source {_quote(doc.source_ref)}")
    if doc.target_ref:
        lines.append(f"target {_quote(doc.target_ref)}")
    for src in sorted(doc.object_map):
        lines.append(f"object {src} -> {doc.object_map[src]}")
    for src in sorted(doc.aspect_map):
        lines.append(f"aspect {src} -> {_path_text(doc.aspect_map[src])}")
    for obj in sorted(doc.components):
        verb, auth = doc.components[obj]
        lines.append(
            f"component {obj} = {_quote(verb)} by {_authors_text(auth)}"
        )
    for gen in sorted(doc.squares):
        lines.append(f"square {gen} by {_authors_text(doc.squares[gen])}")
    for obj in sorted(doc.tables):
        lines.append(f"table {obj} = {_quote(doc.tables[obj])}")
    return "\n".join(lines) + "\n"


def morphism_from_document(doc: MappingDocument, source: Olog, target: Olog):
    """Build the olog morphism against already-loaded endpoint ologs."""
    src_objects = set(source.category.objects)
    dst_objects = set(target.category.objects)
    for src, dst in doc.object_map.items():
        if src not in src_objects:
            raise DanglingReference(f"unknown source object {src!r}")
        if dst not in dst_objects:
            raise DanglingReference(f"unknown target object {dst!r}")
    for obj in (*doc.components, *doc.tables):
        if obj not in src_objects:
            raise DanglingReference(f"unknown source object {obj!r}")

    def aspect(side: str, olog: Olog, name: str):
        try:
            return olog.category.generator(name)
        except UnknownGenerator:
            raise DanglingReference(f"unknown {side} aspect {name!r}") from None

    generator_map = {}
    for name, ids in doc.aspect_map.items():
        g = aspect("source", source, name)
        if ids is None:
            image_source = doc.object_map.get(g.source)
            if image_source is None:
                raise DanglingReference(
                    f"aspect {name!r} maps to an identity but object "
                    f"{g.source!r} has no image"
                )
            generator_map[name] = Path(image_source)
        else:
            first, *_ = [aspect("target", target, gen) for gen in ids]
            generator_map[name] = Path(first.source, tuple(ids))
    for name in doc.squares:
        aspect("source", source, name)
    functor = CatFunctor(source.category, target.category,
                         dict(doc.object_map), generator_map)
    components = {}
    try:
        for obj, (verb, auth) in doc.components.items():
            components[obj] = AspectLabel(
                UNIT if verb == read_verb(UNIT) else AtomicVerb(verb),
                frozenset(auth))
    except BadVerbPhrase as exc:
        raise BadVerbPhrase(f"component {obj!r}: {exc}") from None
    squares = {gen: frozenset(auth) for gen, auth in doc.squares.items()}
    return OlogMorphism(source, target, functor, components, squares)
