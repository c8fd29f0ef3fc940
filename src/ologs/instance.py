"""Instances: token sets per type and token functions per aspect.

Tokens are opaque strings compared by exact equality.  Tables follow the
convention that a one-column header is the noun phrase of a type, and a
two-column header is (noun phrase, verb reading + object noun + ", namely")
for a generator.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from pathlib import Path as FsPath

from .category import Path
from .errors import (
    AmbiguousHeader,
    DuplicateKey,
    MissingMapping,
    OlogError,
    UnboundHeader,
    UnknownToken,
)
from .language import correspondence_header, read_correspondence, read_sentence
from .olog import Olog, generator_sentence
from .records import record
from .report import ValidationReport


@dataclass
class Instance:
    olog: Olog
    tokens: dict[str, tuple[str, ...]]
    functions: dict[str, dict[str, str]] = field(default_factory=dict)
    # Each type's token set, built on first use or handed over by a loader.
    _token_sets: dict[str, set[str] | frozenset[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def token_set(self, obj: str) -> tuple[str, ...]:
        return self.tokens.get(obj, ())

    def _tokens_at(self, obj: str) -> set[str] | frozenset[str]:
        found = self._token_sets.get(obj)
        if found is None:
            found = self._token_sets[obj] = frozenset(self.token_set(obj))
        return found

    def has_token(self, obj: str, token: str) -> bool:
        return token in self._tokens_at(obj)

    def has_tokens(self, obj: str, tokens) -> bool:
        """Whether every one of `tokens` is a token at obj."""
        return self._tokens_at(obj).issuperset(tokens)

    def function(self, gen: str) -> dict[str, str]:
        self.olog.category.generator(gen)  # raises UnknownGenerator
        return self.functions.get(gen, {})


def _compose(inst: Instance, p: Path, values) -> list[str]:
    """Follow `values` by the token functions along p: one C-level `map`
    over the whole list per arrow.  MissingMapping names the first value,
    in list order, that a function lacks."""
    values = list(values)
    for gen in p.arrows:
        mapping = inst.functions.get(gen, {})
        try:
            values = list(map(mapping.__getitem__, values))
        except KeyError as exc:
            raise MissingMapping(
                f"token function of {gen!r} has no entry for {exc.args[0]!r}"
            ) from None
    return values


def _mismatches(xs, left: list, right: list) -> list[tuple]:
    """(x, y1, y2) for each token x of xs where the value lists `left` and
    `right` differ, in xs order.  The lists are compared whole first, so
    lists that agree are not walked."""
    if left == right:
        return []
    return [(x, y1, y2) for x, y1, y2 in zip(xs, left, right) if y1 != y2]


def path_table(inst: Instance, p: Path) -> dict[str, str]:
    """The composite token function of p, on every token at p.source."""
    inst.olog.category.check_path(p)
    tokens = inst.token_set(p.source)
    return dict(zip(tokens, _compose(inst, p, tokens)))


def evaluate_path(inst: Instance, p: Path, token: str) -> str:
    """Apply the token functions along p, left to right."""
    inst.olog.category.check_path(p)
    if not inst.has_token(p.source, token):
        raise UnknownToken(f"{token!r} is not a token at {p.source!r}")
    return _compose(inst, p, (token,))[0]


def check_totality(inst: Instance) -> ValidationReport:
    """Check that every token function is total on its source tokens and
    maps declared tokens to declared tokens."""
    report = ValidationReport()
    for g in inst.olog.category.generators:
        mapping = inst.functions.get(g.name, {})
        if (mapping.keys() == inst._tokens_at(g.source)
                and inst.has_tokens(g.target, mapping.values())):
            continue  # total and in range: the loop below finds nothing
        for x in inst.token_set(g.source):
            if x not in mapping:
                report.add("totality-violation",
                           f"{g.name!r} has no value for token {x!r}")
        for x, y in mapping.items():
            if not inst.has_token(g.source, x):
                report.add("undeclared-token",
                           f"{g.name!r} maps undeclared token {x!r}")
            if not inst.has_token(g.target, y):
                report.add("range-violation",
                           f"{g.name!r} sends {x!r} to {y!r}, which is not "
                           f"a token at {g.target!r}")
    return report


def validate_instance(inst: Instance) -> ValidationReport:
    """Check totality, single-valuedness of ranges, and every declared fact.

    A fact holds when its two sides have equal path tables: the composite
    token functions agree on every token of the shared source.  The two
    sides' value lists are compared whole; only a fact whose lists differ
    is walked token by token, for its findings in token order.
    """
    report = check_totality(inst)
    if not report.ok:
        return report
    for eq in inst.olog.category.equations:
        tokens = inst.token_set(eq.left.source)
        for x, y1, y2 in _mismatches(tokens, _compose(inst, eq.left, tokens),
                                     _compose(inst, eq.right, tokens)):
            report.add("fact-violation",
                       f"equation {eq.name!r} fails on token {x!r}: "
                       f"{y1!r} != {y2!r}")
    return report


@record
class InstanceTable:
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(self.header) not in (1, 2):
            raise ValueError("tables have one or two columns")
        if self.rows and set(map(len, self.rows)) != {len(self.header)}:
            raise ValueError("row width does not match header")
        if len(set(self.rows)) != len(self.rows):
            raise ValueError("duplicate rows")


def type_header(o: Olog, obj: str) -> tuple[str, ...]:
    return (str(o.noun(obj)),)


def generator_header(o: Olog, gen: str) -> tuple[str, ...]:
    return correspondence_header(generator_sentence(o, gen))


def _header_index(o: Olog) -> dict[tuple[str, ...], list[str]]:
    """Every type and aspect of o, by the header its table carries."""
    index: dict[tuple[str, ...], list[str]] = {}
    for obj in o.category.objects:
        index.setdefault(type_header(o, obj), []).append(obj)
    for g in o.category.generators:
        index.setdefault(generator_header(o, g.name), []).append(g.name)
    return index


def _bind(table: InstanceTable, index: dict) -> tuple[str, str, object]:
    """The kind, the type or aspect, and the tokens or token function that
    a table's header binds it to."""
    matches = index.get(table.header, [])
    word, shown = (("type", table.header[0]) if len(table.header) == 1
                   else ("aspect", table.header))
    if not matches:
        raise UnboundHeader(f"no {word} reads {shown!r}")
    if len(matches) > 1:
        raise AmbiguousHeader(f"header {shown!r} matches {word}s {matches}")
    if word == "type":
        return "tokens", matches[0], tuple(row[0] for row in table.rows)
    mapping = {}
    for key, value in table.rows:
        if key in mapping:
            raise DuplicateKey(f"two rows for token {key!r}")
        mapping[key] = value
    return "function", matches[0], mapping


def load_table(table: InstanceTable, o: Olog) -> tuple[str, str, object]:
    """Bind a table to a type or generator by its header text."""
    return _bind(table, _header_index(o))


def render_correspondences(inst: Instance, gen: str) -> list[str]:
    """One correspondence sentence per (x, f(x)) pair, in token order."""
    sentence = generator_sentence(inst.olog, gen)
    mapping = inst.function(gen)
    g = inst.olog.category.generator(gen)
    return [
        read_correspondence(sentence, x, mapping[x])
        for x in inst.token_set(g.source)
        if x in mapping
    ]


def _read_utf8(path) -> str:
    """Every input file's text, by one unbuffered binary read and one
    strict UTF-8 decode, newlines untranslated; a byte that is not UTF-8
    is a ValueError naming the file and the byte's position in it."""
    with open(path, "rb", buffering=0) as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_table_file(path) -> InstanceTable:
    text = io.StringIO(_read_utf8(path), newline="")
    try:
        rows = list(map(tuple, filter(None, csv.reader(text))))
        if not rows:
            raise ValueError("empty table file")
        return InstanceTable(header=rows[0], rows=tuple(rows[1:]))
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


class _Lines(list):
    write = list.append  # a file for `csv.writer`: one item per line


def write_table_file(path, table: InstanceTable) -> None:
    """Write what Python 3.13's `csv.writer(lineterminator="\\n")` writes,
    on every version, in one `write`, so the table reads back: "\\r\\n" as
    terminator quotes a field holding a carriage return, which "\\n" does
    only from 3.13, and each line's "\\r\\n" then becomes "\\n".  The
    rows go through `csv.writer` only when their comma-and-newline join
    shows that some field needs quoting: a quote, carriage return or NUL,
    comma or newline counts other than plain rows have, or an empty field
    in a one-column table."""
    lines = _Lines()
    writer = csv.writer(lines, lineterminator="\r\n")
    writer.writerow(table.header)
    rows, width = table.rows, len(table.header)
    body = "\n".join(map(",".join, rows)) + "\n"
    if ('"' in body or "\r" in body or "\0" in body
            or body.count(",") != len(rows) * (width - 1)
            or body.count("\n") != len(rows)
            or width == 1 and (body.startswith("\n") or "\n\n" in body)):
        writer.writerows(rows)
        body = ""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("".join(line[:-2] + "\n" for line in lines) + body)


# Every byte but the separators of a plain table, for `bytes.translate`.
NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b",\n")))


def _load_plain(path, index: dict, pairs: bool = False, token_sets=None):
    """What `_bind(read_table_file(path), index)` returns, read by bulk
    string splits, or None where that takes more than splits to decide.

    The file is read by `_read_utf8`, and only its first line, up to
    and with the first newline, goes through `csv.reader`, in strict
    mode: a header that line does not hold whole (a quoted field that
    runs on, a carriage return that ends a record early) is left to the
    fallback.  The rest, the body, is taken only when it is plain: no
    quote, carriage return or NUL
    (so `csv.reader` would split it on newlines and commas alone), no
    blank line, no field over `csv.field_size_limit()` (measured only in
    a body longer than the limit, as such a field needs), one comma per
    line of a two-column table, and no repeated token or key.  Every
    other table, and every error, is left to `read_table_file` and
    `_bind`.  The comma per line is checked on the separators alone:
    the UTF-8 body without its other bytes (neither byte occurs inside
    a multi-byte character) must be `,` and newline in turn.  A
    one-column table's tokens are hashed once, into the set that finds a
    repeated token, and `token_sets` receives it under the table's type.
    With `pairs`, a two-column table is read as the frozenset of its
    rows, as `correspondence_pairs` reads it, and a key may repeat.
    """
    try:
        text = _read_utf8(path)
        end = text.find("\n") + 1 or len(text)
        header = tuple(next(csv.reader((text[:end],), strict=True)))
    except (csv.Error, OSError, ValueError):
        return None
    body = text[end:]
    matches = index.get(header, ())
    if len(matches) != 1 or '"' in body or "\r" in body or "\0" in body:
        return None
    lines = body.removesuffix("\n")
    if len(header) == 1:
        fields = lines.split("\n") if body else []
        seen = set(fields)
        if "," in lines or "" in seen or len(seen) != len(fields):
            return None  # a blank line, a second column or a duplicate row
        content = tuple(fields)
    else:
        fields = lines.replace(",", "\n").split("\n") if body else []
        keys = fields[0::2]
        # Refused: a line without exactly one comma, or a repeated key (a
        # repeated row, when read as pairs).
        if (lines.encode().translate(None, NOT_SEPARATOR)
                != (b",\n" * len(keys))[:-1]):
            return None
        content = (frozenset if pairs else dict)(zip(keys, fields[1::2]))
        if len(content) != len(keys):
            return None
    # A field over the limit needs a body longer than the limit.
    limit = csv.field_size_limit()
    if len(lines) > limit and max(map(len, fields)) > limit:
        return None
    if token_sets is not None and len(header) == 1:
        token_sets[matches[0]] = seen
    return ("tokens" if len(header) == 1 else "function"), matches[0], content


def load_bundle(directory, o: Olog) -> Instance:
    """Load a directory of CSV tables keyed by type/generator id.

    Each file binds by its filename; the header is cross-checked against
    the binding the header text itself would produce.  Headers are looked
    up in one index of every type's and aspect's header, built once per
    call, and an aspect table becomes its token function in one pass over
    its rows, so a bundle costs time linear in its rows, not rows times
    the olog's size.  A plain table (see `_load_plain`) is split whole, by
    `str` methods, instead of row by row by `csv.reader`; any other table
    goes through `read_table_file` and `_bind`, which raise every error,
    so errors and their messages are those of `read_table_file` and
    `load_table`.  The plain reader's token sets become the instance's,
    so each type's tokens are hashed once.  The checks then compose and
    compare whole tables too (see `_compose`).

    The directory is listed by one `os.scandir` on its pathlib form;
    its entries named "*.csv" (".x.csv" and directories too) are read in
    name order, by `str` paths that name them as `FsPath(directory) /
    name`.  A path that cannot be listed raises `scandir`'s own error.
    """
    directory = str(FsPath(directory))
    with os.scandir(directory) as entries:
        names = sorted(entry.name for entry in entries
                       if entry.name.endswith(".csv"))
    prefix = "" if directory == "." else os.path.join(directory, "")
    index = _header_index(o)
    objects = set(o.category.objects)
    gen_names = {g.name for g in o.category.generators}
    tokens: dict[str, tuple[str, ...]] = {}
    functions: dict[str, dict[str, str]] = {}
    token_sets: dict[str, set[str]] = {}
    for file_name in names:
        path = prefix + file_name
        kind, target, content = (
            _load_plain(path, index, token_sets=token_sets)
            or _bind(read_table_file(path), index))
        name = file_name[:-4] or file_name  # FsPath(".csv").stem is ".csv"
        if name in objects:
            expected, word, found = "tokens", "type", tokens
        elif name in gen_names:
            expected, word, found = "function", "aspect", functions
        else:
            raise UnboundHeader(f"{file_name}: no type or aspect named {name!r}")
        if kind != expected or target != name:
            raise UnboundHeader(f"{file_name}: header binds to {target!r}, "
                                f"not to {word} {name!r}")
        found[name] = content
    inst = Instance(o, tokens, functions)
    inst._token_sets.update(token_sets)
    return inst


def table_file(name: str) -> str:
    """`<name>.csv`, the file directly in a bundle's directory that holds
    the table of the type or aspect `name`; OlogError if the name holds
    "/" or NUL or the file name would take over 255 bytes in UTF-8."""
    file = f"{name}.csv"
    if "/" in file or "\0" in file or len(file.encode()) > 255:
        raise OlogError(f"id {name!r} cannot name a table file")
    return file


def write_bundle(directory, inst: Instance) -> None:
    """Write one table per type and aspect by `write_table_file` to its
    `table_file`, each of which is found before anything is written."""
    directory = FsPath(directory)
    o = inst.olog
    tables = [(obj, InstanceTable(type_header(o, obj), tuple(zip(toks))))
              for obj, toks in inst.tokens.items()]
    for gen, mapping in inst.functions.items():
        g = o.category.generator(gen)
        xs = tuple(filter(mapping.__contains__, inst.token_set(g.source)))
        rows = tuple(zip(xs, map(mapping.__getitem__, xs)))
        tables.append((gen, InstanceTable(generator_header(o, gen), rows)))
    files = [table_file(name) for name, _ in tables]
    directory.mkdir(parents=True, exist_ok=True)
    for file, (_, table) in zip(files, tables):
        write_table_file(directory / file, table)


def instance_sentences(inst: Instance) -> list[str]:
    """All generator sentences of the underlying olog (reading aid)."""
    return [read_sentence(generator_sentence(inst.olog, g.name))
            for g in inst.olog.category.generators]
