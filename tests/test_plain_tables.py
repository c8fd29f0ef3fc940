"""load_bundle's plain-table reader against the csv reader it stands in for.

`_load_plain` splits a table's body with `str` methods and answers only
for tables whose body `csv.reader` would split on newlines and commas
alone.  Over random and chain bundles, with lexical damage to up to two
tables, `load_bundle` must return an Instance equal to the reference
loader's or raise the same exception class with the same message, and
wherever `_load_plain` answers, its answer must be what
`_bind(read_table_file(path), index)` returns.  Seeded correspondence
tables, damaged the same way, must load by `load_correspondences` as
`correspondence_pairs(read_table_file(path))` reads them, or fail alike.
"""

import csv
import io
import random
import string
import tempfile
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings, strategies as st

from ologs.category import Equation, Generator, Path, PathCategory
from ologs.dsl import load_mapping, load_olog, morphism_from_document
from ologs.errors import OlogError
from ologs.instance import (
    Instance,
    _bind,
    _header_index,
    _load_plain,
    load_bundle,
    read_table_file,
    write_bundle,
)
from ologs.language import AtomicVerb, NounPhrase
from ologs.mapping import (
    component_table_header,
    correspondence_pairs,
    load_correspondences,
)
from ologs.olog import AspectLabel, LinguisticStructure, Olog, TypeLabel
from randgen import random_instance, random_olog
from test_instance_loading import outcome, reference_load_bundle


def _word(rng, length):
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def chain_instance(rng, n):
    """t0 -> t1 -> ... -> tk with a shortcut t0 -> tk and the fact that
    the chain equals it; aspect headers carry the comma of ", namely"."""
    k = rng.randint(1, 4)
    types = [f"t{i}" for i in range(k + 1)]
    gens = [Generator(f"a{i}", types[i - 1], types[i])
            for i in range(1, k + 1)]
    gens.append(Generator("s", "t0", types[-1]))
    fact = Equation("chain_eq", Path("t0", tuple(g.name for g in gens[:-1])),
                    Path("t0", ("s",)))
    category = PathCategory(tuple(types), tuple(gens), (fact,))
    everyone = frozenset({"A"})
    structure = LinguisticStructure(
        {t: TypeLabel(NounPhrase(f"a {_word(rng, 6)} record of stage {i}"),
                      everyone) for i, t in enumerate(types)},
        {g.name: AspectLabel(AtomicVerb(f"is filed {_word(rng, 5)} under"),
                             everyone) for g in gens},
        {"chain_eq": everyone})
    o = Olog("chain", category, structure)
    tokens = {t: tuple(f"{t}-{i:05d}-{_word(rng, 4)}" for i in range(n))
              for t in types}
    functions = {g.name: {x: rng.choice(tokens[g.target])
                          for x in tokens[g.source]} for g in gens}
    return Instance(o, tokens, functions)


def quote_some_tokens(rng, inst):
    """Rename some tokens so that csv.writer must quote them: an embedded
    comma, quote or newline."""
    marks = (",", '"', "\n", ", ", '""')
    rename = {}
    for toks in inst.tokens.values():
        for x in toks:
            if rng.random() < 0.2:
                rename[x] = x + rng.choice(marks) + x[:1]
    new = lambda x: rename.get(x, x)  # noqa: E731
    return Instance(inst.olog,
                    {obj: tuple(map(new, toks))
                     for obj, toks in inst.tokens.items()},
                    {gen: {new(x): new(y) for x, y in mapping.items()}
                     for gen, mapping in inst.functions.items()})


def make_bundle(directory, seed):
    """A random or chain bundle written to `directory`, and its olog."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        o = random_olog(rng, max_objects=4, max_generators=5)
        inst = random_instance(rng, o)
    else:
        inst = chain_instance(rng, rng.randint(1, 30))
    if rng.random() < 0.25:
        inst = quote_some_tokens(rng, inst)
    write_bundle(directory, inst)
    return inst.olog


# --- lexical damage to the text of one table; each returns the new text ---

def split_header(text):
    """(header line with its newline, body), for a table csv.writer wrote
    from a header that needs no quoted newline."""
    end = text.find("\n") + 1
    return text[:end], text[end:]


def insert_at_random(char):
    def damage(text, rng):
        at = rng.randint(0, len(text))
        return text[:at] + char + text[at:]
    damage.__name__ = f"insert_{char!r}"
    return damage


def blank_line(text, rng):
    ends = [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    at = rng.choice(ends) if ends else len(text)
    return text[:at] + "\n" + text[at:]


def drop_final_newline(text, rng):
    return text.removesuffix("\n")


def header_only(text, rng):
    header, _ = split_header(text)
    return rng.choice((header, header.removesuffix("\n")))


def body_lines(text):
    header, body = split_header(text)
    return header, body.split("\n")[:-1]  # the writer ends every row


def long_field(text, rng):
    """One field at csv's limit, or one past it."""
    header, lines = body_lines(text)
    if not lines:
        return text
    i = rng.randrange(len(lines))
    _, comma, rest = lines[i].partition(",")
    field = "x" * (csv.field_size_limit() + rng.choice((0, 1)))
    lines[i] = field + comma + rest
    return header + "".join(line + "\n" for line in lines)


def duplicate_row(text, rng):
    header, lines = body_lines(text)
    if lines:
        lines.insert(rng.randint(0, len(lines)), rng.choice(lines))
    return header + "".join(line + "\n" for line in lines)


def rekey_row(text, rng):
    header, lines = body_lines(text)
    if len(lines) > 1:
        i, j = rng.sample(range(len(lines)), 2)
        key = lines[j].split(",", 1)[0]
        rest = lines[i].split(",", 1)[1:]
        lines[i] = ",".join([key, *rest])
    return header + "".join(line + "\n" for line in lines)


DAMAGE = (*map(insert_at_random, ('"', "\r", ",", "\0", "\n")), blank_line,
          drop_final_newline, header_only, long_field, duplicate_row,
          rekey_row)


def check_plain_answers(directory, o):
    """Wherever the plain reader answers, it answers as csv does."""
    index = _header_index(o)
    for path in sorted(directory.glob("*.csv")):
        plain = _load_plain(path, index)
        if plain is not None:
            assert plain == _bind(read_table_file(path), index)
            assert type(plain[2]) is (tuple if plain[0] == "tokens" else dict)


seeds = st.integers(0, 2**32 - 1)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seeds, st.lists(st.tuples(st.sampled_from(DAMAGE), seeds),
                       max_size=2))
def test_damaged_bundles_load_or_fail_as_the_csv_reader_has_them(seed,
                                                                damage):
    with tempfile.TemporaryDirectory() as tmp:
        directory = FsPath(tmp) / "bundle"
        o = make_bundle(directory, seed)
        files = sorted(directory.glob("*.csv"))
        for hurt, hurt_seed in damage:
            rng = random.Random(hurt_seed)
            path = rng.choice(files)
            with open(path, newline="", encoding="utf-8") as handle:
                text = handle.read()
            path.write_text(hurt(text, rng), encoding="utf-8", newline="")
        check_plain_answers(directory, o)
        assert (outcome(load_bundle, directory, o)
                == outcome(reference_load_bundle, directory, o))


def test_plain_tables_are_read_by_the_plain_reader():
    """Bundles of unquoted tokens never need the csv path."""
    for seed in range(40):
        rng = random.Random(seed)
        inst = chain_instance(rng, rng.randint(0, 30))
        with tempfile.TemporaryDirectory() as tmp:
            directory = FsPath(tmp) / "bundle"
            write_bundle(directory, inst)
            index = _header_index(inst.olog)
            assert all(_load_plain(path, index) is not None
                       for path in directory.glob("*.csv"))
            check_plain_answers(directory, inst.olog)
            assert load_bundle(directory, inst.olog) == inst


TOKENS = "a thing o0\nta\ntb\ntc\n"
FUNCTION = ('"a thing o0","relates via g0 to a thing o0, namely"\n'
            "ta,tb\ntb,tc\n")
LIMIT = csv.field_size_limit()


@pytest.mark.parametrize("text, answers", [
    (TOKENS, True),
    (TOKENS.removesuffix("\n"), True),
    ("a thing o0\n", True),
    ("a thing o0", True),
    (FUNCTION, True),
    (FUNCTION.removesuffix("\n"), True),
    (FUNCTION.replace("ta,tb", "ta,"), True),
    (TOKENS + "x" * LIMIT + "\n", True),
    (FUNCTION + "x" * LIMIT + ",ta\n", True),
    (TOKENS.replace("tb", '"tb"'), False),
    (TOKENS.replace("tb", 't"b'), False),
    (TOKENS.replace("\n", "\r\n"), False),
    (TOKENS.replace("tb", "t\0b"), False),
    (TOKENS.replace("tb\n", "tb\n\n"), False),
    (TOKENS + "\n", False),
    ("a thing o0\n\n", False),
    (TOKENS.replace("tb", "t,b"), False),
    (TOKENS.replace("tb", "ta"), False),
    (TOKENS + "x" * (LIMIT + 1) + "\n", False),
    (FUNCTION + "x" * (LIMIT + 1) + ",ta\n", False),
    (FUNCTION.replace("ta,tb", "ta"), False),
    (FUNCTION.replace("ta,tb", "ta,tb,tc"), False),
    (FUNCTION.replace("ta,tb", "tb,tb"), False),
    (FUNCTION.replace("ta,tb", "tb,tc"), False),
    (FUNCTION + "\n", False),
    ("a thing o1\nta\n", False),
    ("\na thing o0\nta\n", False),
    ("", False),
])
def test_plain_reader_answers_only_for_plain_tables(tmp_path, text, answers):
    o = Olog("one", PathCategory(("o0",), (Generator("g0", "o0", "o0"),)),
             LinguisticStructure(
                 {"o0": TypeLabel(NounPhrase("a thing o0"), frozenset())},
                 {"g0": AspectLabel(AtomicVerb("relates via g0 to"),
                                    frozenset())}))
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    index = _header_index(o)
    plain = _load_plain(path, index)
    assert (plain is not None) == answers
    if answers:
        assert plain == _bind(read_table_file(path), index)


# --- correspondence tables, read as pairs against one component header ---

def merge_is_morphism():
    fixtures = FsPath(__file__).parent / "fixtures"
    doc = load_mapping(fixtures / "merge_is.map")
    return morphism_from_document(doc, load_olog(fixtures / doc.source_ref),
                                  load_olog(fixtures / doc.target_ref))


def reference_correspondences(m, obj, path, rel):
    """A correspondence table read by `csv` alone."""
    table = read_table_file(path)
    expected = component_table_header(m, obj)
    if table.header != expected:
        raise OlogError(
            f"{rel}: header {table.header!r} does not match the "
            f"component convention {expected!r}")
    return correspondence_pairs(table)


def correspondence_text(rng, expected):
    """Two-column rows from small token pools, so keys and whole rows
    repeat; some tokens need quoting, and some headers do not match."""
    keys, values = ([_word(rng, rng.randint(1, 3))
                     for _ in range(rng.randint(1, 8))] for _ in range(2))
    if rng.random() < 0.2:
        keys = [x + rng.choice((",", '"', "\n", "\r", " ")) + x
                if rng.random() < 0.3 else x for x in keys]
    rows = list(dict.fromkeys((rng.choice(keys), rng.choice(values))
                              for _ in range(rng.randint(0, 10))))
    if rows and rng.random() < 0.2:
        rows.insert(rng.randint(0, len(rows)), rng.choice(rows))
    header = rng.choice((expected,) * 6 + (
        expected[::-1], expected[:1], (*expected, "x"),
        (expected[0], expected[1].upper())))
    out = io.StringIO()
    ends = ("\n", "\n", "\n", "\r\n")
    writer = csv.writer(out, lineterminator=rng.choice(ends))
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def test_correspondence_tables_load_as_the_csv_reader_has_them(tmp_path):
    m = merge_is_morphism()
    obj, rel = "h", "t.csv"
    path = tmp_path / rel
    index = {component_table_header(m, obj): [obj]}
    plain = repeated_keys = errors = 0
    for seed in range(400):
        rng = random.Random(seed)
        text = correspondence_text(rng, component_table_header(m, obj))
        for hurt in rng.sample(DAMAGE, rng.choice((0, 0, 1, 2))):
            text = hurt(text, rng)
        path.write_text(text, encoding="utf-8", newline="")
        try:
            want = reference_correspondences(m, obj, path, rel)
        except Exception as exc:  # the class and message are compared
            want = type(exc), str(exc)
            errors += 1
        try:
            got = load_correspondences(m, {obj: rel}, tmp_path)[obj]
        except Exception as exc:
            got = type(exc), str(exc)
        assert got == want, (seed, text)
        answer = _load_plain(path, index, pairs=True)
        if answer is not None:
            plain += 1
            keys = [x for x, _ in answer[2]]
            repeated_keys += len(set(keys)) != len(keys)
    assert plain > 50 and repeated_keys > 10 and errors > 100
