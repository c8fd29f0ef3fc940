"""write_table_file writes Python 3.13's csv.writer bytes on every
version, and reads back.

Headers and rows are drawn from pieces that csv.writer must quote or
treat specially (comma, quote, carriage return, newline, empty field)
and from plain and non-ASCII text, so both the joined plain text and the
csv.writer fallback are exercised.  The reference is 3.13's rule for
this dialect, from test_bundle_carriage_returns.
"""

import random

from ologs.category import Generator, PathCategory
from ologs.instance import (
    InstanceTable,
    generator_header,
    load_bundle,
    type_header,
    write_table_file,
)
from ologs.language import AtomicVerb, NounPhrase
from ologs.olog import AspectLabel, LinguisticStructure, Olog, TypeLabel
from test_bundle_carriage_returns import reference_bytes

PIECES = (",", '"', "\r", "\n", "\r\n", " ", "", "a", "b7", "é", "日本",
          "x y")
PLAIN = ("a", "b7", "é", "日本", "x y", " ")


def text(rng, pieces=PIECES, most=4):
    return "".join(rng.choice(pieces) for _ in range(rng.randint(0, most)))


def random_olog(rng, pieces):
    nouns = [NounPhrase(f"a {text(rng, pieces)}{k}") for k in range(2)]
    verb = AtomicVerb(text(rng, pieces) or "is")
    category = PathCategory(("t0", "t1"), (Generator("f", "t0", "t1"),))
    labels = {f"t{k}": TypeLabel(noun, frozenset()) for k, noun in
              enumerate(nouns)}
    return Olog("written", category, LinguisticStructure(
        labels, {"f": AspectLabel(verb, frozenset())}))


def random_tables(rng, o, pieces):
    """A type table at t0 and at t1 and a function table for f, with
    distinct rows and keys, as write_bundle would pass them."""
    tokens = [list(dict.fromkeys(text(rng, pieces)
                                 for _ in range(rng.randint(0, 6))))
              for _ in range(2)]
    pairs = {x: text(rng, pieces) for x in tokens[0] if rng.random() < 0.8}
    return {
        "t0": InstanceTable(type_header(o, "t0"),
                            tuple((x,) for x in tokens[0])),
        "t1": InstanceTable(type_header(o, "t1"),
                            tuple((x,) for x in tokens[1])),
        "f": InstanceTable(generator_header(o, "f"), tuple(pairs.items())),
    }


def check_seed(seed, pieces, tmp_path):
    """Check one seed's bundle: its bytes, and that it reads back."""
    rng = random.Random(seed)
    o = random_olog(rng, pieces)
    tables = random_tables(rng, o, pieces)
    bundle = tmp_path / f"bundle{seed}"
    bundle.mkdir()
    for name, table in tables.items():
        path = bundle / f"{name}.csv"
        write_table_file(path, table)
        assert path.read_bytes() == reference_bytes(
            table.header, table.rows), (seed, name)
    inst = load_bundle(bundle, o)
    assert inst.tokens == {name: tuple(row[0] for row in tables[name].rows)
                           for name in ("t0", "t1")}, seed
    assert inst.functions == {"f": dict(tables["f"].rows)}, seed


def test_written_bytes_equal_the_3_13_writer_rule(tmp_path):
    for seed in range(400):
        check_seed(seed, PIECES, tmp_path)


def test_tables_without_carriage_returns_read_back(tmp_path):
    pieces = tuple(piece for piece in PIECES if "\r" not in piece)
    for seed in range(400, 800):
        check_seed(seed, pieces, tmp_path)


def test_plain_tables_equal_the_3_13_writer_rule_and_read_back(tmp_path):
    # Only pieces csv.writer never quotes, but for an empty field in a
    # one-column table: the joined text is taken for most rows here.
    for seed in range(800, 1000):
        check_seed(seed, PLAIN + ("",), tmp_path)


def test_edge_tables(tmp_path):
    path = tmp_path / "edge.csv"
    for table in (
        InstanceTable(("a",), ()),
        InstanceTable(("a",), (("",),)),
        InstanceTable(("a",), (("x",), ("",))),
        InstanceTable(("",), (("x",),)),
        InstanceTable(("a", "b"), (("", ""),)),
        InstanceTable(("a", "b, namely"), (("x", "y"),)),
        InstanceTable(("a", "b"), (("x", "y,z"),)),
        InstanceTable(("a", "b"), (("x\n", "y"),)),
        InstanceTable(("a", "b"), (("x", 'say "y"'),)),
        InstanceTable(("a", "b"), (("x\r", "y"),)),
        InstanceTable(("a", "b"), (("x,", "y"), ("z", "w"))),
    ):
        write_table_file(path, table)
        assert path.read_bytes() == reference_bytes(
            table.header, table.rows), table
