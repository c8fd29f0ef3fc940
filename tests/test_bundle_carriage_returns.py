"""write_bundle writes Python 3.13's bytes, and load_bundle reads them back.

Before 3.13, `csv.writer(lineterminator="\\n")` leaves a field holding a
carriage return unquoted, and `csv.reader` then ends the row there, so a
bundle could be written that does not read back as itself.  Python 3.13
quotes such a field; `write_bundle` writes those bytes on every version.
The reference below is 3.13's rule for this dialect: a field is quoted
when it holds a comma, quote, carriage return or newline, a quote inside
is doubled, and a row of one empty field is written `""`.
"""

import csv
import io
import random
import sys

import pytest

from ologs.category import Generator, PathCategory
from ologs.instance import (
    Instance,
    generator_header,
    load_bundle,
    type_header,
    write_bundle,
)
from ologs.language import AtomicVerb, NounPhrase
from ologs.olog import AspectLabel, LinguisticStructure, Olog, TypeLabel

PIECES = ("\r", '"', ",", "\n", "\r\n", " ", "a", "é")


def field_bytes(field):
    if any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def reference_bytes(header, rows):
    lines = [header, *rows]
    text = "".join(('""' if row == ("",) else ",".join(map(field_bytes, row)))
                   + "\n" for row in lines)
    return text.encode("utf-8")


def text(rng):
    return "".join(rng.choice(PIECES) for _ in range(rng.randint(1, 4)))


def random_instance(rng):
    """t0 -f-> t1, with nouns, verb, tokens and values that may hold
    carriage returns, quotes, commas and newlines."""
    nouns = [NounPhrase(f"a {text(rng)} {k}") for k in range(2)]
    category = PathCategory(("t0", "t1"), (Generator("f", "t0", "t1"),))
    o = Olog("cr", category, LinguisticStructure(
        {f"t{k}": TypeLabel(noun, frozenset()) for k, noun in enumerate(nouns)},
        {"f": AspectLabel(AtomicVerb(text(rng)), frozenset())}))
    tokens = {f"t{k}": tuple(dict.fromkeys(text(rng) for _ in range(5)))
              for k in range(2)}
    f = {x: rng.choice(tokens["t1"]) for x in tokens["t0"]}
    return Instance(o, tokens, {"f": f})


def test_bundles_with_carriage_returns_read_back(tmp_path):
    for seed in range(300):
        inst = random_instance(random.Random(seed))
        bundle = tmp_path / f"b{seed}"
        write_bundle(bundle, inst)
        o = inst.olog
        for obj, toks in inst.tokens.items():
            assert (bundle / f"{obj}.csv").read_bytes() == reference_bytes(
                type_header(o, obj), [(t,) for t in toks]), seed
        assert (bundle / "f.csv").read_bytes() == reference_bytes(
            generator_header(o, "f"),
            [(x, inst.functions["f"][x]) for x in inst.tokens["t0"]]), seed
        loaded = load_bundle(bundle, o)
        assert loaded.tokens == inst.tokens, seed
        assert loaded.functions == inst.functions, seed


def test_one_field_with_a_carriage_return(tmp_path):
    # The case of the Python 3.10-3.12 fault: x\ry read back as x and y.
    category = PathCategory(("t",), ())
    o = Olog("one", category, LinguisticStructure(
        {"t": TypeLabel(NounPhrase("a thing"), frozenset())}, {}))
    write_bundle(tmp_path, Instance(o, {"t": ("x\ry", "z")}))
    assert (tmp_path / "t.csv").read_bytes() == b'a thing\n"x\ry"\nz\n'
    assert load_bundle(tmp_path, o).tokens == {"t": ("x\ry", "z")}


@pytest.mark.skipif(sys.version_info < (3, 13),
                    reason="checks the reference against Python 3.13")
def test_reference_is_what_csv_writer_writes():
    rng = random.Random(3)
    for _ in range(500):
        width = rng.choice((1, 2))
        header = tuple(text(rng) for _ in range(width))
        rows = [tuple(rng.choice(("", *PIECES)) for _ in range(width))
                for _ in range(rng.randint(0, 4))]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        assert buffer.getvalue().encode("utf-8") == reference_bytes(header,
                                                                    rows)
