"""`olog migrate` and `olog pullback` round-trip data holding carriage returns.

A target bundle for marriage.olog, whose tokens all hold a carriage
return, is written by write_bundle and migrated along marriage.map; the
migrated bundle must then check against the pulled-back olog.  Every
table written on the way is Python 3.13's bytes on every version (the
rule of test_bundle_carriage_returns), so each reads back as itself.
"""

import random

import pytest

from ologs.cli import main
from ologs.dsl import load_olog
from ologs.instance import (
    Instance,
    generator_header,
    type_header,
    write_bundle,
)
from test_bundle_carriage_returns import reference_bytes, text

# The aspects of marriage.olog and the child.olog aspects mapped to them.
ASPECTS = {"inc_m": ("2", "has_f"), "inc_w": ("3", "has_m")}


def target_instance(rng, o):
    tokens = {obj: tuple(f"{obj}{k}\r{text(rng)}"
                         for k in range(rng.randint(1, 4)))
              for obj in ("1", "2", "3")}
    functions = {gen: {x: rng.choice(tokens[obj]) for x in tokens["1"]}
                 for gen, (obj, _) in ASPECTS.items()}
    return Instance(o, tokens, functions)


def assert_tables(directory, o, tokens, functions):
    for obj, toks in tokens.items():
        assert (directory / f"{obj}.csv").read_bytes() == reference_bytes(
            type_header(o, obj), [(x,) for x in toks]), obj
    for gen, f in functions.items():
        assert (directory / f"{gen}.csv").read_bytes() == reference_bytes(
            generator_header(o, gen), [(x, f[x]) for x in tokens["1"]]), gen
    assert len(list(directory.glob("*.csv"))) == len(tokens) + len(functions)


@pytest.mark.parametrize("seed", range(5))
def test_migrate_round_trips_carriage_returns(fixtures, tmp_path, seed):
    o = load_olog(fixtures / "marriage.olog")
    j = target_instance(random.Random(seed), o)
    dst, migrated = tmp_path / "dst", tmp_path / "migrated"
    pulled = tmp_path / "pulled.olog"
    write_bundle(dst, j)
    assert_tables(dst, o, j.tokens, j.functions)
    mapping = str(fixtures / "marriage.map")
    assert main(["migrate", mapping, "--dst-data", str(dst),
                 "--out", str(migrated)]) == 0
    assert main(["pullback", mapping, "--out", str(pulled)]) == 0
    assert main(["check-instance", str(pulled), str(migrated)]) == 0
    assert_tables(migrated, load_olog(pulled), j.tokens,
                  {aspect: j.functions[gen]
                   for gen, (_, aspect) in ASPECTS.items()})
