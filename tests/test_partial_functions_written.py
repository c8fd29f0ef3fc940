"""write_bundle writes a partial token function in its source's token order.

A token function may lack some source tokens, hold keys that are not
tokens, and list its keys in any order.  The written aspect table has one
row per source token that the function maps, in token order; the missing
token has no row and the extra key is dropped.  The two cases reach
both paths of `write_table_file`: the joined one, and the `csv.writer`
one.
"""

import pytest

from ologs.category import Generator, PathCategory
from ologs.instance import Instance, load_bundle, write_bundle
from ologs.language import AtomicVerb, NounPhrase
from ologs.olog import AspectLabel, LinguisticStructure, Olog, TypeLabel


def chain_olog():
    category = PathCategory(("t0", "t1"), (Generator("f", "t0", "t1"),))
    return Olog("partial", category, LinguisticStructure(
        {"t0": TypeLabel(NounPhrase("a source"), frozenset()),
         "t1": TypeLabel(NounPhrase("a target"), frozenset())},
        {"f": AspectLabel(AtomicVerb("has"), frozenset())}))


@pytest.mark.parametrize("b, b_bytes", [("b", b"b"), ("b\rb", b'"b\rb"')],
                         ids=["plain", "carriage-return"])
def test_rows_follow_token_order(tmp_path, b, b_bytes):
    o = chain_olog()
    # Keys reordered, "c" missing, "extra" not a token.
    f = {"d": "x", "extra": "y", b: "y", "a": "x"}
    inst = Instance(o, {"t0": ("a", b, "c", "d"), "t1": ("x", "y")},
                    {"f": f})
    write_bundle(tmp_path, inst)
    assert (tmp_path / "f.csv").read_bytes() == (
        b'a source,"has a target, namely"\na,x\n' + b_bytes + b",y\nd,x\n")
    loaded = load_bundle(tmp_path, o)
    assert list(loaded.functions["f"].items()) == [
        ("a", "x"), (b, "y"), ("d", "x")]
