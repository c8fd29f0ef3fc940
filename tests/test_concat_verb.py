"""ConcatVerb's equality, hash and repr: no recursion, dataclass meaning.

On short random verb trees the three methods are compared with those of
a plain frozen dataclass of the same name and fields, the reference.
Chains of 1,200 and 5,000 arrows, nested to the left as derived aspects
are and to the right, must compare, hash and print without recursing.
"""

import dataclasses
import random

import pytest

from ologs.category import Path
from ologs.dsl import olog_from_document, parse_olog
from ologs.language import UNIT, AtomicVerb, ConcatVerb, NounPhrase
from ologs.olog import derived_aspect

Reference = dataclasses.make_dataclass(
    "ConcatVerb", ["left", "via", "right"], frozen=True)


def reference(v):
    if isinstance(v, ConcatVerb):
        return Reference(reference(v.left), v.via, reference(v.right))
    return v


def random_verb(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return UNIT if rng.random() < 0.2 else AtomicVerb(f"v{rng.randrange(3)}")
    return ConcatVerb(random_verb(rng, depth - 1),
                      NounPhrase(f"a n{rng.randrange(2)}"),
                      random_verb(rng, depth - 1))


def rebuilt(v):
    """An equal copy of v that shares no ConcatVerb with it."""
    if isinstance(v, ConcatVerb):
        return ConcatVerb(rebuilt(v.left), v.via, rebuilt(v.right))
    return v


def altered(rng, v):
    """v with one leaf or noun phrase replaced, which may leave it equal."""
    if not isinstance(v, ConcatVerb):
        return random_verb(rng, 1)
    side = rng.randrange(3)
    if side == 0:
        return ConcatVerb(altered(rng, v.left), v.via, v.right)
    if side == 1:
        return ConcatVerb(v.left, NounPhrase(f"a n{rng.randrange(2)}"), v.right)
    return ConcatVerb(v.left, v.via, altered(rng, v.right))


def test_repr_is_the_dataclass_text():
    rng = random.Random(62)
    for _ in range(500):
        v = random_verb(rng, 5)
        assert repr(v) == repr(reference(v))


def test_equality_and_hash_mean_what_the_dataclass_methods_mean():
    rng = random.Random(75)
    for _ in range(1500):
        a = random_verb(rng, 4)
        b = rng.choice([rebuilt(a), altered(rng, a), random_verb(rng, 4), a])
        assert (a == b) == (reference(a) == reference(b))
        assert (a != b) == (reference(a) != reference(b))
        if a == b:
            assert hash(a) == hash(b)
    assert hash(UNIT) == hash(UNIT)


def test_other_types_are_not_implemented():
    v = ConcatVerb(AtomicVerb("has"), NounPhrase("a b"), UNIT)
    assert v.__eq__(AtomicVerb("has")) is NotImplemented
    assert v.__eq__(reference(v)) is NotImplemented
    assert v.__eq__("x") is NotImplemented
    assert v != reference(v) and v != "x" and v != AtomicVerb("has")
    assert v in {rebuilt(v)}


def noun(i):
    return NounPhrase(f"a thing number {i}")


def left_chain(n, last="leads to"):
    v = AtomicVerb("leads to")
    for i in range(1, n):
        v = ConcatVerb(v, noun(i), AtomicVerb(last if i == n - 1 else "leads to"))
    return v


def right_chain(n, last="leads to"):
    v = AtomicVerb(last)
    for i in range(n - 1, 0, -1):
        v = ConcatVerb(AtomicVerb("leads to"), noun(i), v)
    return v


def left_chain_repr(n):
    atom = repr(AtomicVerb("leads to"))
    return ("ConcatVerb(left=" * (n - 1) + atom + "".join(
        f", via={noun(i)!r}, right={atom})" for i in range(1, n)))


@pytest.mark.parametrize("n", [1200, 5000])
@pytest.mark.parametrize("chain", [left_chain, right_chain])
def test_long_chains_compare_and_hash(n, chain):
    a, b, other = chain(n), chain(n), chain(n, last="skips to")
    assert a == b and not a != b
    assert a != other and not a == other
    assert hash(a) == hash(b)
    assert len({a, b, other}) == 2


@pytest.mark.parametrize("n", [1200, 5000])
def test_long_chain_repr(n):
    assert repr(left_chain(n)) == left_chain_repr(n)
    text = repr(right_chain(n))
    assert text.startswith(f"ConcatVerb(left={AtomicVerb('leads to')!r}, "
                           f"via={noun(1)!r}, right=ConcatVerb(left=")
    assert text.endswith(")" * (n - 1))


def test_derived_aspects_of_a_long_path_compare():
    n = 1200
    lines = ['olog "chain"']
    lines += [f'type t{i} = "a thing number {i}" by {{A}}' for i in range(n + 1)]
    lines += [f'aspect a{i} : t{i - 1} -> t{i} = "leads to" by {{A}}'
              for i in range(1, n + 1)]
    o = olog_from_document(parse_olog("\n".join(lines) + "\n"))
    p = Path("t0", tuple(f"a{i}" for i in range(1, n + 1)))
    first, second = derived_aspect(o, p), derived_aspect(o, p)
    assert first == second
    assert hash(first) == hash(second)
    assert first.verb == left_chain(n)
    assert repr(first.verb) == left_chain_repr(n)
