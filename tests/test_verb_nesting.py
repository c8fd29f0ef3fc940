"""Composite verbs keep their nesting and their classes.

Composition of verb phrases is associative only up to isomorphism, so
(V1 N2 V2) N3 V3 and V1 N2 (V2 N3 V3) are different verbs, and so is a
composite whose inner node is a subclass.  Equality, hashing, pickling
and copying must all keep these apart.
"""

import copy
import pickle

import pytest

from ologs.language import UNIT, AtomicVerb, ConcatVerb, NounPhrase

HAS, IS, BY = AtomicVerb("has"), AtomicVerb("is"), AtomicVerb("is led by")
FATHER, MAN = NounPhrase("a father"), NounPhrase("a man")


class Marked(ConcatVerb):
    """A ConcatVerb subclass that inherits every method."""

    __slots__ = ()


def left_nested(inner=ConcatVerb):
    return ConcatVerb(inner(HAS, FATHER, IS), MAN, BY)


def right_nested():
    return ConcatVerb(HAS, FATHER, ConcatVerb(IS, MAN, BY))


# ConcatVerb(ConcatVerb(AtomicVerb('has'), NounPhrase('a father'),
# AtomicVerb('is')), NounPhrase('a man'), UNIT), pickled with protocol 2
# by the release whose ConcatVerb.__reduce__ first wrote _from_postfix.
OLD_PICKLE = (
    b"\x80\x02cologs.language\n_from_postfix\nq\x00(cologs.language\n"
    b"AtomicVerb\nq\x01)\x81q\x02]q\x03X\x03\x00\x00\x00hasq\x04abcologs."
    b"language\nNounPhrase\nq\x05)\x81q\x06]q\x07X\x08\x00\x00\x00a "
    b"fatherq\x08abh\x01)\x81q\t]q\nX\x02\x00\x00\x00isq\x0babcologs."
    b"language\nConcatVerb\nq\x0ch\x05)\x81q\r]q\x0eX\x05\x00\x00\x00a "
    b"manq\x0fabcologs.language\nUnitVerb\nq\x10)\x81q\x11]q\x12bh\x0ctq"
    b"\x13\x85q\x14Rq\x15."
)


def test_rotations_are_unequal():
    a, b = left_nested(), right_nested()
    assert a != b and b != a
    assert not a == b
    assert len({a, b}) == 2
    assert len({a, b, left_nested(), right_nested()}) == 2


def test_inner_subclass_is_unequal_to_the_base_class():
    base, marked = left_nested(), left_nested(Marked)
    assert base != marked and marked != base
    assert len({base, marked}) == 2
    assert marked == left_nested(Marked)
    assert hash(marked) == hash(left_nested(Marked))
    assert Marked(HAS, FATHER, IS) != ConcatVerb(HAS, FATHER, IS)


@pytest.mark.parametrize("make", (left_nested, right_nested,
                                  lambda: left_nested(Marked)))
@pytest.mark.parametrize("clone", (
    lambda v: pickle.loads(pickle.dumps(v)),
    lambda v: pickle.loads(pickle.dumps(v, protocol=2)),
    copy.copy,
    copy.deepcopy,
))
def test_pickle_and_copy_keep_nesting_and_classes(make, clone):
    v = make()
    again = clone(v)
    assert again == v and hash(again) == hash(v)
    assert repr(again) == repr(v)
    assert type(again.left) is type(v.left)
    assert type(again.right) is type(v.right)


def test_pickle_from_an_earlier_release_loads():
    expected = ConcatVerb(ConcatVerb(HAS, FATHER, IS), MAN, UNIT)
    loaded = pickle.loads(OLD_PICKLE)
    assert loaded == expected
    assert repr(loaded) == repr(expected)
    assert loaded != ConcatVerb(HAS, FATHER, ConcatVerb(IS, MAN, UNIT))
