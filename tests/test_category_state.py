"""A category's fields are its presentation, and its lazy state copies.

`PathCategory`'s dataclass fields are `objects`, `generators` and
`equations`; its indexes, its completion and its rewrite-rule index are
derived from them.  A category with both lazy structures built (the
completion, and the rule index of the bounded search) equals each of its
pickled, shallow-copied and deep-copied clones, and each clone answers
`path_equal` as the original does.
"""

import copy
import dataclasses
import pickle

import pytest

from ologs.category import Path, PathCategory
from test_completion import two_loops


def test_fields_are_the_presentation():
    assert [f.name for f in dataclasses.fields(PathCategory)] == [
        "objects", "generators", "equations"]


CLONES = {
    "pickle": lambda c: pickle.loads(pickle.dumps(c)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}
BBB, BAA = Path("x", ("b", "b", "b")), Path("x", ("b", "a", "a"))


def answers(category):
    return [category.path_equal(BBB, BAA, bound) for bound in (1, 2)]


@pytest.mark.parametrize("clone", sorted(CLONES))
@pytest.mark.parametrize("equation, completes, rewrite", [
    ((("b", "b"), ("b", "a")), False, (BBB, BAA)),
    ((("a", "a"), ()), True, (Path("x", ("a", "a")), Path("x"))),
], ids=["gives-up", "completes"])
def test_a_category_with_both_lazy_structures_round_trips(
        clone, equation, completes, rewrite):
    category = two_loops(equation)
    assert (category.rewriting() is not None) == completes
    assert category.path_equal(*rewrite, 2)
    assert "_completion" in vars(category) and "_rules" in vars(category)
    made = CLONES[clone](category)
    assert made == category
    assert answers(made) == answers(category)
    if not completes:
        assert answers(category) == [False, True]
