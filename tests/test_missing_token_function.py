"""A source token function that lacks a token raises MissingMapping.

check_naturality and search_conforming evaluate each generator on the
source tokens as path_table does, so a gap in a source function names
the function and the token, as validate_instance and pullback_instance
do, instead of escaping as a bare KeyError.
"""

import pytest

from ologs.category import identity_functor
from ologs.dsl import load_olog
from ologs.errors import MissingMapping
from ologs.instance import Instance, load_bundle
from ologs.language import UNIT, authors
from ologs.mapping import (
    InstanceMorphism,
    OlogMorphism,
    check_naturality,
    search_conforming,
)
from ologs.olog import AspectLabel

MESSAGE = "token function of 'has' has no entry for 'g'"


@pytest.fixture
def father_self_map(fixtures):
    """The identity on father.olog, from a two-person instance whose
    `has` lacks "g" to the Bush bundle."""
    father = load_olog(fixtures / "father.olog")
    j = load_bundle(fixtures / "data" / "bush", father)
    i = Instance(
        father,
        tokens={"person": ("e", "g"), "father": ("max", "ghw")},
        functions={"has": {"e": "max"}},
    )
    m = OlogMorphism(
        father, father, identity_functor(father.category),
        components={
            "person": AspectLabel(UNIT, authors("S")),
            "father": AspectLabel(UNIT, authors("S")),
        },
    )
    return m, i, j


def test_check_naturality_names_the_missing_token(father_self_map):
    m, i, j = father_self_map
    p = InstanceMorphism(i, j, m, {
        "person": {"e": "Emmy Noether", "g": "George W. Bush"},
        "father": {"max": "Max Noether", "ghw": "George H. W. Bush"},
    })
    with pytest.raises(MissingMapping, match=MESSAGE):
        check_naturality(p)


def test_search_conforming_names_the_missing_token(father_self_map):
    m, i, j = father_self_map
    correspondences = {
        "person": frozenset({("e", "Emmy Noether"),
                             ("g", "George W. Bush")}),
        "father": frozenset({("max", "Max Noether"),
                             ("ghw", "George H. W. Bush")}),
    }
    with pytest.raises(MissingMapping, match=MESSAGE):
        search_conforming(m, i, j, correspondences)
