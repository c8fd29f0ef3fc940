"""Branches that the other suites never run: completion's step budget,
the functor errors, the record decorator's refusals, a one-column
correspondence table, a verb tree with a leaf that is not a verb, and
the author restriction's fact filter.  Also: a category whose
completion is built still pickles and copies.
"""

import copy
import pickle
import random
from dataclasses import field
from typing import ClassVar

import pytest

from ologs import category
from ologs.category import (
    CatFunctor,
    Path,
    compose_functors,
    identity_functor,
    validate_functor,
)
from ologs.dsl import olog_from_document, parse_olog
from ologs.errors import InvalidFunctor, UnknownObject
from ologs.instance import InstanceTable
from ologs.language import AtomicVerb, ConcatVerb, NounPhrase, read_verb
from ologs.mapping import correspondence_pairs
from ologs.olog import restrict_to_author
from ologs.records import record

import randgen
from test_completion import two_loops


def swap_loops():
    """a;a = 1 into itself, with a and b swapped: its image b;b = 1
    does not hold in the target."""
    cat = two_loops((("a", "a"), ()))
    return CatFunctor(cat, two_loops((("a", "a"), ())), {"x": "x"},
                      {"a": Path("x", ("b",)), "b": Path("x", ("a",))})


class TestStepBudget:
    # a;a = 1 completes in three steps: the equation, then the two
    # overlaps of a;a with itself, each of which reduces to a = a.
    def test_completion_gives_up_past_its_step_cap(self, monkeypatch):
        assert two_loops((("a", "a"), ())).rewriting() is not None
        monkeypatch.setattr(category, "_STEPS_PER_EQUATION", 3)
        assert two_loops((("a", "a"), ())).rewriting() is not None
        monkeypatch.setattr(category, "_STEPS_PER_EQUATION", 2)
        assert two_loops((("a", "a"), ())).rewriting() is None

    def test_validate_functor_names_the_bound_after_a_step_give_up(
            self, monkeypatch):
        assert [f.message for f in validate_functor(swap_loops()).findings] \
            == ["image of equation 'e0' does not hold in the target"]
        monkeypatch.setattr(category, "_STEPS_PER_EQUATION", 1)
        f = swap_loops()
        report = validate_functor(f, bound=3)
        assert f.target.rewriting() is None
        assert [(x.code, x.message) for x in report.findings] == [
            ("equation-not-preserved",
             "image of equation 'e0' not proved equal within bound 3")]

    def test_random_categories_give_up_on_steps(self, monkeypatch):
        def give_ups():
            count = 0
            for seed in range(4004, 4104):
                cat = randgen.random_category(random.Random(seed),
                                              max_equations=4)
                count += bool(cat.equations) and cat.rewriting() is None
            return count

        default = give_ups()
        monkeypatch.setattr(category, "_STEPS_PER_EQUATION", 1)
        assert give_ups() > default


class TestFunctorErrors:
    def test_apply_object_outside_the_object_map(self):
        f = identity_functor(two_loops())
        with pytest.raises(UnknownObject):
            f.apply_object("y")
        with pytest.raises(UnknownObject):
            f.apply(Path("y"))

    def test_functors_that_do_not_compose(self):
        f = identity_functor(two_loops())
        g = identity_functor(two_loops((("a",), ("b",))))
        with pytest.raises(InvalidFunctor, match="not composable"):
            compose_functors(f, g)
        assert compose_functors(f, identity_functor(two_loops())).source \
            is f.source

    def test_object_image_outside_the_target(self):
        cat = two_loops()
        f = CatFunctor(cat, cat, {"x": "y"},
                       {"a": Path("x", ("a",)), "b": Path("x", ("b",))})
        findings = validate_functor(f).findings
        assert [(x.code, x.message) for x in findings][0] == (
            "bad-object-image", "object 'x' maps to unknown object 'y'")


class TestRecordRefusals:
    def test_field_default(self):
        with pytest.raises(TypeError, match="plain default"):
            @record
            class WithField:
                xs: tuple = field(default=())

    def test_inherited_field(self):
        @record
        class Base:
            x: int

        with pytest.raises(TypeError, match="its own body annotates"):
            @record
            class Derived(Base):
                y: int

    def test_class_variable(self):
        with pytest.raises(TypeError, match="its own body annotates"):
            @record
            class WithClassVar:
                x: int
                limit: ClassVar[int] = 3


def test_one_column_correspondence_table():
    table = InstanceTable(("a man",), (("Bob",),))
    with pytest.raises(ValueError, match="two columns"):
        correspondence_pairs(table)


def test_read_verb_refuses_a_leaf_that_is_not_a_verb():
    verb = ConcatVerb(AtomicVerb("has"), NounPhrase("a father"), 7)
    with pytest.raises(TypeError):
        read_verb(verb)


def test_restriction_drops_an_endorsed_fact_over_an_unendorsed_aspect():
    o = olog_from_document(parse_olog(
        'olog "o"\n'
        'type a = "an a" by {A, B}\n'
        'type b = "a b" by {A, B}\n'
        'aspect f : a -> b = "has" by {A, B}\n'
        'aspect g : a -> b = "gives" by {B}\n'
        'fact e : [f] ~ [g] by {A, B}\n'))
    restricted = restrict_to_author(o, "A")
    assert [g.name for g in restricted.category.generators] == ["f"]
    assert restricted.category.equations == ()
    assert restricted.structure.fact_authors == {}
    assert [eq.name for eq in restrict_to_author(o, "B").category.equations] \
        == ["e"]


@pytest.mark.parametrize("equations", [
    ((("a", "a"), ()), (("b", "a"), ("a", "b"))),  # completes
    ((("b", "b"), ("b", "a")),),                   # gives up
])
def test_category_with_built_completion_pickles_and_copies(equations):
    cat = two_loops(*equations)
    system = cat.rewriting()
    words = [("a", "b", "a", "a", "b"), ("b", "b", "b"), ()]
    for clone in (pickle.loads(pickle.dumps(cat)), copy.copy(cat),
                  copy.deepcopy(cat)):
        assert clone == cat
        if system is None:
            assert clone.rewriting() is None
            continue
        assert clone.rewriting() is clone.rewriting()
        assert ([clone.rewriting().normal_form(w) for w in words]
                == [system.normal_form(w) for w in words])
