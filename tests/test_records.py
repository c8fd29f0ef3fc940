"""The record contract: value records are slotted frozen dataclasses,
and olog declarations are named tuples.

Every frozen dataclass in `ologs` is found by walking the package, and
each needs an example below, so a new record is covered when it is
added.  A record refuses assignment, has no instance __dict__, and
survives copy.copy, copy.deepcopy and a pickle round trip as an equal
object with an equal hash; a composite verb along a 1,200-arrow path
does too.  Declarations are immutable, never equal across kinds, read
alike by the line patterns and the token parser, and round-trip
through serialize_olog.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import random

import pytest

import ologs
from conftest import FIXTURES
from ologs.category import Equation, Generator, Path
from ologs.dsl import (
    AspectDecl,
    FactDecl,
    OlogDocument,
    Token,
    TypeDecl,
    _declaration,
    _header,
    _nonblank_lines,
    olog_from_document,
    parse_olog,
    serialize_olog,
)
from ologs.instance import InstanceTable
from ologs.language import (
    UNIT,
    AtomicVerb,
    ConcatVerb,
    NounPhrase,
    Sentence,
    read_verb,
)
from ologs.olog import AspectLabel, TypeLabel, derived_aspect
from ologs.report import Finding
from randgen import random_olog_document


def frozen_dataclasses():
    """Every frozen dataclass defined in a module of the package."""
    found = {}
    for info in pkgutil.iter_modules(ologs.__path__):
        module = importlib.import_module(f"ologs.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and dataclasses.is_dataclass(value)
                    and value.__dataclass_params__.frozen):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


A_X, A_Y = NounPhrase("a x"), NounPhrase("an y")
HAS = AtomicVerb("has")
EXAMPLES = {
    "ologs.category.Generator": Generator("f", "x", "y"),
    "ologs.category.Path": Path("x", ("f", "g")),
    "ologs.category.Equation": Equation("e", Path("x", ("f",)),
                                        Path("x", ("g",))),
    "ologs.dsl.Token": Token("WORD", "type", 1, 5),
    "ologs.instance.InstanceTable": InstanceTable(("a x",), (("t",),)),
    "ologs.language.NounPhrase": A_X,
    "ologs.language.UnitVerb": UNIT,
    "ologs.language.AtomicVerb": HAS,
    "ologs.language.ConcatVerb": ConcatVerb(HAS, A_Y, ConcatVerb(UNIT, A_X,
                                                                 HAS)),
    "ologs.language.Sentence": Sentence(A_X, HAS, A_Y),
    "ologs.olog.TypeLabel": TypeLabel(A_X, frozenset({"A", "B"})),
    "ologs.olog.AspectLabel": AspectLabel(HAS, frozenset({"A"})),
    "ologs.report.Finding": Finding("code", "message"),
}
RECORDS = frozen_dataclasses()


def round_trips(value):
    return [copy.copy(value), copy.deepcopy(value),
            pickle.loads(pickle.dumps(value))]


def test_every_frozen_dataclass_has_an_example():
    assert sorted(RECORDS) == sorted(EXAMPLES)
    for name, cls in RECORDS.items():
        assert type(EXAMPLES[name]) is cls


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_fields_refuse_assignment(name):
    value = EXAMPLES[name]
    before = repr(value)
    for field in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, field.name)
    assert repr(value) == before


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_records_are_slotted(name):
    value = EXAMPLES[name]
    assert not hasattr(value, "__dict__")
    assert "__slots__" in vars(type(value))
    # The frozen __setattr__ of a slotted class raises TypeError for a
    # name that is not a field, on every Python from 3.10 to 3.13.
    with pytest.raises((dataclasses.FrozenInstanceError, AttributeError,
                        TypeError)):
        value.not_a_field = 1


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_copies_and_pickles_are_equal(name):
    value = EXAMPLES[name]
    for other in round_trips(value):
        assert type(other) is type(value)
        assert other == value
        assert hash(other) == hash(value)
        assert eval(repr(other),
                    {c.__name__: c for c in RECORDS.values()}) == value


def test_long_composite_verb_copies_and_pickles():
    n = 1200
    lines = ['olog "chain"']
    lines += [f'type t{i} = "a thing number {i}" by {{A}}'
              for i in range(n + 1)]
    lines += [f'aspect a{i} : t{i - 1} -> t{i} = "leads to" by {{A}}'
              for i in range(1, n + 1)]
    o = olog_from_document(parse_olog("\n".join(lines) + "\n"))
    path = Path("t0", tuple(f"a{i}" for i in range(1, n + 1)))
    verb = derived_aspect(o, path).verb
    # Nested to the right as well as to the left.
    verb = ConcatVerb(HAS, A_X, verb)
    for other in round_trips(verb):
        assert type(other) is ConcatVerb
        assert other == verb
        assert hash(other) == hash(verb)
        assert read_verb(other) == read_verb(verb)


class Atomic2(AtomicVerb):
    pass


class Concat2(ConcatVerb):
    pass


def test_subclasses_copy_and_pickle_as_themselves():
    v = Concat2(Atomic2("is"), A_X, ConcatVerb(HAS, A_Y, Atomic2("was")))
    for other in round_trips(v):
        assert type(other) is Concat2
        assert type(other.left) is Atomic2
        assert type(other.right.right) is Atomic2
        assert other == v and hash(other) == hash(v)


DECLARATIONS = [
    TypeDecl("x", "a x", ("A",)),
    AspectDecl("x", "x", "y", "has", ("A",)),
    FactDecl("x", ("f",), None, ("A",)),
]


@pytest.mark.parametrize("decl", DECLARATIONS, ids=lambda d: type(d).__name__)
def test_declarations_are_immutable(decl):
    for field_name in decl._fields:
        with pytest.raises(AttributeError):
            setattr(decl, field_name, "y")
    with pytest.raises(TypeError):
        decl[0] = "y"
    with pytest.raises(AttributeError):
        decl.extra = 1
    assert not hasattr(decl, "__dict__")
    assert repr(decl).startswith(f"{type(decl).__name__}(name='x', ")


def test_declarations_of_different_kinds_are_never_equal():
    rng = random.Random(13)
    words = ["x", "a x", "has", "f", ("f",), (), ("A",), None]
    made = []
    for _ in range(300):
        for kind in (TypeDecl, AspectDecl, FactDecl):
            made.append(kind(*(rng.choice(words) for _ in kind._fields)))
    for a in made:
        for b in made[:60]:
            if type(a) is not type(b):
                assert a != b and not a == b


def token_reading(text):
    """parse_olog as the token parser alone reads the text."""
    lines = _nonblank_lines(text)
    doc = OlogDocument(_header(lines, "olog"))
    kinds = {TypeDecl: doc.types, AspectDecl: doc.aspects,
             FactDecl: doc.facts}
    for lp in lines[1:]:
        decl = _declaration(lp)
        kinds[type(decl)].append(decl)
    return doc


def assert_same_reading(text):
    doc = parse_olog(text)
    assert doc == token_reading(text)
    for decls, kind in ((doc.types, TypeDecl), (doc.aspects, AspectDecl),
                        (doc.facts, FactDecl)):
        assert all(type(d) is kind for d in decls)
    return doc


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.olog")),
                         ids=lambda p: p.name)
def test_fixtures_read_as_the_token_parser_reads_them(path):
    assert_same_reading(path.read_text(encoding="utf-8"))


def test_random_ologs_read_alike_and_round_trip():
    for seed in range(200):
        doc = random_olog_document(random.Random(seed))
        text = serialize_olog(doc)
        parsed = assert_same_reading(text)
        assert parsed == doc
        assert serialize_olog(parsed) == text
