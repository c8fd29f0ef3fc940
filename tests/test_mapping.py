"""Olog morphisms, pullbacks, naturality, conformance, search."""

import time

import pytest

from ologs.category import (
    CatFunctor,
    Generator,
    Path,
    PathCategory,
    identity_functor,
    validate_functor,
)
from ologs.dsl import (
    load_olog,
    morphism_from_document,
    olog_from_document,
    parse_mapping,
    parse_olog,
)
from ologs.errors import DanglingReference, InvalidFunctor, SearchSpaceTooLarge
from ologs.instance import Instance, load_bundle, read_table_file
from ologs.language import AtomicVerb, UNIT, authors, read_verb
from ologs.mapping import (
    InstanceMorphism,
    OlogMorphism,
    cartesian_morphism,
    check_co_instantiated,
    check_conformance,
    check_naturality,
    component_table_header,
    correspondence_pairs,
    pullback_instance,
    pullback_olog,
    pullback_structure,
    search_conforming,
    validate_linguistic_functor,
)
from ologs.olog import AspectLabel, validate_olog


def load_map(fixtures, name):
    text = (fixtures / name).read_text(encoding="utf-8")
    doc = parse_mapping(text)
    source = load_olog(fixtures / doc.source_ref)
    target = load_olog(fixtures / doc.target_ref)
    return doc, morphism_from_document(doc, source, target)


@pytest.fixture
def weight_f(fixtures):
    return load_map(fixtures, "weight_F.map")[1]


@pytest.fixture
def weight_g(fixtures):
    return load_map(fixtures, "weight_G.map")[1]


class TestPullbackStructure:
    def test_along_f_gives_animal_and_number(self, weight_f):
        pulled = pullback_olog(weight_f.functor, weight_f.target)
        assert str(pulled.noun("man")) == "an animal"
        assert str(pulled.noun("obj")) == "a number"
        assert read_verb(pulled.aspect("is").verb) == \
            "has as weight (in kilograms)"
        assert validate_olog(pulled).ok

    def test_along_g_keeps_source_label_verbatim(self, weight_g):
        pulled = pullback_olog(weight_g.functor, weight_g.target)
        assert str(pulled.noun("man")) == "a woman"
        assert str(pulled.noun("obj")) == "a number between 20 and 500"
        assert read_verb(pulled.aspect("is").verb) == \
            "has as weight (in kilograms)"

    def test_identity_pullback_preserves_labels(self, weight_f):
        m = weight_f.target
        structure = pullback_structure(identity_functor(m.category), m)
        assert structure.type_labels == m.structure.type_labels
        assert structure.aspect_labels == m.structure.aspect_labels

    def test_functor_target_must_match(self, weight_f):
        with pytest.raises(InvalidFunctor):
            pullback_structure(identity_functor(weight_f.source.category),
                               weight_f.target)

    def test_pulled_fact_authors_are_intersections(self, fixtures):
        weight = load_olog(fixtures / "weight.olog")
        structure = pullback_structure(identity_functor(weight.category), weight)
        assert structure.fact_authors == {"square": authors("S")}


class TestLinguisticFunctor:
    def test_marriage_mapping_validates_cleanly(self, fixtures):
        _, m = load_map(fixtures, "marriage.map")
        report = validate_linguistic_functor(m)
        assert report.ok and not report.warnings

    def test_weight_f_validates_cleanly(self, weight_f):
        report = validate_linguistic_functor(weight_f)
        assert report.ok and not report.warnings

    def test_weight_g_warns_on_empty_square(self, weight_g):
        report = validate_linguistic_functor(weight_g)
        assert report.ok
        assert [w.code for w in report.warnings] == ["empty-square-authors"]

    def test_component_author_violation(self, weight_f):
        weight_f.components["man"] = AspectLabel(
            AtomicVerb("is"), authors("S", "Z"))
        report = validate_linguistic_functor(weight_f)
        assert [f.code for f in report.findings] == [
            "component-author-violation"
        ]

    def test_missing_component(self, weight_f):
        del weight_f.components["obj"]
        report = validate_linguistic_functor(weight_f)
        assert [f.code for f in report.findings] == ["missing-component"]

    def test_square_author_violation(self, weight_f):
        weight_f.square_authors["is"] = authors("S", "Z")
        report = validate_linguistic_functor(weight_f)
        assert [f.code for f in report.findings] == ["square-author-violation"]

    def test_square_orientation_symmetry(self, weight_f):
        """Swapping a declared square's fact orientation changes nothing."""
        report1 = validate_linguistic_functor(weight_f)
        flipped = OlogMorphism(
            weight_f.source, weight_f.target, weight_f.functor,
            dict(weight_f.components), dict(weight_f.square_authors),
        )
        report2 = validate_linguistic_functor(flipped)
        assert report1.findings == report2.findings

    def test_component_sentence(self, weight_f):
        from ologs.language import read_sentence

        assert read_sentence(weight_f.component_sentence("man")) == \
            "a man is an animal"


def test_cartesian_morphism_validates(weight_f):
    lift = cartesian_morphism(weight_f.functor, weight_f.target)
    assert all(label.verb == UNIT for label in lift.components.values())
    report = validate_linguistic_functor(lift)
    assert report.ok
    assert validate_olog(lift.source).ok


class TestPullbackInstance:
    def test_tokens_copied_along_objects(self, fixtures):
        _, m = load_map(fixtures, "merge_is.map")
        j = load_bundle(fixtures / "data" / "person", m.target)
        pulled = pullback_instance(m.functor, j)
        assert pulled.token_set("h") == j.token_set("a")
        assert validate_instance_ok(pulled)

    def test_functions_evaluate_along_images(self, fixtures):
        father = load_olog(fixtures / "father.olog")
        j = load_bundle(fixtures / "data" / "bush", father)
        src = PathCategory(("p", "q"), (Generator("dad", "p", "q"),))
        f = CatFunctor(src, father.category,
                       {"p": "person", "q": "father"},
                       {"dad": Path("person", ("has",))})
        pulled = pullback_instance(f, j)
        assert pulled.functions["dad"]["Emmy Noether"] == "Max Noether"
        assert pulled.token_set("q") == j.token_set("father")

    def test_identity_pullback(self, fixtures):
        father = load_olog(fixtures / "father.olog")
        j = load_bundle(fixtures / "data" / "bush", father)
        pulled = pullback_instance(identity_functor(father.category), j)
        assert pulled.tokens == j.tokens
        assert pulled.functions == j.functions

    def test_collapsing_functor_shares_tokens(self, fixtures):
        father = load_olog(fixtures / "father.olog")
        j = load_bundle(fixtures / "data" / "bush", father)
        src = PathCategory(("p", "q"), ())
        f = CatFunctor(src, father.category,
                       {"p": "person", "q": "person"}, {})
        pulled = pullback_instance(f, j)
        assert pulled.token_set("p") == pulled.token_set("q")


def validate_instance_ok(inst):
    from ologs.instance import validate_instance

    return validate_instance(inst).ok


def merge_setup(fixtures, map_name):
    doc, m = load_map(fixtures, map_name)
    i = load_bundle(fixtures / "data" / "human", m.source)
    j = load_bundle(fixtures / "data" / "person", m.target)
    table = read_table_file(fixtures / doc.tables["h"])
    assert table.header == component_table_header(m, "h")
    return m, i, j, {"h": correspondence_pairs(table)}


class TestSearch:
    def test_is_component_has_unique_survivor(self, fixtures):
        m, i, j, corr = merge_setup(fixtures, "merge_is.map")
        count, survivors = search_conforming(m, i, j, corr)
        assert count == 25
        assert len(survivors) == 1
        assert survivors[0].component_functions["h"] == {
            "Emmy Noether": "Emmy Noether",
            "George W. Bush": "George W. Bush",
        }

    def test_father_component_has_unique_survivor(self, fixtures):
        m, i, j, corr = merge_setup(fixtures, "merge_father.map")
        count, survivors = search_conforming(m, i, j, corr)
        assert count == 25
        assert len(survivors) == 1
        assert survivors[0].component_functions["h"] == {
            "Emmy Noether": "Max Noether",
            "George W. Bush": "George H. W. Bush",
        }

    def test_limit_enforced(self, fixtures):
        m, i, j, corr = merge_setup(fixtures, "merge_is.map")
        with pytest.raises(SearchSpaceTooLarge) as exc:
            search_conforming(m, i, j, corr, limit=10)
        assert exc.value.count == 25

    def test_empty_source_has_one_trivial_survivor(self, fixtures):
        m, _, j, corr = merge_setup(fixtures, "merge_is.map")
        empty = Instance(m.source, {"h": ()}, {})
        count, survivors = search_conforming(m, empty, j, corr)
        assert count == 1
        assert len(survivors) == 1
        assert survivors[0].component_functions == {"h": {}}

    def test_survivors_pass_both_checks(self, fixtures):
        m, i, j, corr = merge_setup(fixtures, "merge_father.map")
        _, survivors = search_conforming(m, i, j, corr)
        for p in survivors:
            assert check_naturality(p).ok
            assert check_conformance(p).ok


def ring_search(tokens, target_tokens, correspondences):
    """Search along the identity of a one-type olog whose aspect s sends
    each token to the next one, cyclically, in both instances."""
    ring = olog_from_document(parse_olog(
        'olog "ring"\n'
        'type a = "a token" by {S}\n'
        'aspect s : a -> a = "precedes" by {S}\n'
    ))

    def cycle(toks):
        return Instance(ring, {"a": toks}, {"s": {
            t: toks[(n + 1) % len(toks)] for n, t in enumerate(toks)}})

    m = OlogMorphism(ring, ring, identity_functor(ring.category),
                     {"a": AspectLabel(UNIT, authors("S"))})
    return search_conforming(m, cycle(tokens), cycle(target_tokens),
                             {"a": frozenset(correspondences)})


class TestSearchPruning:
    def test_seven_tokens_identity_mapping(self):
        tokens = tuple(f"t{n}" for n in range(7))
        start = time.perf_counter()
        count, survivors = ring_search(tokens, tokens,
                                       ((t, t) for t in tokens))
        elapsed = time.perf_counter() - start
        assert count == 7 ** 7
        assert [p.component_functions for p in survivors] == [
            {"a": {t: t for t in tokens}}
        ]
        assert elapsed < 1.0
        # With every pair declared, the survivors are the maps that
        # commute with the cycle: its seven rotations, in order.
        _, survivors = ring_search(
            tokens, tokens, ((x, y) for x in tokens for y in tokens))
        assert [p.component_functions["a"] for p in survivors] == [
            {t: tokens[(n + r) % 7] for n, t in enumerate(tokens)}
            for r in range(7)
        ]

    def test_many_tokens_onto_one(self):
        tokens = tuple(f"t{n:04d}" for n in range(5000))
        count, survivors = ring_search(tokens, ("only",),
                                       ((t, "only") for t in tokens))
        assert count == 1
        assert len(survivors) == 1
        assert set(survivors[0].component_functions["a"].values()) == {"only"}


class TestNaturalityAndConformance:
    def make_morphism(self, fixtures, components):
        father = load_olog(fixtures / "father.olog")
        j = load_bundle(fixtures / "data" / "bush", father)
        i = Instance(
            father,
            tokens={"person": ("e", "g"), "father": ("max", "ghw")},
            functions={"has": {"e": "max", "g": "ghw"}},
        )
        m = OlogMorphism(
            father, father, identity_functor(father.category),
            components={
                "person": AspectLabel(UNIT, authors("S")),
                "father": AspectLabel(UNIT, authors("S")),
            },
        )
        return InstanceMorphism(i, j, m, components)

    def test_natural_components_pass(self, fixtures):
        p = self.make_morphism(fixtures, {
            "person": {"e": "Emmy Noether", "g": "George W. Bush"},
            "father": {"max": "Max Noether", "ghw": "George H. W. Bush"},
        })
        assert check_naturality(p).ok

    def test_one_perturbed_entry_one_violation(self, fixtures):
        p = self.make_morphism(fixtures, {
            "person": {"e": "Emmy Noether", "g": "George W. Bush"},
            "father": {"max": "Bill Clinton", "ghw": "George H. W. Bush"},
        })
        report = check_naturality(p)
        assert [f.code for f in report.findings] == ["naturality-violation"]
        assert "'e'" in report.findings[0].message

    def test_component_totality_and_range(self, fixtures):
        p = self.make_morphism(fixtures, {
            "person": {"e": "Emmy Noether"},
            "father": {"max": "Nobody", "ghw": "George H. W. Bush"},
        })
        codes = {f.code for f in check_naturality(p).findings}
        assert codes == {"component-totality", "component-range"}

    def test_unendorsed_pair_flagged(self, fixtures):
        p = self.make_morphism(fixtures, {
            "person": {"e": "Emmy Noether", "g": "George W. Bush"},
            "father": {"max": "Max Noether", "ghw": "George H. W. Bush"},
        })
        p.declared_correspondences = {
            "person": frozenset({("e", "Emmy Noether"),
                                 ("g", "George W. Bush")}),
            "father": frozenset({("max", "Max Noether")}),
        }
        report = check_conformance(p)
        assert [f.code for f in report.findings] == [
            "unendorsed-correspondence"
        ]


class TestCoInstantiated:
    def setup_inclusion(self, fixtures):
        """person1 included into the father olog via a -> person."""
        person = load_olog(fixtures / "person1.olog")
        father = load_olog(fixtures / "father.olog")
        functor = CatFunctor(person.category, father.category,
                             {"a": "person"}, {})
        m = OlogMorphism(person, father, functor,
                         {"a": AspectLabel(UNIT, authors("S"))})
        i = Instance(person, {"a": ("George W. Bush", "Emmy Noether")}, {})
        j = load_bundle(fixtures / "data" / "bush", father)
        return m, i, j

    def test_restriction_passes(self, fixtures):
        m, i, j = self.setup_inclusion(fixtures)
        q = {"a": {"George W. Bush": "George W. Bush",
                   "Jeb Bush": "George W. Bush",
                   "Emmy Noether": "Emmy Noether"}}
        corr = {"a": frozenset((x, y) for x, y in q["a"].items())}
        assert check_co_instantiated(m, q, corr, i, j).ok

    def test_totality_over_target_tokens(self, fixtures):
        m, i, j = self.setup_inclusion(fixtures)
        q = {"a": {"George W. Bush": "George W. Bush"}}
        report = check_co_instantiated(m, q, {}, i, j)
        assert "component-totality" in {f.code for f in report.findings}

    def setup_self_map(self, fixtures):
        """The fatherhood olog onto itself by the identity, bush data on
        both sides, identity pairs declared."""
        father = load_olog(fixtures / "father.olog")
        m = OlogMorphism(father, father, identity_functor(father.category),
                         {c: AspectLabel(UNIT, authors("S"))
                          for c in father.category.objects})
        data = load_bundle(fixtures / "data" / "bush", father)
        q = {c: {t: t for t in data.token_set(c)}
             for c in father.category.objects}
        corr = {c: frozenset(q[c].items()) for c in q}
        return m, q, corr, data

    def test_naturality_and_conformance_both_reported(self, fixtures):
        m, q, corr, data = self.setup_self_map(fixtures)
        q["person"]["Jeb Bush"] = "Emmy Noether"
        report = check_co_instantiated(m, q, corr, data, data)
        assert [(f.code, f.message) for f in report.findings] == [
            ("naturality-violation",
             "square at generator 'has' fails on token 'Jeb Bush'"),
            ("unendorsed-correspondence",
             "pair ('Jeb Bush', 'Emmy Noether') at 'person' is not declared"),
        ]

    def test_component_range_stops_the_check(self, fixtures):
        m, q, corr, data = self.setup_self_map(fixtures)
        q["person"]["Jeb Bush"] = "Nobody"
        report = check_co_instantiated(m, q, corr, data, data)
        assert [(f.code, f.message) for f in report.findings] == [
            ("component-range",
             "component at 'person' sends 'Jeb Bush' outside the target "
             "tokens"),
        ]

    def test_empty_instances_pass_vacuously(self, fixtures):
        m, _, _ = self.setup_inclusion(fixtures)
        empty_i = Instance(m.source, {"a": ()}, {})
        empty_j = Instance(m.target, {}, {})
        assert check_co_instantiated(m, {}, {}, empty_i, empty_j).ok


def father_self_map(fixtures, person_image, father_image):
    """father.olog into itself, with `has` sent to an identity."""
    doc = parse_mapping('mapping "m"\n'
                        f"object person -> {person_image}\n"
                        f"object father -> {father_image}\n"
                        "aspect has -> [1]\n")
    olog = load_olog(fixtures / "father.olog")
    return morphism_from_document(doc, olog, olog)


class TestIdentityImage:
    def test_passes_when_both_ends_meet(self, fixtures):
        m = father_self_map(fixtures, "person", "person")
        assert m.functor.generator_map["has"] == Path("person")
        assert validate_functor(m.functor).ok

    def test_endpoint_violation_otherwise(self, fixtures):
        m = father_self_map(fixtures, "person", "father")
        report = validate_functor(m.functor)
        assert [f.code for f in report.findings] == ["endpoint-violation"]

    def test_unknown_target_object(self, fixtures):
        with pytest.raises(DanglingReference,
                           match="unknown target object 'nobody'"):
            father_self_map(fixtures, "person", "nobody")
