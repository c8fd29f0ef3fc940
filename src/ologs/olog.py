"""Ologs: a presented category together with its linguistic labeling.

Labels live on generators only; the label of a composite path is always
derived, by concatenating verb phrases through the intermediate noun
phrases and intersecting author sets along the way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .category import Path, PathCategory
from .language import (
    AuthorSet,
    ConcatVerb,
    NounPhrase,
    Sentence,
    UNIT,
    VerbPhrase,
    WHICH,
    equivalence_reading,
    predicate,
)
from .records import record
from .report import ValidationReport


@record
class TypeLabel:
    noun: NounPhrase
    authors: AuthorSet


@record
class AspectLabel:
    verb: VerbPhrase
    authors: AuthorSet


@dataclass
class LinguisticStructure:
    type_labels: dict[str, TypeLabel]
    aspect_labels: dict[str, AspectLabel]
    fact_authors: dict[str, AuthorSet] = field(default_factory=dict)


@dataclass
class Olog:
    name: str
    category: PathCategory
    structure: LinguisticStructure

    def noun(self, obj: str) -> NounPhrase:
        return self.structure.type_labels[obj].noun

    def type_authors(self, obj: str) -> AuthorSet:
        return self.structure.type_labels[obj].authors

    def aspect(self, gen: str) -> AspectLabel:
        return self.structure.aspect_labels[gen]

    @cached_property
    def aspect_predicates(self) -> dict[str, str]:
        """Each generator's predicate, "V N", from one reading of its verb."""
        labels = self.structure.aspect_labels
        return {g.name: predicate(labels[g.name].verb, self.noun(g.target))
                for g in self.category.generators}

    def predicate(self, p: Path) -> str:
        """The predicate of p, a path of this olog: its aspects' predicates
        joined in order, or "is of course" and its object for an identity."""
        if not p.arrows:
            return predicate(UNIT, self.noun(p.source))
        return WHICH.join(map(self.aspect_predicates.__getitem__, p.arrows))


def derived_aspect(o: Olog, p: Path) -> AspectLabel:
    """Verb phrase and author set of a composite path.

    The verb phrase is the left-nested concatenation of the generator
    labels through the intermediate noun phrases; the author set is the
    intersection of the generator author sets.  An identity path yields
    the unit verb phrase endorsed by the authors of its object.
    """
    verb, _ = _derived_verb(o, p)
    return AspectLabel(verb, _authors_along(o, p))


def _derived_verb(o: Olog, p: Path) -> tuple[VerbPhrase, str]:
    """The derived verb phrase of p and its target, from one walk along p."""
    objs = o.category.objects_along(p)
    if p.is_identity:
        return UNIT, p.source
    labels = o.structure.aspect_labels
    verb: VerbPhrase = labels[p.arrows[0]].verb
    for via, name in zip(objs[1:-1], p.arrows[1:]):
        verb = ConcatVerb(verb, o.noun(via), labels[name].verb)
    return verb, objs[-1]


def derived_authors(o: Olog, p: Path) -> AuthorSet:
    """The authors of every generator along p; of its object if p is an
    identity."""
    o.category.objects_along(p)  # raises InvalidPath unless p is a path of o
    return _authors_along(o, p)


def _authors_along(o: Olog, p: Path) -> AuthorSet:
    """derived_authors of a path already known to be a path of o."""
    if p.is_identity:
        return o.type_authors(p.source)
    labels = o.structure.aspect_labels
    auth = labels[p.arrows[0]].authors
    for name in p.arrows[1:]:
        auth = auth & labels[name].authors
    return auth


def derived_sentence(o: Olog, p: Path) -> Sentence:
    subject = o.noun(p.source)
    verb, target = _derived_verb(o, p)
    return Sentence(subject, verb, o.noun(target))


def generator_sentence(o: Olog, gen: str) -> Sentence:
    g = o.category.generator(gen)
    return Sentence(o.noun(g.source), o.aspect(gen).verb, o.noun(g.target))


def validate_olog(o: Olog) -> ValidationReport:
    """Check labeling coverage and all author-subset invariants."""
    report = ValidationReport()
    structure = o.structure
    for obj in o.category.objects:
        if obj not in structure.type_labels:
            report.add("missing-type-label", f"object {obj!r} has no noun phrase")
    for g in o.category.generators:
        label = structure.aspect_labels.get(g.name)
        if label is None:
            report.add("missing-aspect-label",
                       f"generator {g.name!r} has no verb phrase")
            continue
        if g.source in structure.type_labels and g.target in structure.type_labels:
            _endorsed(report, "aspect-author-violation", "aspect", g.name,
                      label.authors, "endpoint types",
                      structure.type_labels[g.source].authors,
                      structure.type_labels[g.target].authors)
    if not report.ok:
        return report
    for eq in o.category.equations:
        fact = structure.fact_authors.get(eq.name)
        if fact is None:
            report.add("missing-fact-authors",
                       f"equation {eq.name!r} has no author set")
            continue
        # PathCategory checked both sides when it was built.
        _endorsed(report, "fact-author-violation", "fact", eq.name, fact,
                  "derived aspects", _authors_along(o, eq.left),
                  _authors_along(o, eq.right))
    return report


def _endorsed(report: ValidationReport, code: str, label: str, key: str,
              authors: AuthorSet, ends: str, one: AuthorSet,
              other: AuthorSet) -> bool:
    """Whether all `authors` of the label at `key` endorse both its ends,
    with author sets `one` and `other`; any others are reported as `code`."""
    extra = authors - (one & other)
    if extra:
        report.add(code, f"authors {sorted(extra)} of {label} {key!r} do "
                         f"not endorse both {ends}")
    return not extra


def read_fact(o: Olog, eq_name: str) -> str:
    eq = o.category.equation(eq_name)
    return equivalence_reading(o.noun(eq.left.source), o.predicate(eq.left),
                               o.predicate(eq.right))


def restrict_to_author(o: Olog, author: str) -> Olog:
    """Sub-olog of everything the given author endorses."""

    def endorsed(labels, key):
        label = labels.get(key)
        return label is not None and author in label.authors

    objects = tuple(
        obj for obj in o.category.objects
        if endorsed(o.structure.type_labels, obj)
    )
    kept_objs = set(objects)
    generators = tuple(
        g for g in o.category.generators
        if (endorsed(o.structure.aspect_labels, g.name)
            and g.source in kept_objs and g.target in kept_objs)
    )
    kept_gens = {g.name for g in generators}
    equations = tuple(
        eq for eq in o.category.equations
        if (author in o.structure.fact_authors.get(eq.name, frozenset())
            and set(eq.left.arrows) <= kept_gens
            and set(eq.right.arrows) <= kept_gens
            and eq.left.source in kept_objs)
    )
    category = PathCategory(objects, generators, equations)
    structure = LinguisticStructure(
        type_labels={obj: o.structure.type_labels[obj] for obj in objects},
        aspect_labels={g.name: o.structure.aspect_labels[g.name]
                       for g in generators},
        fact_authors={eq.name: o.structure.fact_authors[eq.name]
                      for eq in equations},
    )
    return Olog(f"{o.name}/{author}", category, structure)
