"""Mappings between ologs and between their instances.

An olog morphism is a functor between the underlying categories plus a
component aspect per source object and a square fact per source
generator.  Instance morphisms are per-object token functions, checked
for naturality and for conformance against declared correspondence
tables; conformance can never be inferred, only checked against what
authors have declared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from .category import (
    CatFunctor,
    DEFAULT_BOUND,
    Path,
    identity_functor,
    validate_functor,
)
from .errors import InvalidFunctor, OlogError, SearchSpaceTooLarge
from .language import AuthorSet, Sentence, UNIT, correspondence_header
from .olog import (
    AspectLabel,
    LinguisticStructure,
    Olog,
    _endorsed,
    derived_aspect,
    derived_authors,
)
from .instance import (Instance, InstanceTable, _compose, _load_plain,
                       _mismatches, path_table, read_table_file)
from .report import ValidationReport

DEFAULT_SEARCH_LIMIT = 10 ** 6


@dataclass
class OlogMorphism:
    source: Olog
    target: Olog
    functor: CatFunctor
    components: dict[str, AspectLabel]
    square_authors: dict[str, AuthorSet] = field(default_factory=dict)

    def component_sentence(self, obj: str) -> Sentence:
        """The sentence read off a component: L(c) noun, component verb, M(Fc) noun."""
        comp = self.components[obj]
        return Sentence(
            self.source.noun(obj),
            comp.verb,
            self.target.noun(self.functor.apply_object(obj)),
        )


def pullback_structure(f: CatFunctor, target_olog: Olog) -> LinguisticStructure:
    """The linguistic structure on f.source obtained by relabeling along f."""
    if f.target != target_olog.category:
        raise InvalidFunctor("functor target does not match the labeled category")
    type_labels = {
        c: target_olog.structure.type_labels[f.apply_object(c)]
        for c in f.source.objects
    }
    aspect_labels = {}
    for g in f.source.generators:
        image = f.apply(Path(g.source, (g.name,)))
        aspect_labels[g.name] = derived_aspect(target_olog, image)
    fact_authors = {}
    for eq in f.source.equations:
        fact_authors[eq.name] = (
            derived_authors(target_olog, f.apply(eq.left))
            & derived_authors(target_olog, f.apply(eq.right))
        )
    return LinguisticStructure(type_labels, aspect_labels, fact_authors)


def pullback_olog(f: CatFunctor, target_olog: Olog, name: str | None = None) -> Olog:
    return Olog(
        name or f"{target_olog.name}.pullback",
        f.source,
        pullback_structure(f, target_olog),
    )


def cartesian_morphism(f: CatFunctor, target_olog: Olog) -> OlogMorphism:
    """The morphism (C, f*(M)) -> (D, M) with unit components.

    Component and square author sets are the largest ones the subset
    invariants allow.
    """
    pulled = pullback_olog(f, target_olog)
    components = {
        c: AspectLabel(UNIT, pulled.type_authors(c)) for c in f.source.objects
    }
    square_authors = {}
    for g in f.source.generators:
        square_authors[g.name] = (
            pulled.aspect(g.name).authors
            & components[g.target].authors
            & components[g.source].authors
        )
    return OlogMorphism(pulled, target_olog, f, components, square_authors)


def validate_linguistic_functor(
    m: OlogMorphism, bound: int = DEFAULT_BOUND
) -> ValidationReport:
    """Check the functor, component-author, and square-author invariants."""
    report = validate_functor(m.functor, bound)
    if not report.ok:
        return report
    src, dst, f = m.source, m.target, m.functor
    for c in src.category.objects:
        comp = m.components.get(c)
        if comp is None:
            report.add("missing-component", f"object {c!r} has no component aspect")
            continue
        _endorsed(report, "component-author-violation", "component at", c,
                  comp.authors, "types", src.type_authors(c),
                  dst.type_authors(f.apply_object(c)))
    if not report.ok:
        return report
    for g in src.category.generators:
        fact = m.square_authors.get(g.name, frozenset())
        image = f.apply(Path(g.source, (g.name,)))
        down_then_across = (
            src.aspect(g.name).authors & m.components[g.target].authors
        )
        across_then_down = (
            m.components[g.source].authors & derived_authors(dst, image)
        )
        if _endorsed(report, "square-author-violation", "the square at",
                     g.name, fact, "composite aspects", down_then_across,
                     across_then_down) and not fact:
            # Legal (facts may go unendorsed) but worth surfacing.
            report.warn(
                "empty-square-authors",
                f"no one endorses the square at {g.name!r}",
            )
    return report


def pullback_instance(f: CatFunctor, j: Instance) -> Instance:
    """Re-tabulate an instance on f.target as an instance on f.source.
    Each pulled type shares j's tokens at its image."""
    pulled = pullback_olog(f, j.olog)
    tokens = {c: j.token_set(f.apply_object(c)) for c in f.source.objects}
    functions = {
        g.name: path_table(j, f.apply(Path(g.source, (g.name,))))
        for g in f.source.generators
    }
    return Instance(pulled, tokens, functions)


def correspondence_pairs(table: InstanceTable) -> frozenset[tuple[str, str]]:
    if len(table.header) != 2:
        raise ValueError("correspondence tables have two columns")
    return frozenset((row[0], row[1]) for row in table.rows)


def component_table_header(m: OlogMorphism, obj: str) -> tuple[str, str]:
    """Header convention for a component's correspondence table."""
    return correspondence_header(m.component_sentence(obj))


def load_correspondences(m: OlogMorphism, tables: dict[str, str],
                         base) -> dict[str, frozenset]:
    """Each object's declared pairs, from its table at `base / tables[obj]`:
    read by `_load_plain` against the component's header, or else, with
    every error, by `read_table_file` and `correspondence_pairs`."""
    out = {}
    for obj, rel in tables.items():
        expected = component_table_header(m, obj)
        plain = _load_plain(base / rel, {expected: [obj]}, pairs=True)
        if plain is not None:
            out[obj] = plain[2]
            continue
        table = read_table_file(base / rel)
        if table.header != expected:
            raise OlogError(
                f"{rel}: header {table.header!r} does not match the "
                f"component convention {expected!r}"
            )
        out[obj] = correspondence_pairs(table)
    return out


@dataclass
class InstanceMorphism:
    source: Instance
    target: Instance
    over: OlogMorphism
    component_functions: dict[str, dict[str, str]]
    declared_correspondences: dict[str, frozenset] = field(default_factory=dict)


def naturality_squares(m: OlogMorphism, i: Instance, j: Instance):
    """Yield (g, F(g), xs, gxs) for each generator g: the tokens xs at
    g.source and their values gxs under g, in token order.

    F(g) comes as its path table on j, computed once per generator.
    Components p make the square commute when F(g)[p(x)] == p(g(x)).
    """
    for g in m.source.category.generators:
        arrow = Path(g.source, (g.name,))
        image = path_table(j, m.functor.apply(arrow))
        xs = i.token_set(g.source)
        yield g, image, xs, _compose(i, arrow, xs)


def check_naturality(p: InstanceMorphism) -> ValidationReport:
    """Check totality of components and every naturality square on tokens.

    Each component, and each square's two value lists F(g)(p(x)) and
    p(g(x)), is compared whole; only one that fails is walked token by
    token, so findings come in token order.
    """
    report = ValidationReport()
    m = p.over
    i, j = p.source, p.target
    for c in m.source.category.objects:
        comp = p.component_functions.get(c, {})
        fc = m.functor.apply_object(c)
        xs = i.token_set(c)
        if all(map(comp.__contains__, xs)) and j.has_tokens(
                fc, map(comp.__getitem__, xs)):
            continue
        for x in xs:
            if x not in comp:
                report.add("component-totality",
                           f"component at {c!r} has no value for {x!r}")
            elif not j.has_token(fc, comp[x]):
                report.add("component-range",
                           f"component at {c!r} sends {x!r} outside the "
                           f"target tokens")
    if not report.ok:
        return report
    comps = p.component_functions
    for g, image, xs, gxs in naturality_squares(m, i, j):
        left = list(map(image.__getitem__,
                        map(comps.get(g.source, {}).__getitem__, xs)))
        right = list(map(comps.get(g.target, {}).__getitem__, gxs))
        for x, _, _ in _mismatches(xs, left, right):
            report.add("naturality-violation",
                       f"square at generator {g.name!r} fails on token {x!r}")
    return report


def check_conformance(p: InstanceMorphism) -> ValidationReport:
    """Every pair (x, p_c(x)) must appear among the declared correspondences."""
    report = ValidationReport()
    for c in p.over.source.category.objects:
        declared = p.declared_correspondences.get(c, frozenset())
        comp = p.component_functions.get(c, {})
        for x in p.source.token_set(c):
            pair = (x, comp.get(x))
            if pair not in declared:
                report.add(
                    "unendorsed-correspondence",
                    f"pair ({x!r}, {comp.get(x)!r}) at {c!r} is not declared",
                )
    return report


def search_conforming(
    m: OlogMorphism,
    i: Instance,
    j: Instance,
    correspondences: dict[str, frozenset],
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> tuple[int, list[InstanceMorphism]]:
    """Find every total component family that is natural and conforming.

    Returns (candidate count, survivors).  The count, which `limit`
    bounds, is the number of total component families.  The search
    assigns one source token at a time in canonical order (objects
    sorted, then tokens sorted), tries only the token's declared
    partners, and checks each naturality square as soon as both of its
    tokens are assigned.  Survivors come out in lexicographic order, and
    each one's component_functions is in canonical order, ready to list.
    """
    objs = sorted(m.source.category.objects)
    codomains = {
        c: sorted(j.token_set(m.functor.apply_object(c))) for c in objs
    }
    count = prod(
        len(codomains[c]) ** len(i.token_set(c)) for c in objs
    )
    if count > limit:
        raise SearchSpaceTooLarge(count, limit)
    variables = [(c, x) for c in objs for x in sorted(i.token_set(c))]
    domains = [
        [y for y in codomains[c]
         if (x, y) in correspondences.get(c, frozenset())]
        for c, x in variables
    ]
    if not all(domains):
        return count, []
    # checks[k] holds the squares whose later token is variables[k], as
    # (position of x, position of g(x), F(g) tabulated on the target).
    position = {var: k for k, var in enumerate(variables)}
    checks = [[] for _ in variables]
    for g, image, xs, gxs in naturality_squares(m, i, j):
        for x, gx in zip(xs, gxs):
            a, b = position[(g.source, x)], position[(g.target, gx)]
            checks[max(a, b)].append((a, b, image))

    survivors = []
    values = [None] * len(variables)
    tried = [0] * len(variables)  # values of domains[k] tried so far
    k = 0
    while k >= 0:
        if k == len(variables):
            components = {c: {} for c in objs}
            for (c, x), y in zip(variables, values):
                components[c][x] = y
            survivors.append(
                InstanceMorphism(i, j, m, components, correspondences))
            k -= 1
            continue
        domain = domains[k]
        while tried[k] < len(domain):
            values[k] = domain[tried[k]]
            tried[k] += 1
            if all(table[values[a]] == values[b]
                   for a, b, table in checks[k]):
                k += 1
                break
        else:  # every value of this token is spent: backtrack
            tried[k] = 0
            k -= 1
    return count, survivors


def check_co_instantiated(
    m: OlogMorphism,
    q_components: dict[str, dict[str, str]],
    correspondences: dict[str, frozenset],
    i: Instance,
    j: Instance,
) -> ValidationReport:
    """Reversed-orientation check: data flows against the functor.

    Here q maps the pulled-back tokens of j onto tokens of i, per source
    object: it is an instance morphism from pullback_instance(F, j) to i
    over the identity of m.source.  Component totality and range
    findings end the check; otherwise the naturality findings come
    first, then the conformance findings.  Both instances must be total
    on their tables (check_totality), or MissingMapping is raised.
    """
    src = m.source
    # Naturality and conformance read only its functor and source category.
    identity = OlogMorphism(src, src, identity_functor(src.category), {})
    q = InstanceMorphism(pullback_instance(m.functor, j), i, identity,
                         q_components, correspondences)
    report = check_naturality(q)
    if all(f.code == "naturality-violation" for f in report.findings):
        report.extend(check_conformance(q))
    return report
