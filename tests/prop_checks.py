"""Randomized law checks shared by the property and acceptance suites.

Each check runs a seeded sweep and raises AssertionError on the first
law violation, so both suites exercise identical logic.
"""

import itertools
import random
from math import prod

from ologs.category import Equation, Path, PathCategory, compose_functors, identity_functor
from ologs.dsl import (
    parse_mapping,
    parse_olog,
    serialize_mapping,
    serialize_olog,
)
from ologs.instance import evaluate_path, path_table
from ologs.language import UNIT, read_verb
from ologs.mapping import (
    OlogMorphism,
    pullback_instance,
    pullback_olog,
    pullback_structure,
    search_conforming,
)
from ologs.olog import (
    AspectLabel,
    Olog,
    derived_aspect,
    derived_authors,
    validate_olog,
)

from oracle import congruence_closure
from randgen import (
    enumerate_paths,
    random_category,
    random_functor,
    random_instance,
    random_mapping_document,
    random_olog,
    random_olog_document,
)


def _with_extra_equation(o: Olog, eq: Equation, fact) -> Olog:
    cat = o.category
    new_cat = PathCategory(cat.objects, cat.generators, cat.equations + (eq,))
    structure = type(o.structure)(
        dict(o.structure.type_labels),
        dict(o.structure.aspect_labels),
        {**o.structure.fact_authors, eq.name: fact},
    )
    return Olog(o.name, new_cat, structure)


def _parallel_pairs(o: Olog, rng: random.Random, max_len=3, limit=12):
    paths = enumerate_paths(o.category, max_len)
    by_ends = {}
    for p in paths:
        by_ends.setdefault((p.source, o.category.target_of(p)), []).append(p)
    pairs = []
    for group in by_ends.values():
        pairs.extend((p, q) for p in group for q in group)
    rng.shuffle(pairs)
    return pairs[:limit]


def check_congruence_laws(n=200, seed=1001):
    """Reflexivity, symmetry, transitivity, and closure under composition
    of valid facts, over n randomized ologs."""
    checked = 0
    for k in range(n):
        rng = random.Random(seed + k)
        o = random_olog(rng)
        assert validate_olog(o).ok
        for p, q in _parallel_pairs(o, rng):
            # (a) reflexivity: (p, p) endorsed by everyone who endorses p.
            refl = _with_extra_equation(
                o, Equation("x_refl", p, p), derived_authors(o, p))
            assert validate_olog(refl).ok
            # (b) symmetry: the allowed author set ignores orientation.
            fact = derived_authors(o, p) & derived_authors(o, q)
            fwd = _with_extra_equation(o, Equation("x_fwd", p, q), fact)
            rev = _with_extra_equation(o, Equation("x_rev", q, p), fact)
            assert validate_olog(fwd).ok and validate_olog(rev).ok
            checked += 1
        # (c) transitivity: facts (p,q,F1) and (q,r,F2) allow (p,r,F1&F2).
        for (p, q), (q2, r) in zip(_parallel_pairs(o, rng), _parallel_pairs(o, rng)):
            if q != q2:
                continue
            f1 = derived_authors(o, p) & derived_authors(o, q)
            f2 = derived_authors(o, q) & derived_authors(o, r)
            chained = _with_extra_equation(o, Equation("x_tr", p, r), f1 & f2)
            assert validate_olog(chained).ok
        # (d) composition: (p, q, F) and an arrow s allow (p;s, q;s, F&Auth(s)).
        for p, q in _parallel_pairs(o, rng, limit=6):
            tgt = o.category.target_of(p)
            for g in o.category.generators:
                if g.source != tgt:
                    continue
                fact = (derived_authors(o, p) & derived_authors(o, q)
                        & o.aspect(g.name).authors)
                arrow = Path(tgt, (g.name,))
                composed = _with_extra_equation(
                    o,
                    Equation("x_comp",
                             o.category.compose(p, arrow),
                             o.category.compose(q, arrow)),
                    fact,
                )
                assert validate_olog(composed).ok
                break
    assert checked > 0
    return checked


def check_unit_laws(n=100, seed=2002):
    """derivedAspect(p ; id) = derivedAspect(p) = derivedAspect(id ; p)."""
    checked = 0
    for k in range(n):
        rng = random.Random(seed + k)
        o = random_olog(rng)
        cat = o.category
        for p in enumerate_paths(cat, 3):
            left = cat.compose(cat.identity(p.source), p)
            right = cat.compose(p, cat.identity(cat.target_of(p)))
            assert derived_aspect(o, left) == derived_aspect(o, p)
            assert derived_aspect(o, right) == derived_aspect(o, p)
            checked += 1
    return checked


def check_instance_functoriality(n=200, seed=3003):
    """evaluatePath respects composition and identities, and path_table
    is evaluatePath on every token at once."""
    checked = 0
    for k in range(n):
        rng = random.Random(seed + k)
        o = random_olog(rng, max_equations=0)
        inst = random_instance(rng, o)
        cat = o.category
        for obj in cat.objects:
            for x in inst.token_set(obj):
                assert evaluate_path(inst, cat.identity(obj), x) == x
        paths = enumerate_paths(cat, 2)
        by_source = {}
        for p in paths:
            by_source.setdefault(p.source, []).append(p)
        for p in paths:
            table = path_table(inst, p)
            assert list(table) == list(inst.token_set(p.source))
            for x in inst.token_set(p.source):
                assert table[x] == evaluate_path(inst, p, x)
            for q in by_source.get(cat.target_of(p), [])[:4]:
                pq = cat.compose(p, q)
                for x in inst.token_set(p.source):
                    stepped = evaluate_path(inst, q, evaluate_path(inst, p, x))
                    assert evaluate_path(inst, pq, x) == stepped
                    checked += 1
    return checked


def check_path_equal_oracle(n=120, seed=4004, budget=1500):
    """Bounded rewriting agrees with the exhaustive congruence closure
    on every sampled category where the closure terminates."""
    compared = 0
    terminated = 0
    for k in range(n):
        rng = random.Random(seed + k)
        cat = random_category(rng)
        if not cat.equations:
            continue
        seeds = enumerate_paths(cat, 4)
        if len(seeds) > 400:
            continue
        classes = congruence_closure(cat, seeds, budget)
        if classes is None:
            continue
        terminated += 1
        bound = len(classes)
        by_ends = {}
        for p in seeds:
            by_ends.setdefault((p.source, cat.target_of(p)), []).append(p)
        groups = [g for g in by_ends.values() if len(g) >= 2]
        pairs = []
        for _ in range(12):
            group = rng.choice(groups)
            pairs.append((rng.choice(group), rng.choice(group)))
        for p, q in pairs:
            expected = classes[p] == classes[q]
            assert cat.path_equal(p, q, bound) == expected, (cat, p, q)
            compared += 1
    assert terminated > 0 and compared > 0
    return compared


def _structures_agree(a, b):
    assert a.type_labels == b.type_labels
    assert set(a.aspect_labels) == set(b.aspect_labels)
    for name in a.aspect_labels:
        assert a.aspect_labels[name].authors == b.aspect_labels[name].authors
        assert (read_verb(a.aspect_labels[name].verb)
                == read_verb(b.aspect_labels[name].verb))
    assert a.fact_authors == b.fact_authors


def check_pullback_laws(n=100, seed=5005):
    """Functoriality and identity of structure/instance pullback."""
    checked = 0
    for k in range(n):
        rng = random.Random(seed + k)
        e = random_olog(rng)
        # Pulled-back fact authors are the full derived intersection, so the
        # identity law is exact only for ologs whose facts carry that set.
        e.structure.fact_authors = {
            eq.name: derived_authors(e, eq.left) & derived_authors(e, eq.right)
            for eq in e.category.equations
        }
        # Identity law, exactly.
        ident = identity_functor(e.category)
        assert pullback_structure(ident, e) == e.structure
        j = random_instance(rng, e)
        pulled = pullback_instance(ident, j)
        assert pulled.tokens == j.tokens and pulled.functions == j.functions
        # Functoriality along a composable random pair C -> D -> E.
        d = random_category(rng, max_equations=0)
        c = random_category(rng, max_equations=0)
        g = random_functor(rng, d, e.category, min_image_len=1)
        if g is None:
            continue
        f = random_functor(rng, c, d, min_image_len=1)
        if f is None:
            continue
        gf = compose_functors(f, g)
        left = pullback_structure(gf, e)
        right = pullback_structure(f, pullback_olog(g, e))
        _structures_agree(left, right)
        left_i = pullback_instance(gf, j)
        right_i = pullback_instance(f, pullback_instance(g, j))
        assert left_i.tokens == right_i.tokens
        assert left_i.functions == right_i.functions
        checked += 1
    assert checked > 0
    return checked


def check_dsl_roundtrip(n=500, seed=6006):
    """serialize(parse(serialize(doc))) == serialize(doc) on random docs."""
    for k in range(n):
        rng = random.Random(seed + k)
        if k % 2 == 0:
            text = serialize_olog(random_olog_document(rng))
            assert serialize_olog(parse_olog(text)) == text
        else:
            text = serialize_mapping(random_mapping_document(rng))
            assert serialize_mapping(parse_mapping(text)) == text
    return n


def _ordered(comps):
    return [(c, list(comp.items())) for c, comp in comps.items()]


def _enumerate_conforming(m, i, j, correspondences):
    """Every total component family in product order, kept when each pair
    is declared and every square commutes, walking the token dicts."""
    objs = sorted(m.source.category.objects)
    per_object = []
    for c in objs:
        domain = sorted(i.token_set(c))
        codomain = sorted(j.token_set(m.functor.apply_object(c)))
        per_object.append([dict(zip(domain, values)) for values
                           in itertools.product(codomain, repeat=len(domain))])
    count = 0
    survivors = []
    for combo in itertools.product(*per_object):
        count += 1
        comps = dict(zip(objs, combo))
        if any((x, y) not in correspondences.get(c, frozenset())
               for c, comp in comps.items() for x, y in comp.items()):
            continue
        natural = True
        for g in m.source.category.generators:
            image = m.functor.generator_map[g.name]
            for x, gx in i.functions[g.name].items():
                y = comps[g.source][x]
                for arrow in image.arrows:
                    y = j.functions[arrow][y]
                natural = natural and y == comps[g.target][gx]
        if natural:
            survivors.append(comps)
    return count, survivors


def check_search_matches_enumeration(n=300, seed=7007, max_candidates=4000):
    """search_conforming finds the same survivors, in the same order, as
    filtering the whole product of total component families."""
    compared = 0
    found = 0
    for k in range(n):
        rng = random.Random(seed + k)
        src = random_olog(rng, max_objects=3, max_generators=3,
                          max_equations=0)
        dst = random_olog(rng, max_objects=3, max_generators=4)
        f = random_functor(rng, src.category, dst.category)
        if f is None:
            continue
        j = random_instance(rng, dst)
        # Pulled back along f, the source has the identity family as a
        # survivor, since every relation below declares the pairs (x, x).
        i = pullback_instance(f, j) if k % 2 else random_instance(rng, src)
        objs = src.category.objects
        if prod(len(j.token_set(f.apply_object(c))) ** len(i.token_set(c))
                for c in objs) > max_candidates:
            continue
        correspondences = {
            c: frozenset((x, y) for x in i.token_set(c)
                         for y in j.token_set(f.apply_object(c))
                         if x == y or rng.random() < 0.5)
            for c in objs
        }
        m = OlogMorphism(i.olog, dst, f,
                         {c: AspectLabel(UNIT, frozenset()) for c in objs})
        count, survivors = search_conforming(m, i, j, correspondences)
        expected_count, expected = _enumerate_conforming(
            m, i, j, correspondences)
        assert count == expected_count, k
        got = [p.component_functions for p in survivors]
        assert list(map(_ordered, got)) == list(map(_ordered, expected)), k
        compared += 1
        found += len(survivors)
    assert compared > 0 and found > 0
    return compared
