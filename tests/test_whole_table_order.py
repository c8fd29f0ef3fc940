"""Whole-table checks give the findings of a token-by-token walk.

`validate_instance`, `check_naturality` and `check-mapping` compare
whole tables first and walk tokens only where a comparison fails.  Each
random instance here gets one planted change, and the findings must be
those of the per-token references below, in text and in order.  The
references walk the token dicts themselves; the library does not import
them.
"""

import json
import random
from types import SimpleNamespace

from ologs import cli
from ologs.category import Path, identity_functor
from ologs.instance import Instance, _mismatches, validate_instance, write_bundle
from ologs.language import UNIT
from ologs.mapping import (
    InstanceMorphism,
    OlogMorphism,
    check_naturality,
    pullback_instance,
)
from ologs.olog import AspectLabel
from randgen import random_category, random_functor, random_instance, random_olog

OUTSIDE = "zz-outside"


def walk(inst, path, x):
    for arrow in path.arrows:
        x = inst.functions[arrow][x]
    return x


def reference_validate_instance(inst):
    findings = []
    for g in inst.olog.category.generators:
        mapping = inst.functions.get(g.name, {})
        for x in inst.tokens.get(g.source, ()):
            if x not in mapping:
                findings.append(("totality-violation",
                                 f"{g.name!r} has no value for token {x!r}"))
        for x, y in mapping.items():
            if x not in inst.tokens.get(g.source, ()):
                findings.append(("undeclared-token",
                                 f"{g.name!r} maps undeclared token {x!r}"))
            if y not in inst.tokens.get(g.target, ()):
                findings.append((
                    "range-violation",
                    f"{g.name!r} sends {x!r} to {y!r}, which is not a token "
                    f"at {g.target!r}"))
    if findings:
        return findings
    for eq in inst.olog.category.equations:
        for x in inst.tokens.get(eq.left.source, ()):
            y1, y2 = walk(inst, eq.left, x), walk(inst, eq.right, x)
            if y1 != y2:
                findings.append((
                    "fact-violation",
                    f"equation {eq.name!r} fails on token {x!r}: "
                    f"{y1!r} != {y2!r}"))
    return findings


def reference_naturality(m, i, j, comps):
    findings = []
    for c in m.source.category.objects:
        comp = comps.get(c, {})
        for x in i.tokens.get(c, ()):
            if x not in comp:
                findings.append(("component-totality",
                                 f"component at {c!r} has no value for {x!r}"))
            elif comp[x] not in j.tokens.get(m.functor.apply_object(c), ()):
                findings.append((
                    "component-range",
                    f"component at {c!r} sends {x!r} outside the target "
                    f"tokens"))
    if findings:
        return findings
    for g in m.source.category.generators:
        image = m.functor.apply(Path(g.source, (g.name,)))
        for x in i.tokens.get(g.source, ()):
            across = walk(j, image, comps[g.source][x])
            if across != comps[g.target][i.functions[g.name][x]]:
                findings.append((
                    "naturality-violation",
                    f"square at generator {g.name!r} fails on token {x!r}"))
    return findings


def reference_check_mapping(m, i, j, pairs):
    """Findings of check-mapping with data, both bundles being total."""
    findings, comps = [], {}
    for c, declared in pairs.items():
        comps[c] = {}
        for x, y in sorted(declared):
            if x in comps[c]:
                findings.append((
                    "ambiguous-correspondence",
                    f"table at {c!r} declares two partners for {x!r}"))
            comps[c][x] = y
    return findings or reference_naturality(m, i, j, comps)


def codes_and_messages(report):
    return [(f.code, f.message) for f in report.findings]


def plant_in_function(rng, inst, kind):
    """Change one entry of one token function: a value to another token,
    a value to no token, a deleted entry, or an extra key."""
    gens = [g for g in inst.olog.category.generators
            if inst.functions[g.name]]
    if not gens:
        return
    g = rng.choice(gens)
    mapping = inst.functions[g.name]
    x = rng.choice(list(mapping))
    if kind == 0:
        mapping[x] = rng.choice(inst.tokens[g.target])
    elif kind == 1:
        mapping[x] = OUTSIDE
    elif kind == 2:
        del mapping[x]
    else:
        mapping[OUTSIDE] = mapping[x]


def test_validate_instance_matches_the_token_walk():
    failing = 0
    for seed in range(600):
        rng = random.Random(seed)
        o = random_olog(rng, max_equations=4)
        inst = random_instance(rng, o)
        plant_in_function(rng, inst, seed % 4)
        inst = Instance(o, inst.tokens, inst.functions)
        expected = reference_validate_instance(inst)
        assert codes_and_messages(validate_instance(inst)) == expected, seed
        failing += bool(expected)
    assert failing > 300


def morphism_case(rng):
    """A random functor, target data j, and source data i pulled back
    along it, so the identity components are natural."""
    src = random_olog(rng, max_objects=3, max_generators=4, max_equations=0)
    dst = random_olog(rng, max_objects=3, max_generators=4)
    f = random_functor(rng, src.category, dst.category)
    if f is None:
        return None
    j = random_instance(rng, dst)
    i = pullback_instance(f, j)
    m = OlogMorphism(i.olog, dst, f, {c: AspectLabel(UNIT, frozenset())
                                      for c in src.category.objects})
    return m, i, j


def test_check_naturality_matches_the_token_walk():
    compared = failing = 0
    for seed in range(600):
        rng = random.Random(seed)
        case = morphism_case(rng)
        if case is None:
            continue
        m, i, j = case
        comps = {c: {x: x for x in i.tokens[c]} for c in i.tokens}
        c = rng.choice(sorted(comps))
        x = rng.choice(list(comps[c]))
        kind = seed % 4
        if kind == 0:  # a component entry sent to another token
            comps[c][x] = rng.choice(j.tokens[m.functor.apply_object(c)])
        elif kind == 1:  # a component value outside the target tokens
            comps[c][x] = OUTSIDE
        elif kind == 2:  # a missing entry
            del comps[c][x]
        else:  # an entry for no source token, which no check reads
            comps[c][OUTSIDE] = x
        p = InstanceMorphism(i, j, m, comps)
        expected = reference_naturality(m, i, j, comps)
        assert codes_and_messages(check_naturality(p)) == expected, seed
        compared += 1
        failing += bool(expected)
    assert compared > 300 and failing > 100


def olog_text(category, name):
    """The olog of a random category, every label endorsed by A."""
    lines = [f'olog "{name}"']
    lines += [f'type {o} = "a thing {o}" by {{A}}' for o in category.objects]
    lines += [f'aspect {g.name} : {g.source} -> {g.target} = '
              f'"relates via {g.name} to" by {{A}}'
              for g in category.generators]
    return "\n".join(lines) + "\n"


def write_pairs(path, noun, pairs):
    path.write_text(f'{noun},"is {noun}, namely"\n'
                    + "".join(f"{x},{y}\n" for x, y in pairs),
                    encoding="utf-8")


def test_check_mapping_json_matches_the_token_walk(tmp_path, capsys):
    failing = 0
    for seed in range(120):
        rng = random.Random(seed)
        category = random_category(rng, max_objects=3, max_generators=4,
                                   max_equations=0)
        base = tmp_path / f"case{seed}"
        base.mkdir()
        (base / "self.olog").write_text(olog_text(category, "self"),
                                        encoding="utf-8")
        o = cli.load_olog(base / "self.olog")
        j = random_instance(rng, o)
        write_bundle(base / "data", j)
        pairs = {c: [(x, x) for x in j.tokens[c]] for c in category.objects}
        c = rng.choice(category.objects)
        k = rng.randrange(len(pairs[c]))
        x = pairs[c][k][0]
        other = rng.choice(j.tokens[c])
        kind = seed % 4
        if kind == 0:  # a component entry sent to another token
            pairs[c][k] = (x, other)
        elif kind == 1:  # a component value outside the target tokens
            pairs[c][k] = (x, OUTSIDE)
        elif kind == 2:  # a repeated key
            pairs[c].insert(rng.randrange(len(pairs[c]) + 1),
                            (x, other if other != x else OUTSIDE))
        else:  # a missing entry
            del pairs[c][k]
        map_lines = ['mapping "self"', 'source "self.olog"',
                     'target "self.olog"']
        map_lines += [f"object {o} -> {o}" for o in category.objects]
        map_lines += [f"aspect {g.name} -> [{g.name}]"
                      for g in category.generators]
        map_lines += [f'component {o} = "is" by {{A}}'
                      for o in category.objects]
        map_lines += [f"square {g.name} by {{A}}" for g in category.generators]
        map_lines += [f'table {o} = "{o}_corr.csv"' for o in category.objects]
        (base / "self.map").write_text("\n".join(map_lines) + "\n",
                                       encoding="utf-8")
        for o_id, declared in pairs.items():
            write_pairs(base / f"{o_id}_corr.csv", f"a thing {o_id}",
                        declared)
        code = cli.main(["check-mapping", str(base / "self.map"),
                         "--src-data", str(base / "data"),
                         "--dst-data", str(base / "data"), "--json"])
        out = capsys.readouterr().out
        findings = [(f["code"], f["message"])
                    for f in json.loads(out)["findings"]]
        m = SimpleNamespace(source=o, functor=identity_functor(category))
        expected = reference_check_mapping(
            m, j, j, {o_id: frozenset(p) for o_id, p in pairs.items()})
        assert findings == expected, seed
        assert code == (1 if expected else 0), seed
        failing += bool(expected)
    assert failing > 60




def test_an_object_without_tokens_needs_no_component(fixtures):
    # The token walk looks up no component at an object without tokens,
    # so the whole-table check must not either.
    o = cli.load_olog(fixtures / "father.olog")
    j = cli.load_bundle(fixtures / "data" / "bush", o)
    i = Instance(o, {"person": (), "father": j.tokens["father"]},
                 {"has": {}})
    comps = {"father": {x: x for x in j.tokens["father"]}}
    m = OlogMorphism(o, o, identity_functor(o.category), {})
    report = check_naturality(InstanceMorphism(i, j, m, comps))
    assert report.ok
    assert reference_naturality(m, i, j, comps) == []


class Unwalkable:
    """Tokens that cannot be iterated: a walk over them raises."""

    def __iter__(self):
        raise AssertionError("equal value lists were walked")


def test_mismatches_compares_whole_then_walks_only_unequal_lists():
    assert _mismatches(Unwalkable(), [], []) == []
    assert _mismatches(Unwalkable(), ["a", "b", "a"], ["a", "b", "a"]) == []
    xs = ("t0", "t1", "t2", "t3", "t4")
    assert _mismatches(xs, ["a", "b", "c", "d", "e"],
                       ["x", "b", "c", "y", "e"]) == [
        ("t0", "a", "x"), ("t3", "d", "y")]
