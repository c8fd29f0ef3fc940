"""Error branches of the DSL, the category layer and the bundle loader
that the other suites never reach, and the invariant that lets
`check-mapping` skip its conformance pass.

`check-mapping --src-data/--dst-data` builds each component `x -> y`
from the declared pairs of its table.  A token with no declared pair is
a `component-totality` finding of `check_naturality`, so whenever
naturality passes, every pair of every component is declared and
`check_conformance` has nothing to find.
"""

import random
import shutil

from ologs.category import Equation, Generator, Path, PathCategory, RewriteSystem
from ologs.cli import main
from ologs.language import UNIT
from ologs.mapping import (
    InstanceMorphism,
    OlogMorphism,
    check_conformance,
    check_naturality,
    pullback_instance,
)
from ologs.olog import AspectLabel
from randgen import random_functor, random_instance, random_olog


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def weight_map(fixtures, tmp_path, image, drop=()):
    """weight_F.map beside copies of its ologs, with aspect `is` sent to
    `image` and the lines starting with any of `drop` left out."""
    for name in ("man.olog", "weight.olog"):
        shutil.copy(fixtures / name, tmp_path / name)
    lines = []
    for line in (fixtures / "weight_F.map").read_text(
            encoding="utf-8").splitlines():
        if line.startswith("aspect is "):
            line = f"aspect is -> {image}"
        if not line.startswith(tuple(drop)):
            lines.append(line)
    path = tmp_path / "F.map"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_generator_image_that_does_not_compose(fixtures, tmp_path, capsys):
    path = weight_map(fixtures, tmp_path, "[weight_cd ; weight_cd]")
    code, out, err = run(capsys, "check-mapping", path)
    assert code == 1
    assert out == ""
    assert err == ("bad-generator-image: generator 'is': generator "
                   "'weight_cd' does not compose at object 'd'\n")


def test_identity_image_needs_the_source_object_mapped(fixtures, tmp_path,
                                                       capsys):
    path = weight_map(fixtures, tmp_path, "[1]", drop=("object man ",))
    code, out, err = run(capsys, "check-mapping", path)
    assert code == 2
    assert out == ""
    assert err == ("error: aspect 'is' maps to an identity but object "
                   "'man' has no image\n")


def test_fact_with_identity_side_and_undeclared_aspect(tmp_path, capsys):
    path = tmp_path / "f.olog"
    path.write_text('olog "f"\n'
                    'type a = "an a" by {S}\n'
                    'fact f : [1] ~ [nope] by {S}\n', encoding="utf-8")
    code, out, err = run(capsys, "validate", path)
    assert code == 2
    assert out == ""
    assert err == "error: fact 'f' refers to undeclared aspect 'nope'\n"


def test_completion_stops_at_its_rules_cap(monkeypatch):
    """Four facts on five loops at one object: completion holds the most
    rules its budget allows and gives up, and decide_equal falls back to
    the bounded search, which proves the first fact."""
    def loops(text):
        return Path("o0", tuple(text.split(";")))

    facts = [("g4;g1", "g3;g3"), ("g1;g4", "g4"),
             ("g2;g1", "g1;g4"), ("g0", "g2;g3")]
    cat = PathCategory(
        ("o0",), tuple(Generator(f"g{k}", "o0", "o0") for k in range(5)),
        tuple(Equation(f"e{k}", loops(left), loops(right))
              for k, (left, right) in enumerate(facts)))
    held = []
    add = RewriteSystem._add

    def counting_add(system, u, v):
        add(system, u, v)
        held.append(len(system._rules))

    monkeypatch.setattr(RewriteSystem, "_add", counting_add)
    assert cat.rewriting() is None
    assert max(held) == 4 * len(facts)
    left, right = cat.equations[0].left, cat.equations[0].right
    assert cat.decide_equal(left, right) is True


def test_bundle_table_that_is_a_directory(fixtures, tmp_path, capsys):
    (tmp_path / "h.csv").mkdir()
    code, out, err = run(capsys, "check-instance", fixtures / "human.olog",
                         tmp_path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno 21] ")
    assert err.rstrip("\n").endswith(f"'{tmp_path / 'h.csv'}'")


def test_header_read_by_two_aspects(tmp_path, capsys):
    olog = tmp_path / "amb.olog"
    olog.write_text('olog "amb"\n'
                    'type a = "an a" by {S}\n'
                    'type b = "a b" by {S}\n'
                    'aspect f : a -> b = "has" by {S}\n'
                    'aspect g : a -> b = "has" by {S}\n', encoding="utf-8")
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "f.csv").write_text('an a,"has a b, namely"\nx,y\n',
                                  encoding="utf-8")
    code, out, err = run(capsys, "check-instance", olog, bundle)
    assert code == 1
    assert out == ""
    assert err == ("bad-bundle: header ('an a', 'has a b, namely') "
                   "matches aspects ['f', 'g']\n")


def test_conformance_holds_wherever_naturality_does():
    """Random instance pairs and random correspondence tables, some
    pairs outside either instance's tokens and some tokens with two
    partners or none; components built as check-mapping builds them."""
    natural = conformed_pairs = 0
    for k in range(400):
        rng = random.Random(9009 + k)
        src = random_olog(rng, max_objects=3, max_generators=3,
                          max_equations=0)
        dst = random_olog(rng, max_objects=3, max_generators=4)
        f = random_functor(rng, src.category, dst.category)
        if f is None:
            continue
        j = random_instance(rng, dst)
        i = pullback_instance(f, j) if k % 2 else random_instance(rng, src)
        objs = src.category.objects
        m = OlogMorphism(i.olog, dst, f,
                         {c: AspectLabel(UNIT, frozenset()) for c in objs})
        correspondences = {
            c: frozenset(
                (x, y)
                for x in (*i.token_set(c), "t0")
                for y in (*j.token_set(f.apply_object(c)), "t0")
                if x == y or rng.random() < 0.2)
            for c in objs if rng.random() < 0.95
        }
        # As check-mapping builds them: pairs in sorted order, a later
        # partner of a token replacing an earlier one.
        components = {obj: dict(sorted(pairs))
                      for obj, pairs in correspondences.items()}
        p = InstanceMorphism(i, j, m, components, correspondences)
        if check_naturality(p).ok:
            natural += 1
            conformed_pairs += sum(len(i.token_set(c)) for c in objs)
            assert check_conformance(p).findings == [], k
    assert natural >= 50 and conformed_pairs >= 200
