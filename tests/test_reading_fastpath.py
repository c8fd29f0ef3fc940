"""Readings after the fast paths of read_verb, read_sentence and
read_equivalence.

read_verb returns an atomic verb's text at once and walks a composite
with an explicit stack, testing each verb class once with isinstance;
the sentence readings format noun phrases by their text.  All three
must read every verb as a plain recursion over its tree does: the unit
verb, composites whose right operand is itself composite, and
subclasses of AtomicVerb and ConcatVerb.  On an olog pulled back along
a mapping that sends aspects to paths of several arrows,
`olog read --facts` and `read --facts --json` must print exactly the
recursive readings of the pulled-back labels.
"""

import json
import random

import pytest

from ologs.cli import main
from ologs.dsl import load_olog, morphism_from_document, parse_mapping
from ologs.errors import ShapeMismatch
from ologs.language import (
    UNIT,
    AtomicVerb,
    ConcatVerb,
    NounPhrase,
    Sentence,
    UnitVerb,
    read_equivalence,
    read_sentence,
    read_verb,
)
from ologs.mapping import pullback_olog
from ologs.olog import derived_sentence, generator_sentence


class QuietVerb(AtomicVerb):
    pass


class ChainedVerb(ConcatVerb):
    pass


def reference_verb(v):
    """The reading of v, by recursion over its tree."""
    if isinstance(v, ConcatVerb):
        return (f"{reference_verb(v.left)} {v.via}, which "
                f"{reference_verb(v.right)}")
    if isinstance(v, AtomicVerb):
        return v.text
    assert isinstance(v, UnitVerb)
    return "is of course"


def reference_sentence(s):
    return f"{s.subject} {reference_verb(s.verb)} {s.obj}"


def reference_equivalence(s1, s2):
    return (f"For any {str(s1.subject).split(' ', 1)[1]} x, "
            f"we know that x {reference_verb(s1.verb)} {s1.obj}, that we "
            f"call y1, and we know that x {reference_verb(s2.verb)} "
            f"{s2.obj}, that we call y2; and the fact is, y1 and y2 are "
            f"the same for any x.")


def random_leaf(rng):
    roll = rng.random()
    if roll < 0.2:
        return UNIT
    kind = QuietVerb if roll < 0.4 else AtomicVerb
    return kind(f"v{rng.randrange(9)}")


def random_verb(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return random_leaf(rng)
    kind = ChainedVerb if rng.random() < 0.3 else ConcatVerb
    return kind(random_verb(rng, depth - 1),
                NounPhrase(f"an n{rng.randrange(9)}"),
                random_verb(rng, depth - 1))


def random_noun(rng):
    return NounPhrase(rng.choice(["a ", "an ", "A ", "An "])
                      + rng.choice(["x", "big y", "z, w"]))


def test_unit_and_atomic_verbs():
    assert read_verb(UNIT) == "is of course"
    assert read_verb(UnitVerb()) == "is of course"
    assert read_verb(AtomicVerb("has")) == "has"
    assert read_verb(QuietVerb("whispers to")) == "whispers to"


def test_composite_right_operands():
    inner = ConcatVerb(AtomicVerb("b"), NounPhrase("a y"), UNIT)
    v = ChainedVerb(QuietVerb("a"), NounPhrase("an x"), inner)
    assert read_verb(v) == "a an x, which b a y, which is of course"
    assert read_verb(ConcatVerb(v, NounPhrase("a z"), v)) == (
        f"{read_verb(v)} a z, which {read_verb(v)}")


def test_read_verb_matches_the_recursion():
    rng = random.Random(130)
    for _ in range(1000):
        v = random_verb(rng, 6)
        assert read_verb(v) == reference_verb(v)


def test_sentences_and_equivalences_match_the_recursion():
    rng = random.Random(171)
    for _ in range(500):
        subject, obj = random_noun(rng), random_noun(rng)
        s1 = Sentence(subject, random_verb(rng, 4), obj)
        s2 = Sentence(subject, random_verb(rng, 4), obj)
        assert read_sentence(s1) == reference_sentence(s1)
        assert read_equivalence(s1, s2) == reference_equivalence(s1, s2)


def test_equivalence_still_needs_shared_ends():
    s1 = Sentence(NounPhrase("a x"), UNIT, NounPhrase("a y"))
    s2 = Sentence(NounPhrase("a z"), UNIT, NounPhrase("a y"))
    with pytest.raises(ShapeMismatch):
        read_equivalence(s1, s2)


def thing(i):
    return f"a thing number {i}"


@pytest.fixture(scope="module")
def pulled(tmp_path_factory):
    """A mapping that sends f and g to two-arrow paths of a chain and e
    to an identity, and the olog it pulls back, written by `pullback`.
    Declarations are in name order, the order `pullback` writes them."""
    base = tmp_path_factory.mktemp("pulled")
    chain = ['olog "chain"']
    chain += [f'type t{i} = "{thing(i)}" by {{A}}' for i in range(5)]
    chain += [f'aspect a{i} : t{i - 1} -> t{i} = "leads to" by {{A}}'
              for i in range(1, 5)]
    chain += ['aspect s : t0 -> t4 = "skips to" by {A}',
              "fact long : [a1 ; a2 ; a3 ; a4] ~ [s] by {A}"]
    (base / "chain.olog").write_text("\n".join(chain) + "\n", encoding="utf-8")
    (base / "walk.olog").write_text(
        'olog "walk"\n'
        'type x = "a start" by {A}\n'
        'type y = "a middle" by {A}\n'
        'type z = "an end" by {A}\n'
        'aspect e : x -> x = "stays" by {A}\n'
        'aspect f : x -> y = "reaches" by {A}\n'
        'aspect g : y -> z = "reaches" by {A}\n'
        'aspect k : x -> z = "skips to" by {A}\n'
        "fact stay : [e] ~ [1] by {A}\n"
        "fact wait : [e ; f ; g] ~ [k] by {A}\n"
        "fact walk : [f ; g] ~ [k] by {A}\n", encoding="utf-8")
    (base / "m.map").write_text(
        'mapping "m"\n'
        'source "walk.olog"\n'
        'target "chain.olog"\n'
        "object x -> t0\n"
        "object y -> t2\n"
        "object z -> t4\n"
        "aspect e -> [1]\n"
        "aspect f -> [a1 ; a2]\n"
        "aspect g -> [a3 ; a4]\n"
        "aspect k -> [s]\n"
        'component x = "is" by {A}\n'
        'component y = "is" by {A}\n'
        'component z = "is" by {A}\n'
        "square e by {A}\n"
        "square f by {A}\n"
        "square g by {A}\n"
        "square k by {A}\n", encoding="utf-8")
    assert main(["pullback", str(base / "m.map"),
                 "--out", str(base / "pulled.olog")]) == 0
    doc = parse_mapping((base / "m.map").read_text(encoding="utf-8"))
    m = morphism_from_document(doc, load_olog(base / "walk.olog"),
                               load_olog(base / "chain.olog"))
    pulled_olog = pullback_olog(m.functor, m.target, "m.pullback")
    return base / "pulled.olog", pulled_olog


def reference_readings(o):
    """(code, message) of every line `read --facts` prints for o."""
    lines = [("sentence", reference_sentence(generator_sentence(o, g.name)))
             for g in o.category.generators]
    for eq in o.category.equations:
        left = derived_sentence(o, eq.left)
        right = derived_sentence(o, eq.right)
        lines += [("sentence", reference_sentence(left)),
                  ("sentence", reference_sentence(right)),
                  ("fact", reference_equivalence(left, right))]
    return lines


def test_the_pulled_back_labels_are_composite(pulled):
    _, o = pulled
    labels = o.structure.aspect_labels
    assert labels["e"].verb is UNIT
    assert isinstance(labels["f"].verb, ConcatVerb)
    wait = derived_sentence(o, o.category.equation("wait").left).verb
    assert isinstance(wait.right, ConcatVerb)
    assert isinstance(wait.left.left, UnitVerb)


def test_read_facts_prints_the_reference_readings(pulled, capsys):
    path, o = pulled
    capsys.readouterr()
    assert main(["read", str(path), "--facts"]) == 0
    out, err = capsys.readouterr()
    expected = reference_readings(o)
    assert err == ""
    assert out == "".join(f"{message}\n" for _, message in expected)
    walk = (f"{thing(0)} leads to {thing(1)}, which leads to {thing(2)}, "
            f"which leads to {thing(3)}, which leads to {thing(4)}")
    assert walk in out.splitlines()


def test_read_facts_json_prints_the_reference_readings(pulled, capsys):
    path, o = pulled
    capsys.readouterr()
    assert main(["read", str(path), "--facts", "--json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {
        "ok": True,
        "findings": [{"code": code, "message": message}
                     for code, message in reference_readings(o)]}
