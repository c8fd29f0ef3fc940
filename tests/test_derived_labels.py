"""Derived labels of paths, and the readings `olog read` prints from them.

`derived_authors` and `derived_sentence` each walk the path for only
what they return.  They must agree with `derived_aspect` and with a
reference that builds the whole label in one walk, and refuse invalid
paths with the same InvalidPath.
"""

import json
import random

import pytest

from conftest import FIXTURES
from ologs.category import Path
from ologs.cli import main
from ologs.dsl import load_olog
from ologs.errors import InvalidPath
from ologs.language import (
    UNIT,
    ConcatVerb,
    Sentence,
    read_equivalence,
    read_sentence,
)
from ologs.olog import (
    derived_aspect,
    derived_authors,
    derived_sentence,
    generator_sentence,
)
from randgen import enumerate_paths, random_olog


def reference_label(o, p):
    """(verb, authors, target) of p, built in one walk along it."""
    objs = o.category.objects_along(p)
    if p.is_identity:
        return UNIT, o.type_authors(p.source), p.source
    verb, auth = None, None
    for i, name in enumerate(p.arrows):
        label = o.aspect(name)
        if verb is None:
            verb, auth = label.verb, label.authors
        else:
            verb = ConcatVerb(verb, o.noun(objs[i]), label.verb)
            auth = auth & label.authors
    return verb, auth, objs[-1]


def outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidPath as exc:
        return ("InvalidPath", str(exc))


def random_ologs(n, seed):
    rng = random.Random(seed)
    for _ in range(n):
        yield rng, random_olog(rng, max_objects=4, max_generators=6)


def test_derived_labels_agree_on_valid_paths():
    checked = 0
    for _, o in random_ologs(150, seed=1101):
        for p in enumerate_paths(o.category, 3):
            verb, auth, target = reference_label(o, p)
            aspect = derived_aspect(o, p)
            assert derived_authors(o, p) == aspect.authors == auth
            assert aspect.verb == verb
            sentence = Sentence(o.noun(p.source), aspect.verb, o.noun(target))
            assert derived_sentence(o, p) == sentence
            checked += 1
    assert checked > 1000


def test_derived_labels_refuse_invalid_paths_alike():
    checked = 0
    for rng, o in random_ologs(150, seed=1102):
        names = [g.name for g in o.category.generators] + ["nowhere"]
        for _ in range(10):
            arrows = tuple(rng.choice(names) for _ in range(rng.randint(1, 3)))
            p = Path(rng.choice(o.category.objects), arrows)
            try:
                o.category.check_path(p)
            except InvalidPath as exc:
                expected = ("InvalidPath", str(exc))
            else:
                continue
            assert outcome(derived_authors, o, p) == expected
            assert outcome(derived_aspect, o, p) == expected
            assert outcome(derived_sentence, o, p) == expected
            checked += 1
        p = Path("nowhere")
        assert (outcome(derived_authors, o, p) == outcome(derived_aspect, o, p)
                == ("InvalidPath", "unknown source object 'nowhere'"))
    assert checked > 500


def reference_readings(o, facts):
    """(code, line) pairs of `olog read`, built from reference labels."""
    lines = [("sentence", read_sentence(generator_sentence(o, g.name)))
             for g in o.category.generators]
    if facts:
        for eq in o.category.equations:
            sides = []
            for p in (eq.left, eq.right):
                verb, _, target = reference_label(o, p)
                sides.append(Sentence(o.noun(p.source), verb, o.noun(target)))
            lines.append(("sentence", read_sentence(sides[0])))
            lines.append(("sentence", read_sentence(sides[1])))
            lines.append(("fact", read_equivalence(*sides)))
    return lines


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.olog")),
                         ids=lambda p: p.name)
@pytest.mark.parametrize("flags", [(), ("--facts",), ("--facts", "--json")],
                         ids=lambda flags: " ".join(flags) or "plain")
def test_read_prints_the_reference_readings(path, flags, capsys):
    lines = reference_readings(load_olog(path), "--facts" in flags)
    if "--json" in flags:
        findings = [{"code": c, "message": m} for c, m in lines]
        expected = json.dumps({"ok": True, "findings": findings}) + "\n"
    else:
        expected = "".join(m + "\n" for _, m in lines)
    assert main(["read", str(path), *flags]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")
