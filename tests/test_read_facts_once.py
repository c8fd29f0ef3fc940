"""`olog read --facts` reads each verb once.

`read_fact_lines` gives a fact's two sentence readings and its fact
reading from one reading of each derived verb; the three texts are
those of `read_sentence` and `read_equivalence`.
"""

import random

from ologs import cli, language
from ologs.dsl import load_olog
from ologs.language import read_equivalence, read_fact_lines, read_sentence
from ologs.olog import derived_sentence
from randgen import random_olog


def fact_sentences(o):
    return [(derived_sentence(o, eq.left), derived_sentence(o, eq.right))
            for eq in o.category.equations]


def test_fact_lines_are_the_separate_readings(fixtures):
    ologs = [load_olog(path) for path in sorted(fixtures.glob("*.olog"))]
    ologs += [random_olog(random.Random(seed), max_equations=4)
              for seed in range(300)]
    compared = 0
    for o in ologs:
        for s1, s2 in fact_sentences(o):
            assert read_fact_lines(s1, s2) == (
                read_sentence(s1), read_sentence(s2), read_equivalence(s1, s2))
            compared += 1
    assert compared > 100


def test_read_facts_reads_each_verb_once(fixtures, monkeypatch, capsys):
    path = fixtures / "amino.olog"
    o = load_olog(path)
    assert o.category.equations
    calls = []

    def counted(verb):
        calls.append(verb)
        return read_verb(verb)

    read_verb = language.read_verb
    monkeypatch.setattr(language, "read_verb", counted)
    assert cli.main(["read", str(path), "--facts"]) == 0
    lines = capsys.readouterr().out.splitlines()
    facts = len(o.category.equations)
    assert len(lines) == len(o.category.generators) + 3 * facts
    assert len(calls) == len(o.category.generators)
