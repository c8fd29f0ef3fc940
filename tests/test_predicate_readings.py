"""`olog read` prints the readings of the olog's sentences.

The command reads each aspect's verb once, into a predicate ("V N"),
and reads a path as its aspects' predicates joined by ", which ".  Its
output must be exactly the readings of the sentences built from the
derived verbs: `read_sentence` of each generator sentence and
`read_fact_lines` of each fact's two derived sentences, identity sides
("[1]") included.  `olog.read_fact` must likewise be `read_equivalence`
of the two derived sentences, on composite and unit labels.
"""

import json
import random

from ologs.cli import main
from ologs.dsl import load_olog, serialize_olog
from ologs.errors import OlogError
from ologs.language import read_equivalence, read_fact_lines, read_sentence
from ologs.olog import derived_sentence, generator_sentence, read_fact
from randgen import random_olog_document
from test_reading_fastpath import pulled  # noqa: F401  (a fixture)

SEEDS = 3000


def sentence_readings(o, facts):
    """(code, message) of each line `read` prints, from Sentence records."""
    lines = [("sentence", read_sentence(generator_sentence(o, g.name)))
             for g in o.category.generators]
    for eq in o.category.equations if facts else ():
        left, right, fact = read_fact_lines(derived_sentence(o, eq.left),
                                            derived_sentence(o, eq.right))
        lines += [("sentence", left), ("sentence", right), ("fact", fact)]
    return lines


def printed(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def test_read_prints_the_sentence_readings(tmp_path, capsys):
    path = tmp_path / "random.olog"
    read = facts = identities = 0
    for seed in range(SEEDS):
        doc = random_olog_document(random.Random(seed))
        path.write_text(serialize_olog(doc), encoding="utf-8")
        try:
            o = load_olog(path)
        except OlogError:
            assert main(["read", str(path), "--facts"]) == 2
            capsys.readouterr()
            continue
        plain, with_facts = sentence_readings(o, False), sentence_readings(o, True)
        assert printed(capsys, ["read", str(path)]) == "".join(
            f"{message}\n" for _, message in plain)
        assert printed(capsys, ["read", str(path), "--facts"]) == "".join(
            f"{message}\n" for _, message in with_facts)
        assert json.loads(printed(capsys, ["read", str(path), "--facts",
                                           "--json"])) == {
            "ok": True,
            "findings": [{"code": code, "message": message}
                         for code, message in with_facts]}
        read += 1
        facts += len(o.category.equations)
        identities += sum(eq.right.is_identity for eq in o.category.equations)
    assert read > 1500 and facts > 1000 and identities > 300


def test_read_fact_is_the_equivalence_of_the_derived_sentences(pulled):  # noqa: F811
    _, o = pulled
    for eq in o.category.equations:
        assert read_fact(o, eq.name) == read_equivalence(
            derived_sentence(o, eq.left), derived_sentence(o, eq.right))
