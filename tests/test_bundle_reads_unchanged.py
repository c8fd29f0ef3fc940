"""Bundle and correspondence reads keep their errors, findings and answers.

The plain reader hands its token sets to the instance, and `check-mapping`
reads correspondence tables straight into component dicts.  Neither may
change which error a damaged bundle gives first, the text of that error,
the `ambiguous-correspondence` findings and their order, or what
`has_token` and `has_tokens` answer.  The expected texts are those of the
readers before these changes, but for the table path that now heads a
table's shape error.
"""

import json
import shutil

import pytest

from conftest import FIXTURES
from ologs import cli
from ologs.dsl import load_olog
from ologs.instance import Instance, load_bundle
from ologs.mapping import pullback_instance

CHAIN = """olog "chain"
type t0 = "a stage zero record" by {A}
type t1 = "a stage one record" by {A}
type t2 = "a stage two record" by {A}
aspect G1 : t0 -> t1 = "is filed under" by {A}
aspect G2 : t1 -> t2 = "is filed under" by {A}
"""
CORRESPONDENCE = 'a human,"is a person, namely"\n'
UNBOUND = ("no aspect reads ('a stage one record', "
           "'is filed by a stage two record, namely')")
AMBIGUOUS = ("table at 'h' declares two partners for 'Emmy Noether'",
             "table at 'h' declares two partners for 'George W. Bush'")


def damaged_chain(tmp_path, g1, g2):
    """A chain olog whose aspects are named g1 and g2, and a bundle in
    which t0.csv repeats a token and g2.csv's header binds to nothing."""
    olog = tmp_path / "chain.olog"
    olog.write_text(CHAIN.replace("G1", g1).replace("G2", g2),
                    encoding="utf-8")
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    tables = {
        "t0": "a stage zero record\nx\ny\nx\n",
        "t1": "a stage one record\np\n",
        "t2": "a stage two record\nq\n",
        g1: ('a stage zero record,"is filed under a stage one record, '
             'namely"\nx,p\ny,p\n'),
        g2: 'a stage one record,"is filed by a stage two record, namely"\np,q\n',
    }
    for name, text in tables.items():
        (bundle / f"{name}.csv").write_text(text, encoding="utf-8")
    return str(olog), str(bundle)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_the_first_table_in_sorted_order_gives_the_error(tmp_path, capsys):
    # a2.csv sorts before t0.csv: its unbound header is the error.
    olog, bundle = damaged_chain(tmp_path, "a1", "a2")
    assert run(capsys, "check-instance", olog, bundle) == (
        1, "", f"bad-bundle: {UNBOUND}\n")
    code, out, err = run(capsys, "check-instance", olog, bundle, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "findings": [
        {"code": "bad-bundle", "message": UNBOUND}]}


def test_a_repeated_token_in_t0_is_the_error(tmp_path, capsys):
    # u2.csv sorts after t0.csv: t0's repeated token is the error.
    olog, bundle = damaged_chain(tmp_path, "u1", "u2")
    for json_flag in ((), ("--json",)):
        assert run(capsys, "check-instance", olog, bundle, *json_flag) == (
            2, "", f"error: {bundle}/t0.csv: duplicate rows\n")


@pytest.fixture
def merge(tmp_path):
    """The fixture files, and check-mapping's arguments with data for
    merge_is.map, whose correspondence table is data/alpha.csv."""
    shutil.copytree(FIXTURES, tmp_path / "f")
    f = tmp_path / "f"
    args = [str(f / "merge_is.map"), "--src-data", str(f / "data" / "human"),
            "--dst-data", str(f / "data" / "person")]
    return f / "data" / "alpha.csv", args


def test_repeated_keys_give_the_same_ambiguity_findings(merge, capsys):
    table, args = merge
    table.write_text(CORRESPONDENCE
                     + "George W. Bush,Max Noether\n"
                       "Emmy Noether,Emmy Noether\n"
                       "George W. Bush,George W. Bush\n"
                       "Emmy Noether,Max Noether\n", encoding="utf-8")
    code, out, err = run(capsys, "check-mapping", *args, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "findings": [
        {"code": "ambiguous-correspondence", "message": message}
        for message in AMBIGUOUS]}
    assert run(capsys, "check-mapping", *args) == (
        1, "", "".join(f"ambiguous-correspondence: {m}\n" for m in AMBIGUOUS))


def test_a_repeated_row_exits_2(merge, capsys):
    table, args = merge
    table.write_text(CORRESPONDENCE
                     + "Emmy Noether,Emmy Noether\n"
                       "George W. Bush,George W. Bush\n"
                       "Emmy Noether,Emmy Noether\n", encoding="utf-8")
    for command in (["check-mapping", *args], ["check-mapping", *args, "--json"],
                    ["search-conforming", *args]):
        assert run(capsys, *command) == (
            2, "", f"error: {table}: duplicate rows\n")


def assert_token_answers(inst):
    """has_token and has_tokens answer as sets of the token tuples do."""
    reference = Instance(inst.olog, dict(inst.tokens), inst.functions)
    objects = [*inst.olog.category.objects, "no such type"]
    everything = {t for toks in inst.tokens.values() for t in toks}
    for obj in objects:
        tokens = set(inst.token_set(obj))
        for token in sorted(everything | {"", "nobody"}):
            assert inst.has_token(obj, token) == (token in tokens)
            assert inst.has_token(obj, token) == reference.has_token(obj, token)
        assert inst.has_tokens(obj, ())
        assert inst.has_tokens(obj, iter(tokens))
        assert not inst.has_tokens(obj, [*tokens, "nobody"])
        assert inst.has_tokens(obj, everything) == (everything <= tokens)


def test_loaded_and_pulled_back_instances_answer_as_before():
    for olog, data in (("father.olog", "bush"), ("human.olog", "human"),
                       ("person1.olog", "person")):
        assert_token_answers(load_bundle(FIXTURES / "data" / data,
                                         load_olog(FIXTURES / olog)))
    for name in ("merge_is.map", "merge_father.map"):
        doc, _, m, report = cli._checked_mapping(str(FIXTURES / name))
        assert report.ok
        j = load_bundle(FIXTURES / "data" / "person", m.target)
        pulled = pullback_instance(m.functor, j)
        assert_token_answers(pulled)
        for c in m.source.category.objects:
            # The pulled type holds the tokens j holds at its image.
            assert (pulled._tokens_at(c)
                    == j._tokens_at(m.functor.apply_object(c)))
