"""Instances, tables, CSV bundles."""

import pytest

from ologs.category import Path
from ologs.dsl import load_olog
from ologs.errors import (
    AmbiguousHeader,
    DuplicateKey,
    MissingMapping,
    UnboundHeader,
    UnknownToken,
)
from ologs.instance import (
    Instance,
    InstanceTable,
    evaluate_path,
    generator_header,
    instance_sentences,
    load_bundle,
    load_table,
    path_table,
    read_table_file,
    render_correspondences,
    type_header,
    validate_instance,
    write_bundle,
    write_table_file,
)


@pytest.fixture
def father(fixtures):
    return load_olog(fixtures / "father.olog")


@pytest.fixture
def bush(fixtures, father):
    return load_bundle(fixtures / "data" / "bush", father)


@pytest.fixture
def address_olog(fixtures):
    return load_olog(fixtures / "address.olog")


def test_bush_bundle_loads_and_validates(bush):
    assert bush.token_set("person") == (
        "George W. Bush", "Jeb Bush", "Emmy Noether"
    )
    assert len(bush.token_set("father")) == 3
    assert validate_instance(bush).ok


def test_evaluate_path(bush):
    assert evaluate_path(bush, Path("person", ("has",)), "Emmy Noether") == \
        "Max Noether"
    assert evaluate_path(bush, Path("person"), "Jeb Bush") == "Jeb Bush"


def test_evaluate_path_unknown_token(bush):
    with pytest.raises(UnknownToken):
        evaluate_path(bush, Path("person", ("has",)), "Nobody")


def test_evaluate_path_missing_mapping(bush):
    del bush.functions["has"]["Jeb Bush"]
    with pytest.raises(MissingMapping):
        evaluate_path(bush, Path("person", ("has",)), "Jeb Bush")


def test_path_table(bush):
    assert path_table(bush, Path("person", ("has",))) == {
        "George W. Bush": "George H. W. Bush",
        "Jeb Bush": "George H. W. Bush",
        "Emmy Noether": "Max Noether",
    }
    assert path_table(bush, Path("father")) == {
        t: t for t in bush.token_set("father")}


def test_path_table_missing_mapping(bush):
    del bush.functions["has"]["Jeb Bush"]
    with pytest.raises(MissingMapping,
                       match="token function of 'has' has no entry for "
                             "'Jeb Bush'"):
        path_table(bush, Path("person", ("has",)))


def test_totality_violation(bush):
    del bush.functions["has"]["Jeb Bush"]
    report = validate_instance(bush)
    assert [f.code for f in report.findings] == ["totality-violation"]


def test_range_violation(bush):
    bush.functions["has"]["Jeb Bush"] = "Marie Curie"
    report = validate_instance(bush)
    assert [f.code for f in report.findings] == ["range-violation"]


def test_undeclared_token(bush):
    bush.functions["has"]["Rogue"] = "Max Noether"
    report = validate_instance(bush)
    assert [f.code for f in report.findings] == ["undeclared-token"]


def address_instance(address_olog, lives_in):
    return Instance(
        address_olog,
        tokens={
            "person": ("p1", "p2"),
            "address": ("addr1", "addr2"),
            "city": ("rome", "oslo"),
        },
        functions={
            "lives_at": {"p1": "addr1", "p2": "addr2"},
            "includes": {"addr1": "rome", "addr2": "oslo"},
            "lives_in": lives_in,
        },
    )


def test_fact_satisfied(address_olog):
    inst = address_instance(address_olog, {"p1": "rome", "p2": "oslo"})
    assert validate_instance(inst).ok


def test_fact_violation_reported_per_token(address_olog):
    inst = address_instance(address_olog, {"p1": "rome", "p2": "rome"})
    report = validate_instance(inst)
    assert [f.code for f in report.findings] == ["fact-violation"]
    assert "'p2'" in report.findings[0].message


class TestTables:
    def test_headers(self, father):
        assert type_header(father, "person") == ("a person",)
        assert generator_header(father, "has") == (
            "a person", "has a father, namely"
        )

    def test_table_shape_checks(self):
        with pytest.raises(ValueError):
            InstanceTable(("a", "b", "c"), ())
        with pytest.raises(ValueError):
            InstanceTable(("a person",), (("x", "y"),))
        with pytest.raises(ValueError):
            InstanceTable(("a person",), (("x",), ("x",)))

    def test_load_table_binds_tokens(self, father):
        table = InstanceTable(("a person",), (("Ada",), ("Alan",)))
        assert load_table(table, father) == ("tokens", "person",
                                             ("Ada", "Alan"))

    def test_load_table_binds_function(self, father):
        table = InstanceTable(("a person", "has a father, namely"),
                              (("Ada", "x"),))
        assert load_table(table, father) == ("function", "has", {"Ada": "x"})

    def test_unbound_header(self, father):
        with pytest.raises(UnboundHeader):
            load_table(InstanceTable(("a ghost",), ()), father)

    def test_ambiguous_header(self, fixtures):
        # Two types labeled with the same noun phrase.
        text = ('olog "dup"\n'
                'type a = "a person" by {S}\n'
                'type b = "a person" by {S}\n')
        from ologs.dsl import olog_from_document, parse_olog

        o = olog_from_document(parse_olog(text))
        with pytest.raises(AmbiguousHeader):
            load_table(InstanceTable(("a person",), ()), o)

    def test_duplicate_key(self, father):
        table = InstanceTable(("a person", "has a father, namely"),
                              (("Ada", "x"), ("Ada", "y")))
        with pytest.raises(DuplicateKey):
            load_table(table, father)


class TestFiles:
    def test_table_file_round_trip(self, tmp_path):
        table = InstanceTable(
            ("a person", "has a father, namely"),
            (("Bush, George W.", "Bush, George H. W."), ("Emmy", "Max")),
        )
        path = tmp_path / "has.csv"
        write_table_file(path, table)
        assert read_table_file(path) == table

    def test_empty_table_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            read_table_file(path)

    def test_bundle_round_trip(self, tmp_path, bush):
        write_bundle(tmp_path / "out", bush)
        again = load_bundle(tmp_path / "out", bush.olog)
        assert again.tokens == bush.tokens
        assert again.functions == bush.functions

    def test_bundle_rejects_unknown_filename(self, tmp_path, father):
        write_table_file(tmp_path / "mystery.csv",
                         InstanceTable(("a person",), (("Ada",),)))
        with pytest.raises(UnboundHeader):
            load_bundle(tmp_path, father)

    def test_bundle_rejects_header_filename_mismatch(self, tmp_path, father):
        # File named after the generator but carrying a type header.
        write_table_file(tmp_path / "has.csv",
                         InstanceTable(("a person",), (("Ada",),)))
        with pytest.raises(UnboundHeader):
            load_bundle(tmp_path, father)


def test_render_correspondences(bush):
    assert render_correspondences(bush, "has") == [
        "George W. Bush is a person, which has a father, "
        "namely George H. W. Bush",
        "Jeb Bush is a person, which has a father, namely George H. W. Bush",
        "Emmy Noether is a person, which has a father, namely Max Noether",
    ]


def test_render_correspondences_empty_tokens(father):
    inst = Instance(father, {"person": (), "father": ()}, {"has": {}})
    assert render_correspondences(inst, "has") == []


def test_instance_sentences(bush):
    assert instance_sentences(bush) == ["a person has a father"]
