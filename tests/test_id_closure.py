"""An id is a file name: what `validate` accepts, a bundle can hold.

A type's or aspect's table is the file `<id>.csv` directly in its
bundle's directory (`instance.table_file`), so an olog whose id holds
"/" or NUL, or takes over 251 bytes in UTF-8, is refused (exit 2) by
every command that reads it, before anything is written; and
`write_bundle` refuses such an id before it writes any table.

The property test draws type and aspect ids from the DSL's word
language (`dsl._WORD`, every character one that UTF-8 encodes), so
"/", NUL, ".", "\\" and long ids all occur.  Whenever `validate` exits
0 on the olog, `write_bundle` of an instance writes only its tables,
directly in its directory; `check-instance` exits 0 on that bundle; and
`load_bundle` reads the same instance back.  Whatever the ids,
serializing what `parse_olog` read and parsing it again gives the same
declarations.  A draw may also be refused for a repeated id, or for a
fact whose sides are both "[1]"; the test counts both outcomes."""

import io
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES
from ologs import dsl
from ologs.category import PathCategory
from ologs.cli import main
from ologs.errors import OlogError
from ologs.instance import Instance, load_bundle, write_bundle
from ologs.language import NounPhrase
from ologs.olog import LinguisticStructure, Olog, TypeLabel

# Ids are words of the DSL whose characters UTF-8 encodes.  One id in
# four is drawn by `from_regex`, from the whole word language, long ids
# too, at milliseconds a draw.  The rest are runs of up to 8 word
# characters (no whitespace, punctuation, '"' or '#') with no "->",
# which cost far less and still hold "/", NUL, "." and "\\".
short_ids = st.text(
    st.characters(codec="utf-8", exclude_characters='{}[],;:=~"#').filter(
        lambda c: not c.isspace()),
    min_size=1, max_size=8).filter(lambda word: "->" not in word)
regex_ids = st.from_regex(dsl._WORD, fullmatch=True,
                          alphabet=st.characters(codec="utf-8"))
ids = st.integers(0, 3).flatmap(lambda k: short_ids if k else regex_ids)
aspects = st.lists(st.tuples(ids, st.integers(0, 1), st.integers(0, 1)),
                   max_size=1)


def olog_text(type_ids, aspect_specs) -> str:
    lines = ['olog "closure"']
    lines += [f'type {t} = "a thing {k}" by {{S}}'
              for k, t in enumerate(type_ids)]
    lines += [f"aspect {a} : {type_ids[s % len(type_ids)]} -> "
              f'{type_ids[t % len(type_ids)]} = "relates {k} to" by {{S}}'
              for k, (a, s, t) in enumerate(aspect_specs)]
    if aspect_specs:
        first = aspect_specs[0][0]
        lines.append(f"fact e : [{first}] ~ [{first}] by {{S}}")
    return "\n".join(lines) + "\n"


dsl_word = re.compile(dsl._WORD)


def by_name(doc):
    return (doc.name, *(sorted(decls, key=lambda d: d.name)
                        for decls in (doc.types, doc.aspects, doc.facts)))


def cli(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def every_file(root) -> set[tuple[str, str]]:
    return {(folder, name) for folder, _, names in os.walk(root)
            for name in names}


def test_what_validate_accepts_a_bundle_holds():
    outcomes = {"accepted": 0, "cannot name a table file": 0, "other": 0}

    @settings(max_examples=1000, derandomize=True, deadline=None)
    @given(st.lists(ids, min_size=1, max_size=2), aspects)
    def check(type_ids, aspect_specs):
        for word in (*type_ids, *(a for a, _, _ in aspect_specs)):
            assert dsl_word.fullmatch(word)
        text = olog_text(type_ids, aspect_specs)
        doc = dsl.parse_olog(text)
        assert by_name(dsl.parse_olog(dsl.serialize_olog(doc))) == by_name(doc)
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "closure.olog")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            code, err = cli("validate", path)
            assert every_file(root) == {(root, "closure.olog")}
            if code:
                assert code == 2, err
                kind = ("cannot name a table file"
                        if "cannot name a table file" in err else "other")
                outcomes[kind] += 1
                return
            outcomes["accepted"] += 1
            olog = dsl.load_olog(path)
            tokens = {t: (f"x{k}", f"y{k}") for k, t in enumerate(type_ids)}
            functions = {g.name: dict.fromkeys(tokens[g.source],
                                               tokens[g.target][0])
                         for g in olog.category.generators}
            inst = Instance(olog, tokens, functions)
            bundle = os.path.join(root, "bundle")
            write_bundle(bundle, inst)
            written = {(bundle, f"{name}.csv")
                       for name in (*tokens, *functions)}
            assert every_file(root) == {(root, "closure.olog"), *written}
            assert cli("check-instance", path, bundle) == (0, "")
            assert load_bundle(bundle, olog) == inst

    check()
    # Both outcomes occur often: 690 and 144 of 1,000 run alone, 731
    # and 94 after the rest of the suite, which moves Hypothesis's draws.
    assert outcomes["accepted"] >= 300, outcomes
    assert outcomes["cannot name a table file"] >= 30, outcomes


# "ABS" stands for an absolute path in the test's own directory.
REFUSED = ["../evil", "ABS", "a\0b", "é" * 126]


@pytest.mark.parametrize("bad", REFUSED, ids=["up", "absolute", "nul",
                                              "252-bytes"])
def test_migrate_refuses_an_id_that_names_no_table_file(tmp_path, bad):
    bad = str(tmp_path / "abs") if bad == "ABS" else bad
    (tmp_path / "evil.olog").write_text(
        f'olog "evil"\ntype {bad} = "a human" by {{S}}\n', encoding="utf-8")
    (tmp_path / "m.map").write_text(
        f'mapping "m"\nsource "evil.olog"\ntarget "person1.olog"\n'
        f'object {bad} -> a\ncomponent {bad} = "is" by {{S}}\n',
        encoding="utf-8")
    (tmp_path / "person1.olog").write_bytes(
        (FIXTURES / "person1.olog").read_bytes())
    before = every_file(tmp_path)
    message = f"error: id {bad!r} cannot name a table file\n"
    assert cli("validate", str(tmp_path / "evil.olog")) == (2, message)
    assert cli("migrate", str(tmp_path / "m.map"),
               "--dst-data", str(FIXTURES / "data" / "person"),
               "--out", str(tmp_path / "work" / "out")) == (2, message)
    assert every_file(tmp_path) == before


def test_an_id_of_251_bytes_is_a_table_file(tmp_path):
    name = "é" * 125 + "a"  # its table file takes 255 bytes
    (tmp_path / "long.olog").write_text(
        f'olog "long"\ntype {name} = "a human" by {{S}}\n', encoding="utf-8")
    assert cli("validate", str(tmp_path / "long.olog")) == (0, "")
    olog = dsl.load_olog(tmp_path / "long.olog")
    inst = Instance(olog, {name: ("t",)})
    write_bundle(tmp_path / "bundle", inst)
    assert load_bundle(tmp_path / "bundle", olog) == inst


def test_write_bundle_refuses_an_id_before_it_writes(tmp_path):
    """An olog built without the DSL may hold any id; `write_bundle`
    writes none of its tables if one id names no table file."""
    for bad in ("../evil", "sub/evil", str(tmp_path / "abs"), "a\0b",
                "x" * 252):
        names = ("good", bad)
        olog = Olog("o", PathCategory(names, ()), LinguisticStructure(
            {t: TypeLabel(NounPhrase(f"a {t}"), frozenset("S"))
             for t in names}, {}, {}))
        with pytest.raises(OlogError, match="cannot name a table file"):
            write_bundle(tmp_path / "out",
                         Instance(olog, {t: ("t",) for t in names}))
    assert every_file(tmp_path) == set()
    assert not (tmp_path / "out").exists()
