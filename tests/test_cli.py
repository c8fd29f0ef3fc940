"""Command-line behavior: exit codes, readings, JSON reports."""

import csv
import json
import random
import shutil
import sys

import pytest

from ologs import cli
from ologs.cli import main
from ologs.report import ValidationReport


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_olog_exits_zero(self, fixtures, capsys):
        code, out, err = run(capsys, "validate", fixtures / "parents.olog")
        assert code == 0
        assert err == ""

    def test_invalid_olog_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.olog"
        bad.write_text(
            'olog "bad"\n'
            'type a = "an ant" by {A}\n'
            'type b = "a bee" by {B}\n'
            'aspect f : a -> b = "stings" by {A}\n',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "validate", bad)
        assert code == 1
        assert "aspect-author-violation" in err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.olog"
        bad.write_text("not an olog\n", encoding="utf-8")
        code, out, err = run(capsys, "validate", bad)
        assert code == 2
        assert "parse error" in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "validate", tmp_path / "absent.olog")
        assert code == 2
        assert "error" in err

    def test_json_report_shape(self, fixtures, capsys):
        code, out, _ = run(capsys, "validate", fixtures / "parents.olog",
                           "--json")
        assert code == 0
        assert json.loads(out) == {"ok": True, "findings": []}

    def test_json_report_lists_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.olog"
        bad.write_text(
            'olog "bad"\n'
            'type a = "an ant" by {A}\n'
            'type b = "a bee" by {B}\n'
            'aspect f : a -> b = "stings" by {A}\n',
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "validate", bad, "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["findings"][0]["code"] == "aspect-author-violation"
        assert isinstance(payload["findings"][0]["message"], str)


class TestRead:
    def test_amino_sentences(self, fixtures, capsys):
        code, out, _ = run(capsys, "read", fixtures / "amino.olog")
        assert code == 0
        assert out.splitlines() == [
            "an amino acid has an amine group",
            "an amine group includes a nitrogen atom",
            "an amino acid contains a nitrogen atom",
        ]

    def test_facts_add_derived_and_equivalence(self, fixtures, capsys):
        code, out, _ = run(capsys, "read", fixtures / "amino.olog", "--facts")
        lines = out.splitlines()
        assert code == 0
        assert ("an amino acid has an amine group, which includes "
                "a nitrogen atom") in lines
        assert lines[-1].startswith("For any amino acid x, ")
        assert lines[-1].endswith("y1 and y2 are the same for any x.")

    def test_json_output(self, fixtures, capsys):
        code, out, _ = run(capsys, "read", fixtures / "amino.olog", "--json")
        payload = json.loads(out)
        assert code == 0
        assert [f["code"] for f in payload["findings"]] == ["sentence"] * 3


class TestCheckInstance:
    def test_bush_bundle_passes(self, fixtures, capsys):
        code, _, err = run(capsys, "check-instance", fixtures / "father.olog",
                           fixtures / "data" / "bush")
        assert code == 0 and err == ""

    def test_broken_bundle_fails(self, fixtures, tmp_path, capsys):
        bundle = tmp_path / "bush"
        shutil.copytree(fixtures / "data" / "bush", bundle)
        has = bundle / "has.csv"
        rows = has.read_text(encoding="utf-8").splitlines()
        has.write_text("\n".join(rows[:-1]) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "check-instance", fixtures / "father.olog",
                           bundle)
        assert code == 1
        assert "totality-violation" in err


class TestCheckMapping:
    def test_weight_f_passes(self, fixtures, capsys):
        code, _, err = run(capsys, "check-mapping", fixtures / "weight_F.map")
        assert code == 0 and err == ""

    def test_weight_g_warns_but_passes(self, fixtures, capsys):
        code, _, err = run(capsys, "check-mapping", fixtures / "weight_G.map")
        assert code == 0
        assert "warning empty-square-authors" in err

    def test_with_data_checks_conformance(self, fixtures, capsys):
        code, _, err = run(
            capsys, "check-mapping", fixtures / "merge_is.map",
            "--src-data", fixtures / "data" / "human",
            "--dst-data", fixtures / "data" / "person",
        )
        assert code == 0 and err == ""


class TestPullback:
    def test_writes_pulled_back_olog(self, fixtures, tmp_path, capsys):
        out_file = tmp_path / "pulled.olog"
        code, _, _ = run(capsys, "pullback", fixtures / "weight_F.map",
                         "--out", out_file)
        assert code == 0
        text = out_file.read_text(encoding="utf-8")
        assert '"an animal"' in text
        assert '"has as weight (in kilograms)"' in text

    def test_g_pullback_keeps_source_label(self, fixtures, tmp_path, capsys):
        out_file = tmp_path / "pulled.olog"
        code, _, _ = run(capsys, "pullback", fixtures / "weight_G.map",
                         "--out", out_file)
        assert code == 0
        assert '"a number between 20 and 500"' in \
            out_file.read_text(encoding="utf-8")


class TestMigrate:
    def test_retabulates_target_data(self, fixtures, tmp_path, capsys):
        out_dir = tmp_path / "migrated"
        code, _, _ = run(capsys, "migrate", fixtures / "merge_is.map",
                         "--dst-data", fixtures / "data" / "person",
                         "--out", out_dir)
        assert code == 0
        lines = (out_dir / "h.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "a person"
        assert len(lines) == 6  # header + the five person tokens

    def write_non_total_bundle(self, fixtures, base):
        """The self-merge with Emmy Noether's row dropped from dst/has.csv."""
        data = write_self_merge(fixtures, base)
        has = base / "dst" / "has.csv"
        rows = has.read_text(encoding="utf-8").splitlines()
        has.write_text("\n".join(rows[:-1]) + "\n", encoding="utf-8")
        return data[-1]

    def test_non_total_bundle(self, fixtures, tmp_path, capsys):
        dst = self.write_non_total_bundle(fixtures, tmp_path)
        out_dir = tmp_path / "migrated"
        code, out, err = run(capsys, "migrate", tmp_path / "self.map",
                             "--dst-data", dst, "--out", out_dir)
        assert code == 1
        assert err == ("totality-violation: 'has' has no value for token "
                       "'Emmy Noether'\n")
        assert out == ""
        assert not out_dir.exists()

    def test_non_total_bundle_json(self, fixtures, tmp_path, capsys):
        dst = self.write_non_total_bundle(fixtures, tmp_path)
        out_dir = tmp_path / "migrated"
        code, out, err = run(capsys, "migrate", tmp_path / "self.map",
                             "--dst-data", dst, "--out", out_dir, "--json")
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert [f["code"] for f in report["findings"]] == [
            "totality-violation"]
        assert err == ""
        assert not out_dir.exists()


def write_marriage_without_aspects(fixtures, base):
    """marriage.map with its aspect lines removed, so has_f and has_m
    have no image."""
    for name in ("child.olog", "marriage.olog"):
        shutil.copy(fixtures / name, base)
    lines = (fixtures / "marriage.map").read_text(encoding="utf-8").splitlines()
    map_file = base / "marriage.map"
    map_file.write_text(
        "".join(line + "\n" for line in lines
                if not line.startswith("aspect ")),
        encoding="utf-8")
    return map_file


def write_self_map_without_aspect(fixtures, base):
    """The identity self-merge with its `aspect has` line removed."""
    data = write_self_merge(fixtures, base)
    map_file = base / "self.map"
    text = map_file.read_text(encoding="utf-8")
    map_file.write_text(text.replace("aspect has -> [has]\n", ""),
                        encoding="utf-8")
    return map_file, data[-1]


class TestUnvalidatedMapping:
    """pullback and migrate validate the mapping before acting on it."""

    def test_pullback_reports_missing_image(self, fixtures, tmp_path, capsys):
        map_file = write_marriage_without_aspects(fixtures, tmp_path)
        out_file = tmp_path / "pulled.olog"
        code, out, err = run(capsys, "pullback", map_file, "--out", out_file)
        assert code == 1
        assert "missing-generator-image: generator 'has_f' has no image" in err
        assert "error:" not in err
        assert out == ""
        assert not out_file.exists()

    def test_pullback_json(self, fixtures, tmp_path, capsys):
        map_file = write_marriage_without_aspects(fixtures, tmp_path)
        code, out, err = run(capsys, "pullback", map_file,
                             "--out", tmp_path / "pulled.olog", "--json")
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert {f["code"] for f in report["findings"]} == {
            "missing-generator-image"}
        assert err == ""

    def test_migrate_reports_missing_image(self, fixtures, tmp_path, capsys):
        map_file, dst = write_self_map_without_aspect(fixtures, tmp_path)
        out_dir = tmp_path / "migrated"
        code, out, err = run(capsys, "migrate", map_file, "--dst-data", dst,
                             "--out", out_dir)
        assert code == 1
        assert "missing-generator-image: generator 'has' has no image" in err
        assert "error:" not in err
        assert out == ""
        assert not out_dir.exists()

    def test_migrate_json(self, fixtures, tmp_path, capsys):
        map_file, dst = write_self_map_without_aspect(fixtures, tmp_path)
        code, out, err = run(capsys, "migrate", map_file, "--dst-data", dst,
                             "--out", tmp_path / "migrated", "--json")
        assert code == 1
        assert [f["code"] for f in json.loads(out)["findings"]] == [
            "missing-generator-image"]
        assert err == ""


class TestSearchConforming:
    def test_counts_and_survivor(self, fixtures, capsys):
        code, out, _ = run(
            capsys, "search-conforming", fixtures / "merge_is.map",
            "--src-data", fixtures / "data" / "human",
            "--dst-data", fixtures / "data" / "person",
        )
        assert code == 0
        assert "candidates: 25" in out
        assert "conforming: 1" in out
        assert "h: Emmy Noether -> Emmy Noether" in out

    def test_json_output(self, fixtures, capsys):
        code, out, _ = run(
            capsys, "search-conforming", fixtures / "merge_father.map",
            "--src-data", fixtures / "data" / "human",
            "--dst-data", fixtures / "data" / "person", "--json",
        )
        payload = json.loads(out)
        codes = [f["code"] for f in payload["findings"]]
        assert codes == ["candidates", "conforming", "morphism"]
        assert payload["findings"][0]["message"] == "25"
        assert "Emmy Noether -> Max Noether" in payload["findings"][2]["message"]

    def test_limit_exceeded_exits_two(self, fixtures, capsys):
        code, _, err = run(
            capsys, "search-conforming", fixtures / "merge_is.map",
            "--src-data", fixtures / "data" / "human",
            "--dst-data", fixtures / "data" / "person",
            "--limit", "10",
        )
        assert code == 2
        assert "25" in err


def write_self_merge(fixtures, base):
    """The fatherhood olog mapped onto itself by the identity, with the
    bush bundle on both sides and identity correspondence tables."""
    shutil.copy(fixtures / "father.olog", base)
    for side in ("src", "dst"):
        shutil.copytree(fixtures / "data" / "bush", base / side)
    for obj in ("person", "father"):
        with open(fixtures / "data" / "bush" / f"{obj}.csv",
                  encoding="utf-8") as handle:
            noun, *tokens = [row[0] for row in csv.reader(handle)]
        with open(base / f"{obj}_corr.csv", "w", newline="",
                  encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow([noun, f"is {noun}, namely"])
            writer.writerows((t, t) for t in tokens)
    (base / "self.map").write_text(
        'mapping "self"\n'
        'source "father.olog"\n'
        'target "father.olog"\n'
        "object person -> person\n"
        "object father -> father\n"
        "aspect has -> [has]\n"
        'component person = "is" by {S}\n'
        'component father = "is" by {S}\n'
        "square has by {S}\n"
        'table person = "person_corr.csv"\n'
        'table father = "father_corr.csv"\n',
        encoding="utf-8",
    )
    return ["--src-data", base / "src", "--dst-data", base / "dst"]


@pytest.mark.parametrize("command", ["search-conforming", "check-mapping"])
class TestMalformedMergeInputs:
    def test_clean_inputs_pass(self, fixtures, tmp_path, command, capsys):
        data = write_self_merge(fixtures, tmp_path)
        code, _, err = run(capsys, command, tmp_path / "self.map", *data)
        assert code == 0 and err == ""

    def test_non_total_source_data(self, fixtures, tmp_path, command, capsys):
        data = write_self_merge(fixtures, tmp_path)
        has = tmp_path / "src" / "has.csv"
        rows = has.read_text(encoding="utf-8").splitlines()
        has.write_text("\n".join(rows[:-1]) + "\n", encoding="utf-8")
        code, _, err = run(capsys, command, tmp_path / "self.map", *data)
        assert code == 1
        assert "totality-violation: 'has' has no value for token " \
            "'Emmy Noether'" in err
        assert "Traceback" not in err

    def test_table_for_object_without_component(self, fixtures, tmp_path,
                                                command, capsys):
        data = write_self_merge(fixtures, tmp_path)
        map_file = tmp_path / "self.map"
        text = map_file.read_text(encoding="utf-8")
        map_file.write_text(
            text.replace('component father = "is" by {S}\n', ""),
            encoding="utf-8")
        code, _, err = run(capsys, command, map_file, *data)
        assert code == 1
        assert "missing-component" in err
        assert "Traceback" not in err

    def test_table_for_unknown_object(self, fixtures, tmp_path, command,
                                      capsys):
        data = write_self_merge(fixtures, tmp_path)
        map_file = tmp_path / "self.map"
        with open(map_file, "a", encoding="utf-8") as handle:
            handle.write('table nobody = "person_corr.csv"\n')
        code, _, err = run(capsys, command, map_file, *data)
        assert code == 2
        assert "unknown source object 'nobody'" in err
        assert "Traceback" not in err


# Every subcommand, with paths relative to a copy of the fixtures that
# also holds the self-merge of `write_self_merge`.
FUZZ_COMMANDS = (
    ("validate", "father.olog"),
    ("read", "amino.olog", "--facts"),
    ("check-instance", "father.olog", "data/bush"),
    ("check-mapping", "weight_F.map"),
    ("check-mapping", "self.map", "--src-data", "src", "--dst-data", "dst"),
    ("pullback", "marriage.map", "--out", "{out}/pulled.olog"),
    ("migrate", "self.map", "--dst-data", "dst", "--out", "{out}/migrated"),
    ("search-conforming", "merge_father.map", "--src-data", "data/human",
     "--dst-data", "data/person"),
    ("search-conforming", "self.map", "--src-data", "src",
     "--dst-data", "dst"),
)


def corrupt(text, rng):
    """Delete a line, drop a character, or duplicate a line."""
    lines = text.splitlines(keepends=True)
    if not lines:
        return text
    k = rng.randrange(len(lines))
    action = rng.randrange(3)
    if action == 0:
        del lines[k]
    elif action == 1:
        if lines[k]:
            c = rng.randrange(len(lines[k]))
            lines[k] = lines[k][:c] + lines[k][c + 1:]
    else:
        lines.insert(k, lines[k])
    return "".join(lines)


def test_corrupted_inputs_never_crash(fixtures, tmp_path, capsys,
                                      monkeypatch):
    """One corrupted file per trial; every subcommand exits 0, 1 or 2
    and no exception escapes `main`."""
    base = tmp_path / "fixtures"
    shutil.copytree(fixtures, base)
    write_self_merge(fixtures, base)
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(base)
    files = sorted(p for p in base.rglob("*") if p.is_file())
    rng = random.Random(5005)
    for trial in range(75):
        path = rng.choice(files)
        original = path.read_text(encoding="utf-8")
        path.write_text(corrupt(original, rng), encoding="utf-8")
        for command in FUZZ_COMMANDS:
            argv = [arg.format(out=out) for arg in command]
            try:
                code = main(argv)
            except Exception as exc:
                pytest.fail(f"trial {trial}, {path.relative_to(base)}: "
                            f"{argv} raised {exc!r}")
            assert code in (0, 1, 2), (trial, argv, code)
            capsys.readouterr()
        path.write_text(original, encoding="utf-8")


def test_usage_error_exits_two(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_repeated_table_line_is_a_usage_error(fixtures, tmp_path, capsys):
    for name in ("human.olog", "person1.olog"):
        shutil.copy(fixtures / name, tmp_path)
    text = (fixtures / "merge_is.map").read_text(encoding="utf-8")
    table = next(line for line in text.splitlines()
                 if line.startswith("table "))
    map_file = tmp_path / "merge_is.map"
    map_file.write_text(text + table + "\n", encoding="utf-8")
    code, out, err = run(capsys, "check-mapping", map_file)
    assert code == 2
    assert out == ""
    assert err.startswith("error: table at ") and "declared twice" in err


def test_read_json_reports_ok_with_every_reading(fixtures, capsys):
    olog = fixtures / "amino.olog"
    code, out, err = run(capsys, "read", olog, "--facts", "--json")
    _, plain, _ = run(capsys, "read", olog, "--facts")
    payload = json.loads(out)
    assert code == 0 and err == ""
    assert payload["ok"] is True
    assert [f["message"] for f in payload["findings"]] == plain.splitlines()
    assert [f["code"] for f in payload["findings"]][-1] == "fact"


def test_one_parser_answers_as_a_fresh_one(fixtures, tmp_path, capsys):
    """The parser is built once per process; reusing it across usage
    errors, help and failing commands changes no call's output."""
    broken = tmp_path / "bush"
    shutil.copytree(fixtures / "data" / "bush", broken)
    has = broken / "has.csv"
    rows = has.read_text(encoding="utf-8").splitlines()
    has.write_text("\n".join(rows[:-1]) + "\n", encoding="utf-8")
    father, bush = fixtures / "father.olog", fixtures / "data" / "bush"
    calls = [
        [],
        ["--help"],
        ["validate", fixtures / "parents.olog"],
        ["no-such-command"],
        ["check-instance", father, broken],
        ["read", "--help"],
        ["check-instance", father, bush, "--json"],
        ["check-mapping", fixtures / "weight_F.map", "--bound", "x"],
        ["read", fixtures / "amino.olog", "--facts"],
        ["search-conforming", fixtures / "merge_father.map",
         "--src-data", fixtures / "data" / "human",
         "--dst-data", fixtures / "data" / "person"],
        ["check-instance", father, broken, "--json"],
        ["validate"],
    ]
    cli.build_parser.cache_clear()
    reused = [run(capsys, *argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _, _ in reused] == [2, 0, 0, 2, 1, 0, 0, 2, 0, 0,
                                               1, 2]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh


def test_unknown_target_aspect_is_named(fixtures, tmp_path, capsys):
    for name in ("child.olog", "marriage.olog"):
        shutil.copy(fixtures / name, tmp_path)
    text = (fixtures / "marriage.map").read_text(encoding="utf-8")
    map_file = tmp_path / "marriage.map"
    map_file.write_text(text.replace("[inc_m]", "[inc_zz]"), encoding="utf-8")
    code, out, err = run(capsys, "check-mapping", map_file)
    assert code == 2
    assert out == ""
    assert err == "error: unknown target aspect 'inc_zz'\n"


def rewrite_correspondence(base, obj, edit):
    """Apply `edit` to the rows of the self-merge's table at `obj`."""
    table = base / f"{obj}_corr.csv"
    rows = table.read_text(encoding="utf-8").splitlines()
    table.write_text("".join(row + "\n" for row in edit(rows)),
                     encoding="utf-8")


def test_two_partners_for_one_token(fixtures, tmp_path, capsys):
    data = write_self_merge(fixtures, tmp_path)
    rewrite_correspondence(tmp_path, "person", lambda rows: rows + [
        f"{rows[1].split(',')[0]},{rows[2].split(',')[1]}"])
    code, out, err = run(capsys, "check-mapping", tmp_path / "self.map", *data)
    assert code == 1
    assert out == ""
    assert err.startswith(
        "ambiguous-correspondence: table at 'person' declares two partners "
        "for ")


def test_correspondence_header_breaks_the_convention(fixtures, tmp_path,
                                                     capsys):
    data = write_self_merge(fixtures, tmp_path)
    rewrite_correspondence(tmp_path, "father", lambda rows: [
        rows[0].replace("namely", "that is")] + rows[1:])
    for command in ("check-mapping", "search-conforming"):
        code, out, err = run(capsys, command, tmp_path / "self.map", *data)
        assert code == 2
        assert out == ""
        assert err.startswith("error: father_corr.csv: header ")
        assert "does not match the component convention" in err


def test_emit_prints_the_report_text(capsys):
    report = ValidationReport()
    assert cli._emit(report, False) == 0
    assert capsys.readouterr().err == ""
    report.warn("w", "a warning")
    report.add("f", "a finding")
    assert cli._emit(report, False) == 1
    assert capsys.readouterr().err == "f: a finding\nwarning w: a warning\n"


@pytest.mark.parametrize("kind", ["olog", "mapping"])
def test_empty_verb_is_a_usage_error(fixtures, tmp_path, capsys, kind):
    if kind == "olog":
        path = tmp_path / "e.olog"
        path.write_text('olog "e"\ntype a = "an a" by {A}\n'
                        'aspect f : a -> a = "" by {A}\n', encoding="utf-8")
        argv, named = ("validate", path), "aspect 'f'"
    else:
        shutil.copy(fixtures / "father.olog", tmp_path)
        path = tmp_path / "e.map"
        path.write_text('mapping "e"\nsource "father.olog"\n'
                        'target "father.olog"\nobject person -> person\n'
                        "object father -> father\naspect has -> [has]\n"
                        'component person = "" by {S}\n', encoding="utf-8")
        argv, named = ("check-mapping", path), "component 'person'"
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {named}: verb phrase text must be nonempty\n"


def test_overlong_bundle_field_is_a_usage_error(fixtures, tmp_path, capsys):
    """csv's field limit ends check-instance with a message, not a
    `csv.Error` traceback."""
    bundle = tmp_path / "bush"
    shutil.copytree(fixtures / "data" / "bush", bundle)
    table = bundle / "father.csv"
    limit = csv.field_size_limit()
    with open(table, "a", encoding="utf-8") as handle:
        handle.write("x" * (limit + 1) + "\n")
    code, out, err = run(capsys, "check-instance", fixtures / "father.olog",
                         bundle)
    assert (code, out) == (2, "")
    assert err == f"error: {table}: field larger than field limit ({limit})\n"


@pytest.mark.parametrize("command", ["check-mapping", "search-conforming"])
def test_overlong_correspondence_field_is_a_usage_error(fixtures, tmp_path,
                                                        capsys, command):
    data = write_self_merge(fixtures, tmp_path)
    limit = csv.field_size_limit()
    rewrite_correspondence(tmp_path, "person",
                           lambda rows: rows + ["x" * (limit + 1) + ",y"])
    code, out, err = run(capsys, command, tmp_path / "self.map", *data)
    assert (code, out) == (2, "")
    assert err == (f"error: {tmp_path / 'person_corr.csv'}: "
                   f"field larger than field limit ({limit})\n")


def test_nul_in_a_bundle_table_is_read_as_csv_reads_it(fixtures, tmp_path,
                                                       capsys):
    """Python 3.10's csv rejects a NUL, which is then a usage error; later
    versions read it as a character of a token."""
    bundle = tmp_path / "bush"
    shutil.copytree(fixtures / "data" / "bush", bundle)
    table = bundle / "father.csv"
    with open(table, "a", encoding="utf-8") as handle:
        handle.write("Nobody\0 Known\n")
    code, out, err = run(capsys, "check-instance", fixtures / "father.olog",
                         bundle)
    if sys.version_info < (3, 11):
        assert (code, out, err) == (
            2, "", f"error: {table}: line contains NUL\n")
    else:
        assert (code, out, err) == (0, "", "")


class TestCheckMappingDataFlags:
    """--src-data and --dst-data are given together or not at all."""

    MESSAGE = "error: --src-data and --dst-data must be given together\n"

    @pytest.mark.parametrize("flag, bundle", [("--src-data", "human"),
                                              ("--dst-data", "person")])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_one_data_flag_alone_is_a_usage_error(self, fixtures, capsys,
                                                  flag, bundle, as_json):
        argv = ["check-mapping", fixtures / "merge_is.map",
                flag, fixtures / "data" / bundle]
        code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
        assert (code, out, err) == (2, "", self.MESSAGE)

    @pytest.mark.parametrize("flag", ["--src-data", "--dst-data"])
    def test_it_is_reported_before_any_file_is_read(self, tmp_path, capsys,
                                                    flag):
        code, out, err = run(capsys, "check-mapping", tmp_path / "no.map",
                             flag, tmp_path / "no-data")
        assert (code, out, err) == (2, "", self.MESSAGE)
