"""`check-mapping` with data and `migrate` agree with the SQL oracle.

Over randgen maps, a source olog without facts is mapped by a random
functor onto a target olog that passes `validate_olog`, and a random
target instance is written by `write_bundle`.  The source instance holds
one or two copies `y.1`, `y.2` of each target token y at F(c), each
copy's component value is y, and each source aspect sends a copy of y to
a copy of F(g)(y); that family is natural.  One component value is then
planted wrong, inside the target's tokens, and the correspondence tables
are written as plain CSV files.

The (generator, token) pairs of `check-mapping --src-data --dst-data
--json`'s `naturality-violation` findings must equal those that
`sql_oracle` finds by joins over the raw CSV files, and the rows of
every table that `migrate` writes must equal the oracle's join chains.
The oracle takes the schema from the olog and functor objects.
"""

import ast
import contextlib
import csv
import io
import json
import random
import re

from ologs.cli import main
from ologs.dsl import (MappingDocument, document_from_olog, serialize_mapping,
                       serialize_olog)
from ologs.instance import Instance, write_bundle
from ologs.olog import validate_olog
from randgen import random_functor, random_instance, random_olog
from sql_oracle import (load_mapping_database, migrated_rows,
                        naturality_violations)

FIRST_SEED = 12000
MAPS = 500
VIOLATION = re.compile(r"square at generator ('.*') fails on token ('.*')")


def walk(j, path, y):
    """The end of path's walk from y in j, by its token dicts."""
    for arrow in path.arrows:
        y = j.functions[arrow][y]
    return y


def natural_source(rng, src, f, j):
    """A source instance of copies of j's tokens, and its components."""
    comps, copies = {}, {}
    for c in src.category.objects:
        comps[c] = {f"{y}.{k}": y for y in j.token_set(f.apply_object(c))
                    for k in range(1, rng.randint(1, 2) + 1)}
        copies[c] = {}
        for x, y in comps[c].items():
            copies[c].setdefault(y, []).append(x)
    functions = {}
    for g in src.category.generators:
        image = f.generator_map[g.name]
        functions[g.name] = {
            x: rng.choice(copies[g.target][walk(j, image, y)])
            for x, y in comps[g.source].items()}
    tokens = {c: tuple(comp) for c, comp in comps.items()}
    return Instance(src, tokens, functions), comps


def plant_component(rng, f, j, comps):
    """Send one source token's component to another target token."""
    objs = [c for c in comps if len(j.token_set(f.apply_object(c))) > 1]
    if objs:
        c = rng.choice(objs)
        x = rng.choice(sorted(comps[c]))
        comps[c][x] = rng.choice([y for y in j.token_set(f.apply_object(c))
                                  if y != comps[c][x]])


def write_case(case, src, dst, f, i, j, comps):
    """The ologs, bundles, correspondence tables and map of one case; the
    map's path and each object's table path."""
    (case / "tables").mkdir(parents=True)
    for name, o in (("src", src), ("dst", dst)):
        (case / f"{name}.olog").write_text(
            serialize_olog(document_from_olog(o)), encoding="utf-8")
    write_bundle(case / "src", i)
    write_bundle(case / "dst", j)
    tables = {}
    for c, comp in comps.items():
        tables[c] = case / "tables" / f"{c}.csv"
        header = (src.noun(c).text,
                  f"is {dst.noun(f.apply_object(c)).text}, namely")
        with open(tables[c], "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(
                [header, *comp.items()])
    doc = MappingDocument(
        "m", "src.olog", "dst.olog", object_map=dict(f.object_map),
        aspect_map={g: p.arrows or None for g, p in f.generator_map.items()},
        components={c: ("is", ()) for c in comps},
        tables={c: f"tables/{c}.csv" for c in comps})
    (case / "m.map").write_text(serialize_mapping(doc), encoding="utf-8")
    return case / "m.map", tables


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def reported_violations(map_path, case):
    code, out, err = run("check-mapping", map_path, "--src-data",
                         case / "src", "--dst-data", case / "dst", "--json")
    assert err == ""
    pairs = set()
    for finding in json.loads(out)["findings"]:
        if finding["code"] == "empty-square-authors":
            continue
        assert finding["code"] == "naturality-violation", finding
        gen, token = VIOLATION.fullmatch(finding["message"]).groups()
        pairs.add((ast.literal_eval(gen), ast.literal_eval(token)))
    assert code == (1 if pairs else 0)
    return pairs


def migrated_tables(map_path, case):
    out = case / "out"
    assert run("migrate", map_path, "--dst-data", case / "dst",
               "--out", out) == (0, "", "")
    tables = {}
    for path in out.iterdir():
        with open(path, newline="", encoding="utf-8") as handle:
            tables[path.stem] = set(map(tuple, list(csv.reader(handle))[1:]))
    return tables


def test_naturality_and_migration_match_the_sql_oracle(tmp_path):
    checked = violations = rows = 0
    seed = FIRST_SEED
    while checked < MAPS:
        rng = random.Random(seed)
        seed += 1
        src = random_olog(rng, name="src", max_objects=3, max_generators=4,
                          max_equations=0)
        dst = random_olog(rng, name="dst", max_objects=3, max_generators=4)
        f = random_functor(rng, src.category, dst.category)
        if f is None or not (validate_olog(src).ok and validate_olog(dst).ok):
            continue
        j = random_instance(rng, dst)
        i, comps = natural_source(rng, src, f, j)
        plant_component(rng, f, j, comps)
        case = tmp_path / str(seed)
        map_path, tables = write_case(case, src, dst, f, i, j, comps)
        db = load_mapping_database(case / "src", src, case / "dst", dst,
                                   tables)
        with contextlib.closing(db):
            expected = naturality_violations(db, f)
            migrated = migrated_rows(db, f)
        assert reported_violations(map_path, case) == expected, seed
        assert migrated_tables(map_path, case) == migrated, seed
        checked += 1
        violations += len(expected)
        rows += sum(map(len, migrated.values()))
    assert violations > MAPS // 2
    assert rows > MAPS
