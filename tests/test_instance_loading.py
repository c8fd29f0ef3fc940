"""load_bundle and check_totality against per-table and per-token references.

The references restate the loader and the totality check the slow way:
every header is matched against every type and aspect, every table's
(kind, target, content) triple must equal `load_table`'s, and every
token is checked one by one.  On fixture and random bundles, corrupted
or not, the library must return an equal Instance or raise the same
exception with the same message, and must report the same findings in
the same order.
"""

import csv
import dataclasses
import random
import shutil
import tempfile
from pathlib import Path as FsPath

from hypothesis import given, settings, strategies as st

from conftest import FIXTURES
from ologs.dsl import load_olog
from ologs.errors import AmbiguousHeader, DuplicateKey, UnboundHeader
from ologs.instance import (
    Instance,
    check_totality,
    generator_header,
    load_bundle,
    load_table,
    read_table_file,
    type_header,
    write_bundle,
)
from ologs.olog import LinguisticStructure, TypeLabel
from randgen import random_instance, random_olog

FIXTURE_BUNDLES = (("father.olog", "bush"), ("human.olog", "human"),
                   ("person1.olog", "person"))


def reference_binding(table, o):
    """(kind, target, tokens or mapping) as the per-table matcher binds."""
    if len(table.header) == 1:
        matches = [obj for obj in o.category.objects
                   if type_header(o, obj) == table.header]
        if not matches:
            raise UnboundHeader(f"no type reads {table.header[0]!r}")
        if len(matches) > 1:
            raise AmbiguousHeader(
                f"header {table.header[0]!r} matches types {matches}")
        return "tokens", matches[0], tuple(row[0] for row in table.rows)
    matches = [g.name for g in o.category.generators
               if generator_header(o, g.name) == table.header]
    if not matches:
        raise UnboundHeader(f"no aspect reads {table.header!r}")
    if len(matches) > 1:
        raise AmbiguousHeader(
            f"header {table.header!r} matches aspects {matches}")
    seen = set()
    for row in table.rows:
        if row[0] in seen:
            raise DuplicateKey(f"two rows for token {row[0]!r}")
        seen.add(row[0])
    return "function", matches[0], {x: y for x, y in table.rows}


def reference_load_bundle(directory, o):
    tokens, functions = {}, {}
    gen_names = {g.name for g in o.category.generators}
    for path in sorted(FsPath(directory).glob("*.csv")):
        table = read_table_file(path)
        kind, target, content = reference_binding(table, o)
        assert load_table(table, o) == (kind, target, content)
        name = path.stem
        if name in o.category.objects:
            if kind != "tokens" or target != name:
                raise UnboundHeader(f"{path.name}: header binds to {target!r}, "
                                    f"not to type {name!r}")
            tokens[name] = content
        elif name in gen_names:
            if kind != "function" or target != name:
                raise UnboundHeader(f"{path.name}: header binds to {target!r}, "
                                    f"not to aspect {name!r}")
            functions[name] = content
        else:
            raise UnboundHeader(f"{path.name}: no type or aspect named {name!r}")
    return Instance(o, tokens, functions)


def outcome(load, directory, o):
    try:
        return load(directory, o)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


# --- corruptions of a bundle directory; each may return a changed olog ---

def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def tables(directory):
    return sorted(directory.glob("*.csv"))


def edit_rows(edit):
    """A corruption that rewrites the rows of one table file."""
    def corruption(directory, o, rng):
        files = tables(directory)
        if files:
            path = rng.choice(files)
            rows = read_rows(path)
            if rows:
                edit(rows, rng)
                write_rows(path, rows)
    corruption.__name__ = edit.__name__
    return corruption


@edit_rows
def duplicate_row(rows, rng):
    if len(rows) > 1:
        rows.insert(rng.randint(1, len(rows)), list(rng.choice(rows[1:])))


@edit_rows
def rekey_row(rows, rng):
    if len(rows) > 2:
        i, j = rng.sample(range(1, len(rows)), 2)
        rows[i][0] = rows[j][0]


@edit_rows
def widen_row(rows, rng):
    rng.choice(rows).append("an extra cell")


@edit_rows
def narrow_row(rows, rng):
    row = rng.choice(rows)
    if row:
        row.pop()


def empty_file(directory, o, rng):
    files = tables(directory)
    if files:
        rng.choice(files).write_text("", encoding="utf-8")


def swap_headers(directory, o, rng):
    files = tables(directory)
    if len(files) > 1:
        a, b = rng.sample(files, 2)
        rows_a, rows_b = read_rows(a), read_rows(b)
        if rows_a and rows_b:
            rows_a[0], rows_b[0] = rows_b[0], rows_a[0]
            write_rows(a, rows_a)
            write_rows(b, rows_b)


def rename_file(directory, o, rng):
    files = tables(directory)
    if not files:
        return
    path = rng.choice(files)
    names = [*o.category.objects, *(g.name for g in o.category.generators),
             "mystery"]
    other = directory / f"{rng.choice(names)}.csv"
    if other == path:
        return
    if other.exists():  # swap the two names
        spare = directory / "spare.tmp"
        path.rename(spare)
        other.rename(path)
        spare.rename(other)
    else:
        path.rename(other)


def same_noun(directory, o, rng):
    """An olog in which two types read the same noun phrase."""
    if len(o.category.objects) < 2:
        return None
    a, b = rng.sample(o.category.objects, 2)
    labels = dict(o.structure.type_labels)
    labels[b] = TypeLabel(labels[a].noun, labels[b].authors)
    structure = LinguisticStructure(labels, o.structure.aspect_labels,
                                    o.structure.fact_authors)
    return dataclasses.replace(o, structure=structure)


CORRUPTIONS = (duplicate_row, rekey_row, widen_row, narrow_row, empty_file,
               swap_headers, rename_file, same_noun)


def make_bundle(directory, seed):
    """A fixture bundle copied to `directory`, or a random one written there."""
    rng = random.Random(seed)
    if rng.random() < 0.3:
        olog_file, data = rng.choice(FIXTURE_BUNDLES)
        shutil.copytree(FIXTURES / "data" / data, directory)
        return load_olog(FIXTURES / olog_file)
    o = random_olog(rng, max_objects=4, max_generators=5)
    inst = random_instance(rng, o)
    write_bundle(directory, inst)
    return o


seeds = st.integers(0, 2**32 - 1)


def test_uncorrupted_bundles_load_as_the_reference_loads_them():
    for seed in range(60):
        with tempfile.TemporaryDirectory() as tmp:
            directory = FsPath(tmp) / "bundle"
            o = make_bundle(directory, seed)
            loaded = load_bundle(directory, o)
            assert loaded == reference_load_bundle(directory, o)
            assert check_totality(loaded).ok


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seeds, st.lists(st.tuples(st.sampled_from(CORRUPTIONS), seeds),
                       min_size=1, max_size=3))
def test_corrupted_bundles_load_or_fail_as_the_reference_does(seed, damage):
    with tempfile.TemporaryDirectory() as tmp:
        directory = FsPath(tmp) / "bundle"
        o = make_bundle(directory, seed)
        for corruption, corruption_seed in damage:
            o = corruption(directory, o, random.Random(corruption_seed)) or o
        assert (outcome(load_bundle, directory, o)
                == outcome(reference_load_bundle, directory, o))


def test_each_corruption_reaches_its_error():
    """The corruptions above do reach the errors they are meant to."""
    seen = set()
    for seed in range(40):
        for corruption in CORRUPTIONS:
            with tempfile.TemporaryDirectory() as tmp:
                directory = FsPath(tmp) / "bundle"
                o = make_bundle(directory, seed)
                o = corruption(directory, o, random.Random(seed)) or o
                result = outcome(load_bundle, directory, o)
                if isinstance(result, tuple):
                    seen.add(result[0])
    assert {ValueError, UnboundHeader, AmbiguousHeader, DuplicateKey} <= seen


# --- check_totality ---

def reference_totality(inst):
    """(code, message) per finding, token by token."""
    findings = []
    tokens = inst.tokens
    for g in inst.olog.category.generators:
        mapping = inst.functions.get(g.name, {})
        for x in tokens.get(g.source, ()):
            if x not in mapping:
                findings.append(("totality-violation",
                                 f"{g.name!r} has no value for token {x!r}"))
        for x, y in mapping.items():
            if x not in tokens.get(g.source, ()):
                findings.append(("undeclared-token",
                                 f"{g.name!r} maps undeclared token {x!r}"))
            if y not in tokens.get(g.target, ()):
                findings.append((
                    "range-violation",
                    f"{g.name!r} sends {x!r} to {y!r}, which is not "
                    f"a token at {g.target!r}"))
    return findings


def drop_entry(functions, gen, rng):
    if functions.get(gen):
        del functions[gen][rng.choice(sorted(functions[gen]))]


def drop_function(functions, gen, rng):
    functions.pop(gen, None)


def undeclared_key(functions, gen, rng):
    values = sorted(functions.get(gen, {}).values()) or ["tz"]
    functions.setdefault(gen, {})[f"u{rng.randint(0, 3)}"] = rng.choice(values)


def value_outside_target(functions, gen, rng):
    if functions.get(gen):
        key = rng.choice(sorted(functions[gen]))
        functions[gen][key] = f"v{rng.randint(0, 3)}"


FAULTS = (drop_entry, drop_function, undeclared_key, value_outside_target)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(seeds, st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, 5),
                                 seeds), max_size=4))
def test_totality_findings_match_the_per_token_loop(seed, faults):
    rng = random.Random(seed)
    o = random_olog(rng, max_objects=3, max_generators=4)
    inst = random_instance(rng, o)
    functions = {g: dict(m) for g, m in inst.functions.items()}
    gens = [g.name for g in o.category.generators]
    for fault, index, fault_seed in faults:
        if gens:  # small indexes put several faults on one generator
            fault(functions, gens[index % len(gens)], random.Random(fault_seed))
    faulty = Instance(o, inst.tokens, functions)
    report = check_totality(faulty)
    assert [(f.code, f.message) for f in report.findings] == \
        reference_totality(faulty)
    assert report.warnings == []
