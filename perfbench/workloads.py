"""Workload generators, their operations, and independent output checks.

A generator writes one workload's input files from a seed and returns one
*round*: the fixed mix of operation variants.  An operation is a list of
`olog` argument vectors run in order through `ologs.cli.main`.  Its check
compares the captured output with values the generator computed on its
own from the data it wrote, never with a saved copy of earlier output.

Write the inputs of one workload to a directory:

    python3 perfbench/workloads.py instance-data 1 perfbench/_work/inputs
"""

from __future__ import annotations

import csv
import itertools
import json
import random
import shutil
import string
import sys
from dataclasses import dataclass
from math import prod
from pathlib import Path
from typing import Callable


@dataclass
class Result:
    """What one `olog` invocation left behind."""

    code: int | None
    out: str
    err: str
    error: str | None = None  # an exception that escaped cli.main


@dataclass
class Op:
    """One unit of work: argument vectors, expected exit codes, a check.

    `check` gets the results of all steps once every exit code matched,
    and returns None or a description of the wrong output.  `prepare`
    runs before each execution, outside the timed region.
    """

    variant: str
    steps: list[list[str]]
    codes: list[int]
    check: Callable[[list[Result]], str | None]
    prepare: Callable[[], None] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[Path, object, dict], list[Op]]
    sizes: dict
    tiny: dict
    # Operations per second of run length on the reference machine.  It
    # fixes the length of the operation list from --seconds alone, so a
    # faster program does the same work in less time.
    ops_per_second: float


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path: Path) -> list[tuple[str, ...]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return [tuple(row) for row in csv.reader(handle) if row]


def _write_text(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _authors(names) -> str:
    return "{" + ", ".join(sorted(names)) + "}"


def _report(result: Result) -> dict | str:
    """The --json report on stdout, or a description of why it is unusable."""
    try:
        doc = json.loads(result.out)
    except ValueError:
        return f"stdout is not one JSON report: {result.out[:200]!r}"
    if not isinstance(doc, dict) or not isinstance(doc.get("findings"), list):
        return f"JSON report has no findings list: {result.out[:200]!r}"
    return doc


def _expect_clean(result: Result) -> str | None:
    doc = _report(result)
    if isinstance(doc, str):
        return doc
    if doc.get("ok") is not True or doc["findings"]:
        return f"expected a clean report, got {doc}"
    return None


def _expect_one(result: Result, code: str, *fragments: str) -> str | None:
    """The report holds exactly one finding, of `code`, naming every fragment."""
    doc = _report(result)
    if isinstance(doc, str):
        return doc
    findings = doc["findings"]
    if doc.get("ok") is not False or len(findings) != 1:
        return f"expected one {code} finding, got {doc}"
    finding = findings[0]
    if finding.get("code") != code:
        return f"expected a {code} finding, got {finding}"
    missing = [f for f in fragments if f not in finding.get("message", "")]
    if missing:
        return f"finding {finding} does not name {missing}"
    return None


# ----------------------------------------------------------------------
# instance-data: check-instance, migrate and check-mapping on one bundle


CHAIN = 8


def generate_instance_data(directory: Path, seed, sizes: dict) -> list[Op]:
    """Bundles of a chain olog t0 -> ... -> t8 with a shortcut t0 -> t8.

    The fact equates the chain with the shortcut.  The last `planted` of
    the `bundles` bundles have one seeded shortcut entry changed, so the
    fact fails on exactly that token.
    """
    rng = random.Random(seed)
    clean = sizes["bundles"] - sizes["planted"]
    return [
        _chain_bundle(directory / f"bundle{b}", rng, sizes["tokens"], b >= clean)
        for b in range(sizes["bundles"])
    ]


def _chain_bundle(base: Path, rng: random.Random, n: int, planted: bool) -> Op:
    types = [f"t{k}" for k in range(CHAIN + 1)]
    aspects = [f"a{k}" for k in range(1, CHAIN + 1)]
    nouns = {t: f"a {_word(rng, 6)} record of stage {k}"
             for k, t in enumerate(types)}
    verbs = {a: f"is filed {_word(rng, 5)} under" for a in aspects}
    shortcut_verb = f"is summarised {_word(rng, 5)} as"
    tokens = {t: [f"{t}-{i:05d}-{_word(rng, 4)}" for i in range(n)]
              for t in types}
    functions = {
        a: {x: rng.choice(tokens[types[k]]) for x in tokens[types[k - 1]]}
        for k, a in enumerate(aspects, start=1)
    }
    chain = {}
    for x in tokens["t0"]:
        y = x
        for a in aspects:
            y = functions[a][y]
        chain[x] = y
    shortcut = dict(chain)
    bad_token = None
    if planted:
        bad_token = rng.choice(tokens["t0"])
        others = [y for y in tokens["t8"] if y != chain[bad_token]]
        shortcut[bad_token] = rng.choice(others)

    _write_text(base / "chain.olog", [
        f'olog "chain-{base.name}"',
        *(f'type {t} = "{nouns[t]}" by {{A}}' for t in types),
        *(f'aspect {a} : {types[k - 1]} -> {types[k]} = "{verbs[a]}" by {{A}}'
          for k, a in enumerate(aspects, start=1)),
        f'aspect s : t0 -> t{CHAIN} = "{shortcut_verb}" by {{A}}',
        f'fact chain_eq : [{" ; ".join(aspects)}] ~ [s] by {{A}}',
    ])
    # The reading of the whole chain: "v1 N1, which v2 N2, which ... v8".
    reading = verbs[aspects[0]]
    for k, a in enumerate(aspects[1:], start=1):
        reading = f"{reading} {nouns[types[k]]}, which {verbs[a]}"
    last = f"t{CHAIN}"
    _write_text(base / "edge.olog", [
        f'olog "edge-{base.name}"',
        f'type u0 = "{nouns["t0"]}" by {{A}}',
        f'type u1 = "{nouns[last]}" by {{A}}',
        f'aspect g : u0 -> u1 = "{reading}" by {{A}}',
    ])
    _write_text(base / "migrate.map", [
        f'mapping "migrate-{base.name}"',
        'source "edge.olog"',
        'target "chain.olog"',
        "object u0 -> t0",
        f"object u1 -> {last}",
        f"aspect g -> [{' ; '.join(aspects)}]",
        'component u0 = "is" by {A}',
        'component u1 = "is" by {A}',
        "square g by {A}",
        'table u0 = "corr/u0.csv"',
        'table u1 = "corr/u1.csv"',
    ])
    data = base / "data"
    for t in types:
        _write_csv(data / f"{t}.csv", [nouns[t]], [(x,) for x in tokens[t]])
    for k, a in enumerate(aspects, start=1):
        source, target = types[k - 1], types[k]
        _write_csv(data / f"{a}.csv",
                   [nouns[source], f"{verbs[a]} {nouns[target]}, namely"],
                   [(x, functions[a][x]) for x in tokens[source]])
    _write_csv(data / "s.csv",
               [nouns["t0"], f"{shortcut_verb} {nouns[last]}, namely"],
               [(x, shortcut[x]) for x in tokens["t0"]])
    for u, t in (("u0", "t0"), ("u1", last)):
        _write_csv(base / "corr" / f"{u}.csv",
                   [nouns[t], f"is {nouns[t]}, namely"],
                   [(x, x) for x in tokens[t]])

    migrated = base / "migrated"
    expected_tables = {
        "u0.csv": ((nouns["t0"],), {(x,) for x in tokens["t0"]}),
        "u1.csv": ((nouns[last],), {(y,) for y in tokens[last]}),
        "g.csv": ((nouns["t0"], f"{reading} {nouns[last]}, namely"),
                  set(chain.items())),
    }

    def check(results: list[Result]) -> str | None:
        checked, _, rechecked = results
        if bad_token is None:
            problem = _expect_clean(checked)
        else:
            problem = _expect_one(checked, "fact-violation", "'chain_eq'",
                                  f"token {bad_token!r}")
        if problem:
            return f"check-instance: {problem}"
        written = sorted(p.name for p in migrated.iterdir())
        if written != sorted(expected_tables):
            return f"migrate wrote {written}"
        for name, (header, rows) in expected_tables.items():
            table = _read_csv(migrated / name)
            if table[0] != header:
                return f"migrate: {name} has header {table[0]!r}"
            if len(table) - 1 != len(rows) or set(table[1:]) != rows:
                return f"migrate: {name} is not the composed table"
        problem = _expect_clean(rechecked)
        return f"check-mapping: {problem}" if problem else None

    mapping = str(base / "migrate.map")
    return Op(
        variant="planted" if planted else "clean",
        steps=[
            ["check-instance", str(base / "chain.olog"), str(data), "--json"],
            ["migrate", mapping, "--dst-data", str(data), "--out", str(migrated)],
            ["check-mapping", mapping, "--src-data", str(migrated),
             "--dst-data", str(data), "--json"],
        ],
        codes=[1 if planted else 0, 0, 0],
        check=check,
        prepare=lambda: shutil.rmtree(migrated, ignore_errors=True),
    )


# ----------------------------------------------------------------------
# merge-search: search-conforming on a two-type, one-aspect olog


def generate_merge_search(directory: Path, seed, sizes: dict) -> list[Op]:
    rng = random.Random(seed)
    return [_merge_problem(directory / f"problem{k}", rng, sizes)
            for k in range(sizes["problems"])]


def _merge_problem(base: Path, rng: random.Random, sizes: dict) -> Op:
    """Source p -f-> q and target P -F-> Q hold the same tokens and function.

    f is onto q, so its fibres have the same sizes on every seed.  Each
    correspondence relation is the identity plus a seeded number of
    other pairs.
    """
    p_tokens = [f"p-{_word(rng, 4)}-{i}" for i in range(sizes["domain"])]
    q_tokens = [f"q-{_word(rng, 4)}-{i}" for i in range(sizes["codomain"])]
    shuffled = rng.sample(p_tokens, len(p_tokens))
    f = {x: q_tokens[k] for k, x in enumerate(shuffled[:len(q_tokens)])}
    f.update({x: rng.choice(q_tokens) for x in shuffled[len(q_tokens):]})
    relation = {}
    for obj, toks, extra in (("p", p_tokens, sizes["extra_p"]),
                             ("q", q_tokens, sizes["extra_q"])):
        others = [(x, y) for x in toks for y in toks if x != y]
        relation[obj] = {(x, x) for x in toks} | set(rng.sample(others, extra))

    nouns = {"p": f"an applicant {_word(rng, 5)}",
             "q": f"an office {_word(rng, 5)}",
             "P": f"a person {_word(rng, 5)}",
             "Q": f"a bureau {_word(rng, 5)}"}
    verb = f"applies {_word(rng, 5)} to"
    for name, (src, tgt, arrow) in (("src", ("p", "q", "f")),
                                    ("dst", ("P", "Q", "F"))):
        _write_text(base / f"{name}.olog", [
            f'olog "{name}-{base.name}"',
            f'type {src} = "{nouns[src]}" by {{A}}',
            f'type {tgt} = "{nouns[tgt]}" by {{A}}',
            f'aspect {arrow} : {src} -> {tgt} = "{verb}" by {{A}}',
        ])
        _write_csv(base / name / f"{src}.csv", [nouns[src]],
                   [(x,) for x in p_tokens])
        _write_csv(base / name / f"{tgt}.csv", [nouns[tgt]],
                   [(y,) for y in q_tokens])
        _write_csv(base / name / f"{arrow}.csv",
                   [nouns[src], f"{verb} {nouns[tgt]}, namely"],
                   [(x, f[x]) for x in p_tokens])
    for obj, image in (("p", "P"), ("q", "Q")):
        _write_csv(base / "corr" / f"{obj}.csv",
                   [nouns[obj], f"is {nouns[image]}, namely"],
                   sorted(relation[obj]))
    _write_text(base / "merge.map", [
        f'mapping "merge-{base.name}"',
        'source "src.olog"',
        'target "dst.olog"',
        "object p -> P",
        "object q -> Q",
        "aspect f -> [F]",
        'component p = "is" by {A}',
        'component q = "is" by {A}',
        "square f by {A}",
        'table p = "corr/p.csv"',
        'table q = "corr/q.csv"',
    ])

    # Candidates run over every total function per object; survivors are
    # found here by filtering each token's partners first, then joining
    # the objects on naturality, which keeps the lexicographic order.
    # Each object's codomain holds the same tokens as its domain.
    domains = {"p": sorted(p_tokens), "q": sorted(q_tokens)}
    candidates = prod(len(d) ** len(d) for d in domains.values())
    conforming = {
        obj: [dict(zip(dom, values)) for values in itertools.product(
            *[[y for y in dom if (x, y) in relation[obj]] for x in dom])]
        for obj, dom in domains.items()
    }
    survivors = [
        [("p", x, phi_p[x]) for x in domains["p"]]
        + [("q", x, phi_q[x]) for x in domains["q"]]
        for phi_p in conforming["p"] for phi_q in conforming["q"]
        if all(phi_q[f[x]] == f[phi_p[x]] for x in domains["p"])
    ]

    def check(results: list[Result]) -> str | None:
        lines = results[0].out.splitlines()
        if not lines or lines[0] != f"candidates: {candidates}":
            return f"expected 'candidates: {candidates}', got {lines[:1]}"
        if lines[-1] != f"conforming: {len(survivors)}":
            return f"expected 'conforming: {len(survivors)}', got {lines[-1:]}"
        found = []
        for line in lines[1:-1]:
            if line.startswith("morphism "):
                found.append([])
            elif found and line.startswith("  ") and ": " in line:
                obj, pair = line.strip().split(": ", 1)
                x, _, y = pair.partition(" -> ")
                found[-1].append((obj, x, y))
            else:
                return f"unexpected line {line!r}"
        if found != survivors:
            return "the survivors differ from the independent enumeration"
        return None

    return Op(
        variant="search",
        steps=[["search-conforming", str(base / "merge.map"),
                "--src-data", str(base / "src"),
                "--dst-data", str(base / "dst")]],
        codes=[0],
        check=check,
    )


# ----------------------------------------------------------------------
# path-equality: check-mapping of one square into an n x n grid


def _grid_lines(rng: random.Random, n: int, name: str, author_sets,
                skip=None) -> tuple[list[str], dict]:
    """Declarations of an n x n grid olog of commuting squares.

    Objects v{i}_{j}; h{i}_{j} runs east, d{i}_{j} runs south; fact
    c{i}_{j} says the cell with top-left corner (i, j) commutes.  The
    cell `skip` gets no fact.  `author_sets(kind, *endpoint_sets)`
    chooses each declaration's authors.  Returns the shuffled lines and
    the labels the checks need.
    """
    nouns, type_authors, verbs, aspect_authors, arrows = {}, {}, {}, {}, {}
    for i in range(n):
        for j in range(n):
            v = f"v{i}_{j}"
            nouns[v] = f"a {_word(rng, 6)} node at row {i:02d} column {j:02d}"
            type_authors[v] = author_sets("type")
    for i in range(n):
        for j in range(n):
            for a, di, dj, way in (("h", 0, 1, "east"), ("d", 1, 0, "south")):
                if i + di >= n or j + dj >= n:
                    continue
                g = f"{a}{i}_{j}"
                src, tgt = f"v{i}_{j}", f"v{i + di}_{j + dj}"
                arrows[g] = (src, tgt)
                verbs[g] = f"steps {way} {_word(rng, 5)} to"
                aspect_authors[g] = author_sets(
                    "aspect", type_authors[src], type_authors[tgt])
    facts = {}
    for i in range(n - 1):
        for j in range(n - 1):
            if (i, j) == skip:
                continue
            left = (f"h{i}_{j}", f"d{i}_{j + 1}")
            right = (f"d{i}_{j}", f"h{i + 1}_{j}")
            facts[f"c{i}_{j}"] = (left, right, author_sets(
                "fact", *(aspect_authors[g] for g in left + right)))
    body = [f'type {v} = "{nouns[v]}" by {_authors(type_authors[v])}'
            for v in nouns]
    body += [f'aspect {g} : {s} -> {t} = "{verbs[g]}" by '
             f'{_authors(aspect_authors[g])}' for g, (s, t) in arrows.items()]
    body += [f"fact {c} : [{left[0]} ; {left[1]}] ~ [{right[0]} ; {right[1]}] "
             f"by {_authors(auth)}" for c, (left, right, auth) in facts.items()]
    rng.shuffle(body)
    labels = {"nouns": nouns, "verbs": verbs, "arrows": arrows, "facts": facts}
    return [f'olog "{name}"', *body], labels


def _single_author(kind, *endpoints):
    return {"A"}


def generate_path_equality(directory: Path, seed, sizes: dict) -> list[Op]:
    """`grids` grid ologs of side n; the last `missing` lack the centre cell's fact.

    The op maps a square olog onto the grid's two boundary paths and
    passes --bound (n-1)^2, the rewrites one-sided search needs.
    """
    rng = random.Random(seed)
    n = sizes["grid"]
    last = n - 1
    _write_text(directory / "square.olog", [
        'olog "square"',
        *(f'type {t} = "a {_word(rng, 6)} corner {t}" by {{A}}' for t in "ABCD"),
        f'aspect top : A -> B = "leads {_word(rng, 5)} to" by {{A}}',
        f'aspect right : B -> D = "leads {_word(rng, 5)} to" by {{A}}',
        f'aspect left : A -> C = "leads {_word(rng, 5)} to" by {{A}}',
        f'aspect bottom : C -> D = "leads {_word(rng, 5)} to" by {{A}}',
        "fact sq : [top ; right] ~ [left ; bottom] by {A}",
    ])
    images = {
        "top": [f"h0_{j}" for j in range(last)],
        "right": [f"d{i}_{last}" for i in range(last)],
        "left": [f"d{i}_0" for i in range(last)],
        "bottom": [f"h{last}_{j}" for j in range(last)],
    }
    corners = {"A": "v0_0", "B": f"v0_{last}", "C": f"v{last}_0",
               "D": f"v{last}_{last}"}
    commuting = sizes["grids"] - sizes["missing"]
    centre = ((n - 2) // 2, (n - 2) // 2)
    ops = []
    for k in range(sizes["grids"]):
        skip = None if k < commuting else centre
        lines, _ = _grid_lines(rng, n, f"grid{k}", _single_author, skip)
        _write_text(directory / f"grid{k}.olog", lines)
        _write_text(directory / f"grid{k}.map", [
            f'mapping "square-grid{k}"',
            'source "square.olog"',
            f'target "grid{k}.olog"',
            *(f"object {c} -> {v}" for c, v in corners.items()),
            *(f"aspect {a} -> [{' ; '.join(p)}]" for a, p in images.items()),
            *(f'component {c} = "is" by {{A}}' for c in corners),
            *(f"square {a} by {{A}}" for a in images),
        ])
        ops.append(Op(
            variant="missing-cell" if skip else "commuting",
            steps=[["check-mapping", str(directory / f"grid{k}.map"),
                    "--bound", str(last * last), "--json"]],
            codes=[1 if skip else 0],
            check=_grid_breaks if skip else _grid_commutes,
        ))
    return ops


def _grid_commutes(results: list[Result]) -> str | None:
    # Pasting commuting cells makes the two boundary paths equal.
    return _expect_clean(results[0])


def _grid_breaks(results: list[Result]) -> str | None:
    # Every rewrite flips one cell and no fact flips the missing one, so
    # no rewrite sequence joins the two boundary paths.
    return _expect_one(results[0], "equation-not-preserved", "'sq'")


# ----------------------------------------------------------------------
# schema-scale: validate and read --facts on one large grid olog

AUTHORS = ("B", "C", "D")
STRANGER = "Zed"


def generate_schema_scale(directory: Path, seed, sizes: dict) -> list[Op]:
    """`ologs` grid ologs of side n with seeded author sets.

    Every declaration is endorsed by A and a seeded subset of the authors
    its endpoints allow.  The last `planted` ologs give one seeded fact an
    author who endorses nothing else.
    """
    rng = random.Random(seed)

    def author_sets(kind, *endpoints):
        allowed = set(AUTHORS).intersection(*endpoints) if endpoints else AUTHORS
        return {"A"} | {a for a in sorted(allowed) if rng.random() < 0.5}

    clean = sizes["ologs"] - sizes["planted"]
    ops = []
    for k in range(sizes["ologs"]):
        lines, labels = _grid_lines(rng, sizes["grid"], f"schema{k}", author_sets)
        bad_fact = None
        if k >= clean:
            bad_fact = rng.choice(sorted(labels["facts"]))
            at = next(i for i, line in enumerate(lines)
                      if line.startswith(f"fact {bad_fact} :"))
            lines[at] = lines[at].replace(" by {A", " by {" + STRANGER + ", A", 1)
        path = directory / f"schema{k}.olog"
        _write_text(path, lines)
        ops.append(Op(
            variant="planted" if bad_fact else "clean",
            steps=[["validate", str(path), "--json"],
                   ["read", str(path), "--facts"]],
            codes=[1 if bad_fact else 0, 0],
            check=_schema_check(labels, bad_fact),
        ))
    return ops


def _schema_check(labels: dict, bad_fact: str | None):
    nouns, verbs, arrows, facts = (labels[k] for k in
                                   ("nouns", "verbs", "arrows", "facts"))
    sentences = sorted(f"{nouns[s]} {verbs[g]} {nouns[t]}"
                       for g, (s, t) in arrows.items())
    # The bare noun of each fact's source corner, after "For any".
    corner = {}
    for left, _, _ in facts.values():
        source, target = arrows[left[0]][0], arrows[left[1]][1]
        corner[nouns[source].split(" ", 1)[1]] = (nouns[source], nouns[target])

    def check(results: list[Result]) -> str | None:
        validated, read = results
        if bad_fact is None:
            problem = _expect_clean(validated)
        else:
            problem = _expect_one(validated, "fact-author-violation",
                                  f"[{STRANGER!r}]", f"{bad_fact!r}")
        if problem:
            return f"validate: {problem}"
        lines = read.out.splitlines()
        if len(lines) != len(arrows) + 3 * len(facts):
            return f"read printed {len(lines)} lines"
        if sorted(lines[:len(arrows)]) != sentences:
            return "read: the aspect sentences differ from the declarations"
        seen = set()
        blocks = lines[len(arrows):]
        for b in range(0, len(blocks), 3):
            first, second, reading = blocks[b:b + 3]
            if not reading.startswith("For any ") or " x, " not in reading:
                return f"read: expected a 'For any' line, got {reading!r}"
            bare = reading[len("For any "):reading.index(" x, ")]
            if bare not in corner or bare in seen:
                return f"read: 'For any' line for an unexpected type {bare!r}"
            seen.add(bare)
            source, target = corner[bare]
            for sentence in (first, second):
                if not (sentence.startswith(source + " ")
                        and sentence.endswith(" " + target)):
                    return f"read: fact sentence {sentence!r} has wrong ends"
        return None

    return check


WORKLOADS = {
    w.name: w for w in (
        Workload("instance-data", generate_instance_data,
                 sizes={"tokens": 1000, "bundles": 4, "planted": 1},
                 tiny={"tokens": 12, "bundles": 2, "planted": 1},
                 ops_per_second=6.0),
        Workload("merge-search", generate_merge_search,
                 sizes={"domain": 4, "codomain": 3, "extra_p": 3,
                        "extra_q": 2, "problems": 4},
                 tiny={"domain": 3, "codomain": 2, "extra_p": 2,
                       "extra_q": 1, "problems": 2},
                 ops_per_second=6.0),
        Workload("path-equality", generate_path_equality,
                 sizes={"grid": 6, "grids": 5, "missing": 1},
                 tiny={"grid": 3, "grids": 2, "missing": 1},
                 ops_per_second=20.0),
        Workload("schema-scale", generate_schema_scale,
                 sizes={"grid": 20, "ologs": 4, "planted": 1},
                 tiny={"grid": 3, "ologs": 2, "planted": 1},
                 ops_per_second=4.0),
    )
}


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: workloads.py {{{','.join(WORKLOADS)}}} SEED DIRECTORY")
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = WORKLOADS[name]
    ops = workload.generate(out, seed, workload.sizes)
    for op in ops:
        print(op.variant, *(" ".join(step) for step in op.steps), sep="\n  ")
