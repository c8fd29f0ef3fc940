"""Interleaved A/B timing of two checkouts of `ologs` in one process.

    python3 tools/ab.py OLD_CHECKOUT NEW_CHECKOUT --workload schema-scale
    python3 tools/ab.py ../parent . --workload all --seed 11 --rounds 30
    python3 tools/ab.py ../parent . --corpus fixtures
    python3 tools/ab.py ../parent . --workload all --count

Each checkout's `src/ologs` is imported under its own package name, so
both run in this process on the same inputs.  The inputs are the
workload's round from `perfbench/workloads.py` of the checkout holding
this script, written once to a temporary directory; `perfbench/` is only
read.  Every round runs the whole round of operations on both sides, the
order alternating from round to round, so a drift of the host's speed
falls on both alike.  Any difference in an `olog` call's exit code,
stdout or stderr between the sides is an error (exit 1), and so is any
difference in the files the call wrote under its `--out` path: their
paths relative to it, and their bytes.

For each workload it prints the median wall time of a round on each side
and the median, over rounds, of NEW time / OLD time with its quartiles;
a ratio below 1 means NEW is faster.

With `--count` it times nothing and instead counts bytecodes, as
`tests/test_complexity.py` does: for each workload, each side runs one
round under `sys.settrace` with opcode events on, whose count is
dropped (it fills first-call caches, and on Python 3.12 the first
traced round in a process counts less), then one counted round.  The
counted round's outputs are compared as a timed round's are.  It prints
each side's total, NEW/OLD, and the split by module file: each
checkout's `ologs/<module>.py`, and everything else, the standard
library included, as `other`.  A count repeats exactly under one
interpreter, so it shows a change of Python-level work that a host's
drift would hide; work inside one C call is not counted.

With `--corpus fixtures` it times nothing and instead runs a fixed list
of invocations once on each side: every `tests/fixtures/*.olog` under
`validate`, `read` and `read --facts`, each with and without `--json`
(and `check-instance` where the olog has a fixture bundle); every
`*.map` under `check-mapping` with the default bound and `--bound 0`,
and `pullback` (and, where the map has fixture bundles, `check-mapping`
with data, `migrate` and `search-conforming`); and the same commands
on 20 one-character corruptions of each olog and map, chosen by
`--seed`.  Each fixture table gets 20 seeded corruptions too, each a
`,`, newline, `"`, carriage return or space inserted, deleted or
overwritten by another of them.  A corrupted bundle table goes under
`check-instance` with its olog and, in a map's bundle, under
`check-mapping` with data, `migrate` and `search-conforming`; a
corrupted correspondence table goes, through a copy of its map, under
`check-mapping` with data and `search-conforming`.  The inputs are
copied from the checkout holding this script to a temporary directory,
whose path reads as `<corpus>` in every output and message.  Any
difference in exit code, stdout, stderr or written files is printed and
makes the exit status 1; the last line counts the invocations compared.
With `--expect FILE`, the invocations the file lists, one a line as the
corpus prints them (`<corpus>` and all; blank lines are skipped), must
differ: their differences are marked `(expected)`, and the exit status
is 1 only for a difference the file does not list or a listed
invocation that did not change.
Stdlib only; nothing in `ologs` imports this script.
"""

from __future__ import annotations

import argparse
import collections
import gc
import importlib.util
import io
import random
import re
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_cli(checkout: Path, package: str):
    """The `cli` module of `checkout/src/ologs`, imported as `package`."""
    source = checkout / "src" / "ologs"
    spec = importlib.util.spec_from_file_location(
        package, source / "__init__.py",
        submodule_search_locations=[str(source)])
    if spec is None or not (source / "cli.py").is_file():
        sys.exit(f"ab: no program at {source}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[package] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{package}.cli")


def call(cli, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def written(argv: list[str]) -> dict[str, bytes]:
    """The bytes of every file under the call's `--out` path, by path
    relative to it; a file named by `--out` itself goes by its name."""
    if "--out" not in argv[:-1]:
        return {}
    out = Path(argv[argv.index("--out") + 1])
    if out.is_file():
        return {out.name: out.read_bytes()}
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def run_round(cli, ops, tracer=None) -> tuple[float, list]:
    """Wall seconds of the `olog` calls of one round, and their results:
    exit code, stdout, stderr and written files.  Preparation, reading
    the written files and garbage collection are outside the timed
    region, and outside `tracer`, which `sys.settrace` sets for each
    call; with no `tracer`, the caller's trace stays in place."""
    outer = sys.gettrace()
    total, results = 0.0, []
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        gc.collect()
        outcome = []
        for argv in op.steps:
            sys.settrace(tracer or outer)
            try:
                start = time.perf_counter()
                result = call(cli, argv)
                total += time.perf_counter() - start
            finally:
                sys.settrace(outer)
            outcome.append((*result, written(argv)))
        results.append((op, outcome))
    return total, results


def difference(x: tuple, y: tuple) -> str | None:
    """How two results of one call (exit code, stdout, stderr, written
    files) differ, or None."""
    for what, u, v in zip(("exit code", "stdout", "stderr"), x, y):
        if u != v:
            return f"{what} differs: {str(u)[:200]!r} != {str(v)[:200]!r}"
    for name in sorted(x[3].keys() | y[3].keys()):
        if x[3].get(name) != y[3].get(name):
            return f"written file {name} differs"
    return None


def first_difference(old: list, new: list) -> str | None:
    for (op, a), (_, b) in zip(old, new):
        for argv, x, y in zip(op.steps, a, b):
            found = difference(x, y)
            if found:
                return f"{op.variant} {' '.join(argv)}: {found}"
    return None


def compare(workload, clis, seed: int, rounds: int, tiny: bool) -> bool:
    sizes = workload.tiny if tiny else workload.sizes
    with tempfile.TemporaryDirectory(prefix="ab-") as directory:
        ops = workload.generate(Path(directory), seed, sizes)
        for cli in clis:  # warm-up, untimed
            run_round(cli, ops)
        times: list[list[float]] = [[], []]
        for r in range(rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            results = [None, None]
            for side in order:
                elapsed, results[side] = run_round(clis[side], ops)
                times[side].append(elapsed)
            difference = first_difference(*results)
            if difference:
                print(f"{workload.name}: round {r}: {difference}")
                return False
    ratios = [new / old for old, new in zip(*times)]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"{workload.name}: {rounds} rounds of {len(ops)} operations; "
          f"round median OLD {1e3 * statistics.median(times[0]):.1f} ms, "
          f"NEW {1e3 * statistics.median(times[1]):.1f} ms; "
          f"NEW/OLD median {median:.3f} (quartiles {q1:.3f}-{q3:.3f})")
    return True


def count_round(cli, ops) -> tuple[collections.Counter, list]:
    """The bytecodes one round of `ops` executes, by code file name, and
    the round's results."""
    counts = collections.Counter()

    def calls(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        name = frame.f_code.co_filename

        def opcodes(frame, event, arg):
            if event == "opcode":
                counts[name] += 1
            return opcodes
        return opcodes

    return counts, run_round(cli, ops, calls)[1]


def by_module(counts: collections.Counter, cli) -> collections.Counter:
    """`counts` summed by module of the checkout's `ologs` package, as
    `<module>.py`, with every other file as `other`."""
    package = Path(cli.__file__).parent
    split = collections.Counter()
    for name, n in counts.items():
        path = Path(name)
        split[path.name if path.parent == package else "other"] += n
    return split


def count(workload, clis, seed: int, tiny: bool) -> bool:
    sizes = workload.tiny if tiny else workload.sizes
    with tempfile.TemporaryDirectory(prefix="ab-") as directory:
        ops = workload.generate(Path(directory), seed, sizes)
        splits, results = [], []
        for cli in clis:
            count_round(cli, ops)  # dropped: see the module docstring
            counts, outcome = count_round(cli, ops)
            splits.append(by_module(counts, cli))
            results.append(outcome)
    difference = first_difference(*results)
    if difference:
        print(f"{workload.name}: counted round: {difference}")
        return False

    def line(old: int, new: int) -> str:
        ratio = f"{new / old:.3f}" if old else "-"
        return f"OLD {old:,}, NEW {new:,}; NEW/OLD {ratio}"

    old, new = splits
    print(f"{workload.name}: bytecodes of one round of {len(ops)} "
          f"operations: {line(old.total(), new.total())}")
    modules = sorted((old.keys() | new.keys()) - {"other"})
    for module in [*modules, "other"]:
        print(f"  {module}: {line(old[module], new[module])}")
    return True


# The fixture corpus.  Bundles are paths under tests/fixtures: the
# bundle of an olog for check-instance, and the source and target
# bundles of a map.
OLOG_BUNDLES = {"father.olog": "data/bush", "human.olog": "data/human",
                "person1.olog": "data/person"}
MAP_BUNDLES = {"merge_father.map": ("data/human", "data/person"),
               "merge_is.map": ("data/human", "data/person")}
CORRUPTIONS = 20  # per olog, per map and per table
CORRUPT_CHARACTERS = '-> #",;[]{}=:~1a\\'
TABLE_CHARACTERS = ',\n"\r '


def corrupted(text: str, rng: random.Random) -> str:
    """`text` with one character inserted, overwritten or deleted."""
    at = rng.randrange(len(text))
    how = rng.randrange(3)  # insert, overwrite, delete
    char = "" if how == 2 else rng.choice(CORRUPT_CHARACTERS)
    return text[:at] + char + text[at + (how > 0):]


def corrupted_table(text: str, rng: random.Random) -> str:
    """`text` with one of `TABLE_CHARACTERS` inserted, or one that it
    holds deleted or overwritten by another."""
    present = [at for at, char in enumerate(text) if char in TABLE_CHARACTERS]
    how = rng.randrange(3) if present else 0  # insert, delete, overwrite
    if how == 0:
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice(TABLE_CHARACTERS) + text[at:]
    at = rng.choice(present)
    char = rng.choice(TABLE_CHARACTERS.replace(text[at], "")) if how == 2 else ""
    return text[:at] + char + text[at + 1:]


def table_invocations(directory: Path, rng: random.Random) -> list[list[str]]:
    """Write the seeded corruptions of every fixture table into
    `directory` and list the commands that read each one.  A bundle
    table's corruption is written into a copy of its bundle, named
    `<bundle>.<table>.cNN`; a correspondence table's beside the table,
    with a copy of its map, `<map>.<table>.cNN.map`, that names it."""
    out = directory / "out"
    olog_of = {bundle: name for name, bundle in OLOG_BUNDLES.items()}
    invocations = []
    for bundle in sorted({*OLOG_BUNDLES.values(),
                          *(b for pair in MAP_BUNDLES.values() for b in pair)}):
        for table in sorted((directory / bundle).glob("*.csv")):
            text = table.read_text(encoding="utf-8")
            for k in range(CORRUPTIONS):
                copy = directory / f"{bundle}.{table.stem}.c{k:02d}"
                shutil.copytree(directory / bundle, copy)
                (copy / table.name).write_bytes(
                    corrupted_table(text, rng).encode("utf-8"))
                copy = str(copy)
                if bundle in olog_of:
                    invocations.append(["check-instance",
                                        str(directory / olog_of[bundle]), copy])
                for map_name, bundles in sorted(MAP_BUNDLES.items()):
                    if bundle not in bundles:
                        continue
                    path = str(directory / map_name)
                    src, dst = (copy if b == bundle else str(directory / b)
                                for b in bundles)
                    invocations.append(["check-mapping", path,
                                        "--src-data", src, "--dst-data", dst])
                    if dst == copy:
                        invocations.append(["migrate", path, "--dst-data",
                                            dst, "--out", str(out / "migrated")])
                    invocations.append(["search-conforming", path,
                                        "--src-data", src, "--dst-data", dst])
    for map_name, (src, dst) in sorted(MAP_BUNDLES.items()):
        map_text = (directory / map_name).read_text(encoding="utf-8")
        for rel in re.findall(r'^table \w+ = "([^"]+)"$', map_text, re.M):
            table = directory / rel
            text = table.read_text(encoding="utf-8")
            for k in range(CORRUPTIONS):
                name = f"{table.stem}.c{k:02d}"
                table.with_name(f"{name}.csv").write_bytes(
                    corrupted_table(text, rng).encode("utf-8"))
                copy_rel = Path(rel).with_name(f"{name}.csv").as_posix()
                path = directory / f"{Path(map_name).stem}.{name}.map"
                path.write_text(map_text.replace(f'"{rel}"', f'"{copy_rel}"'),
                                encoding="utf-8")
                data_args = ["--src-data", str(directory / src),
                             "--dst-data", str(directory / dst)]
                invocations += [["check-mapping", str(path), *data_args],
                                ["search-conforming", str(path), *data_args]]
    return invocations


def corpus_invocations(directory: Path, seed: int) -> list[list[str]]:
    """Copy the fixtures to `directory`, write the seeded corruptions
    beside them, and list the invocations of the corpus."""
    fixtures = ROOT / "tests" / "fixtures"
    shutil.copytree(fixtures, directory, dirs_exist_ok=True)
    out = directory / "out"
    rng = random.Random(seed)
    invocations = []
    for original in [*sorted(fixtures.glob("*.olog")),
                     *sorted(fixtures.glob("*.map"))]:
        text = original.read_text(encoding="utf-8")
        files = [directory / original.name]
        for k in range(CORRUPTIONS):
            files.append(directory / f"{original.stem}.c{k:02d}{original.suffix}")
            files[-1].write_bytes(corrupted(text, rng).encode("utf-8"))
        for path in map(str, files):
            if original.suffix == ".olog":
                for command in (["validate"], ["read"], ["read", "--facts"]):
                    invocations += [[*command, path], [*command, path, "--json"]]
                if original.name in OLOG_BUNDLES:
                    bundle = directory / OLOG_BUNDLES[original.name]
                    invocations.append(["check-instance", path, str(bundle)])
                continue
            invocations += [["check-mapping", path],
                            ["check-mapping", path, "--bound", "0"],
                            ["pullback", path, "--out", str(out / "pulled.olog")]]
            if original.name in MAP_BUNDLES:
                src, dst = (str(directory / b) for b in MAP_BUNDLES[original.name])
                invocations += [
                    ["check-mapping", path, "--src-data", src, "--dst-data", dst],
                    ["migrate", path, "--dst-data", dst, "--out", str(out / "migrated")],
                    ["search-conforming", path, "--src-data", src, "--dst-data", dst]]
    return invocations + table_invocations(directory, rng)


def corpus_call(cli, argv: list[str], directory: Path) -> tuple:
    """Exit code, stdout, stderr and written files of one call, run with
    an empty output directory, with `directory` read as `<corpus>`.  A
    call that raises has no exit code and the exception as its stderr."""
    out = directory / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    try:
        code, stdout, stderr = call(cli, argv)
    except Exception as exc:  # a traceback is an outcome to compare too
        code, stdout, stderr = None, "", f"raised {exc!r}"
    place = str(directory)
    return (code, stdout.replace(place, "<corpus>"),
            stderr.replace(place, "<corpus>"), written(argv))


def compare_corpus(clis, seed: int,
                   expected: frozenset[str] = frozenset()) -> bool:
    """Run the corpus on both sides; true when exactly the `expected`
    invocations, as the corpus prints them, differ."""
    unchanged = set(expected)
    with tempfile.TemporaryDirectory(prefix="ab-corpus-") as name:
        directory = Path(name)
        invocations = corpus_invocations(directory, seed)
        differing = unexpected = 0
        for argv in invocations:
            found = difference(*(corpus_call(cli, argv, directory)
                                 for cli in clis))
            if found:
                differing += 1
                where = " ".join(argv).replace(name, "<corpus>")
                listed = where in expected
                unexpected += not listed
                unchanged.discard(where)
                print(f"{where}: {found}{' (expected)' if listed else ''}")
    for where in sorted(unchanged):
        print(f"{where}: expected to differ, but did not")
    print(f"corpus fixtures: {len(invocations)} invocations compared, "
          f"{differing} differ")
    return not unexpected and not unchanged


def main(argv=None) -> int:
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="ab.py", description="Interleaved A/B timing of two checkouts.")
    parser.add_argument("old", type=Path, help="checkout timed as OLD")
    parser.add_argument("new", type=Path, help="checkout timed as NEW")
    parser.add_argument("--workload", default="schema-scale",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rounds", type=int, default=20,
                        help="timed rounds per workload (default %(default)s)")
    parser.add_argument("--tiny", action="store_true",
                        help="the workloads' tiny sizes, for a quick check")
    parser.add_argument("--corpus", choices=["fixtures"],
                        help="compare the outputs of the fixture corpus "
                             "instead of timing workloads")
    parser.add_argument("--expect", type=Path, metavar="FILE",
                        help="with --corpus: the invocations, one a line as "
                             "the corpus prints them, that must differ")
    parser.add_argument("--count", action="store_true",
                        help="count the bytecodes of one round of each "
                             "workload instead of timing rounds")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    if args.expect and not args.corpus:
        parser.error("--expect needs --corpus")
    if args.count and args.corpus:
        parser.error("--count cannot be used with --corpus")
    clis = [load_cli(args.old.resolve(), "ologs_old"),
            load_cli(args.new.resolve(), "ologs_new")]
    if args.corpus:
        expected = frozenset()
        if args.expect:
            lines = args.expect.read_text(encoding="utf-8").splitlines()
            expected = frozenset(filter(None, map(str.strip, lines)))
        return 0 if compare_corpus(clis, args.seed, expected) else 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        if args.count:
            ok = count(WORKLOADS[name], clis, args.seed, args.tiny) and ok
        else:
            ok = compare(WORKLOADS[name], clis, args.seed, args.rounds,
                         args.tiny) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
