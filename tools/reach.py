"""Which lines of `src/ologs` a set of `olog` invocations never runs.

    python3 tools/reach.py --corpus fixtures
    python3 tools/reach.py --workload all --seed 11
    python3 tools/reach.py --corpus fixtures --workload all --seed 11

The invocations are those of `tools/ab.py`: `--corpus fixtures` gives the
fixture corpus (with the corruptions `--seed` chooses), and `--workload`
one round of a workload of `perfbench/workloads.py`, or of every one with
`all`, at `--seed`.  The inputs go to a temporary directory.  This
checkout's `src/ologs` is imported under its own package name and every
invocation runs through its `cli.main` in this process, under a
`sys.settrace` line trace that starts before the import, so functions
that run only at import count as run.

The report lists, for each function of `src/ologs` with an executable
line that no invocation ran, its module-qualified name, the count of
such lines and the lines themselves; then the total.  A line is
executable when the compiled code of a function holds an instruction on
it; the lines of a comprehension or a lambda count toward the function
that holds it, and a nested function is listed by itself.  Stdlib only;
nothing in `ologs` imports this script.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "ologs"
sys.path.insert(0, str(Path(__file__).resolve().parent))
import ab  # noqa: E402  (the invocations and the in-process calls)


def executable_lines() -> dict[str, tuple[str, set[int]]]:
    """Each function of `src/ologs`, by module-qualified name, as (its
    file, its executable lines)."""
    functions = {}

    def visit(code, filename: str, prefix: str, owner: str | None):
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            name = const.co_name
            if name.startswith("<"):  # a comprehension or a lambda
                visit(const, filename, prefix, owner)
                if owner is not None:
                    functions[owner][1].update(_lines(const))
            elif const.co_flags & inspect.CO_OPTIMIZED:  # a function
                qualname = f"{prefix}{name}"
                functions[qualname] = (filename, _lines(const))
                visit(const, filename, f"{qualname}.<locals>.", qualname)
            else:  # a class body
                visit(const, filename, f"{prefix}{name}.", owner)

    for path in sorted(SOURCE.glob("*.py")):
        filename = str(path)
        module = compile(path.read_text(encoding="utf-8"), filename, "exec")
        visit(module, filename, f"{path.stem}.", None)
    return functions


def _lines(code) -> set[int]:
    """The lines of code's own instructions, but its first line, which
    holds a `def` or a decorator and runs when the function is defined."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    lines.discard(code.co_firstlineno)
    return lines


def traced(run) -> set[tuple[str, int]]:
    """(file, line) for each line of `src/ologs` that `run()` executed."""
    executed = set()
    prefix = str(SOURCE) + "/"

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(global_trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return executed


def unrun_lines(executed: set[tuple[str, int]],
                functions: dict) -> dict[str, list[int]]:
    """Each of `functions`' executable lines that `executed` lacks, by
    function name; functions with none are left out."""
    unrun = {}
    for name, (filename, lines) in functions.items():
        missing = sorted(n for n in lines if (filename, n) not in executed)
        if missing:
            unrun[name] = missing
    return unrun


def run_invocations(directory: Path, corpus: bool, workloads: list,
                    seed: int) -> set[tuple[str, int]]:
    """Write the inputs to `directory`, then run every invocation under
    the trace; the lines they executed."""
    corpus_dir = directory / "corpus"
    invocations = ab.corpus_invocations(corpus_dir, seed) if corpus else []
    ops = []
    for k, workload in enumerate(workloads):
        ops += workload.generate(directory / f"w{k}", seed, workload.sizes)

    def run():
        for module in [m for m in sys.modules
                       if m.split(".")[0] == "ologs_reach"]:
            del sys.modules[module]  # so that every module is imported again
        cli = ab.load_cli(ROOT, "ologs_reach")
        for argv in invocations:
            ab.corpus_call(cli, argv, corpus_dir)
        ab.run_round(cli, ops)
    return traced(run)


def ranges(lines: list[int]) -> str:
    """Sorted lines as runs, e.g. "3-5, 9"."""
    runs = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv=None) -> int:
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="reach.py",
        description="List the lines of src/ologs that invocations never run.")
    parser.add_argument("--corpus", choices=["fixtures"],
                        help="run the fixture corpus of tools/ab.py")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="run one round of a workload, or of all")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    if not args.corpus and not args.workload:
        parser.error("give --corpus, --workload or both")
    names = [] if args.workload is None else (
        list(WORKLOADS) if args.workload == "all" else [args.workload])
    with tempfile.TemporaryDirectory(prefix="reach-") as name:
        executed = run_invocations(Path(name), bool(args.corpus),
                                   [WORKLOADS[n] for n in names], args.seed)
    functions = executable_lines()
    unrun = unrun_lines(executed, functions)
    for name, lines in unrun.items():
        print(f"{name}: {len(lines)} unrun: {ranges(lines)}")
    total = sum(len(lines) for _, lines in functions.values())
    missing = sum(map(len, unrun.values()))
    print(f"total: {missing} of {total} executable lines unrun, "
          f"in {len(unrun)} of {len(functions)} functions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
