"""Complexity-class guards: bytecodes executed by workload rounds.

One round of a workload from `perfbench/workloads.py` runs through
`ologs.cli.main` under `sys.settrace`, with opcode events on, and every
bytecode executed is counted, the standard library's too.  An uncounted
round runs first, so that first-call caches (the argument parser, the
author-list cache, compiled patterns) weigh on no count; then the count
repeats exactly in one process (on Python 3.10 to 3.13), and needs no
margin for a host's speed.

At sizes N, 2N and 4N the second increase of the count may be at most
`bound` times the first.  Linear work doubles its increase, and work
per cell of an n x n grid quadruples it when n doubles; a Python loop
nested in such a loop squares that factor.  The count sees no work done
inside one C call, so it bounds the Python-level class only.

The workloads module is imported read-only: no bytecode is written
into `perfbench/`.
"""

import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ologs import cli

ROOT = Path(__file__).resolve().parent.parent
SEED = 11


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    writing = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writing
        del sys.modules[spec.name]
    return module.WORKLOADS


def run_round(ops, tracer) -> None:
    """Every step of every operation through `cli.main`, under `tracer`;
    each exit code must be the one the workload expects."""
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        codes = []
        for argv in op.steps:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                sys.settrace(tracer)
                try:
                    codes.append(cli.main(argv))
                finally:
                    sys.settrace(None)
        assert codes == op.codes, (op.variant, codes)


def count_round(ops) -> int:
    """The bytecodes that one round of `ops` executes.  A first round runs
    the same way and its count is dropped: it fills first-call caches,
    and on Python 3.12 the first traced round in a process counts less."""
    count = 0

    def opcodes(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return opcodes

    def calls(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return opcodes

    run_round(ops, calls)
    count = 0
    run_round(ops, calls)
    return count


# (workload, the size that grows, its three values, bound)
GUARDS = [
    ("instance-data", "tokens", (50, 100, 200), 2.3),
    ("schema-scale", "grid", (4, 8, 16), 5.0),
    ("path-equality", "grid", (3, 6, 12), 5.0),
]


@pytest.mark.parametrize("name, size, values, bound", GUARDS,
                         ids=[guard[0] for guard in GUARDS])
def test_work_grows_in_its_class(tmp_path, name, size, values, bound):
    workload = load_workloads()[name]
    counts = []
    for value in values:
        ops = workload.generate(tmp_path / str(value), SEED,
                                {**workload.tiny, size: value})
        counts.append(count_round(ops))
    first, second = counts[1] - counts[0], counts[2] - counts[1]
    assert 0 < first and second <= bound * first, counts
