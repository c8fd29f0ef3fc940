"""Benchmark of the `olog` program, run in-process on generated inputs.

    python3 perfbench/run.py --workload instance-data --seed 1 --seconds 20 --trace 0

One process, one client, a closed loop: each operation calls
`ologs.cli.main(argv)` from the checkout's `src/` and starts only after
the previous one has returned.  A run sets up its inputs several times
(each time generating them and running one untimed warm-up operation),
then executes a fixed list of operations whose length follows from
--seconds alone.  Every operation's output is checked; a failed one is
counted and the run goes on.  The last line printed is one JSON object.

Times are reported at a nominal host speed.  The speed of the shared
host this benchmark was written on drifts by up to 2x over seconds to
minutes, so a fixed pure-Python kernel is timed between every two
operations, and each operation's wall time is scaled by REF_MS over the
mean of the kernel times on either side of it.  The raw figures are
printed too, above the result line.

With --trace 1 the run instead alternates untraced and traced executions
of the same operations and reports the per-layer metrics of tracing.py.
`--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
from tracing import OVERHEAD, PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, Op, Result  # noqa: E402

SETUPS = 9         # set-up repetitions; setup_s is their median
TRACE_ROUNDS = 1   # rounds of the mix executed traced in a --trace 1 run
MIN_TAIL_BEYOND = 20  # operations beyond the percentile op_tail_ms reports
# Nominal wall time of one reference pass: a round figure near its
# median on the reference machine of README.md.
REF_MS = 4.0


class _Node:
    __slots__ = ("name", "next")

    def __init__(self, name: str):
        self.name = name
        self.next: tuple = ()


def reference_kernel() -> int:
    """Fixed pure-Python work of the program's kind: a search over paths
    in a small graph of objects, with tuples, strings, a set and calls.
    It depends on nothing the program does."""
    nodes = [_Node(f"n{i}") for i in range(300)]
    for i, node in enumerate(nodes):
        node.next = tuple(nodes[(7 * i + j) % 300] for j in range(3))
    index = {node.name: node for node in nodes}
    seen: set[tuple[str, ...]] = set()
    frontier = [(nodes[0].name,)]
    while frontier and len(seen) < 5000:
        path = frontier.pop()
        if path in seen:
            continue
        seen.add(path)
        if len(path) < 9:
            frontier.extend(path + (n.name,) for n in index[path[-1]].next)
    return len(seen)


def reference_pass() -> float:
    """Wall seconds of one reference_kernel pass, with the collector off so
    that garbage the program left cannot be collected inside it."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def nominal(times: list[float], passes: list[float]) -> list[float]:
    """`times` at nominal speed; times[i] was measured between passes[i] and
    passes[i + 1], whose mean gives the host's speed at that moment."""
    return [t * REF_MS / 1e3 / ((before + after) / 2)
            for t, before, after in zip(times, passes, passes[1:])]


def import_program():
    """The `ologs.cli` module of this checkout, or exit without a result."""
    src = ROOT / "src"
    if not (src / "ologs" / "cli.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'ologs'}; run from a checkout")
    sys.path.insert(0, str(src))
    from ologs import cli
    if Path(cli.__file__).resolve().parent != (src / "ologs").resolve():
        sys.exit(f"perfbench: imported ologs from {cli.__file__}, not {src}")
    return cli


def call(cli, argv: list[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash fails this operation, not the run
        return Result(None, out.getvalue(), err.getvalue(),
                      f"{type(exc).__name__}: {exc}")
    return Result(code, out.getvalue(), err.getvalue())


def execute(cli, op: Op, tracer=None, op_id: int = -1):
    """Run one operation; return its results and its wall seconds.

    Preparation, garbage collection and installing the tracer happen
    outside the timed region.
    """
    if op.prepare is not None:
        op.prepare()
    gc.collect()
    if tracer is not None:
        tracer.install(op_id)
    try:
        start = time.perf_counter()
        results = [call(cli, argv) for argv in op.steps]
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results, wall


def verdict(op: Op, results: list[Result]) -> tuple[bool, str | None]:
    """(failed, wrong output) of one execution.

    An operation fails when an exception escaped, an exit code is wrong,
    or its check finds the output wrong; only the last is a wrong answer.
    """
    if any(result.error is not None or result.code != code
           for result, code in zip(results, op.codes)):
        return True, None
    wrong = op.check(results)
    return wrong is not None, wrong


def failure_text(op: Op, results: list[Result], wrong: str | None) -> str:
    if wrong is not None:
        return f"{op.variant}: wrong output: {wrong}"
    for argv, result, code in zip(op.steps, results, op.codes):
        if result.error is not None:
            return f"{op.variant}: {argv[0]} raised {result.error}"
        if result.code != code:
            return (f"{op.variant}: {argv[0]} exited {result.code}, expected "
                    f"{code}: {result.err.strip()[-300:]}")
    return f"{op.variant}: failed"


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least MIN_TAIL_BEYOND samples
    beyond it."""
    return max(50, min(99, math.floor(100 * (1 - MIN_TAIL_BEYOND / samples))))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Run:
    """State of one benchmark run: inputs, counts, failures."""

    def __init__(self, cli, workload, seed: int, sizes: dict):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []
        self.base = WORK / f"inputs-{workload.name}-seed{seed}-pid{os.getpid()}"

    def setup(self) -> tuple[list[Op], float]:
        """Set up SETUPS times; return the last round and the median time,
        at nominal speed.

        Earlier repetitions use seeds derived from --seed in fresh
        directories, so no repetition can reuse another's files.
        """
        times, passes = [], [reference_pass()]
        for rep in range(SETUPS):
            directory = self.base / f"setup{rep}"
            seed = self.seed if rep == SETUPS - 1 else f"{self.seed}/setup{rep}"
            start = time.perf_counter()
            ops = self.workload.generate(directory, seed, self.sizes)
            generated = time.perf_counter() - start
            results, wall = execute(self.cli, ops[0])
            times.append(generated + wall)
            passes.append(reference_pass())
            _, wrong = verdict(ops[0], results)
            if wrong is not None:
                self.wrong += 1
                self.messages.append("warm-up " + failure_text(ops[0], results, wrong))
            if rep != SETUPS - 1:
                shutil.rmtree(directory)
        return ops, statistics.median(nominal(times, passes))

    def record(self, op: Op, results: list[Result]) -> None:
        self.attempted += 1
        failed, wrong = verdict(op, results)
        if failed:
            self.failed += 1
            self.wrong += wrong is not None
            if len(self.messages) < 5:
                self.messages.append(failure_text(op, results, wrong))

    def cleanup(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


def measure(run: Run, seconds: int) -> dict:
    ops, setup_s = run.setup()
    rounds = max(1, math.ceil(seconds * run.workload.ops_per_second / len(ops)))
    walls, passes = [], [reference_pass()]
    for _ in range(rounds):
        for op in ops:
            results, wall = execute(run.cli, op)
            passes.append(reference_pass())
            walls.append(wall)
            run.record(op, results)
    times = nominal(walls, passes)
    q = tail_percentile(len(times))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run.messages[:0] = [
        f"op_tail_ms is p{q} over {len(times)} ops "
        f"({len(ops)} variants x {rounds} rounds)",
        f"raw wall time per op: p50 {statistics.median(walls) * 1e3:.1f} ms, "
        f"p{q} {percentile(walls, q) * 1e3:.1f} ms; reference pass: p50 "
        f"{statistics.median(passes) * 1e3:.2f} ms (nominal {REF_MS} ms)",
    ]
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (percentile(times, q) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }


def measure_traced(run: Run, trace_file: Path) -> dict:
    """Per-layer metrics; each traced execution follows an untraced one."""
    ops, _ = run.setup()
    tracer = Tracer()
    ratios = []
    traced = 0
    for _ in range(TRACE_ROUNDS):
        for op in ops:
            results, plain = execute(run.cli, op)
            run.record(op, results)
            results, wall = execute(run.cli, op, tracer, traced)
            run.record(op, results)
            ratios.append(wall / plain)
            traced += 1
    values = tracer.metrics(traced)
    values[OVERHEAD] = (statistics.median(ratios) - 1) * 100
    tracer.write(trace_file)
    run.messages.insert(0, f"{traced} traced ops, spans in {trace_file}")
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def run_workload(cli, name: str, seed: int, seconds: int, trace: bool,
                 sizes: dict | None = None) -> dict:
    """One run of one workload; returns the result object."""
    workload = WORKLOADS[name]
    run = Run(cli, workload, seed, sizes or workload.sizes)
    try:
        if trace:
            metrics = measure_traced(
                run, WORK / f"trace-{name}-seed{seed}.csv.gz")
        else:
            metrics = measure(run, seconds)
    finally:
        run.cleanup()
    return {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": run.messages,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = import_program()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(cli, name, args.seed, args.seconds, bool(args.trace))
        notes = result.pop("notes")
        print(f"{name} (seed {args.seed}): {result['attempted']} ops attempted, "
              f"{result['failed']} failed, correct={result['correct']}")
        for note in notes:
            print(f"  {note}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:40s} {value['value']:14.4f} {value['unit']}")
        WORK.mkdir(exist_ok=True)
        (WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
