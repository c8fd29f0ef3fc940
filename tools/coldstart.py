"""Cold-start timing of two checkouts of `ologs`, one process per call.

    python3 tools/coldstart.py OLD_CHECKOUT NEW_CHECKOUT
    python3 tools/coldstart.py ../parent . --pairs 41

`tools/ab.py` times commands inside one warm process, so it never sees
what a user pays on every `olog …` call: starting Python and importing
the package.  This script times whole processes instead.  For each of a
few fixture commands, and a bare `import ologs.cli`, it runs `--pairs`
pairs of subprocesses, one per checkout, alternating from pair to pair
which side runs first, so a drift of the host's speed falls on both
alike.  Each process imports `ologs` from its checkout's `src/` and
reads the fixtures of the checkout holding this script.

The bytecode cache is kept warm and out of both checkouts: every process
runs with `PYTHONPYCACHEPREFIX` set to one temporary directory and
without `PYTHONDONTWRITEBYTECODE`, and one untimed call per command and
side fills the cache first.  A difference between the sides in a call's
exit code, stdout or stderr is an error (exit 1).

For each command it prints each side's median wall time with its
quartiles, and the median, over pairs, of NEW time / OLD time with its
quartiles; a ratio below 1 means NEW starts faster.  Stdlib only;
nothing in `ologs` imports this script.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
# Each timed command as its `olog` arguments; None is the bare import.
COMMANDS = [
    None,
    ["validate", str(FIXTURES / "amino.olog")],
    ["read", str(FIXTURES / "amino.olog"), "--facts"],
    ["check-mapping", str(FIXTURES / "marriage.map")],
]


def program(checkout: Path, argv: list[str] | None) -> list[str]:
    """The command line that runs `olog argv` from `checkout`'s `src/`."""
    source = checkout / "src"
    if not (source / "ologs" / "cli.py").is_file():
        sys.exit(f"coldstart: no program at {source / 'ologs'}")
    code = f"import sys; sys.path.insert(0, {str(source)!r}); "
    if argv is None:
        code += "import ologs.cli"
    else:
        code += f"from ologs.cli import main; sys.exit(main({argv!r}))"
    return [sys.executable, "-c", code]


def timed(command: list[str], env: dict) -> tuple[float, tuple]:
    """Wall seconds of one process, and its exit code, stdout and stderr."""
    start = time.perf_counter()
    done = subprocess.run(command, capture_output=True, env=env, check=False)
    elapsed = time.perf_counter() - start
    return elapsed, (done.returncode, done.stdout, done.stderr)


def describe(values: list[float], fmt: str) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:{fmt}} (quartiles {q1:{fmt}}-{q3:{fmt}})"


def compare(argv: list[str] | None, checkouts: list[Path], pairs: int,
            env: dict) -> bool:
    name = "import ologs.cli" if argv is None else "olog " + " ".join(
        a.replace(str(FIXTURES) + os.sep, "") for a in argv)
    commands = [program(checkout, argv) for checkout in checkouts]
    outcomes = [timed(command, env)[1] for command in commands]  # warm-up
    if outcomes[0] != outcomes[1]:
        differ = [what for what, u, v in
                  zip(("exit code", "stdout", "stderr"), *outcomes) if u != v]
        print(f"{name}: the sides differ in {', '.join(differ)}")
        return False
    times: list[list[float]] = [[], []]
    for p in range(pairs):
        for side in ((0, 1) if p % 2 == 0 else (1, 0)):
            times[side].append(timed(commands[side], env)[0])
    ratios = [new / old for old, new in zip(*times)]
    old_ms, new_ms = ([1e3 * t for t in side] for side in times)
    print(f"{name}: {pairs} pairs; OLD median ms {describe(old_ms, '.1f')}, "
          f"NEW median ms {describe(new_ms, '.1f')}; "
          f"NEW/OLD median {describe(ratios, '.3f')}")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coldstart.py",
        description="Cold-start timing of two checkouts, one process per call.")
    parser.add_argument("old", type=Path, help="checkout timed as OLD")
    parser.add_argument("new", type=Path, help="checkout timed as NEW")
    parser.add_argument("--pairs", type=int, default=21,
                        help="timed pairs per command (default %(default)s)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    checkouts = [args.old.resolve(), args.new.resolve()]
    ok = True
    with tempfile.TemporaryDirectory(prefix="coldstart-") as cache:
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
        env["PYTHONPYCACHEPREFIX"] = cache
        for command in COMMANDS:
            ok = compare(command, checkouts, args.pairs, env) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
