"""The benchmark's traced mode still finds every name it times.

`perfbench/run.py --trace 1` wraps the layers' functions by name and
derives its per-layer metrics from `perfbench/tracing.py`'s `INCLUSIVE`,
`CALLS` and `METHODS`.  A function or method those tables name that the
package no longer has fails only there, at the end of a traced run; this
test builds a `Tracer` and asks it for its metrics, which looks every
named function up.  The tracing module is imported read-only: no
bytecode is written into `perfbench/`.
"""

import importlib.util
import sys
from pathlib import Path

import ologs.cli  # noqa: F401  (the Tracer wraps the loaded layers)

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    writing = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writing
    return module


def test_every_timed_name_is_wrapped():
    # Tracer() looks up every method of METHODS, and metrics() every
    # function that INCLUSIVE and CALLS name; a missing one raises.
    tracing = load_tracing()
    metrics = tracing.Tracer().metrics(1)
    assert set(metrics) == set(tracing.PER_LAYER) - {tracing.OVERHEAD}
