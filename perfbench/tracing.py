"""Traced runs: spans around the program's layers, from outside the program.

While installed, a Tracer replaces every public function of each layer
module, and the few methods the per-layer metrics name, by a wrapper
that records one span per call: function, start, end, parent span and
operation.  It patches every module attribute that refers to a wrapped
function, so calls that go through another module's imported name are
seen too, and it restores all of them when uninstalled.  The program's
source is not changed.

Spans stay in memory and are written out when the run ends.  The
per-layer metrics are derived from them, per traced operation.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

PACKAGE = "ologs"
# The layer modules in call order; `report` and `errors` do no work
# worth a metric.
LAYERS = ("cli", "dsl", "category", "olog", "language", "instance", "mapping")

# Methods traced besides each module's public functions.
METHODS = {
    "category": (("PathCategory", "__init__"), ("PathCategory", "check_path"),
                 ("PathCategory", "path_equal"), ("PathCategory", "_rewrites")),
    "instance": (("Instance", "function"),),
}

# Inclusive time of one function, per operation.
INCLUSIVE = {
    "dsl.parse_olog_ms": "dsl.parse_olog",
    "dsl.parse_mapping_ms": "dsl.parse_mapping",
    "dsl.olog_from_document_ms": "dsl.olog_from_document",
    "category.init_ms": "category.PathCategory.__init__",
    "category.path_equal_ms": "category.PathCategory.path_equal",
    "category.validate_functor_ms": "category.validate_functor",
    "olog.validate_olog_ms": "olog.validate_olog",
    "olog.read_fact_ms": "olog.read_fact",
    "instance.read_table_file_ms": "instance.read_table_file",
    "instance.load_table_ms": "instance.load_table",
    "instance.validate_instance_ms": "instance.validate_instance",
    "instance.write_bundle_ms": "instance.write_bundle",
    "mapping.validate_linguistic_functor_ms":
        "mapping.validate_linguistic_functor",
    "mapping.pullback_instance_ms": "mapping.pullback_instance",
    "mapping.check_naturality_ms": "mapping.check_naturality",
    "mapping.check_conformance_ms": "mapping.check_conformance",
    "mapping.search_conforming_ms": "mapping.search_conforming",
}

# Calls of one or more functions, per operation.
CALLS = {
    "category.check_path.calls": ("category.PathCategory.check_path",),
    "category.path_equal.calls": ("category.PathCategory.path_equal",),
    "category.rewrite_nodes": ("category.PathCategory._rewrites",),
    "olog.derived_aspect.calls": ("olog.derived_aspect",),
    "language.sentences": ("language.read_sentence", "language.read_equivalence",
                           "language.read_correspondence"),
    "instance.evaluate_path.calls": ("instance.evaluate_path",),
    "instance.function.calls": ("instance.Instance.function",),
    "mapping.check_naturality.calls": ("mapping.check_naturality",),
}


def _count_lines(counts, args, result):
    counts["dsl.lines"] += len(args[0].splitlines())


def _count_rows(counts, args, result):
    counts["instance.rows_loaded"] += len(result.rows)


def _count_search(counts, args, result):
    candidates, survivors = result
    counts["mapping.search.candidates"] += candidates
    counts["mapping.search.survivors"] += len(survivors)


# Work counted from a traced function's arguments or result.
HOOKS = {
    "dsl.parse_olog": _count_lines,
    "dsl.parse_mapping": _count_lines,
    "instance.read_table_file": _count_rows,
    "mapping.search_conforming": _count_search,
}
COUNTS = ("dsl.lines", "instance.rows_loaded", "mapping.search.candidates",
          "mapping.search.survivors")

OVERHEAD = "trace.overhead_pct"

# Every per-layer metric, in report order, with its unit.
PER_LAYER = {
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    **{name: "ms" for name in INCLUSIVE},
    **{name: "count" for name in (*CALLS, *COUNTS)},
    "mapping.search.yield": "ratio",
    OVERHEAD: "%",
}

_SPAN = 5  # fields per span: function, start, end, parent, operation


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object, object]] = []
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[fn] = self._wrap(fn, f"{layer}.{attr}")
            for cls_name, attr in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                fn = vars(cls)[attr]
                self._patches.append(
                    (cls, attr, fn, self._wrap(fn, f"{layer}.{cls_name}.{attr}")))
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patches.append((module, attr, value, wrapped[value]))

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)
        clock = time.perf_counter_ns
        blank = (0,) * _SPAN

        def traced(*args, **kwargs):
            index = len(spans)
            spans.extend(blank)
            spans[index + 3] = stack[-1] if stack else -1
            stack.append(index // _SPAN)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = fid
                spans[index + 1] = start
                spans[index + 2] = end
                spans[index + 4] = self._op
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, op: int) -> None:
        self._op = op
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self._stack.clear()

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, per traced operation, from the recorded spans."""
        spans, names = self.spans, self.names
        total = len(spans) // _SPAN
        fids = spans[0::_SPAN]
        parents = spans[3::_SPAN]
        durations = [end - start for start, end
                     in zip(spans[1::_SPAN], spans[2::_SPAN])]
        child = [0] * total
        for parent, duration in zip(parents, durations):
            if parent >= 0:
                child[parent] += duration
        layer_of = [name.split(".", 1)[0] for name in names]
        self_ns = Counter()
        inclusive_ns = Counter()
        calls = Counter()
        for span, fid in enumerate(fids):
            calls[fid] += 1
            self_ns[layer_of[fid]] += durations[span] - child[span]
        inclusive_fids = {names.index(n) for n in INCLUSIVE.values()}
        for span, fid in enumerate(fids):
            if fid not in inclusive_fids:
                continue
            parent = parents[span]
            while parent >= 0 and fids[parent] != fid:
                parent = parents[parent]
            if parent < 0:  # not a recursive call inside itself
                inclusive_ns[fid] += durations[span]
        out = {f"{layer}.self_ms": self_ns[layer] / 1e6 / ops
               for layer in LAYERS}
        for metric, name in INCLUSIVE.items():
            out[metric] = inclusive_ns[names.index(name)] / 1e6 / ops
        for metric, functions in CALLS.items():
            out[metric] = sum(calls[names.index(n)] for n in functions) / ops
        for metric in COUNTS:
            out[metric] = self.counts[metric] / ops
        checks = calls[names.index("mapping.check_naturality")]
        out["mapping.search.yield"] = (
            self.counts["mapping.search.survivors"] / checks if checks else 0.0)
        return out

    def write(self, path: Path) -> None:
        """Write the spans as gzipped CSV: one line per call."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans, names = self.spans, self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("op,span,parent,function,start_ns,end_ns\n")
            for span in range(len(spans) // _SPAN):
                fid, start, end, parent, op = spans[span * _SPAN:(span + 1) * _SPAN]
                handle.write(f"{op},{span},{parent},{names[fid]},{start},{end}\n")
