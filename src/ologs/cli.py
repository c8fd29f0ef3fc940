"""Command-line surface: validation, readings, pullbacks, migration, search.

Exit codes: 0 success, 1 validation failure, 2 usage or parse error.
Diagnostics go to stderr; reports to stdout (as JSON with --json).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from collections import Counter
from pathlib import Path as FsPath

from .category import DEFAULT_BOUND
from .dsl import (
    document_from_olog,
    load_mapping,
    load_olog,
    morphism_from_document,
    serialize_olog,
)
from .errors import OlogError, ParseError
from .instance import (check_totality, load_bundle, validate_instance,
                       write_bundle)
from .language import fact_lines
from .mapping import (
    DEFAULT_SEARCH_LIMIT,
    InstanceMorphism,
    check_naturality,
    load_correspondences,
    pullback_instance,
    pullback_olog,
    search_conforming,
    validate_linguistic_functor,
)
from .olog import validate_olog
from .report import Finding, ValidationReport, json_report


def _emit(report: ValidationReport, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report.to_json()))
    elif report.findings or report.warnings:
        print(report, file=sys.stderr)
    return 0 if report.ok else 1


def _checked_mapping(path: str, bound: int = DEFAULT_BOUND):
    """Read a map, load both ologs and build the morphism; then validate
    both ologs and, if they pass, the linguistic functor between them."""
    doc = load_mapping(path)
    base = FsPath(path).parent
    m = morphism_from_document(doc, load_olog(base / doc.source_ref),
                               load_olog(base / doc.target_ref))
    report = validate_olog(m.source)
    report.extend(validate_olog(m.target))
    if report.ok:
        report = validate_linguistic_functor(m, bound)
    return doc, base, m, report


def cmd_validate(args) -> int:
    olog = load_olog(args.olog_file)
    return _emit(validate_olog(olog), args.json)


def cmd_read(args) -> int:
    olog = load_olog(args.olog_file)
    predicates = olog.aspect_predicates
    lines = [("sentence", f"{olog.noun(g.source).text} {predicates[g.name]}")
             for g in olog.category.generators]
    if args.facts:
        for eq in olog.category.equations:
            left, right, fact = fact_lines(olog.noun(eq.left.source),
                                           olog.predicate(eq.left),
                                           olog.predicate(eq.right))
            lines += (("sentence", left), ("sentence", right), ("fact", fact))
    if args.json:
        # Readings are not findings: the report is ok.
        findings = [Finding(code, message) for code, message in lines]
        print(json.dumps(json_report(True, findings)))
    else:
        sys.stdout.write("".join(f"{message}\n" for _, message in lines))
    return 0


def cmd_check_instance(args) -> int:
    olog = load_olog(args.olog_file)
    report = validate_olog(olog)
    if report.ok:
        try:
            instance = load_bundle(args.csv_dir, olog)
        except OlogError as exc:
            report.add("bad-bundle", str(exc))
        else:
            report = validate_instance(instance)
    return _emit(report, args.json)


def _load_data(args, doc, base, m):
    """Load both bundles and check their tables are total and in range;
    only then read the map's correspondence tables, each as its pairs."""
    i = load_bundle(args.src_data, m.source)
    j = load_bundle(args.dst_data, m.target)
    report = check_totality(i)
    report.extend(check_totality(j))
    pairs = load_correspondences(m, doc.tables, base) if report.ok else {}
    return i, j, pairs, report


def cmd_check_mapping(args) -> int:
    with_data = bool(args.src_data)
    if with_data != bool(args.dst_data):
        print("error: --src-data and --dst-data must be given together",
              file=sys.stderr)
        return 2
    doc, base, m, report = _checked_mapping(args.map_file, args.bound)
    if report.ok and with_data:
        i, j, components, data_report = _load_data(args, doc, base, m)
        report.extend(data_report)
        for obj, pairs in components.items():
            components[obj] = dict(pairs)
            if len(components[obj]) != len(pairs):  # a key repeats
                counts = Counter(x for x, _ in pairs)
                for x in sorted(x for x in counts if counts[x] > 1):
                    n = "two" if counts[x] == 2 else counts[x]
                    report.add("ambiguous-correspondence",
                               f"table at {obj!r} declares {n} partners "
                               f"for {x!r}")
        if report.ok:
            p = InstanceMorphism(i, j, m, components)
            report.extend(check_naturality(p))
    return _emit(report, args.json)


def cmd_pullback(args) -> int:
    doc, _, m, report = _checked_mapping(args.map_file)
    if not report.ok:
        return _emit(report, args.json)
    pulled = pullback_olog(m.functor, m.target, f"{doc.name}.pullback")
    text = serialize_olog(document_from_olog(pulled))
    FsPath(args.out).write_text(text, encoding="utf-8")
    return 0


def cmd_migrate(args) -> int:
    _, _, m, report = _checked_mapping(args.map_file)
    if not report.ok:
        return _emit(report, args.json)
    j = load_bundle(args.dst_data, m.target)
    report = check_totality(j)
    if not report.ok:
        return _emit(report, args.json)
    pulled = pullback_instance(m.functor, j)
    write_bundle(args.out, pulled)
    return 0


def cmd_search_conforming(args) -> int:
    doc, base, m, report = _checked_mapping(args.map_file)
    if not report.ok:
        return _emit(report, args.json)
    i, j, correspondences, report = _load_data(args, doc, base, m)
    if not report.ok:
        return _emit(report, args.json)
    count, survivors = search_conforming(m, i, j, correspondences, args.limit)
    listings = [
        [f"{obj}: {x} -> {y}"
         for obj, function in morphism.component_functions.items()
         for x, y in function.items()]
        for morphism in survivors
    ]
    if args.json:
        findings = [Finding("candidates", str(count)),
                    Finding("conforming", str(len(survivors)))]
        findings += [Finding("morphism", "; ".join(parts))
                     for parts in listings]
        print(json.dumps(json_report(True, findings)))
    else:
        print(f"candidates: {count}")
        for index, parts in enumerate(listings, start=1):
            print(f"morphism {index}:")
            for part in parts:
                print(f"  {part}")
        print(f"conforming: {len(survivors)}")
    return 0


def _count(text: str) -> int:
    """An argparse type: an integer of at least 0.  Other text gets the
    message that type=int gives."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `olog` argument parser, built once per process: parse_args keeps
    no state between calls, and building it costs more than most commands."""
    parser = argparse.ArgumentParser(
        prog="olog", description="Validate, read, and map ologs."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")

    p = sub.add_parser("validate", help="validate an olog file")
    p.add_argument("olog_file")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("read", help="print the English sentences of an olog")
    p.add_argument("olog_file")
    p.add_argument("--facts", action="store_true",
                   help="also print fact readings")
    common(p)
    p.set_defaults(func=cmd_read)

    p = sub.add_parser("check-instance",
                       help="check a CSV bundle against an olog")
    p.add_argument("olog_file")
    p.add_argument("csv_dir")
    common(p)
    p.set_defaults(func=cmd_check_instance)

    p = sub.add_parser("check-mapping",
                       help="validate a mapping, optionally against data")
    p.add_argument("map_file")
    p.add_argument("--src-data", default=None,
                   help="source bundle; give it with --dst-data")
    p.add_argument("--dst-data", default=None,
                   help="target bundle; give it with --src-data")
    p.add_argument("--bound", type=_count, default=DEFAULT_BOUND,
                   help="rewrite steps for the bounded search of path "
                        "equality, used only when the target's equations "
                        "do not complete (default %(default)s)")
    common(p)
    p.set_defaults(func=cmd_check_mapping)

    p = sub.add_parser("pullback",
                       help="write the pulled-back olog of a mapping")
    p.add_argument("map_file")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("migrate",
                       help="re-tabulate target data along the mapping")
    p.add_argument("map_file")
    p.add_argument("--dst-data", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_migrate)

    p = sub.add_parser("search-conforming",
                       help="enumerate conforming instance morphisms")
    p.add_argument("map_file")
    p.add_argument("--src-data", required=True)
    p.add_argument("--dst-data", required=True)
    p.add_argument("--limit", type=_count, default=DEFAULT_SEARCH_LIMIT)
    common(p)
    p.set_defaults(func=cmd_search_conforming)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    # Commands build no reference cycles: the collector pauses while one runs.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (OlogError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
