"""Knuth–Bendix normal forms decide path equality.

Regression tests for the grid whose boundary paths are equal beyond the
default bound, and a property test of the completed rewriting system
against the brute-force congruence oracle.
"""

import ast
import itertools
import random
from pathlib import Path as FilePath

import ologs
from ologs.category import (
    CatFunctor,
    Equation,
    Generator,
    Path,
    PathCategory,
    validate_functor,
)
from ologs.cli import main

import randgen
from oracle import congruence_closure
from test_category import grid_boundaries, grid_category


def square_category():
    return PathCategory(
        ("A", "B", "C", "D"),
        (Generator("top", "A", "B"), Generator("right", "B", "D"),
         Generator("left", "A", "C"), Generator("bottom", "C", "D")),
        (Equation("sq", Path("A", ("top", "right")),
                  Path("A", ("left", "bottom"))),),
    )


def square_onto_grid(n, missing=None):
    """The square onto the outer boundary of an n x n grid."""
    last = n - 1
    return CatFunctor(
        square_category(),
        grid_category(n, missing),
        {"A": "o0_0", "B": f"o0_{last}", "C": f"o{last}_0",
         "D": f"o{last}_{last}"},
        {"top": Path("o0_0", tuple(f"r0_{j}" for j in range(last))),
         "right": Path(f"o0_{last}", tuple(f"d{i}_{last}" for i in range(last))),
         "left": Path("o0_0", tuple(f"d{i}_0" for i in range(last))),
         "bottom": Path(f"o{last}_0", tuple(f"r{last}_{j}" for j in range(last)))},
    )


def write_square_onto_grid(directory, n):
    """square.olog, grid.olog and grid.map for check-mapping."""
    last = n - 1
    grid = ['olog "grid"']
    grid += [f'type o{i}_{j} = "a node at {i} {j}" by {{A}}'
             for i in range(n) for j in range(n)]
    for i, j in itertools.product(range(n), range(n)):
        if j < last:
            grid.append(f'aspect r{i}_{j} : o{i}_{j} -> o{i}_{j + 1} '
                        f'= "steps east to" by {{A}}')
        if i < last:
            grid.append(f'aspect d{i}_{j} : o{i}_{j} -> o{i + 1}_{j} '
                        f'= "steps south to" by {{A}}')
    grid += [f"fact c{i}_{j} : [r{i}_{j} ; d{i}_{j + 1}] ~ "
             f"[d{i}_{j} ; r{i + 1}_{j}] by {{A}}"
             for i in range(last) for j in range(last)]
    square = ['olog "square"']
    square += [f'type {t} = "a corner {t}" by {{A}}' for t in "ABCD"]
    square += [f'aspect {g} : {s} -> {t} = "leads to" by {{A}}'
               for g, s, t in (("top", "A", "B"), ("right", "B", "D"),
                               ("left", "A", "C"), ("bottom", "C", "D"))]
    square.append("fact sq : [top ; right] ~ [left ; bottom] by {A}")
    f = square_onto_grid(n)
    mapping = ['mapping "square-grid"', 'source "square.olog"',
               'target "grid.olog"']
    mapping += [f"object {c} -> {v}" for c, v in f.object_map.items()]
    mapping += [f"aspect {g} -> [{' ; '.join(p.arrows)}]"
                for g, p in f.generator_map.items()]
    mapping += [f'component {c} = "is" by {{A}}' for c in "ABCD"]
    mapping += [f"square {g} by {{A}}" for g in f.generator_map]
    for name, lines in (("grid.olog", grid), ("square.olog", square),
                        ("grid.map", mapping)):
        (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return directory / "grid.map"


class TestGridBeyondTheBound:
    def test_check_mapping_onto_a_4x4_grid_at_the_default_bound(
            self, tmp_path, capsys):
        # The boundary paths are 9 rewrites apart, one more than the
        # default bound.
        code = main(["check-mapping", str(write_square_onto_grid(tmp_path, 4))])
        out, err = capsys.readouterr()
        assert (code, out, err) == (0, "", "")

    def test_20x20_grid_square_at_bound_one(self):
        report = validate_functor(square_onto_grid(20), bound=1)
        assert report.ok, report.findings
        p, q = grid_boundaries(20)
        assert not grid_category(20).path_equal(p, q, bound=1)

    def test_6x6_grid_missing_its_centre_fact(self):
        report = validate_functor(square_onto_grid(6, missing=(2, 2)))
        assert [(f.code, f.message) for f in report.findings] == [
            ("equation-not-preserved",
             "image of equation 'sq' does not hold in the target")]


def two_loops(*equations):
    """One object x with loops a and b."""
    return PathCategory(
        ("x",), (Generator("a", "x", "x"), Generator("b", "x", "x")),
        tuple(Equation(f"e{k}", Path("x", left), Path("x", right))
              for k, (left, right) in enumerate(equations)))


class TestFallback:
    # b;b = b;a completes to the infinite family b a^n b -> b a^(n+1).
    def test_incomplete_presentation_uses_the_bounded_search(self):
        cat = two_loops((("b", "b"), ("b", "a")))
        assert cat.rewriting() is None
        p, q = Path("x", ("b", "b", "b")), Path("x", ("b", "a", "a"))
        assert not cat.decide_equal(p, q, bound=1)
        assert cat.decide_equal(p, q, bound=2)

    def test_fallback_message_names_the_bound(self):
        source = two_loops((("a",), ("b",)))
        target = two_loops((("b", "b"), ("b", "a")))
        f = CatFunctor(source, target, {"x": "x"},
                       {"a": Path("x", ("a",)), "b": Path("x", ("b",))})
        report = validate_functor(f, bound=5)
        assert [(f.code, f.message) for f in report.findings] == [
            ("equation-not-preserved",
             "image of equation 'e0' not proved equal within bound 5")]

    def test_completion_is_cached_and_ignored_by_equality(self):
        cat = two_loops((("a", "a"), ()))
        system = cat.rewriting()
        assert cat.rewriting() is system
        assert cat == two_loops((("a", "a"), ()))
        assert system.normal_form(("a", "b", "a", "a", "a")) == ("a", "b", "a")


def _parallel_pairs(cat, paths):
    by_ends = {}
    for p in paths:
        by_ends.setdefault((p.source, cat.target_of(p)), []).append(p)
    for group in by_ends.values():
        yield from itertools.combinations(group[:12], 2)


def test_normal_forms_agree_with_the_oracle():
    identity_sided = completed = gave_up = against_oracle = 0
    for seed in range(4004, 4604):
        cat = randgen.random_category(random.Random(seed), max_equations=4)
        if not cat.equations:
            continue
        identity_sided += any(side.is_identity for eq in cat.equations
                              for side in eq.sides())
        paths = randgen.enumerate_paths(cat, 3)
        pairs = list(_parallel_pairs(cat, paths))
        system = cat.rewriting()
        if system is None:
            gave_up += 1
            for p, q in pairs:
                for bound in (1, 4):
                    assert (cat.decide_equal(p, q, bound)
                            == cat.path_equal(p, q, bound)), (seed, p, q)
            continue
        completed += 1
        for p, q in pairs:
            equal = system.normal_form(p.arrows) == system.normal_form(q.arrows)
            assert cat.decide_equal(p, q, bound=0) == equal
            if cat.path_equal(p, q, bound=3):
                assert equal, (seed, p, q)
        classes = congruence_closure(cat, paths, budget=1500)
        if classes is None:
            continue
        against_oracle += 1
        for p, q in pairs:
            equal = system.normal_form(p.arrows) == system.normal_form(q.arrows)
            assert equal == (classes[p] == classes[q]), (seed, p, q)
    assert completed + gave_up >= 300
    assert identity_sided > 0 and gave_up > 0 and against_oracle > 0


def test_the_library_does_not_import_the_oracle():
    package = FilePath(ologs.__file__).parent
    for source in package.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[-1] == "oracle" for n in names), source
