"""Two decisions that have one owner each.

An instance's token sets belong to `instance.py`: no other module of
`src/ologs` names `_token_sets` or `_tokens_at`, and the rest of the
package asks `has_token` and `has_tokens`.  The order of a merge listing
belongs to `search_conforming`: each survivor's `component_functions`
iterates its objects sorted, then each object's tokens sorted, and
`search-conforming` prints every morphism's pairs in that order, as
built.  The merges are seeded random ones, the fixture merges and the
merge-search workload's tiny problems.
"""

import ast
import io
import random
from contextlib import redirect_stdout
from math import prod
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import FIXTURES
from randgen import random_functor, random_instance, random_olog
from test_complexity import load_workloads
from ologs import cli
from ologs.language import UNIT
from ologs.mapping import OlogMorphism, pullback_instance, search_conforming
from ologs.olog import AspectLabel

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ologs"
PRIVATE = {"_token_sets", "_tokens_at"}
FIXTURE_MERGES = ("merge_is.map", "merge_father.map")


def identifiers(tree):
    """Every name, attribute, definition, import, argument and string
    constant of a module: each way its code can name something."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_only_instance_names_its_token_sets():
    named = {}
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named[path.name] = sorted(PRIVATE & set(identifiers(tree)))
    assert named.pop("instance.py") == sorted(PRIVATE)
    assert {name: found for name, found in named.items() if found} == {}


def random_merges(n=120, seed=3838, max_candidates=4000):
    """Seeded merges whose candidate product is small enough to search:
    half onto an instance pulled back from the target, whose survivors
    include the identity family."""
    for k in range(n):
        rng = random.Random(seed + k)
        src = random_olog(rng, max_objects=3, max_generators=3,
                          max_equations=0)
        dst = random_olog(rng, max_objects=3, max_generators=4)
        f = random_functor(rng, src.category, dst.category)
        if f is None:
            continue
        j = random_instance(rng, dst)
        i = pullback_instance(f, j) if k % 2 else random_instance(rng, src)
        objs = src.category.objects
        if prod(len(j.token_set(f.apply_object(c))) ** len(i.token_set(c))
                for c in objs) > max_candidates:
            continue
        correspondences = {
            c: frozenset((x, y) for x in i.token_set(c)
                         for y in j.token_set(f.apply_object(c))
                         if x == y or rng.random() < 0.5)
            for c in objs
        }
        m = OlogMorphism(i.olog, dst, f,
                         {c: AspectLabel(UNIT, frozenset()) for c in objs})
        yield m, i, j, correspondences


def fixture_merges():
    for name in FIXTURE_MERGES:
        doc, base, m, report = cli._checked_mapping(str(FIXTURES / name))
        assert report.ok
        data = SimpleNamespace(src_data=FIXTURES / "data" / "human",
                               dst_data=FIXTURES / "data" / "person")
        i, j, correspondences, report = cli._load_data(data, doc, base, m)
        assert report.ok
        yield m, i, j, correspondences


def assert_canonical(components):
    assert list(components) == sorted(components)
    for function in components.values():
        assert list(function) == sorted(function)


def test_survivors_list_objects_then_tokens_sorted():
    objects = tokens = survivors = 0
    for merge in [*random_merges(), *fixture_merges()]:
        for morphism in search_conforming(*merge)[1]:
            assert_canonical(morphism.component_functions)
            functions = morphism.component_functions.values()
            objects = max(objects, len(functions))
            tokens = max(tokens, *map(len, functions))
            survivors += 1
    # The order was tested where it could go wrong.
    assert survivors > 100 and objects >= 2 and tokens >= 2


def printed_morphisms(argv):
    """The (object, token) pairs of each morphism `search-conforming`
    prints, in the order printed."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main([str(a) for a in argv]) == 0
    morphisms = []
    for line in out.getvalue().splitlines():
        if line.startswith("morphism "):
            morphisms.append([])
        elif line.startswith("  "):
            obj, pair = line.strip().split(": ", 1)
            morphisms[-1].append((obj, pair.split(" -> ", 1)[0]))
    return morphisms


def workload_searches(directory):
    workload = load_workloads()["merge-search"]
    for seed in range(11, 16):
        for op in workload.generate(directory / str(seed), seed,
                                    workload.tiny):
            yield op.steps[0]


def fixture_searches(directory):
    for name in FIXTURE_MERGES:
        yield ["search-conforming", FIXTURES / name,
               "--src-data", FIXTURES / "data" / "human",
               "--dst-data", FIXTURES / "data" / "person"]


@pytest.mark.parametrize("searches", [fixture_searches, workload_searches])
def test_search_conforming_prints_pairs_sorted(tmp_path, searches):
    morphisms = [morphism for argv in searches(tmp_path)
                 for morphism in printed_morphisms(argv)]
    assert morphisms
    for pairs in morphisms:
        assert pairs == sorted(pairs)
