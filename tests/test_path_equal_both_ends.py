"""`PathCategory.path_equal` searches from both ends with today's answers.

The reference below is the one-sided breadth-first search that
`path_equal` ran before: from p only, for at most `bound` rewrite steps.
Both searches answer True exactly when q lies within `bound` steps of
p, so they must agree on every pair.  The two-sided search grows each
side to about half the depth, so it calls `_rewrites` far less often;
the call count, not wall time, is what is pinned here.
"""

import itertools
import random

import randgen
from ologs.category import Path, PathCategory


def one_sided_path_equal(cat, p, q, bound):
    """The search from p alone, as `path_equal` ran it before."""
    if p == q:
        return True
    source, goal = p.source, q.arrows
    seen = {p.arrows}
    frontier = [p.arrows]
    for _ in range(bound):
        nxt = []
        for r in frontier:
            for s in cat._rewrites(source, r):
                if s == goal:
                    return True
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        if not nxt:
            return False
        frontier = nxt
    return False


def _give_ups():
    """The randgen categories of seeds 4004-4603 whose completion gives
    up, with their parallel pairs of length at most 3, built as
    `tests/test_completion.py` builds them."""
    for seed in range(4004, 4604):
        cat = randgen.random_category(random.Random(seed), max_equations=4)
        if not cat.equations or cat.rewriting() is not None:
            continue
        by_ends = {}
        for p in randgen.enumerate_paths(cat, 3):
            by_ends.setdefault((p.source, cat.target_of(p)), []).append(p)
        pairs = [pair for group in by_ends.values()
                 for pair in itertools.combinations(group[:12], 2)]
        yield seed, cat, pairs


def test_both_ends_answer_as_the_one_sided_search():
    seeds = answers = 0
    differing = []
    for seed, cat, pairs in _give_ups():
        seeds += 1
        for p, q in pairs:
            for bound in range(9):
                answers += 1
                if (cat.path_equal(p, q, bound)
                        != one_sided_path_equal(cat, p, q, bound)):
                    differing.append((seed, p, q, bound))
    assert seeds == 19
    assert answers > 10_000
    assert differing == []


def test_a_large_bound_takes_few_rewrites(monkeypatch):
    cat = randgen.random_category(random.Random(4113), max_equations=4)
    assert cat.rewriting() is None
    calls = 0
    rewrites = PathCategory._rewrites

    def counted(self, source, arrows):
        nonlocal calls
        calls += 1
        return rewrites(self, source, arrows)

    monkeypatch.setattr(PathCategory, "_rewrites", counted)
    source = cat.generator("g2").source
    p, q = Path(source, ("g2", "g2")), Path(source, ("g3", "g1"))
    expected = one_sided_path_equal(cat, p, q, 14)
    calls = 0
    assert cat.path_equal(p, q, 14) == expected
    assert calls <= 1_000
