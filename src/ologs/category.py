"""Finitely presented categories: paths, path equality, functors.

A category is given by objects, generator arrows, and declared equations
between parallel paths.  Equality of paths is the word problem of the
presentation, which is undecidable in general.  `decide_equal` answers
it exactly whenever Knuth–Bendix completion of the equations (Knuth and
Bendix, "Simple word problems in universal algebras", 1970) finishes
within a budget scaled to the presentation: two parallel paths are
equal if and only if their normal forms are.  Completion runs on the
first such query and is cached.  Otherwise `decide_equal` falls back to
`path_equal`, a breadth-first search from both paths that applies each
declared equation in either direction to a subpath, the bound counting
rewrite steps; that search is sound but incomplete, so its negative
answer only means "not proved within the bound".
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush

from .errors import (
    DuplicateId,
    InvalidFunctor,
    InvalidPath,
    NonComposable,
    ShapeMismatch,
    UnknownEquation,
    UnknownGenerator,
    UnknownObject,
)
from .records import record
from .report import ValidationReport

DEFAULT_BOUND = 8

# Completion budget.  Each cap scales with the presentation; past any of
# them completion gives up, and equality falls back to `path_equal`.
_RULES_PER_EQUATION = 4   # rules held at once
_LHS_PER_SIDE = 2         # left-side length, in longest declared sides
_STEPS_PER_EQUATION = 64  # equations and critical pairs examined

Arrows = tuple[str, ...]


@record
class Generator:
    name: str
    source: str
    target: str


@record
class Path:
    """A composable run of generators; an empty run is the identity."""

    source: str
    arrows: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.arrows)

    @property
    def is_identity(self) -> bool:
        return not self.arrows


@record
class Equation:
    """A declared equality between two parallel paths."""

    name: str
    left: Path
    right: Path

    def sides(self) -> tuple[Path, Path]:
        return (self.left, self.right)


@dataclass
class PathCategory:
    objects: tuple[str, ...]
    generators: tuple[Generator, ...]
    equations: tuple[Equation, ...] = ()

    def __post_init__(self):
        # Indexes derived from the presentation, kept as plain attributes,
        # not fields, so `==` and `repr` see the presentation alone.
        self._object_set = frozenset(self.objects)
        if len(self._object_set) != len(self.objects):
            raise UnknownObject("duplicate object identifiers")
        self._gen_index = {g.name: g for g in self.generators}
        if len(self._gen_index) != len(self.generators):
            raise UnknownGenerator("duplicate generator identifiers")
        for g in self.generators:
            if (g.source not in self._object_set
                    or g.target not in self._object_set):
                raise UnknownObject(
                    f"generator {g.name!r} has endpoint outside the category"
                )
        self._eq_index = {e.name: e for e in self.equations}
        if len(self._eq_index) != len(self.equations):
            raise DuplicateId("duplicate equation identifiers")
        for e in self.equations:
            if (self.target_of(e.left) != self.target_of(e.right)
                    or e.left.source != e.right.source):
                raise ShapeMismatch(
                    f"equation {e.name!r}: sides do not share endpoints"
                )

    def generator(self, name: str) -> Generator:
        try:
            return self._gen_index[name]
        except KeyError:
            raise UnknownGenerator(name) from None

    def equation(self, name: str) -> Equation:
        try:
            return self._eq_index[name]
        except KeyError:
            raise UnknownEquation(name) from None

    def objects_along(self, p: Path) -> list[str]:
        """Object sequence visited by p, of length len(p) + 1.

        Raises InvalidPath unless p is a composable run rooted in this
        category.
        """
        at = p.source
        if at not in self._object_set:
            raise InvalidPath(f"unknown source object {at!r}")
        gens = self._gen_index
        objs = [at]
        for name in p.arrows:
            g = gens.get(name)
            if g is None:
                raise InvalidPath(f"unknown generator {name!r}")
            if g.source != at:
                raise InvalidPath(
                    f"generator {name!r} does not compose at object {at!r}"
                )
            at = g.target
            objs.append(at)
        return objs

    def check_path(self, p: Path) -> None:
        """Raise InvalidPath unless p is a composable run rooted in this category."""
        self.objects_along(p)

    def target_of(self, p: Path) -> str:
        return self.objects_along(p)[-1]

    def compose(self, p: Path, q: Path) -> Path:
        if self.target_of(p) != q.source:
            raise NonComposable(
                f"cannot compose: path ends at {self.target_of(p)!r}, "
                f"next starts at {q.source!r}"
            )
        return Path(p.source, p.arrows + q.arrows)

    def identity(self, obj: str) -> Path:
        if obj not in self._object_set:
            raise UnknownObject(obj)
        return Path(obj)

    def _rewrites(self, source: str, arrows: Arrows) -> list[Arrows]:
        """All arrow runs reachable from the path (source, arrows) by one
        equation, in either direction, applied to a subpath.

        One walk along the path: at each position only the rules keyed
        by the arrow there, and the identity rules keyed by the object
        there (also at the end), can match.
        """
        by_arrow, by_object = self._rules
        gens = self._gen_index
        out = []
        at = source
        for i, name in enumerate(arrows):
            for to in by_object.get(at, ()):
                out.append(arrows[:i] + to + arrows[i:])
            for frm, to in by_arrow.get(name, ()):
                k = len(frm)
                if arrows[i:i + k] == frm:
                    out.append(arrows[:i] + to + arrows[i + k:])
            at = gens[name].target
        for to in by_object.get(at, ()):
            out.append(arrows + to)
        return out

    @cached_property
    def _rules(self):
        """The rule index that `_rewrites` matches by, built on the first
        rewrite: equation sides in both directions, as (from, to) arrow
        runs keyed by the first arrow of `from`; when `from` is an
        identity, only `to`, keyed by its object."""
        by_arrow: dict[str, list[tuple[Arrows, Arrows]]] = {}
        by_object: dict[str, list[Arrows]] = {}
        for e in self.equations:
            for frm, to in ((e.left, e.right), (e.right, e.left)):
                if frm.arrows:
                    by_arrow.setdefault(frm.arrows[0], []).append(
                        (frm.arrows, to.arrows))
                else:
                    by_object.setdefault(frm.source, []).append(to.arrows)
        return by_arrow, by_object

    def _check_parallel(self, p: Path, q: Path) -> None:
        if self.target_of(p) != self.target_of(q) or p.source != q.source:
            raise ShapeMismatch("paths do not share endpoints")

    def rewriting(self) -> RewriteSystem | None:
        """The equations completed to a confluent rewriting system, built
        on the first call and kept; None when completion exceeds its
        budget."""
        return self._completion

    @cached_property
    def _completion(self) -> RewriteSystem | None:
        return RewriteSystem.complete(
            self._gen_index,
            [(e.left.arrows, e.right.arrows) for e in self.equations])

    def decide_equal(self, p: Path, q: Path, bound: int = DEFAULT_BOUND) -> bool:
        """Decide p = q: exactly, by normal forms, when the equations
        complete within budget; otherwise by path_equal(p, q, bound)."""
        system = self.rewriting()
        if system is None:
            return self.path_equal(p, q, bound)
        self._check_parallel(p, q)
        return system.normal_form(p.arrows) == system.normal_form(q.arrows)

    def path_equal(self, p: Path, q: Path, bound: int = DEFAULT_BOUND) -> bool:
        """Decide p = q by a breadth-first search from both ends of at most
        `bound` rewrite steps in all, each applying one equation in either
        direction to a subpath.  Each round grows the smaller frontier,
        ties going to p's side, by one step.

        True means provably equal; False only means not proved within
        the bound.
        """
        self._check_parallel(p, q)
        if p == q:
            return True
        # Every rewrite keeps the source, so the search carries arrow runs.
        # Rewrites run both ways, so the two sides meet within `bound`
        # rounds exactly when one side reaches the other within `bound`.
        source = p.source
        sides = [({p.arrows}, [p.arrows]), ({q.arrows}, [q.arrows])]
        for _ in range(bound):
            near = len(sides[1][1]) < len(sides[0][1])
            (seen, frontier), (other, _) = sides[near], sides[not near]
            nxt = []
            for r in frontier:
                for s in self._rewrites(source, r):
                    if s in other:
                        return True
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
            if not nxt:
                return False  # its whole component seen: exactly not equal
            sides[near] = seen, nxt
        return False  # the bound is spent: not proved either way


class RewriteSystem:
    """A confluent, terminating string-rewriting system for a category's
    equations; build one with `PathCategory.rewriting`.

    Words carry one character per arrow, the generators numbered in
    sorted name order, so comparing two words of equal length compares
    their name sequences.  Each rule rewrites the larger side to the
    smaller in shortlex order: the longer side to the shorter, and
    between sides of equal length the larger name sequence to the
    smaller.  Rewriting plain words is sound for typed paths: no rule
    has an empty left side, and every overlap of two composable left
    sides is itself composable.
    """

    def __init__(self, generators: Iterable[str]):
        self._names = sorted(generators)
        self._code = {name: chr(i) for i, name in enumerate(self._names)}
        self._rules: dict[str, str] = {}
        # Left sides by last letter, to match the top of the stack; by
        # every letter, for overlaps and to find the rules that a new
        # rule makes reducible.
        self._by_last: dict[str, list[tuple[str, str]]] = {}
        self._by_letter: dict[str, set[str]] = {}

    @classmethod
    def complete(cls, generators: Iterable[str],
                 equations: list[tuple[Arrows, Arrows]]) -> RewriteSystem | None:
        """Knuth–Bendix completion of `equations`, or None past the budget.

        Pairs of words are taken smallest first; a pair whose normal
        forms differ becomes a rule, the rules whose left side it
        reduces go back to the pairs, and its overlaps with every rule
        become new pairs.
        """
        system = cls(generators)
        longest = max((len(w) for pair in equations for w in pair), default=0)
        max_rules = _RULES_PER_EQUATION * len(equations)
        max_lhs = _LHS_PER_SIDE * longest
        max_steps = _STEPS_PER_EQUATION * len(equations)
        pairs = [_pair(system._encode(u), system._encode(v))
                 for u, v in equations]
        heapify(pairs)
        steps = 0
        while pairs:
            steps += 1
            if steps > max_steps:
                return None
            _, u, v = heappop(pairs)
            u, v = system._reduce(u), system._reduce(v)
            if u == v:
                continue
            if (len(u), u) < (len(v), v):
                u, v = v, u
            if len(u) > max_lhs:
                return None
            for lhs in [w for w in system._by_letter.get(u[0], ()) if u in w]:
                heappush(pairs, _pair(lhs, system._remove(lhs)))
            if len(system._rules) >= max_rules:
                return None
            system._add(u, v)
            for pair in system._overlaps(u, v):
                heappush(pairs, _pair(*pair))
        return system

    def normal_form(self, arrows: Arrows) -> Arrows:
        """The irreducible run that `arrows` rewrites to."""
        word = self._reduce(self._encode(arrows))
        return tuple(self._names[ord(c)] for c in word)

    def _encode(self, arrows: Arrows) -> str:
        return "".join(map(self._code.__getitem__, arrows))

    def _reduce(self, word: str) -> str:
        """One left-to-right stack pass.  The stack never holds a left
        side, so after each push a left side can only end at its top;
        a match is replaced by its right side, pushed back onto the
        input."""
        by_last = self._by_last
        out = ""
        todo = list(word[::-1])
        while todo:
            c = todo.pop()
            out += c
            for lhs, rhs in by_last.get(c, ()):
                if out.endswith(lhs):
                    out = out[:-len(lhs)]
                    todo.extend(rhs[::-1])
                    break
        return out

    def _add(self, lhs: str, rhs: str) -> None:
        self._rules[lhs] = rhs
        self._by_last.setdefault(lhs[-1], []).append((lhs, rhs))
        for c in set(lhs):
            self._by_letter.setdefault(c, set()).add(lhs)

    def _remove(self, lhs: str) -> str:
        rhs = self._rules.pop(lhs)
        self._by_last[lhs[-1]].remove((lhs, rhs))
        for c in set(lhs):
            self._by_letter[c].discard(lhs)
        return rhs

    def _overlaps(self, lhs: str, rhs: str) -> list[tuple[str, str]]:
        """The critical pairs of the rule lhs -> rhs with every rule,
        itself included.  No left side contains another, so two left
        sides can only overlap by a proper suffix of one that is a
        proper prefix of the other."""
        out = []
        for i in range(1, len(lhs)):
            head, tail = lhs[:i], lhs[i:]
            for other in self._by_letter.get(tail[0], ()):
                if len(other) > len(tail) and other.startswith(tail):
                    out.append((rhs + other[len(tail):],
                                head + self._rules[other]))
            for other, other_rhs in self._by_last.get(head[-1], ()):
                if len(other) > i and other.endswith(head):
                    out.append((other_rhs + tail, other[:-i] + rhs))
        return out


def _pair(u: str, v: str) -> tuple[int, str, str]:
    """A heap entry: smaller pairs first, ties broken by the words."""
    return (len(u) + len(v), u, v)


@dataclass
class CatFunctor:
    """A functor between presented categories.

    Generators map to paths in the target; the action extends to all
    paths by splicing.
    """

    source: PathCategory
    target: PathCategory
    object_map: dict[str, str]
    generator_map: dict[str, Path]

    def apply_object(self, obj: str) -> str:
        try:
            return self.object_map[obj]
        except KeyError:
            raise UnknownObject(obj) from None

    def apply(self, p: Path) -> Path:
        """Image of a path: map the source and splice generator images."""
        arrows: tuple[str, ...] = ()
        for name in p.arrows:
            image = self.generator_map.get(name)
            if image is None:
                raise UnknownGenerator(name)
            arrows += image.arrows
        return Path(self.apply_object(p.source), arrows)


def compose_functors(f: CatFunctor, g: CatFunctor) -> CatFunctor:
    """g after f, as a functor f.source -> g.target."""
    if f.target is not g.source and f.target != g.source:
        raise InvalidFunctor("functors are not composable")
    return CatFunctor(
        source=f.source,
        target=g.target,
        object_map={c: g.apply_object(d) for c, d in f.object_map.items()},
        generator_map={name: g.apply(p) for name, p in f.generator_map.items()},
    )


def identity_functor(c: PathCategory) -> CatFunctor:
    return CatFunctor(
        source=c,
        target=c,
        object_map={o: o for o in c.objects},
        generator_map={g.name: Path(g.source, (g.name,)) for g in c.generators},
    )


def validate_functor(f: CatFunctor, bound: int = DEFAULT_BOUND) -> ValidationReport:
    """Check endpoint constraints and equation preservation."""
    report = ValidationReport()
    src, dst = f.source, f.target
    for obj in src.objects:
        image = f.object_map.get(obj)
        if image is None:
            report.add("missing-object-image", f"object {obj!r} has no image")
        elif image not in dst._object_set:
            report.add("bad-object-image",
                       f"object {obj!r} maps to unknown object {image!r}")
    for g in src.generators:
        image = f.generator_map.get(g.name)
        if image is None:
            report.add("missing-generator-image",
                       f"generator {g.name!r} has no image")
            continue
        try:
            end = dst.target_of(image)
        except InvalidPath as exc:
            report.add("bad-generator-image", f"generator {g.name!r}: {exc}")
            continue
        want_src = f.object_map.get(g.source)
        want_tgt = f.object_map.get(g.target)
        if image.source != want_src or end != want_tgt:
            report.add(
                "endpoint-violation",
                f"image of generator {g.name!r} runs "
                f"{image.source!r} -> {end!r}, "
                f"expected {want_src!r} -> {want_tgt!r}",
            )
    if not report.ok:
        return report
    for eq in src.equations:
        if dst.decide_equal(f.apply(eq.left), f.apply(eq.right), bound):
            continue
        if dst.rewriting() is not None:
            detail = "does not hold in the target"
        else:
            detail = f"not proved equal within bound {bound}"
        report.add("equation-not-preserved",
                   f"image of equation {eq.name!r} {detail}")
    return report
