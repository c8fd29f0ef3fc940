"""Finitely presented categories: paths, path equality, functors.

A category is given by objects, generator arrows, and declared equations
between parallel paths.  Equality of paths is decided by a bounded
breadth-first search from one path that applies each declared equation
in either direction to a subpath, the bound counting rewrite steps; this
is sound but necessarily incomplete (the word problem is undecidable in
general), so the negative answer only means "not proved within the
bound".
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .report import ValidationReport

DEFAULT_BOUND = 8

Arrows = tuple[str, ...]


@dataclass(frozen=True)
class Generator:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Path:
    """A composable run of generators; an empty run is the identity."""

    source: str
    arrows: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.arrows)

    @property
    def is_identity(self) -> bool:
        return not self.arrows


@dataclass(frozen=True)
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
    # Indexes derived from the presentation; equality ignores them.
    _gen_index: dict[str, Generator] = field(
        init=False, repr=False, compare=False)
    _object_set: frozenset[str] = field(init=False, repr=False, compare=False)
    _eq_index: dict[str, Equation] = field(
        init=False, repr=False, compare=False)
    # Equation sides in both directions, as (from, to) arrow runs keyed
    # by the first arrow of `from`; when `from` is an identity, only `to`,
    # keyed by its object.
    _rules_by_arrow: dict[str, list[tuple[Arrows, Arrows]]] = field(
        init=False, repr=False, compare=False)
    _rules_by_object: dict[str, list[Arrows]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        self._object_set = frozenset(self.objects)
        if len(self._object_set) != len(self.objects):
            raise UnknownObject("duplicate object identifiers")
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise UnknownGenerator("duplicate generator identifiers")
        self._gen_index = {g.name: g for g in self.generators}
        for g in self.generators:
            if (g.source not in self._object_set
                    or g.target not in self._object_set):
                raise UnknownObject(
                    f"generator {g.name!r} has endpoint outside the category"
                )
        self._eq_index = {e.name: e for e in self.equations}
        if len(self._eq_index) != len(self.equations):
            raise DuplicateId("duplicate equation identifiers")
        self._rules_by_arrow = {}
        self._rules_by_object = {}
        for e in self.equations:
            if (self.target_of(e.left) != self.target_of(e.right)
                    or e.left.source != e.right.source):
                raise ShapeMismatch(
                    f"equation {e.name!r}: sides do not share endpoints"
                )
            for frm, to in ((e.left, e.right), (e.right, e.left)):
                if frm.arrows:
                    self._rules_by_arrow.setdefault(frm.arrows[0], []).append(
                        (frm.arrows, to.arrows))
                else:
                    self._rules_by_object.setdefault(frm.source, []).append(
                        to.arrows)

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
        if p.source not in self._object_set:
            raise InvalidPath(f"unknown source object {p.source!r}")
        objs = [p.source]
        for name in p.arrows:
            g = self._gen_index.get(name)
            if g is None:
                raise InvalidPath(f"unknown generator {name!r}")
            if g.source != objs[-1]:
                raise InvalidPath(
                    f"generator {name!r} does not compose at object {objs[-1]!r}"
                )
            objs.append(g.target)
        return objs

    def check_path(self, p: Path) -> None:
        """Raise InvalidPath unless p is a composable run rooted in this category."""
        self.objects_along(p)

    def path(self, source: str, arrows=()) -> Path:
        p = Path(source, tuple(arrows))
        self.check_path(p)
        return p

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
        by_arrow = self._rules_by_arrow
        by_object = self._rules_by_object
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

    def path_equal(self, p: Path, q: Path, bound: int = DEFAULT_BOUND) -> bool:
        """Decide p = q by a breadth-first search from p of at most
        `bound` rewrite steps, each applying one equation in either
        direction to a subpath.

        True means provably equal; False only means not proved within
        the bound.
        """
        if self.target_of(p) != self.target_of(q) or p.source != q.source:
            raise ShapeMismatch("paths do not share endpoints")
        if p == q:
            return True
        # Every rewrite keeps the source, so the search carries arrow runs.
        source, goal = p.source, q.arrows
        seen = {p.arrows}
        frontier = [p.arrows]
        for _ in range(bound):
            nxt = []
            for r in frontier:
                for s in self._rewrites(source, r):
                    if s == goal:
                        return True
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
            if not nxt:
                return False
            frontier = nxt
        return False


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
    dst_objects = set(dst.objects)
    for obj in src.objects:
        image = f.object_map.get(obj)
        if image is None:
            report.add("missing-object-image", f"object {obj!r} has no image")
        elif image not in dst_objects:
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
        left = f.apply(eq.left)
        right = f.apply(eq.right)
        if not dst.path_equal(left, right, bound):
            report.add(
                "equation-not-preserved",
                f"image of equation {eq.name!r} not proved equal "
                f"within bound {bound}",
            )
    return report
