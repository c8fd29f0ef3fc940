"""Noun phrases, verb phrases, sentences, and their English readings.

Every label in an olog is either a noun phrase (starting with an
indefinite article) or a verb phrase.  Composite verb phrases record the
intermediate noun phrase so the reading "V1 N2, which V2" can be
produced.  Author sets are plain frozensets of identifier strings and
compose by intersection.
"""

from __future__ import annotations

from .errors import BadNounPhrase, BadVerbPhrase, ShapeMismatch
from .records import record

AuthorSet = frozenset


def authors(*names: str) -> AuthorSet:
    return frozenset(names)


def intersect_authors(a: AuthorSet, b: AuthorSet) -> AuthorSet:
    return a & b


@record
class NounPhrase:
    text: str

    def __post_init__(self):
        lowered = self.text.lower()
        if not (lowered.startswith("a ") or lowered.startswith("an ")):
            raise BadNounPhrase(
                f"noun phrase {self.text!r} must start with an indefinite article"
            )

    def __str__(self) -> str:
        return self.text

    def bare(self) -> str:
        """Text without the leading article, for "For any ... x" slots."""
        return self.text.split(" ", 1)[1]


@record
class UnitVerb:
    """The distinguished verb phrase read "is of course"."""


@record
class AtomicVerb:
    text: str

    def __post_init__(self):
        if not self.text:
            raise BadVerbPhrase("verb phrase text must be nonempty")


@record
class ConcatVerb:
    """V1 then V2 through the noun phrase N2 between them.

    A composite along a path of n arrows nests n - 1 deep, so the
    dataclass methods, which recurse once per level, are replaced by
    iterative ones.  Equality, hashing, pickling, copying and read_verb
    all use the flat postfix tuple of _postfix; repr, which needs prefix
    order, walks the tree with its own stack and gives the dataclass text.
    """

    left: "VerbPhrase"
    via: NounPhrase
    right: "VerbPhrase"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _postfix(self) == _postfix(other)

    def __hash__(self):
        return hash(_postfix(self))

    def __repr__(self):
        parts = []
        stack: list = [self]  # subtrees to write, and text already written
        while stack:
            item = stack.pop()
            if isinstance(item, ConcatVerb):
                parts.append(f"{item.__class__.__qualname__}(left=")
                stack += (")", _repr_part(item.right), ", right=",
                          repr(item.via), ", via=", _repr_part(item.left))
            else:
                parts.append(item)
        return "".join(parts)

    def __reduce__(self):
        return _from_postfix, (_postfix(self),)


def _postfix(v: ConcatVerb) -> tuple:
    """The tree in postfix order: each composite's left subtree, noun
    phrase and right subtree, then its class.

    The class markers keep nesting and subclasses apart, so two verbs
    are equal exactly when their postfix tuples are; without them the
    leaves come in reading order."""
    items = []
    stack: list = [v]
    while stack:
        item = stack.pop()
        if isinstance(item, ConcatVerb):
            stack += (item.__class__, item.right, item.via, item.left)
        else:
            items.append(item)
    return tuple(items)


def _from_postfix(items: tuple) -> ConcatVerb:
    """The composite that _postfix flattened into `items`."""
    built = []
    for item in items:
        if isinstance(item, type):
            right, via, left = built.pop(), built.pop(), built.pop()
            built.append(item(left, via, right))
        else:
            built.append(item)
    return built[0]


def _repr_part(v):
    """A subtree for ConcatVerb.__repr__ to expand, or a leaf's repr."""
    return v if isinstance(v, ConcatVerb) else repr(v)


VerbPhrase = UnitVerb | AtomicVerb | ConcatVerb

UNIT = UnitVerb()

# Joins the predicates along a path: "V1 N2, which V2 N3".
WHICH = ", which "


def read_verb(v: VerbPhrase) -> str:
    """The reading of v; a composite reads "V1 N2, which V2".

    A composite reads from its _postfix leaves, which come in reading
    order: a verb reads as its text or "is of course", a noun phrase as
    " N2, which ", and a class marker as nothing.  An atomic verb
    returns its text before the walk.
    """
    if v.__class__ is AtomicVerb:
        return v.text
    parts = []
    for item in _postfix(v):
        if isinstance(item, AtomicVerb):
            parts.append(item.text)
        elif isinstance(item, NounPhrase):
            parts.append(f" {item.text}{WHICH}")
        elif isinstance(item, UnitVerb):
            parts.append("is of course")
        elif not isinstance(item, type):
            parts.append(item)  # not a verb phrase: join refuses it
    return "".join(parts)


@record
class Sentence:
    subject: NounPhrase
    verb: VerbPhrase
    obj: NounPhrase


def predicate(verb: VerbPhrase, obj: NounPhrase) -> str:
    """The reading of a verb and its object: "V N"."""
    return f"{read_verb(verb)} {obj.text}"


def read_sentence(s: Sentence) -> str:
    return f"{s.subject.text} {predicate(s.verb, s.obj)}"


def read_equivalence(s1: Sentence, s2: Sentence) -> str:
    """English reading of a declared equivalence between parallel sentences."""
    return equivalence_reading(s1.subject, *_parallel_predicates(s1, s2))


def read_fact_lines(s1: Sentence, s2: Sentence) -> tuple[str, str, str]:
    """The readings of s1, of s2 and of their equivalence."""
    return fact_lines(s1.subject, *_parallel_predicates(s1, s2))


def _parallel_predicates(s1: Sentence, s2: Sentence) -> tuple[str, str]:
    if s1.subject != s2.subject or s1.obj != s2.obj:
        raise ShapeMismatch("equivalent sentences must share subject and object")
    return predicate(s1.verb, s1.obj), predicate(s2.verb, s2.obj)


def fact_lines(subject: NounPhrase, left: str, right: str) -> tuple[str, str, str]:
    """The readings of a fact's sides, predicates left and right, and of it."""
    return (f"{subject.text} {left}", f"{subject.text} {right}",
            equivalence_reading(subject, left, right))


def equivalence_reading(subject: NounPhrase, left: str, right: str) -> str:
    """The reading of a fact whose sides have predicates left and right; the
    subject keeps its bare noun after "For any" ("For any integer x, ...")."""
    return (f"For any {subject.bare()} x, "
            f"we know that x {left}, that we call y1, "
            f"and we know that x {right}, that we call y2; "
            f"and the fact is, y1 and y2 are the same for any x.")


def correspondence_header(s: Sentence) -> tuple[str, str]:
    """The header of s's table: the subject noun, then the verb reading and
    object noun followed by ", namely"."""
    return (s.subject.text, f"{predicate(s.verb, s.obj)}, namely")


def read_correspondence(s: Sentence, x: str, y: str) -> str:
    """Reading of a token pair witnessing a sentence: "x is N1, which V N2, namely y"."""
    return f"{x} is {s.subject}, which {read_verb(s.verb)} {s.obj}, namely {y}"
