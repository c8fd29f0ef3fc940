"""Noun phrases, verb phrases, sentences, and their English readings.

Every label in an olog is either a noun phrase (starting with an
indefinite article) or a verb phrase.  Composite verb phrases record the
intermediate noun phrase so the reading "V1 N2, which V2" can be
produced.  Author sets are plain frozensets of identifier strings and
compose by intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import BadNounPhrase, BadVerbPhrase, ShapeMismatch

AuthorSet = frozenset


def authors(*names: str) -> AuthorSet:
    return frozenset(names)


def intersect_authors(a: AuthorSet, b: AuthorSet) -> AuthorSet:
    return a & b


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class UnitVerb:
    """The distinguished verb phrase read "is of course"."""


@dataclass(frozen=True)
class AtomicVerb:
    text: str

    def __post_init__(self):
        if not self.text:
            raise BadVerbPhrase("verb phrase text must be nonempty")


@dataclass(frozen=True)
class ConcatVerb:
    left: "VerbPhrase"
    via: NounPhrase
    right: "VerbPhrase"


VerbPhrase = Union[UnitVerb, AtomicVerb, ConcatVerb]

UNIT = UnitVerb()


def read_verb(v: VerbPhrase) -> str:
    """The reading of v; a composite reads "V1 N2, which V2".

    Composites are walked with an explicit stack, not by recursion, so a
    path of any length reads.
    """
    if isinstance(v, AtomicVerb):
        return v.text
    parts = []
    stack: list = [v]  # verbs still to read, and the text between them
    while stack:
        item = stack.pop()
        if isinstance(item, ConcatVerb):
            stack += (item.right, f" {item.via}, which ", item.left)
        elif isinstance(item, AtomicVerb):
            parts.append(item.text)
        elif isinstance(item, UnitVerb):
            parts.append("is of course")
        else:
            parts.append(item)  # the text between two verbs
    return "".join(parts)


@dataclass(frozen=True)
class Sentence:
    subject: NounPhrase
    verb: VerbPhrase
    obj: NounPhrase


def read_sentence(s: Sentence) -> str:
    return f"{s.subject} {read_verb(s.verb)} {s.obj}"


def read_equivalence(s1: Sentence, s2: Sentence) -> str:
    """English reading of a declared equivalence between parallel sentences.

    The subject keeps its bare noun after "For any", matching how such
    readings are conventionally printed ("For any integer x, ...").
    """
    if s1.subject != s2.subject or s1.obj != s2.obj:
        raise ShapeMismatch("equivalent sentences must share subject and object")
    return (
        f"For any {s1.subject.bare()} x, "
        f"we know that x {read_verb(s1.verb)} {s1.obj}, that we call y1, "
        f"and we know that x {read_verb(s2.verb)} {s2.obj}, that we call y2; "
        f"and the fact is, y1 and y2 are the same for any x."
    )


def read_correspondence(s: Sentence, x: str, y: str) -> str:
    """Reading of a token pair witnessing a sentence: "x is N1, which V N2, namely y"."""
    return f"{x} is {s.subject}, which {read_verb(s.verb)} {s.obj}, namely {y}"
