"""Exception types shared across the package."""


class OlogError(Exception):
    """Base class for all errors raised by this package."""


class NonComposable(OlogError):
    """Two paths whose endpoints do not line up."""


class ShapeMismatch(OlogError):
    """Two paths or sentences that do not share endpoints."""


class UnknownObject(OlogError):
    pass


class UnknownGenerator(OlogError):
    pass


class UnknownEquation(OlogError):
    pass


class InvalidPath(OlogError):
    pass


class InvalidFunctor(OlogError):
    pass


class BadNounPhrase(OlogError):
    """Noun phrase text does not start with an indefinite article."""


class BadVerbPhrase(OlogError):
    """Verb phrase text is empty."""


class UnknownToken(OlogError):
    pass


class MissingMapping(OlogError):
    """A token function has no entry for a token it should cover."""


class UnboundHeader(OlogError):
    """A table header matches no type or aspect of the olog."""


class AmbiguousHeader(OlogError):
    """A table header matches two or more types or aspects."""


class DuplicateKey(OlogError):
    """Two rows of a function table share the same first entry."""


class SearchSpaceTooLarge(OlogError):
    def __init__(self, count: int, limit: int):
        super().__init__(
            f"search space has {count} candidates, above the limit of {limit}"
        )
        self.count = count
        self.limit = limit


class ParseError(OlogError):
    """Syntax error in a DSL document, with 1-based position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


class DanglingReference(OlogError):
    """A declaration refers to an identifier that was never declared."""


class DuplicateId(OlogError):
    """The same identifier is declared twice."""
