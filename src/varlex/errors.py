"""Exception types raised across the package."""

from __future__ import annotations

import copyreg


class VarlexError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # Unpickling rebuilds the error from its message and attributes
        # without calling __init__, whose arguments differ in every
        # subclass, so an error raised in a worker process reaches the
        # caller with its type, message and attributes.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ParseFailure(VarlexError):
    """A surface string does not conform to the grammar for its mention type.

    ``position`` is the character offset of the first offending character.
    """

    def __init__(self, surface: str, position: int, reason: str = ""):
        self.surface = surface
        self.position = position
        self.reason = reason
        detail = f": {reason}" if reason else ""
        super().__init__(f"cannot parse {surface!r} at position {position}{detail}")


class UnknownResidue(VarlexError):
    """An amino-acid name, code, or nucleotide name is not in the lookup tables."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown residue {name!r}")


class FileUnreadable(VarlexError):
    """A required input file is missing or cannot be opened."""

    def __init__(self, path: str, reason: str = ""):
        self.path = path
        detail = f": {reason}" if reason else ""
        super().__init__(f"cannot read {path}{detail}")


class MalformedRow(VarlexError):
    """A knowledge-base or lexicon row violates the file contract."""

    def __init__(self, line_no: int, column: str, reason: str):
        self.line_no = line_no
        self.column = column
        self.reason = reason
        super().__init__(f"line {line_no}, column {column!r}: {reason}")


class DuplicateKey(VarlexError):
    """The same (gene, HGVS) key maps to two different dbSNP identifiers."""

    def __init__(self, line_no: int, key: tuple, first: str, second: str):
        self.line_no = line_no
        self.key = key
        self.first = first
        self.second = second
        super().__init__(
            f"line {line_no}: key {key!r} already mapped to {first}, got {second}"
        )


class MalformedLine(VarlexError):
    """A corpus line cannot be parsed as a title, abstract, or annotation."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class OffsetMismatch(VarlexError):
    """An annotation's offsets do not select its own text in the document."""

    def __init__(self, doc_id: str, start: int, end: int, expected: str, found: str):
        self.doc_id = doc_id
        self.start = start
        self.end = end
        self.expected = expected
        self.found = found
        super().__init__(
            f"document {doc_id}: span [{start}, {end}) reads {found!r}, "
            f"annotation says {expected!r}"
        )
