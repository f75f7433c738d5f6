"""Offset-preserving tokenization.

Offsets throughout the package are byte offsets into the UTF-8 encoding of
the source text, not character offsets.  Tokens never split a multi-byte
character, so every token boundary is also a valid character boundary; for
plain-ASCII text the two coordinate systems coincide.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class TokenKind(Enum):
    WORD = "WORD"
    NUMBER = "NUMBER"
    PUNCT = "PUNCT"
    WHITESPACE = "WHITESPACE"
    MIXED = "MIXED"


@dataclass(frozen=True)
class Token:
    text: str
    start: int
    end: int
    kind: TokenKind

    def __len__(self) -> int:
        return self.end - self.start


# One scan pass.  An alphanumeric run absorbs a comma only when digits flank
# it on both sides, so "3,18,33,000" stays one token while "1,000, and" does
# not swallow the second comma.  Anything else is taken one character at a
# time.
_SCAN = re.compile(
    r"\s+|[0-9A-Za-z]+(?:(?<=[0-9]),(?=[0-9])[0-9A-Za-z]+)*|.",
    re.DOTALL,
)

_HAS_LETTER = re.compile(r"[A-Za-z]")
_HAS_DIGIT = re.compile(r"[0-9]")
_NON_ASCII = re.compile(r"[^\x00-\x7f]")


def _classify(run: str) -> TokenKind:
    if run[0].isspace():
        return TokenKind.WHITESPACE
    if len(run) == 1 and not run.isascii():
        # Non-ASCII fallback path: one character per token.
        if run.isalpha():
            return TokenKind.WORD
        if run.isdigit():
            return TokenKind.NUMBER
        return TokenKind.PUNCT
    has_letter = _HAS_LETTER.search(run) is not None
    has_digit = _HAS_DIGIT.search(run) is not None
    if has_letter and has_digit:
        return TokenKind.MIXED
    if has_letter:
        return TokenKind.WORD
    if has_digit:
        return TokenKind.NUMBER
    return TokenKind.PUNCT


def byte_offsets(text: str) -> list[int] | None:
    """Prefix table mapping character index -> byte offset, or None when the
    text is pure ASCII and the mapping is the identity."""
    if text.isascii():
        return None
    # Byte offset = character index + the extra bytes of every earlier
    # non-ASCII character, so only those characters need encoding.
    table: list[int] = []
    shift = done = 0
    for m in _NON_ASCII.finditer(text):
        i = m.start()
        table.extend(range(done + shift, i + shift + 1))
        shift += len(m.group().encode("utf-8")) - 1
        done = i + 1
    table.extend(range(done + shift, len(text) + shift + 1))
    return table


def to_byte_span(table: list[int] | None, start: int, end: int) -> tuple[int, int]:
    """Convert a character span to a byte span using a byte_offsets table."""
    if table is None:
        return start, end
    return table[start], table[end]


def byte_slice(text: str, start: int, end: int) -> str:
    """The substring of ``text`` selected by a byte span."""
    if text.isascii():
        return text[start:end]
    return text.encode("utf-8")[start:end].decode("utf-8")


def tokenize(source: str, char_offsets: bool = False) -> list[Token]:
    """Split ``source`` into contiguous tokens covering every byte.

    Concatenating the token texts in order reproduces the source exactly.
    Spans are byte offsets unless ``char_offsets`` asks for character
    positions (callers doing their own regex work want the latter).
    """
    table = None if char_offsets else byte_offsets(source)
    out = []
    for m in _SCAN.finditer(source):
        start, end = to_byte_span(table, m.start(), m.end())
        out.append(Token(m.group(0), start, end, _classify(m.group(0))))
    return out


# Minimal sentence rule: a period followed by whitespace and an uppercase
# letter ends a sentence.  Anything subtler (abbreviations, initials) is out
# of scope.
_SENT_BREAK = re.compile(r"\.\s+(?=[A-Z])")


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Byte spans of sentences, partitioning the whole text.

    The trailing whitespace of a boundary belongs to the sentence it closes.
    """
    return _sentence_spans(text, byte_offsets(text))


def _sentence_spans(text: str, table: list[int] | None) -> list[tuple[int, int]]:
    """``split_sentences`` with the text's ``byte_offsets`` table given."""
    spans = []
    start = 0
    for m in _SENT_BREAK.finditer(text):
        spans.append(to_byte_span(table, start, m.end()))
        start = m.end()
    if start < len(text):
        spans.append(to_byte_span(table, start, len(text)))
    return spans
