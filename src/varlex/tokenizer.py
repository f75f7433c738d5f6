"""Byte offsets and sentence spans.

Offsets throughout the package are byte offsets into the UTF-8 encoding of
the source text, not character offsets.  Scanning works on characters, and
a ``byte_offsets`` table converts its spans, so a span never splits a
multi-byte character; for plain-ASCII text the two coordinate systems
coincide.
"""

from __future__ import annotations

import re

_NON_ASCII = re.compile(r"[^\x00-\x7f]")


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
