"""PubTator corpus reading and writing.

A document block is a ``|t|`` title line, an ``|a|`` abstract line, then one
tab-separated annotation line per mention, ended by a blank line.  Offsets
index the UTF-8 bytes of ``title + " " + abstract``.  Reading verifies every
annotation against the text it claims to cover, and writing reproduces a
read file byte for byte.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterable, TextIO, Union

from .errors import FileUnreadable, MalformedLine, OffsetMismatch


@dataclass(frozen=True)
class Annotation:
    start: int
    end: int
    text: str
    label: str
    norm_id: str = ""


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    abstract: str
    annotations: tuple[Annotation, ...] = field(default_factory=tuple)

    @property
    def full_text(self) -> str:
        return f"{self.title} {self.abstract}"


def _read_text(source: Union[str, TextIO]) -> str:
    """The whole text of a file path, or of a stream the caller keeps open."""
    if not isinstance(source, str):
        return source.read()
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FileUnreadable(source, str(exc)) from exc


def _lines(text: str) -> list[str]:
    r"""The lines of ``text``, ended by ``\n``, ``\r\n`` or ``\r`` only.

    ``str.splitlines`` also breaks at characters such as U+2028, which a
    title or abstract may hold.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _parse_int(line_no: int, value: str, what: str) -> int:
    if not value.isdigit():
        raise MalformedLine(line_no, f"bad {what} {value!r}")
    return int(value)


class _BlockReader:
    """Accumulates one document block line by line."""

    def __init__(self):
        self.doc_id = None
        self.title = None
        self.abstract = None
        self.annotations: list[Annotation] = []
        self.pending: list[tuple[int, list[str]]] = []

    def feed_text_line(self, line_no: int, line: str) -> None:
        doc_id, tag, payload = line.split("|", 2)
        if not doc_id:
            raise MalformedLine(line_no, "empty document id")
        if self.doc_id is None:
            self.doc_id = doc_id
        elif doc_id != self.doc_id:
            raise MalformedLine(
                line_no, f"document id {doc_id!r} inside block {self.doc_id!r}"
            )
        if tag == "t":
            if self.title is not None:
                raise MalformedLine(line_no, "second title line in block")
            self.title = payload
        else:
            if self.title is None:
                raise MalformedLine(line_no, "abstract line before title line")
            if self.abstract is not None:
                raise MalformedLine(line_no, "second abstract line in block")
            self.abstract = payload

    def feed_annotation(self, line_no: int, line: str) -> None:
        cols = line.split("\t")
        if len(cols) not in (5, 6):
            raise MalformedLine(
                line_no, f"expected 5 or 6 tab-separated fields, got {len(cols)}"
            )
        if self.doc_id is None or cols[0] != self.doc_id:
            raise MalformedLine(
                line_no,
                f"annotation for {cols[0]!r} inside block {self.doc_id!r}",
            )
        self.pending.append((line_no, cols))

    def finish(self) -> Document:
        if self.title is None:
            raise MalformedLine(
                self.pending[0][0] if self.pending else 0,
                f"block {self.doc_id!r} has no title line",
            )
        abstract = self.abstract if self.abstract is not None else ""
        doc = Document(self.doc_id, self.title, abstract)
        data = doc.full_text.encode("utf-8")
        for line_no, cols in self.pending:
            start = _parse_int(line_no, cols[1], "start offset")
            end = _parse_int(line_no, cols[2], "end offset")
            if end <= start:
                raise MalformedLine(line_no, f"empty span {start}..{end}")
            mention_text, label = cols[3], cols[4]
            if not label:
                raise MalformedLine(line_no, "empty annotation label")
            try:
                found = data[start:end].decode("utf-8")
            except UnicodeDecodeError:
                # The span cuts a multi-byte character in two.
                found = data[start:end].decode("utf-8", "replace")
                raise OffsetMismatch(
                    self.doc_id, start, end, mention_text, found
                ) from None
            if found != mention_text:
                raise OffsetMismatch(self.doc_id, start, end, mention_text, found)
            norm_id = cols[5] if len(cols) == 6 else ""
            self.annotations.append(
                Annotation(start, end, mention_text, label, norm_id)
            )
        return Document(self.doc_id, self.title, abstract, tuple(self.annotations))


def read_pubtator(source: Union[str, TextIO]) -> list[Document]:
    """Parse a PubTator file into documents, verifying every offset."""
    content = _read_text(source)
    docs: list[Document] = []
    block: _BlockReader | None = None
    for line_no, line in enumerate(_lines(content), start=1):
        if not line.strip():
            if block is not None:
                docs.append(block.finish())
                block = None
            continue
        if block is None:
            block = _BlockReader()
        parts = line.split("|", 2)
        if len(parts) == 3 and parts[1] in ("t", "a") and "\t" not in parts[0]:
            block.feed_text_line(line_no, line)
        elif "\t" in line:
            block.feed_annotation(line_no, line)
        else:
            raise MalformedLine(line_no, f"unrecognized line {line!r}")
    if block is not None:
        docs.append(block.finish())
    return docs


def read_pubtator_text(text: str) -> list[Document]:
    return read_pubtator(io.StringIO(text))


def write_pubtator(docs: Iterable[Document]) -> str:
    """Serialize documents back to PubTator text.

    Every block ends with a blank line; the identifier column appears only
    when a mention has one.
    """
    out: list[str] = []
    for doc in docs:
        out.append(f"{doc.doc_id}|t|{doc.title}\n")
        out.append(f"{doc.doc_id}|a|{doc.abstract}\n")
        for ann in doc.annotations:
            cols = [doc.doc_id, str(ann.start), str(ann.end), ann.text, ann.label]
            if ann.norm_id:
                cols.append(ann.norm_id)
            out.append("\t".join(cols) + "\n")
        out.append("\n")
    return "".join(out)
