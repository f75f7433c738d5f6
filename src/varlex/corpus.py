"""PubTator corpus reading and writing.

A document block is a ``|t|`` title line, an ``|a|`` abstract line, then one
tab-separated annotation line per mention, ended by a blank line.  Offsets
index the UTF-8 bytes of ``title + " " + abstract``.  Reading verifies every
annotation against the text it claims to cover, and writing reproduces a
read file byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
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
    """The whole text of a file path, or of a stream the caller keeps open.
    Bytes that are not UTF-8 make it unreadable, and for a path the error
    names their line, counted as _lines counts."""
    try:
        if not isinstance(source, str):
            return source.read()
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 (byte {exc.object[exc.start]:#04x})"
        if not isinstance(source, str):
            raise FileUnreadable(getattr(source, "name", "<stream>"), reason) from None
        # read() decodes all of a file at once, so the error holds its bytes.
        line = len(_lines(exc.object[:exc.start].decode("utf-8")))
        raise FileUnreadable(source, f"line {line} is {reason}") from None
    except OSError as exc:
        if not isinstance(source, str):
            raise
        raise FileUnreadable(source, str(exc)) from exc


def _lines(text: str) -> list[str]:
    r"""The lines of ``text``, ended by ``\n``, ``\r\n`` or ``\r`` only.

    ``str.splitlines`` also breaks at characters such as U+2028, which a
    title or abstract may hold.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def read_pubtator(source: Union[str, TextIO]) -> list[Document]:
    """Parse a PubTator file into documents, verifying every offset."""
    return read_pubtator_text(_read_text(source))


def read_pubtator_text(text: str) -> list[Document]:
    # A block is a run of numbered lines that are not whitespace only.
    numbered = enumerate(_lines(text), start=1)
    runs = groupby(numbered, lambda pair: bool(pair[1].strip()))
    return [_read_block(list(block)) for filled, block in runs if filled]


def _read_block(block: list[tuple[int, str]]) -> Document:
    """The document of one block of numbered lines, every offset verified.

    Only a text line sets the id, and an abstract line needs a title line
    before it, so a block that gets past its lines has a title.
    """
    doc_id = title = abstract = None
    rows: list[tuple[int, list[str]]] = []
    for line_no, line in block:
        parts = line.split("|", 2)
        if len(parts) == 3 and parts[1] in ("t", "a") and "\t" not in parts[0]:
            line_id, tag, payload = parts
            if not line_id:
                raise MalformedLine(line_no, "empty document id")
            doc_id = doc_id or line_id
            if line_id != doc_id:
                raise MalformedLine(
                    line_no, f"document id {line_id!r} inside block {doc_id!r}"
                )
            if tag == "t":
                if title is not None:
                    raise MalformedLine(line_no, "second title line in block")
                title = payload
            elif title is None:
                raise MalformedLine(line_no, "abstract line before title line")
            elif abstract is not None:
                raise MalformedLine(line_no, "second abstract line in block")
            else:
                abstract = payload
        elif "\t" in line:
            cols = line.split("\t")
            if len(cols) not in (5, 6):
                raise MalformedLine(
                    line_no, f"expected 5 or 6 tab-separated fields, got {len(cols)}"
                )
            if cols[0] != doc_id:
                raise MalformedLine(
                    line_no, f"annotation for {cols[0]!r} inside block {doc_id!r}"
                )
            rows.append((line_no, cols))
        else:
            raise MalformedLine(line_no, f"unrecognized line {line!r}")
    doc = Document(doc_id, title, abstract or "")
    data = doc.full_text.encode("utf-8")
    annotations: list[Annotation] = []
    for line_no, cols in rows:
        start = _offset(line_no, "start", cols[1])
        end = _offset(line_no, "end", cols[2])
        mention_text, label = cols[3], cols[4]
        if end <= start:
            raise MalformedLine(line_no, f"empty span {start}..{end}")
        if not label:
            raise MalformedLine(line_no, "empty annotation label")
        try:
            found = data[start:end].decode("utf-8")
        except UnicodeDecodeError:
            # The span cuts a multi-byte character in two.
            found = data[start:end].decode("utf-8", "replace")
            raise OffsetMismatch(doc_id, start, end, mention_text, found) from None
        if found != mention_text:
            raise OffsetMismatch(doc_id, start, end, mention_text, found)
        norm_id = cols[5] if len(cols) == 6 else ""
        annotations.append(Annotation(start, end, mention_text, label, norm_id))
    return Document(doc_id, title, doc.abstract, tuple(annotations))


def _offset(line_no: int, which: str, value: str) -> int:
    """An offset column read as ASCII digits, or MalformedLine."""
    if value.isascii() and value.isdigit():
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            pass
    raise MalformedLine(line_no, f"bad {which} offset {value!r}")


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
