r"""Tab-separated variant knowledge base and gene lexicon loaders.

The KB is a strict seven-column TSV, one variant per row.  Four KB-wide
indexes (DNA HGVS, protein HGVS, protein position prefix, rs number) map
exact canonical renderings to rows; incomplete protein mentions ("p.P799")
hit the prefix index derived from the stored protein forms, and a gene,
when given, filters the hits.  All query results come back in a
deterministic order so downstream tie-breaks never depend on file order.

The KB and the gene lexicon end a line only at ``\n``, ``\r\n`` or ``\r``,
as PubTator files do, so a form feed or U+2028 stays inside its row.

A clean KB loads without a Python call per row: when every row is one the
row check takes unchanged (no padding around a cell, ASCII cells, ``\n``
line ends) and no two rows conflict, one regex reads the rows 64 KB at a
time and the indexes hold the tuples of strings it gives.  Any other text,
from a ``\r`` or a padded cell to a bad cell or a conflict, is read again
row by row by ``_kb_rows``, which alone decides what is refused and with
which error.  A ``VariantRecord`` is made only for a row a lookup returns,
and ``records`` only when first read.

Loading pauses the cyclic garbage collector and restores it after, even
when a row is refused: the load builds no reference cycle, and collections
during it would only walk the growing heap again.  The rows of one gene
share one symbol string, an index key with one row holds the row itself,
and only the keys holding two rows or more are sorted, so a 100,000-row KB
keeps 54 MB live and peaks at 60 MB while it loads, the 5 MB of its text
included.
"""

from __future__ import annotations

import gc
import re
import sys
from dataclasses import dataclass, fields
from itertools import chain, compress, starmap
from operator import attrgetter, is_not, itemgetter
from typing import Iterable, Iterator, Sequence, TextIO, Union

from .corpus import _lines, _read_text
from .errors import DuplicateKey, MalformedRow
from .hgvs import _DNA_ALPHABET, SequenceLevel, VariantDescriptor, canonical_string

KB_HEADER = ("rsid", "ca_id", "gene", "dna_hgvs", "protein_hgvs", "ref", "alt")

_RSID_RX = re.compile(r"rs[1-9][0-9]*")
_CAID_RX = re.compile(r"CA[0-9]+")
_PROT_PREFIX_RX = re.compile(r"p\.([A-Z])([0-9]+)")
# For str.strip, which leaves nothing of an allele written in these.
_DNA_LETTERS = "".join(_DNA_ALPHABET)
# A row _check_row takes unchanged: seven unpadded ASCII cells, an
# identifier and an HGVS form present.  Group 6 is the protein form's
# position prefix as _PROT_PREFIX_RX matches it, or empty.
_ROW_RX = re.compile(
    r"^(?!\t\t)(rs[1-9][0-9]*|)\t(CA[0-9]+|)\t([!-~]+)\t(?!\t\t)([!-~]*)\t"
    rf"((p\.[A-Z][0-9]+)?[!-~]*)\t([{_DNA_LETTERS}]*)\t([{_DNA_LETTERS}]*)$",
    re.MULTILINE,
)
_EMPTY_LINE_RX = re.compile(r"^$", re.MULTILINE)
# The characters read at a time: what the regex gives for them is a small
# part of what the rows keep.
_CHUNK = 1 << 16

# A KB row: the seven cells of a record, in its field order.
_Row = tuple[str, str, str, str, str, str, str]
_Index = dict[str, _Row | list[_Row]]


@dataclass(frozen=True, slots=True)
class VariantRecord:
    """One KB row.  Absent fields are empty strings, never None."""

    rsid: str
    ca_id: str
    gene: str
    dna_hgvs: str
    protein_hgvs: str
    ref_allele: str
    alt_allele: str

    def sort_key(self) -> tuple:
        return _row_order((self.rsid, self.ca_id))


_ROW_OF = attrgetter(*(f.name for f in fields(VariantRecord)))


def _row_order(row: tuple) -> tuple:
    # Rows with an rsid come first, lowest number winning: rs numbers are
    # ASCII digits without a leading zero, so a shorter one is smaller.
    # CA-only rows order by accession so result lists stay reproducible.
    rsid = row[0]
    return (not rsid, len(rsid), rsid, row[1])


def _is_one_symbol(word: str) -> bool:
    """Whether a stripped KB cell or lexicon line is one gene symbol: it is
    not empty and holds no whitespace, so it is one word."""
    return len(word.split()) == 1


def _check_row(line_no: int, cols: list[str]) -> _Row:
    if len(cols) != len(KB_HEADER):
        raise MalformedRow(
            line_no, "columns",
            f"expected {len(KB_HEADER)} tab-separated fields, got {len(cols)}",
        )
    rsid, ca_id, gene, dna, prot, ref, alt = map(str.strip, cols)
    if rsid and _RSID_RX.fullmatch(rsid) is None:
        raise MalformedRow(line_no, "rsid", f"bad rs identifier {rsid!r}")
    if ca_id and _CAID_RX.fullmatch(ca_id) is None:
        raise MalformedRow(line_no, "ca_id", f"bad ClinGen allele id {ca_id!r}")
    if not _is_one_symbol(gene):
        raise MalformedRow(line_no, "gene", f"bad gene symbol {gene!r}")
    if not rsid and not ca_id:
        raise MalformedRow(line_no, "rsid", "row carries no identifier")
    if not dna and not prot:
        raise MalformedRow(line_no, "dna_hgvs", "row carries no HGVS form")
    for column, allele in (("ref", ref), ("alt", alt)):
        if allele.strip(_DNA_LETTERS):
            raise MalformedRow(line_no, column, f"bad allele {allele!r}")
    # Many rows name one gene; they share one string.
    return (rsid, ca_id, sys.intern(gene), dna, prot, ref, alt)


# Rows with the protein position prefix of each, or an empty string.
_Chunk = tuple[list[_Row], Sequence[str]]


def _chunks_of(rows: list[_Row]) -> Iterator[_Chunk]:
    """The rows a few thousand at a time, with their prefixes."""
    for at in range(0, len(rows), 4096):
        part = rows[at:at + 4096]
        yield part, [
            m.group() if (m := _PROT_PREFIX_RX.match(row[4])) is not None else ""
            for row in part
        ]


def _add(
    index: _Index, shared: list[list[_Row]], keys: Sequence[str], rows: list[_Row]
) -> None:
    """Add each row under its key, leaving out empty keys: the value is the
    one row of a key, or the list of its rows in the order they came.  A
    row equal to a key's one row is dropped.  Each list goes to ``shared``
    as it is made."""
    if not all(keys):
        rows = list(compress(rows, keys))
        keys = list(filter(None, keys))
    # setdefault gives back the row itself when its key is new, so the loop
    # sees only the rows of keys held already.
    held = map(index.setdefault, keys, rows)
    for key, row in compress(zip(keys, rows), map(is_not, held, rows)):
        value = index[key]
        if type(value) is list:
            value.append(row)
        elif value != row:
            index[key] = value = [value, row]
            shared.append(value)


def _rows_of(held: _Row | list[_Row] | None) -> list[_Row] | tuple[_Row, ...]:
    if held is None:
        return ()
    return held if type(held) is list else (held,)


def _names_two_rsids(rows: Iterable[_Row]) -> bool:
    """Whether two of the rows name one gene with two rs numbers."""
    named: dict[str, str] = {}
    for row in rows:
        rsid = row[0]
        if rsid and named.setdefault(row[2], rsid) != rsid:
            return True
    return False


class KnowledgeBase:
    """In-memory exact-match indexes over the KB rows.

    Four KB-wide indexes map a canonical form to its rows: DNA HGVS,
    protein HGVS, protein position prefix ("p.V600") and rs number.  A row
    is the tuple of a record's seven fields.  The rows of a key are
    deduplicated and ordered once, here, so lookups only filter, and a
    lookup makes records of the rows it returns.  A key's value is its one
    row itself, or a list once the key has two: most keys have one, and a
    list per key would cost more than the row.
    """

    def __init__(self, records: Iterable[VariantRecord]):
        records = tuple(records)
        self._build(_chunks_of(list(map(_ROW_OF, records))))
        self._records: tuple[VariantRecord, ...] | None = records

    def _build(self, chunks: Iterable[_Chunk]) -> tuple[list[list[_Row]], ...]:
        """Index the rows of the chunks, which come in file order.  Gives,
        per index (rs number, protein, DNA, prefix), the lists its keys
        hold, for the conflict check."""
        self._records = None
        self._rows: list[_Row] = []
        self._by_rsid: _Index = {}
        self._by_prot: _Index = {}
        self._by_dna: _Index = {}
        self._by_prefix: _Index = {}
        # Per index, in the order above, the lists its keys hold.
        shared: tuple[list[list[_Row]], ...] = ([], [], [], [])
        # The prefix index is built a chunk at a time, so the prefixes that
        # no key keeps go with their chunk.  The other indexes follow one at
        # a time, those with a key for nearly every row first: a dict that
        # grows holds its old and new tables at once, and that costs least
        # while the dicts after it do not exist yet.
        for rows, prefixes in chunks:
            self._rows += rows
            _add(self._by_prefix, shared[3], prefixes, rows)
        rows = self._rows
        for index, lists, column in zip(
            (self._by_rsid, self._by_prot, self._by_dna), shared, (0, 4, 3)
        ):
            _add(index, lists, list(map(itemgetter(column), rows)), rows)
        # Identical rows collapse to their first occurrence, and the stable
        # sort keeps file order among rows that tie: each key's part of one
        # dedup and sort of all rows.  A list is made of two rows that
        # differ, so only a longer one can hold a row twice.
        for lists in shared:
            for held in lists:
                if len(held) > 2:
                    held[:] = dict.fromkeys(held)
                held.sort(key=_row_order)
        return shared

    def _conflicting(
        self, prot_lists: list[list[_Row]], dna_lists: list[list[_Row]]
    ) -> bool:
        """Whether one (gene, HGVS) key claims two rs numbers.  Such a key
        holds a list in the protein or the DNA index, whose lists are given,
        or is a key of both, since the two forms share one key space."""
        dna, prot = self._by_dna, self._by_prot
        return any(map(_names_two_rsids, chain(prot_lists, dna_lists))) or any(
            _names_two_rsids([*_rows_of(dna[key]), *_rows_of(prot[key])])
            for key in dna.keys() & prot.keys()
        )

    @property
    def records(self) -> tuple[VariantRecord, ...]:
        """Every row as a record, in file order."""
        if self._records is None:
            self._records = tuple(starmap(VariantRecord, self._rows))
        return self._records

    def lookup(
        self, gene: str | None, descriptor: VariantDescriptor
    ) -> list[VariantRecord]:
        """All records matching the descriptor, best identifiers first.

        The match runs KB-wide; a non-empty gene keeps only that gene's
        records.  Incomplete protein mentions match any record sharing
        their wild-type and position.  The returned list is the caller's.
        """
        if descriptor.level is not SequenceLevel.PROTEIN:
            table = self._by_dna
        elif descriptor.is_incomplete:
            table = self._by_prefix
        else:
            table = self._by_prot
        rows = _rows_of(table.get(canonical_string(descriptor)))
        if gene:
            rows = [row for row in rows if row[2] == gene]
        return list(starmap(VariantRecord, rows))

    def lookup_rsid(self, rsid: str) -> list[VariantRecord]:
        # Stored ids are lowercase; accept Rs/RS spellings from raw text.
        rows = _rows_of(self._by_rsid.get(rsid.lower()))
        return list(starmap(VariantRecord, rows))

    def __len__(self) -> int:
        return len(self._rows)


def load_kb(source: Union[str, TextIO]) -> KnowledgeBase:
    """Read a seven-column KB TSV, validating every row.

    Raises FileUnreadable, MalformedRow (with line and column), or
    DuplicateKey when one (gene, HGVS) key claims two different rs numbers.
    """
    # The load builds no reference cycle, so a collection during it only
    # walks the growing heap again.  It is paused, and restored if it ran.
    enabled = gc.isenabled()
    gc.disable()
    try:
        text = _read_text(source)
        kb = KnowledgeBase.__new__(KnowledgeBase)
        try:
            if not kb._conflicting(*kb._build(_clean_chunks(text))[1:3]):
                return kb
        except _Unclean:
            pass
        # The regex's rows go, then the text once split, the lines once checked.
        del kb
        lines = _lines(text)
        del text
        rows = _kb_rows(lines)
        del lines
        kb = KnowledgeBase.__new__(KnowledgeBase)
        kb._build(_chunks_of(rows))
        return kb
    finally:
        if enabled:
            gc.enable()


class _Unclean(Exception):
    """A KB text holds a line the row regex does not take."""


def _clean_chunks(text: str) -> Iterator[_Chunk]:
    r"""The rows of a KB text, a chunk at a time, each row as _check_row
    would give it, with their prefixes.  Raises _Unclean at the first chunk
    holding a line the row regex does not take.  No cell holds a ``\r``, so
    a line holding one is not taken, and a text that does not start with
    the bare header line raises at once."""
    head = "\t".join(KB_HEADER) + "\n"
    if not text.startswith(head):
        raise _Unclean
    start, end = len(head), len(text)
    while start < end:
        # A chunk ends at a line end, so ^ and $ hold at its edges.
        stop = text.find("\n", start + _CHUNK) + 1 or end
        found = _ROW_RX.findall(text, start, stop)
        # The chunk's lines that are not empty: an empty one is next to
        # another line end, or is the one after the chunk's last.
        lines = text.count("\n", start, stop) + 1
        if text.find("\n\n", start - 1, stop) < 0:
            lines -= text[stop - 1] == "\n"
        else:
            lines -= len(_EMPTY_LINE_RX.findall(text, start, stop))
        if len(found) != lines:
            raise _Unclean
        if found:
            rsids, cas, names, dnas, prots, prefixes, refs, alts = zip(*found)
            del found
            # Many rows name one gene; they share one string.
            names = map(sys.intern, names)
            yield list(zip(rsids, cas, names, dnas, prots, refs, alts)), prefixes
        start = stop


def _kb_rows(lines: list[str]) -> list[_Row]:
    """The rows of a KB file's lines, each checked, or the error of the
    first row refused: a malformed row, or one whose (gene, HGVS) key
    another row gave another rs number."""
    if [c.strip() for c in lines[0].split("\t")] != list(KB_HEADER):
        raise MalformedRow(1, "header", "missing or wrong header line")
    rows: list[_Row] = []
    # The first row with an rs number naming an HGVS string, or, once a
    # second gene names it, a dict from gene to that gene's first row.  DNA
    # and protein forms share one map, as they share one key space.
    first: dict[str, _Row | dict[str, _Row]] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        row = _check_row(line_no, line.split("\t"))
        rsid, _, gene, dna, prot = row[:5]
        if rsid:
            for hgvs in (dna, prot):
                if not hgvs:
                    continue
                prior = first.setdefault(hgvs, row)
                if prior is row:
                    continue
                if type(prior) is dict:
                    prior = prior.setdefault(gene, row)
                elif prior[2] != gene:
                    first[hgvs] = {prior[2]: prior, gene: row}
                    continue
                if prior[0] != rsid:
                    raise DuplicateKey(line_no, (gene, hgvs), prior[0], rsid)
        rows.append(row)
    return rows


def load_genes(source: Union[str, TextIO]) -> frozenset[str]:
    """Read a gene lexicon: one symbol per line, blanks skipped."""
    lines = _lines(_read_text(source))
    symbols: set[str] = set()
    for line_no, line in enumerate(lines, start=1):
        symbol = line.strip()
        if not symbol:
            continue
        if not _is_one_symbol(symbol):
            raise MalformedRow(line_no, "symbol", f"bad gene symbol {symbol!r}")
        symbols.add(symbol)
    return frozenset(symbols)
