r"""Tab-separated variant knowledge base and gene lexicon loaders.

The KB is a strict seven-column TSV, one variant per row.  Four KB-wide
indexes (DNA HGVS, protein HGVS, protein position prefix, rs number) map
exact canonical renderings to records; incomplete protein mentions
("p.P799") hit the prefix index derived from the stored protein forms, and
a gene, when given, filters the hits.  All query results come back in a
deterministic order so downstream tie-breaks never depend on file order.

The KB and the gene lexicon end a line only at ``\n``, ``\r\n`` or ``\r``,
as PubTator files do, so a form feed or U+2028 stays inside its row.

Loading pauses the cyclic garbage collector and restores it after, even
when a row is refused: the load builds no reference cycle, and collections
during it would only walk the growing heap again.  Records have slots, and
the rows of one gene share one symbol string, so a 100,000-row KB keeps
75 MB live and peaks at 77 MB while it loads.
"""

from __future__ import annotations

import gc
import re
import sys
from dataclasses import dataclass
from typing import Iterable, TextIO, Union

from .corpus import _lines, _read_text
from .errors import DuplicateKey, MalformedRow
from .hgvs import _DNA_ALPHABET, SequenceLevel, VariantDescriptor, canonical_string

KB_HEADER = ("rsid", "ca_id", "gene", "dna_hgvs", "protein_hgvs", "ref", "alt")

_RSID_RX = re.compile(r"rs[1-9][0-9]*")
_CAID_RX = re.compile(r"CA[0-9]+")
_PROT_PREFIX_RX = re.compile(r"p\.([A-Z])([0-9]+)")
# For str.strip, which leaves nothing of an allele written in these.
_DNA_LETTERS = "".join(_DNA_ALPHABET)


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
        # Rows with an rsid come first, lowest number winning: rs numbers are
        # ASCII digits without a leading zero, so a shorter one is smaller.
        # CA-only rows order by accession so result lists stay reproducible.
        return (not self.rsid, len(self.rsid), self.rsid, self.ca_id)


def _is_one_symbol(word: str) -> bool:
    """Whether a stripped KB cell or lexicon line is one gene symbol: it is
    not empty and holds no whitespace, so it is one word."""
    return len(word.split()) == 1


def _check_row(line_no: int, cols: list[str]) -> VariantRecord:
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
    return VariantRecord(rsid, ca_id, sys.intern(gene), dna, prot, ref, alt)


class KnowledgeBase:
    """In-memory exact-match indexes over the KB rows.

    Four KB-wide indexes map a canonical form to its records: DNA HGVS,
    protein HGVS, protein position prefix ("p.V600") and rs number.  Each
    list is deduplicated and ordered once, here, so lookups only filter.
    """

    def __init__(self, records: Iterable[VariantRecord]):
        self.records: tuple[VariantRecord, ...] = tuple(records)
        self._by_dna: dict[str, list[VariantRecord]] = {}
        self._by_prot: dict[str, list[VariantRecord]] = {}
        self._by_prefix: dict[str, list[VariantRecord]] = {}
        self._by_rsid: dict[str, list[VariantRecord]] = {}
        # Identical rows collapse to their first occurrence; the stable sort
        # keeps file order among rows that tie on sort_key.
        unique = sorted(dict.fromkeys(self.records), key=VariantRecord.sort_key)
        for rec in unique:
            if rec.dna_hgvs:
                self._by_dna.setdefault(rec.dna_hgvs, []).append(rec)
            if rec.protein_hgvs:
                self._by_prot.setdefault(rec.protein_hgvs, []).append(rec)
                pm = _PROT_PREFIX_RX.match(rec.protein_hgvs)
                if pm is not None:
                    self._by_prefix.setdefault(pm.group(0), []).append(rec)
            if rec.rsid:
                self._by_rsid.setdefault(rec.rsid, []).append(rec)

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
        records = table.get(canonical_string(descriptor), [])
        if gene:
            return [r for r in records if r.gene == gene]
        return list(records)

    def lookup_rsid(self, rsid: str) -> list[VariantRecord]:
        # Stored ids are lowercase; accept Rs/RS spellings from raw text.
        return list(self._by_rsid.get(rsid.lower(), []))

    def __len__(self) -> int:
        return len(self.records)


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
        return KnowledgeBase(_kb_rows(source))
    finally:
        if enabled:
            gc.enable()


def _kb_rows(source: Union[str, TextIO]) -> list[VariantRecord]:
    # Returning frees the lines and the key map before the indexes are built.
    lines = _lines(_read_text(source))
    if [c.strip() for c in lines[0].split("\t")] != list(KB_HEADER):
        raise MalformedRow(1, "header", "missing or wrong header line")
    records: list[VariantRecord] = []
    first_rsid: dict[tuple[str, str], str] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rec = _check_row(line_no, line.split("\t"))
        for hgvs in (rec.dna_hgvs, rec.protein_hgvs):
            if hgvs and rec.rsid:
                prior = first_rsid.setdefault((rec.gene, hgvs), rec.rsid)
                if prior != rec.rsid:
                    raise DuplicateKey(line_no, (rec.gene, hgvs), prior, rec.rsid)
        records.append(rec)
    return records


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
