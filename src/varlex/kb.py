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
during it would only walk the growing heap again.  Records have slots, the
rows of one gene share one symbol string, an index key with one record
holds the record itself, and the indexes are built in file order with only
the keys holding two records or more sorted, so a 100,000-row KB keeps
53 MB live and peaks at 54 MB while it loads.
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


def _index(
    pairs: Iterable[tuple[str, VariantRecord]],
    shared: list[list[VariantRecord]],
) -> dict[str, VariantRecord | list[VariantRecord]]:
    """Map each key to its records in the order the pairs come: the value is
    the one record of a key, or the list of its records.  A record equal to
    a key's one record is dropped.  Each list goes to ``shared`` as it is
    made, for the caller to deduplicate and order."""
    index: dict[str, VariantRecord | list[VariantRecord]] = {}
    for key, rec in pairs:
        held = index.setdefault(key, rec)
        if held is rec:
            continue
        if type(held) is list:
            held.append(rec)
        elif held != rec:
            index[key] = held = [held, rec]
            shared.append(held)
    return index


def _fresh_list(
    held: VariantRecord | list[VariantRecord] | None,
) -> list[VariantRecord]:
    """The records of an index value, in a list of the caller's own."""
    if held is None:
        return []
    if type(held) is list:
        return held.copy()
    return [held]


class KnowledgeBase:
    """In-memory exact-match indexes over the KB rows.

    Four KB-wide indexes map a canonical form to its records: DNA HGVS,
    protein HGVS, protein position prefix ("p.V600") and rs number.  The
    records of a key are deduplicated and ordered once, here, so lookups
    only filter.  A key's value is its one record itself, or a list once
    the key has two: most keys have one, and a list per key would cost
    more than the record.
    """

    def __init__(self, records: Iterable[VariantRecord]):
        records = tuple(records)
        self.records: tuple[VariantRecord, ...] = records
        # The indexes are built in file order.  Most keys hold one record,
        # so only the lists of the others are ordered, at the end.  The
        # indexes with a key for nearly every row come first: a dict that
        # grows holds its old and new tables at once, and that costs least
        # before the other indexes exist.
        shared: list[list[VariantRecord]] = []
        self._by_rsid = _index(((r.rsid, r) for r in records if r.rsid), shared)
        self._by_prot = _index(
            ((r.protein_hgvs, r) for r in records if r.protein_hgvs), shared
        )
        self._by_dna = _index(
            ((r.dna_hgvs, r) for r in records if r.dna_hgvs), shared
        )
        self._by_prefix = _index(
            ((m.group(0), r) for r in records
             if (m := _PROT_PREFIX_RX.match(r.protein_hgvs)) is not None),
            shared,
        )
        for held in shared:
            # Identical rows collapse to their first occurrence, and the
            # stable sort keeps file order among records that tie on
            # sort_key: each key's part of one dedup and sort of all rows.
            # Lists are deduplicated here, not at each insert, where each
            # record would be compared with every record of its key.
            held[:] = dict.fromkeys(held)
            held.sort(key=VariantRecord.sort_key)

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
        records = _fresh_list(table.get(canonical_string(descriptor)))
        if gene:
            return [r for r in records if r.gene == gene]
        return records

    def lookup_rsid(self, rsid: str) -> list[VariantRecord]:
        # Stored ids are lowercase; accept Rs/RS spellings from raw text.
        return _fresh_list(self._by_rsid.get(rsid.lower()))

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
    # The first row with an rs number naming an HGVS string, or, once a
    # second gene names it, a dict from gene to that gene's first row.  DNA
    # and protein forms share one map, as they share one key space.
    first: dict[str, VariantRecord | dict[str, VariantRecord]] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rec = _check_row(line_no, line.split("\t"))
        if rec.rsid:
            for hgvs in (rec.dna_hgvs, rec.protein_hgvs):
                if not hgvs:
                    continue
                prior = first.setdefault(hgvs, rec)
                if prior is rec:
                    continue
                if type(prior) is dict:
                    prior = prior.setdefault(rec.gene, rec)
                elif prior.gene != rec.gene:
                    first[hgvs] = {prior.gene: prior, rec.gene: rec}
                    continue
                if prior.rsid != rec.rsid:
                    raise DuplicateKey(
                        line_no, (rec.gene, hgvs), prior.rsid, rec.rsid
                    )
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
