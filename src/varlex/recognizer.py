"""Locate variant mentions in running text.

Every grammar rule is compiled once with word-boundary guards.  A rule is
scanned only over text holding one of its trigger literals (a rule without
triggers is always scanned); overlapping candidates are then arbitrated by
span length, left position, and concept-type priority, in that order, so
output never depends on rule order or dictionary iteration.  Mention offsets
are UTF-8 byte positions into the scanned text.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import ParseFailure
from .hgvs import (
    ComponentRole,
    Descriptor,
    GRAMMAR_RULES,
    GROUP_ROLES,
    GrammarRule,
    MentionType,
    TYPE_PRIORITY,
    classify_descriptor,
    fold,
    parse_descriptor,
)
from .tokenizer import byte_offsets, to_byte_span

# A mention must not sit flush against other letters or digits; "SNP" inside
# "dbSNP2" is not a mention.  Punctuation and whitespace both count as edges.
_GUARD_BEFORE = r"(?<![0-9A-Za-z])"
_GUARD_AFTER = r"(?![0-9A-Za-z])"

# Alphanumeric runs, with digit-grouping commas absorbed; the same shape the
# tokenizer produces, scanned here without building token objects.
_ALNUM_RUN = re.compile(r"[0-9A-Za-z]+(?:(?<=[0-9]),(?=[0-9])[0-9A-Za-z]+)*")


@dataclass
class Mention:
    """One recognized variant mention.

    ``start``/``end`` are byte offsets into the source text; ``components``
    maps wild-type, mutant, and position sub-spans (also byte offsets) that
    fall inside the mention span.  Exactly one of ``descriptor`` and
    ``identifier`` is set, matching the concept type.  ``gene_hint`` names a
    gene fused directly to the mention surface; ``gene_context`` is filled
    in later from surrounding text.
    """

    doc_id: str
    start: int
    end: int
    text: str
    mtype: MentionType
    components: dict[ComponentRole, tuple[int, int]] = field(default_factory=dict)
    descriptor: Descriptor | None = None
    identifier: str | None = None
    gene_hint: str | None = None
    gene_context: str | None = None

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class GeneMention:
    symbol: str
    start: int
    end: int


@dataclass(frozen=True)
class _Candidate:
    start: int
    end: int
    mtype: MentionType
    built: Descriptor | str
    components: tuple[tuple[ComponentRole, tuple[int, int]], ...]
    gene_hint: str | None = None


_PRIORITY_INDEX = {t: i for i, t in enumerate(TYPE_PRIORITY)}

# Grammars a gene symbol may be fused against ("BRAFV600E").
_FUSED_HINTS = (MentionType.PROTEIN_MUTATION, MentionType.DNA_MUTATION)

_NL_TYPES = frozenset({
    MentionType.OTHER_MUTATION,
    MentionType.PROTEIN_ALLELE,
    MentionType.PROTEIN_CHANGE,
    MentionType.DNA_CHANGE,
})
_REGION_TYPES = frozenset({
    MentionType.CNV,
    MentionType.GENOMIC_REGION,
    MentionType.CHROMOSOME,
})


@lru_cache(maxsize=8)
def _longest_symbol(lexicon: frozenset[str]) -> int:
    return max(map(len, lexicon), default=0)


def split_gene_fused(
    token_text: str, lexicon: frozenset[str]
) -> tuple[str, Descriptor, int] | None:
    """Split a run like ``BRAFV600E`` into gene prefix and variant tail.

    Longer gene prefixes are tried first; the remainder must parse under a
    mutation grammar for the split to count.  Returns (gene, descriptor,
    split offset) or None.  Matching is case-sensitive on both halves.
    """
    # No prefix longer than the longest symbol can be a gene, so a long run
    # costs one slice per possible gene length, not one per character.
    for cut in range(min(len(token_text) - 1, _longest_symbol(lexicon)), 0, -1):
        prefix = token_text[:cut]
        if prefix not in lexicon:
            continue
        remainder = token_text[cut:]
        for hint in _FUSED_HINTS:
            try:
                descriptor = parse_descriptor(remainder, hint)
            except ParseFailure:
                continue
            return prefix, descriptor, cut
    return None


class Recognizer:
    """Deterministic scanner over the full grammar rule set.

    A gene lexicon is optional; without one, fused gene+variant tokens are
    left whole and no gene mentions are reported.
    """

    def __init__(self, lexicon: frozenset[str] | None = None):
        self.lexicon = lexicon
        # Each scanner: its rule, the guarded regex, the component groups,
        # and whether the rule's triggers are sought in the folded text.
        self._scanners: list[
            tuple[
                GrammarRule,
                re.Pattern,
                tuple[tuple[ComponentRole, str], ...],
                bool,
            ]
        ] = []
        for rule in GRAMMAR_RULES:
            if not rule.scan:
                continue
            pattern = rule.scan_pattern or rule.pattern
            rx = re.compile(_GUARD_BEFORE + pattern + _GUARD_AFTER, rule.flags)
            roles = tuple(
                (GROUP_ROLES[group], group)
                for group in rx.groupindex
                if group in GROUP_ROLES
            )
            folds = bool(rule.flags & re.IGNORECASE)
            self._scanners.append((rule, rx, roles, folds))

    # -- candidate generation ----------------------------------------------

    def _rule_candidates(
        self, text: str, types: frozenset[MentionType] | None
    ) -> list[_Candidate]:
        out: list[_Candidate] = []
        folded: str | None = None
        # Whether a trigger set occurs; several rules share one set.
        present: dict[tuple[bool, tuple[str, ...]], bool] = {}
        for rule, rx, roles, folds in self._scanners:
            if types is not None and rule.mtype not in types:
                continue
            if rule.triggers:
                key = (folds, rule.triggers)
                hit = present.get(key)
                if hit is None:
                    if folds and folded is None:
                        folded = fold(text)
                    haystack = folded if folds else text
                    hit = any(t in haystack for t in rule.triggers)
                    present[key] = hit
                if not hit:
                    continue
            for m in rx.finditer(text):
                try:
                    built = rule.build(m)
                except (ValueError, ParseFailure):
                    continue
                # A group that took no part spans (-1, -1); an empty one
                # spans nothing.  Neither names a component.
                comps = [
                    (role, span)
                    for role, group in roles
                    if (span := m.span(group))[0] != span[1]
                ]
                mtype = (
                    rule.mtype
                    if isinstance(built, str)
                    else classify_descriptor(built)
                )
                out.append(
                    _Candidate(m.start(), m.end(), mtype, built, tuple(comps))
                )
        return out

    def _token_hits(
        self, text: str
    ) -> tuple[list[tuple[str, int, int]], list[_Candidate]]:
        """One pass over alphanumeric runs: lexicon hits and fused splits.

        Gene spans come back in character coordinates; the caller converts.
        """
        genes: list[tuple[str, int, int]] = []
        fused: list[_Candidate] = []
        if not self.lexicon:
            return genes, fused
        for m in _ALNUM_RUN.finditer(text):
            run = m.group()
            if run in self.lexicon:
                genes.append((run, m.start(), m.end()))
                continue
            # Only letter+digit runs can hide a fused gene; comma-bearing
            # runs are numeric and fail isalnum.
            if run.isalpha() or run.isdigit() or not run.isalnum():
                continue
            split = split_gene_fused(run, self.lexicon)
            if split is None:
                continue
            gene, descriptor, cut = split
            genes.append((gene, m.start(), m.start() + cut))
            fused.append(
                _Candidate(
                    m.start() + cut,
                    m.end(),
                    classify_descriptor(descriptor),
                    descriptor,
                    (),
                    gene_hint=gene,
                )
            )
        return genes, fused

    # -- arbitration ---------------------------------------------------------

    @staticmethod
    def _resolve(candidates: list[_Candidate]) -> list[_Candidate]:
        # The sort is stable: of candidates sharing (start, end, type) the
        # first in input order is tried first, and the later ones overlap it
        # or whatever beat it.
        ordered = sorted(
            candidates,
            key=lambda c: (c.start - c.end, c.start, _PRIORITY_INDEX[c.mtype]),
        )
        # Kept spans, in start order.  They never overlap and none is empty,
        # so start order is also end order: of the kept spans starting before
        # a candidate ends, the last one ends latest, and the candidate
        # overlaps one of them exactly when it overlaps that one.
        starts: list[int] = []
        ends: list[int] = []
        kept: list[_Candidate] = []
        for cand in ordered:
            i = bisect_left(starts, cand.end)
            if i and ends[i - 1] > cand.start:
                continue
            starts.insert(i, cand.start)
            ends.insert(i, cand.end)
            kept.insert(i, cand)
        return kept

    def _finalize(
        self,
        text: str,
        doc_id: str,
        candidates: list[_Candidate],
        table: list[int] | None,
    ) -> list[Mention]:
        mentions: list[Mention] = []
        for cand in self._resolve(candidates):
            start, end = to_byte_span(table, cand.start, cand.end)
            components = {
                role: to_byte_span(table, s, e)
                for role, (s, e) in cand.components
            }
            mention = Mention(
                doc_id=doc_id,
                start=start,
                end=end,
                text=text[cand.start: cand.end],
                mtype=cand.mtype,
                components=components,
                gene_hint=cand.gene_hint,
            )
            if isinstance(cand.built, str):
                mention.identifier = cand.built
            else:
                mention.descriptor = cand.built
            mentions.append(mention)
        return mentions

    # -- public API ------------------------------------------------------------

    def scan_document(
        self, text: str, doc_id: str = ""
    ) -> tuple[list[Mention], list[GeneMention]]:
        """Variant mentions and gene mentions of one text, in one pass."""
        return self._scan_document(text, doc_id, byte_offsets(text))

    def _scan_document(
        self, text: str, doc_id: str, table: list[int] | None
    ) -> tuple[list[Mention], list[GeneMention]]:
        """``scan_document`` with the text's ``byte_offsets`` table given."""
        gene_spans, fused = self._token_hits(text)
        candidates = self._rule_candidates(text, None)
        candidates.extend(fused)
        mentions = self._finalize(text, doc_id, candidates, table)
        genes = [
            GeneMention(symbol, *to_byte_span(table, s, e))
            for symbol, s, e in gene_spans
        ]
        return mentions, genes

    def recognize(self, text: str, doc_id: str = "") -> list[Mention]:
        """All variant mentions in ``text``, sorted, non-overlapping."""
        return self.scan_document(text, doc_id)[0]

    def recognize_natural_language(
        self, sentence: str, doc_id: str = ""
    ) -> list[Mention]:
        """Mentions written out in words ("nine nucleotide deletion")."""
        candidates = self._rule_candidates(sentence, _NL_TYPES)
        return self._finalize(sentence, doc_id, candidates, byte_offsets(sentence))

    def recognize_region(self, text: str, doc_id: str = "") -> list[Mention]:
        """Chromosome band, base-pair region, and copy-number mentions."""
        candidates = self._rule_candidates(text, _REGION_TYPES)
        return self._finalize(text, doc_id, candidates, byte_offsets(text))

    def find_gene_mentions(self, text: str) -> list[GeneMention]:
        """Exact lexicon hits, including gene prefixes of fused tokens."""
        gene_spans, _ = self._token_hits(text)
        table = byte_offsets(text)
        return [
            GeneMention(symbol, *to_byte_span(table, s, e))
            for symbol, s, e in gene_spans
        ]
