"""Locate variant mentions in running text.

Every grammar rule is compiled once with word-boundary guards.  A rule is
tried only on text holding one of its trigger literals (a rule without
triggers always is), and there only at word starts holding one of its start
characters.  One pass over the text finds the word starts of every rule in
play; at each, a rule is matched unless its previous match covers the
position, which gives exactly the matches of its own ``finditer``.
Overlapping candidates are then arbitrated by span length, left position,
and concept-type priority, in that order, so output never depends on rule
order or dictionary iteration.  Mention offsets are UTF-8 byte positions
into the scanned text.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import ParseFailure
from .hgvs import (
    ComponentRole,
    Descriptor,
    GRAMMAR_RULES,
    GROUP_ROLES,
    GrammarRule,
    MentionType,
    TYPE_PRIORITY,
    _OTHER_CASES,
    classify_descriptor,
    fold,
    parse_descriptor,
)
from .tokenizer import byte_offsets, to_byte_span

# A mention must not sit flush against other letters or digits; "SNP" inside
# "dbSNP2" is not a mention.  Punctuation and whitespace both count as edges.
_GUARD_BEFORE = r"(?<![0-9A-Za-z])"
_GUARD_AFTER = r"(?![0-9A-Za-z])"

# Alphanumeric runs.  A run absorbs a comma only when digits flank it on
# both sides, so "3,18,33,000" is one run while "1,000, and" does not
# swallow the second comma.
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


_ASCII_DIGITS = frozenset("0123456789")


def _expanded_starts(rule: GrammarRule) -> str:
    """The characters a scan match of ``rule`` can begin with: its
    ``starts`` and, for an ``re.IGNORECASE`` rule, every other character
    matching one of them.  Non-ASCII decimal digits are not listed."""
    starts = rule.starts
    if rule.flags & re.IGNORECASE:
        other = "".join(_OTHER_CASES.get(c, "") for c in starts)
        starts += starts.upper() + other
    return starts


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


def _candidate(scanner: tuple, m: re.Match) -> _Candidate | None:
    """What a scanner's match names, or None when its rule builds nothing
    from it."""
    rule, _, roles, _, _ = scanner
    try:
        built = rule.build(m)
    except (ValueError, ParseFailure):
        return None
    # A group that took no part spans (-1, -1); an empty one spans nothing.
    # Neither names a component.
    comps = [
        (role, span)
        for role, group in roles
        if (span := m.span(group))[0] != span[1]
    ]
    mtype = rule.mtype if isinstance(built, str) else classify_descriptor(built)
    return _Candidate(m.start(), m.end(), mtype, built, tuple(comps))


def split_gene_fused(
    token_text: str, lexicon: frozenset[str]
) -> tuple[str, Descriptor, int] | None:
    """Split a run like ``BRAFV600E`` into gene prefix and variant tail.

    Longer gene prefixes are tried first; the remainder must parse under a
    mutation grammar for the split to count.  Returns (gene, descriptor,
    split offset) or None.  Matching is case-sensitive on both halves.
    Each call makes one pass over the lexicon for its longest symbol; a
    ``Recognizer`` makes that pass once, when it is built.
    """
    return _split_fused(token_text, lexicon, max(map(len, lexicon), default=0))


def _split_fused(
    run: str, lexicon: frozenset[str], longest: int
) -> tuple[str, Descriptor, int] | None:
    """``split_gene_fused`` with the length of the longest symbol given."""
    # No prefix longer than the longest symbol can be a gene, so a long run
    # costs one slice per possible gene length, not one per character.
    for cut in range(min(len(run) - 1, longest), 0, -1):
        prefix = run[:cut]
        if prefix not in lexicon:
            continue
        remainder = run[cut:]
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
        self._longest = max(map(len, lexicon or ()), default=0)
        # Each scanner: its rule, the guarded regex, the component groups,
        # whether the rule's triggers are sought in the folded text, and
        # the character class body of the characters a match can begin
        # with (\d standing for the non-ASCII decimal digits).
        self._scanners: list[
            tuple[
                GrammarRule,
                re.Pattern,
                tuple[tuple[ComponentRole, str], ...],
                bool,
                str,
            ]
        ] = []
        # The scanners by start character, and those a non-ASCII decimal
        # digit may start.
        self._by_start: dict[str, tuple[int, ...]] = {}
        self._by_digit: tuple[int, ...] = ()
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
            k = len(self._scanners)
            starts = _expanded_starts(rule)
            for ch in dict.fromkeys(starts):
                self._by_start[ch] = self._by_start.get(ch, ()) + (k,)
            chars = re.escape(starts)
            if not _ASCII_DIGITS.isdisjoint(starts):
                self._by_digit += (k,)
                chars += r"\d"
            self._scanners.append((rule, rx, roles, folds, chars))

    # -- candidate generation ----------------------------------------------

    def _rule_candidates(
        self, text: str, types: frozenset[MentionType] | None
    ) -> list[_Candidate]:
        folded: str | None = None
        # Whether a trigger set occurs; several rules share one set.
        present: dict[tuple[bool, tuple[str, ...]], bool] = {}
        scanners = self._scanners
        active = [False] * len(scanners)
        union: list[str] = []
        for k, (rule, _, _, folds, chars) in enumerate(scanners):
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
            active[k] = True
            union.append(chars)
        if not union:
            return []
        # One pass over the word starts of the active scanners.  At each, a
        # scanner is tried unless its previous match covers it, which gives
        # what its finditer would.  re.compile's cache keeps the finder of
        # each set of active scanners.
        finder = re.compile(f"{_GUARD_BEFORE}[{''.join(union)}]")
        by_start, by_digit = self._by_start, self._by_digit
        ends = [0] * len(scanners)
        found: list[list[_Candidate]] = [[] for _ in scanners]
        for w in finder.finditer(text):
            s = w.start()
            for k in by_start.get(w.group(), by_digit):
                if active[k] and s >= ends[k]:
                    m = scanners[k][1].match(text, s)
                    if m is not None:
                        ends[k] = m.end()
                        candidate = _candidate(scanners[k], m)
                        if candidate is not None:
                            found[k].append(candidate)
        return [c for candidates in found for c in candidates]

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
            split = _split_fused(run, self.lexicon, self._longest)
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
        candidates, gene_spans = self._candidates(text)
        table = byte_offsets(text)
        return (
            self._finalize(text, doc_id, candidates, table),
            _gene_mentions(gene_spans, table),
        )

    def _scan_document(
        self, text: str, doc_id: str
    ) -> tuple[list[Mention], list[GeneMention], list[int] | None]:
        """``scan_document`` and the text's ``byte_offsets`` table.  A text
        without a mention gives ``([], [], None)``: the pipeline needs
        neither its genes nor its table, so neither is built."""
        candidates, gene_spans = self._candidates(text)
        if not candidates:
            return [], [], None
        table = byte_offsets(text)
        return (
            self._finalize(text, doc_id, candidates, table),
            _gene_mentions(gene_spans, table),
            table,
        )

    def _candidates(
        self, text: str
    ) -> tuple[list[_Candidate], list[tuple[str, int, int]]]:
        """Every rule and fused-token candidate, and the gene spans, in
        character coordinates."""
        gene_spans, fused = self._token_hits(text)
        candidates = self._rule_candidates(text, None)
        candidates.extend(fused)
        return candidates, gene_spans

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
        return _gene_mentions(gene_spans, byte_offsets(text))


def _gene_mentions(
    gene_spans: list[tuple[str, int, int]], table: list[int] | None
) -> list[GeneMention]:
    return [
        GeneMention(symbol, *to_byte_span(table, s, e))
        for symbol, s, e in gene_spans
    ]
