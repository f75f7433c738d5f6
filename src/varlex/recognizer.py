"""Locate variant mentions in running text.

Every grammar rule is compiled once with word-boundary guards.  A rule is
tried only on text holding one of its trigger literals (a rule without
triggers always is), and there only at word starts holding one of its start
characters followed by one of its second characters.  Two alternations
of every rule's triggers, one sought in the raw text and one in its
:func:`fold`, find the triggers a text holds, one search per position where
a trigger starts.  One pass over the text then finds the word starts of
every rule in play; at each, a rule is matched unless its previous match
covers the position, which gives exactly the matches of its own
``finditer``.  A rule builds each distinct text it matches once per text:
no pattern looks outside its match, so what a match builds follows from
its text.  Overlapping candidates are then arbitrated by span length,
left position, and concept-type priority, in that order, so output never
depends on rule order or dictionary iteration.  Mention offsets are UTF-8
byte positions into the scanned text.

The lexicon pass reads only the runs that start with a symbol's first two
characters, or with a one-character symbol: one search, built with the
recognizer, finds those heads.  The pipeline needs the genes of a text only
when it holds a mention, so a text without a rule candidate gets the
lexicon pass only when one of its letter+digit runs splits into a gene and
a variant.
"""

from __future__ import annotations

import re
import string
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

# A mention must not sit flush against an ASCII letter or a decimal digit
# of any script; "SNP" inside "dbSNP2" is not a mention, nor "rs1" inside
# "rs1٢".  Punctuation and whitespace both count as edges.
_GUARD_BEFORE = r"(?<![A-Za-z\d])"
_GUARD_AFTER = r"(?![A-Za-z\d])"

# Alphanumeric runs.  A run absorbs a comma only when digits flank it on
# both sides, so "3,18,33,000" is one run while "1,000, and" does not
# swallow the second comma.  As a mention may not, a run may not touch a
# decimal digit of another script: "BRAF" in "BRAF٢" is no gene, nor is
# "BRAFV600E٢" split (see _touches_a_digit).
_ALNUM_RUN = re.compile(r"[0-9A-Za-z]+(?:(?<=[0-9]),(?=[0-9])[0-9A-Za-z]+)*")
# A digit beside a letter, which every letter+digit run holds; the rest
# of its run; and a comma that joins two runs.
_MIXED = re.compile(r"[0-9](?:(?<=[A-Za-z][0-9])|(?=[A-Za-z]))")
_ALNUM_TAIL = re.compile(r"[0-9A-Za-z]*")
_JOINING_COMMA = re.compile(r"(?<=[0-9]),(?=[0-9])")
_ASCII_ALNUM = frozenset(string.ascii_letters + string.digits)


def _touches_a_digit(text: str, start: int, end: int) -> bool:
    """Whether the run ``text[start:end]`` sits against a decimal digit,
    which, as the run takes in every ASCII one, is of another script."""
    return text[start - 1:start].isdecimal() or text[end:end + 1].isdecimal()


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


def _expanded(chars: str, flags: int) -> str:
    """The characters a rule with ``flags`` declaring ``chars`` (its
    ``starts`` or its ``seconds``) takes there: ``chars`` and, for an
    ``re.IGNORECASE`` rule, every other character matching one of them."""
    if flags & re.IGNORECASE:
        other = "".join(_OTHER_CASES.get(c, "") for c in chars)
        chars += chars.upper() + other
    return "".join(dict.fromkeys(chars))


def _letter_digit_runs(text: str) -> list[str]:
    """The runs of ``_ALNUM_RUN`` that hold a letter and a digit, no comma,
    and touch no digit: the only ones that can hide a fused gene.

    The search skips to digits, which prose holds few of, and reads each
    run out from there; one regex that tries every word start took three
    times as long on perfbench's pubmed_sparse corpus.
    """
    runs: list[str] = []
    m = _MIXED.search(text)
    while m is not None:
        start = digit = m.start()
        while start and text[start - 1] in _ASCII_ALNUM:
            start -= 1
        end = _ALNUM_TAIL.match(text, digit).end()
        joined = (start and _JOINING_COMMA.match(text, start - 1)) or (
            _JOINING_COMMA.match(text, end)
        )
        if not joined and not _touches_a_digit(text, start, end):
            runs.append(text[start:end])
        m = _MIXED.search(text, end)
    return runs


def _triggers_finder(triggers: set[str]) -> re.Pattern:
    """One alternation of ``triggers``, grouped by first character and
    longest first, so a match is the longest trigger at its position."""
    by_first: dict[str, list[str]] = {}
    for t in sorted(triggers, key=lambda t: (-len(t), t)):
        by_first.setdefault(t[0], []).append(re.escape(t[1:]))
    return re.compile("|".join(
        re.escape(first) + (f"(?:{'|'.join(rests)})" if rests != [""] else "")
        for first, rests in sorted(by_first.items())
    ))


def _present_triggers(
    finder: re.Pattern, prefixes: dict[str, tuple[str, ...]], haystack: str
) -> set[str]:
    """The triggers ``haystack`` holds: at each position where one starts,
    the longest there, found by ``finder``, and those that are prefixes of
    it."""
    present: set[str] = set()
    m = finder.search(haystack)
    while m is not None:
        present.update(prefixes[m.group()])
        m = finder.search(haystack, m.start() + 1)
    return present


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


def _build(
    rule: GrammarRule, m: re.Match
) -> tuple[MentionType, Descriptor | str] | None:
    """The type of what a rule's match names, and what it names; None when
    the rule builds nothing from it."""
    try:
        built = rule.build(m)
    except (ValueError, ParseFailure):
        return None
    mtype = rule.mtype if isinstance(built, str) else classify_descriptor(built)
    return mtype, built


def _components(
    roles: tuple[tuple[ComponentRole, str], ...], m: re.Match
) -> tuple[tuple[ComponentRole, tuple[int, int]], ...]:
    # A group that took no part spans (-1, -1); an empty one spans nothing.
    # Neither names a component.
    return tuple([
        (role, span)
        for role, group in roles
        if (span := m.span(group))[0] != span[1]
    ])


def _heads_finder(lexicon: frozenset[str]) -> re.Pattern | None:
    """One search for the run starts where a lexicon symbol can begin, or
    None when no symbol is a run.

    A run is a symbol, or splits into one and a variant, only when it
    starts with that symbol, so only its first two characters are looked
    at: a symbol's first character and its second, or a one-character
    symbol.  A symbol that is not itself a run (it holds punctuation or a
    non-ASCII letter) can be neither.  The finder leads with the class of
    first characters, which the regex engine skips to quickly; two
    look-behinds after it ask that the first starts a run and that the
    pair is a symbol's.  Leading with a look-behind took two to three
    times as long on perfbench's corpora.  A digit after a joining comma
    passes, and the caller drops it.
    """
    # An ASCII string is a run when it is all letters and digits, and the
    # C-level test saves the regex on nearly every symbol.
    heads = {
        symbol[:2] for symbol in lexicon
        if symbol.isascii() and symbol.isalnum()
        or _ALNUM_RUN.fullmatch(symbol)
    }
    if not heads:
        return None
    seconds: dict[str, set[str]] = {}
    alone: set[str] = set()
    for head in heads:
        if len(head) == 1:
            alone.add(head)
        else:
            seconds.setdefault(head[0], set()).add(head[1])

    def chars(group) -> str:
        return re.escape("".join(sorted(group)))

    tails = [f"(?<=[{chars(alone)}])"] if alone else []
    if seconds:
        pairs = "|".join(
            f"{re.escape(first)}[{chars(group)}]"
            for first, group in sorted(seconds.items())
        )
        tails.append(f"[{chars(set().union(*seconds.values()))}](?<={pairs})")
    return re.compile(
        f"[{chars(alone | seconds.keys())}](?<![0-9A-Za-z].)"
        f"(?:{'|'.join(tails)})"
    )


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
        self._heads = _heads_finder(lexicon) if lexicon else None
        # Each scanner: its rule, the guarded regex, and the component
        # groups.
        self._scanners: list[
            tuple[
                GrammarRule, re.Pattern, tuple[tuple[ComponentRole, str], ...]
            ]
        ] = []
        # Per scanner: its triggers, whether they are sought in the folded
        # text, the character class bodies of its expanded starts and
        # seconds, and its expanded seconds.
        self._gates: list[tuple[frozenset[str], bool, str, str, str]] = []
        # The scanners by start character.
        self._by_start: dict[str, tuple[int, ...]] = {}
        # The triggers sought in the raw text and in the folded text.
        raw: set[str] = set()
        folded: set[str] = set()
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
            starts = _expanded(rule.starts, rule.flags)
            for ch in starts:
                self._by_start[ch] = self._by_start.get(ch, ()) + (k,)
            seconds = _expanded(rule.seconds, rule.flags)
            self._scanners.append((rule, rx, roles))
            self._gates.append((
                frozenset(rule.triggers), folds,
                re.escape(starts), re.escape(seconds), seconds,
            ))
            (folded if folds else raw).update(rule.triggers)
        # Per kind of text, its triggers' finder and the triggers that are
        # prefixes of each.
        self._trigger_finders = tuple(
            (
                _triggers_finder(triggers),
                {
                    t: tuple(p for p in triggers if t.startswith(p))
                    for t in triggers
                },
            )
            for triggers in (raw, folded)
        )

    # -- candidate generation ----------------------------------------------

    def _rule_candidates(
        self, text: str, types: frozenset[MentionType] | None
    ) -> list[_Candidate]:
        # The triggers the text holds, and those its fold holds.
        in_text, in_folded = (
            _present_triggers(finder, prefixes, haystack)
            for (finder, prefixes), haystack in zip(
                self._trigger_finders, (text, fold(text))
            )
        )
        scanners = self._scanners
        # Per scanner, the second characters it takes here; none when it is
        # not in play.
        allowed = [""] * len(scanners)
        firsts: list[str] = []
        seconds: list[str] = []
        for k, (triggers, folds, first_class, second_class, expanded) in (
            enumerate(self._gates)
        ):
            if types is not None and scanners[k][0].mtype not in types:
                continue
            if triggers and triggers.isdisjoint(
                in_folded if folds else in_text
            ):
                continue
            allowed[k] = expanded
            firsts.append(first_class)
            seconds.append(second_class)
        if not firsts:
            return []
        # One pass over the word starts of the scanners in play.  At each, a
        # scanner is tried unless its previous match covers it, which gives
        # what its finditer would.  The finder only prefilters, so it skips
        # just the starts after an ASCII letter or digit, the cheaper test;
        # each scanner's own guard decides the rest.  re.compile's cache
        # keeps the finder of each set of scanners in play.
        finder = re.compile(
            f"(?<![0-9A-Za-z])[{''.join(firsts)}](?=[{''.join(seconds)}])"
        )
        by_start = self._by_start
        ends = [0] * len(scanners)
        found: list[list[_Candidate]] = [[] for _ in scanners]
        # What each scanner built from each match text it met, None when the
        # build failed.  No pattern looks outside its match (only the guards
        # do), so a match's groups, and what it builds, follow from its text.
        built: dict[tuple[int, str], tuple | None] = {}
        for w in finder.finditer(text):
            s = w.start()
            second = text[s + 1]
            for k in by_start[w.group()]:
                if second in allowed[k] and s >= ends[k]:
                    rule, rx, roles = scanners[k]
                    m = rx.match(text, s)
                    if m is None:
                        continue
                    ends[k] = m.end()
                    key = (k, m.group())
                    if key not in built:
                        built[key] = _build(rule, m)
                    made = built[key]
                    if made is not None:
                        found[k].append(_Candidate(
                            s, m.end(), *made, _components(roles, m)
                        ))
        return [c for candidates in found for c in candidates]

    def _token_hits(
        self, text: str
    ) -> tuple[list[tuple[str, int, int]], list[_Candidate]]:
        """One pass over the runs a symbol can start: lexicon hits and
        fused splits.

        Gene spans come back in character coordinates; the caller converts.
        """
        genes: list[tuple[str, int, int]] = []
        fused: list[_Candidate] = []
        if self._heads is None:
            return genes, fused
        # Only a text with a non-ASCII character can hold another script's
        # digit, and str.isascii costs nothing.
        plain = text.isascii()
        for head in self._heads.finditer(text):
            start = head.start()
            # A digit after a joining comma continues a run; it starts none.
            if start and _JOINING_COMMA.match(text, start - 1):
                continue
            m = _ALNUM_RUN.match(text, start)
            run = m.group()
            if run in self.lexicon:
                if plain or not _touches_a_digit(text, *m.span()):
                    genes.append((run, m.start(), m.end()))
                continue
            # A fused variant holds a letter and a digit, so only a run
            # holding both can hide one.  A run holding a comma is read as
            # a number and never splits; it fails isalnum.
            if run.isalpha() or run.isdigit() or not run.isalnum():
                continue
            if not plain and _touches_a_digit(text, *m.span()):
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
        return self._scan(text, doc_id, self._rule_candidates(text, None))[:2]

    def _scan_document(
        self, text: str, doc_id: str
    ) -> tuple[list[Mention], list[GeneMention], list[int] | None]:
        """``scan_document`` and the text's ``byte_offsets`` table.  A text
        without a mention gives ``([], [], None)``: the pipeline needs
        neither its genes nor its table, so neither is built.  Nor is the
        lexicon pass made over a text without a rule candidate, unless one
        of its runs splits into a gene and a variant."""
        candidates = self._rule_candidates(text, None)
        if not candidates and not self._splits_a_run(text):
            return [], [], None
        return self._scan(text, doc_id, candidates)

    def _scan(
        self, text: str, doc_id: str, candidates: list[_Candidate]
    ) -> tuple[list[Mention], list[GeneMention], list[int] | None]:
        """The mentions of the rule ``candidates`` and the lexicon pass's
        fused ones, the genes, and the text's ``byte_offsets`` table."""
        gene_spans, fused = self._token_hits(text)
        candidates.extend(fused)
        table = byte_offsets(text)
        return (
            self._finalize(text, doc_id, candidates, table),
            _gene_mentions(gene_spans, table),
            table,
        )

    def _splits_a_run(self, text: str) -> bool:
        """Whether the lexicon pass would find a fused candidate in
        ``text``: a run it splits is a letter+digit run, not a symbol."""
        lexicon = self.lexicon
        return bool(lexicon) and any(
            run not in lexicon
            and _split_fused(run, lexicon, self._longest) is not None
            for run in _letter_digit_runs(text)
        )

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
