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
depends on rule order or dictionary iteration.

Offsets throughout the package, sentence spans included, are byte offsets
into the UTF-8 encoding of the text.  Scanning works on characters, and
every conversion is made here, through :func:`byte_offsets`; for plain-ASCII
text the two coordinate systems coincide.

The lexicon pass reads only the runs that start with a symbol's first two
characters, or with a one-character symbol: one search, built with the
recognizer, finds those heads.  The pipeline needs the genes of a text only
when it holds a mention, so the pass's genes of a text without a rule
candidate are dropped unless one of its runs splits into a gene and a
variant.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable

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
    _parse,
    classify_descriptor,
    fold,
)


def byte_offsets(text: str) -> Callable[[int], int]:
    """Map from character index to UTF-8 byte offset into ``text``.  For
    pure-ASCII text the map is the identity, the builtin ``int``.  Otherwise
    each answer encodes only the characters between the index last answered
    and the new one, forward or back, so rising indexes cost one pass over
    the text.  A lone surrogate counts 3 bytes, as ``"surrogatepass"`` has
    it."""
    if text.isascii():
        return int
    char = byte = 0

    def offset(i: int) -> int:
        nonlocal char, byte
        if i > char:
            byte += len(text[char:i].encode("utf-8", "surrogatepass"))
        elif i < char:
            byte -= len(text[i:char].encode("utf-8", "surrogatepass"))
        char = i
        return byte

    return offset


# Minimal sentence rule: a period followed by whitespace and an uppercase
# letter ends a sentence.  Anything subtler (abbreviations, initials) is out
# of scope.
_SENT_BREAK = re.compile(r"\.\s+(?=[A-Z])")


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Byte spans of sentences, partitioning the whole text.  The trailing
    whitespace of a boundary belongs to the sentence it closes."""
    # A break ends before the uppercase letter after it, so only the empty
    # text gives an empty piece.
    cuts = [0, *(m.end() for m in _SENT_BREAK.finditer(text)), len(text)]
    offsets = byte_offsets(text)
    return [(offsets(s), offsets(e)) for s, e in zip(cuts, cuts[1:]) if s < e]


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
# A comma that joins two runs.
_JOINING_COMMA = re.compile(r"(?<=[0-9]),(?=[0-9])")


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


def _present_triggers(finder: re.Pattern, haystack: str) -> set[str]:
    """The triggers ``haystack`` holds, found by ``finder`` and searched
    again from the position after each one's start.  No trigger is a prefix
    of another (see GrammarRule), so at most one starts at a position."""
    present: set[str] = set()
    m = finder.search(haystack)
    while m is not None:
        present.add(m.group())
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
    split = _split_fused(token_text, lexicon, max(map(len, lexicon), default=0))
    return split and split[:3]


def _split_fused(
    run: str, lexicon: frozenset[str], longest: int
) -> tuple[str, Descriptor, int, re.Match] | None:
    """``split_gene_fused`` with the length of the longest symbol given,
    and the match of the remainder the descriptor was built from."""
    # No prefix longer than the longest symbol can be a gene, so a long run
    # costs one slice per possible gene length, not one per character.
    for cut in range(min(len(run) - 1, longest), 0, -1):
        prefix = run[:cut]
        if prefix not in lexicon:
            continue
        remainder = run[cut:]
        for hint in _FUSED_HINTS:
            try:
                descriptor, m = _parse(remainder, hint)
            except ParseFailure:
                continue
            return prefix, descriptor, cut, m
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
        # The finders of the triggers of the raw text and of its fold.
        self._trigger_finders = tuple(map(_triggers_finder, (raw, folded)))

    # -- candidate generation ----------------------------------------------

    def _rule_candidates(
        self, text: str, types: frozenset[MentionType] | None
    ) -> list[_Candidate]:
        # The triggers the text holds, and those its fold holds.
        in_text, in_folded = map(_present_triggers, self._trigger_finders,
                                 (text, fold(text)))
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
            gene, descriptor, cut, parsed = split
            at = m.start() + cut
            genes.append((gene, m.start(), at))
            # The remainder's role spans, moved to where it starts.
            roles = [(GROUP_ROLES[g], g) for g in parsed.re.groupindex
                     if g in GROUP_ROLES]
            components = tuple([(role, (at + s, at + e))
                                for role, (s, e) in _components(roles, parsed)])
            fused.append(_Candidate(at, m.end(), classify_descriptor(descriptor),
                                    descriptor, components, gene_hint=gene))
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
        offsets: Callable[[int], int],
    ) -> list[Mention]:
        mentions: list[Mention] = []
        for cand in self._resolve(candidates):
            start, end = offsets(cand.start), offsets(cand.end)
            components = {
                role: (offsets(s), offsets(e))
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
        candidates = self._rule_candidates(text, None)
        return self._scan(text, doc_id, candidates, self._token_hits(text))

    def _scan_document(
        self, text: str, doc_id: str
    ) -> tuple[list[Mention], list[GeneMention]]:
        """``scan_document``, except that a text without a mention gives
        ``([], [])``: the pipeline needs no genes there, so their byte spans
        are not worked out.  A text without a rule candidate holds a
        mention only when the lexicon pass splits one of its runs into a
        gene and a variant."""
        candidates = self._rule_candidates(text, None)
        hits = self._token_hits(text)
        if not candidates and not hits[1]:
            return [], []
        return self._scan(text, doc_id, candidates, hits)

    def _scan(
        self,
        text: str,
        doc_id: str,
        candidates: list[_Candidate],
        hits: tuple[list[tuple[str, int, int]], list[_Candidate]],
    ) -> tuple[list[Mention], list[GeneMention]]:
        """The mentions of the rule ``candidates`` and of the fused ones in
        the lexicon pass's ``hits``, and the genes."""
        gene_spans, fused = hits
        candidates.extend(fused)
        offsets = byte_offsets(text)
        mentions = self._finalize(text, doc_id, candidates, offsets)
        return mentions, _gene_mentions(gene_spans, offsets)

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
    gene_spans: list[tuple[str, int, int]], offsets: Callable[[int], int]
) -> list[GeneMention]:
    return [
        GeneMention(symbol, offsets(s), offsets(e)) for symbol, s, e in gene_spans
    ]
