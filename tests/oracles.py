"""Independent reference implementations used to check the package.

Everything here is written the slow, obvious way on purpose: raw row scans
instead of indexes, breadth-first closure instead of union-find, every
grammar rule run over every text with its own ``finditer`` instead of only
where a trigger occurs and at the word starts its first character allows,
overlap and gene context tested against every kept span and every gene,
and a descriptor generator that enumerates grammar-coverable shapes.  Agreement
between these and the real implementations is what the tests assert.
"""

from __future__ import annotations

import random
import re

from varlex import (
    EditKind,
    GeneMention,
    Mention,
    MentionType,
    ParseFailure,
    RegionDescriptor,
    RegionKind,
    SequenceLevel,
    VariantDescriptor,
    canonical_string,
    classify_descriptor,
    split_gene_fused,
)
from varlex.hgvs import GRAMMAR_RULES, GROUP_ROLES, TYPE_PRIORITY

DNA = "ACGT"
AA = "ACDEFGHIKLMNPQRSTVWY"


# ---------------------------------------------------------------------------
# Knowledge base: raw scan
# ---------------------------------------------------------------------------

def read_raw_rows(path: str) -> list[dict]:
    """Minimal TSV reader, no validation, used only as a reference.  A line
    ends only at \\n, \\r\\n or \\r, as in the loader, so a form feed or
    U+2028 stays inside its row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = re.split(r"\r\n|\r|\n", fh.read())
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        c = [x.strip() for x in line.split("\t")]
        rows.append({
            "rsid": c[0], "ca": c[1], "gene": c[2],
            "dna": c[3], "prot": c[4], "ref": c[5], "alt": c[6],
            "line_no": line_no,
        })
    return rows


def duplicate_key_oracle(raw_rows: list[dict]):
    """The first (line_no, (gene, hgvs), first rsid, second rsid) at which
    one (gene, HGVS) key claims a second rs number, or None: one map keyed
    by the pair, DNA and protein forms alike, rows without an rsid
    skipped."""
    first_rsid = {}
    for row in raw_rows:
        if not row["rsid"]:
            continue
        for hgvs in (row["dna"], row["prot"]):
            if not hgvs:
                continue
            key = (row["gene"], hgvs)
            if key not in first_rsid:
                first_rsid[key] = row["rsid"]
            elif first_rsid[key] != row["rsid"]:
                return (row["line_no"], key, first_rsid[key], row["rsid"])
    return None


def kb_row_verdict(cols: list[str]):
    """The column a KB row's cells are refused for, or the seven fields of
    its record: each check as its own plain predicate, in the loader's
    order."""
    if len(cols) != 7:
        return "columns"
    rsid, ca_id, gene, dna, prot, ref, alt = (c.strip() for c in cols)
    if rsid and re.fullmatch(r"rs[1-9][0-9]*", rsid) is None:
        return "rsid"
    if ca_id and re.fullmatch(r"CA[0-9]+", ca_id) is None:
        return "ca_id"
    if not is_one_symbol(gene):
        return "gene"
    if not rsid and not ca_id:
        return "rsid"
    if not dna and not prot:
        return "dna_hgvs"
    for column, allele in (("ref", ref), ("alt", alt)):
        if not set(allele) <= set("ACGTU"):
            return column
    return (rsid, ca_id, gene, dna, prot, ref, alt)


def is_one_symbol(word: str) -> bool:
    """Whether a stripped KB gene cell or lexicon line is a gene symbol:
    not empty, and no character of it is whitespace."""
    return bool(word) and not any(ch.isspace() for ch in word)


_PREFIX_RX = re.compile(r"p\.[A-Z][0-9]+")


def raw_record(row: dict) -> tuple:
    """A raw row's seven fields, in ``VariantRecord``'s field order."""
    return (row["rsid"], row["ca"], row["gene"], row["dna"], row["prot"],
            row["ref"], row["alt"])


def record_order(record: tuple) -> tuple:
    """Rows with an rs number first, by its value, then by CA id."""
    rsid, ca = record[:2]
    if rsid:
        return (0, int(rsid[2:]), ca)
    return (1, 0, ca)


def first_of_each(records: list[tuple]) -> list[tuple]:
    """The records without repeats, each where it first occurs."""
    unique = []
    for record in records:
        if record not in unique:
            unique.append(record)
    return unique


def index_oracle(records: list[tuple]) -> dict[str, dict[str, list[tuple]]]:
    """The DNA, protein, prefix and rs indexes of seven-field records: the
    records without repeats, sorted once, stably, by ``record_order``, then
    each appended to the list of every key it has."""
    indexes = {"dna": {}, "prot": {}, "prefix": {}, "rsid": {}}
    for record in sorted(first_of_each(records), key=record_order):
        rsid, _, _, dna, prot = record[:5]
        prefix = _PREFIX_RX.match(prot)
        keys = {"dna": dna, "prot": prot, "rsid": rsid,
                "prefix": prefix.group(0) if prefix else ""}
        for name, key in keys.items():
            if key:
                indexes[name].setdefault(key, []).append(record)
    return indexes


def brute_force_rsid_lookup(rows: list[dict], rsid: str) -> list[tuple]:
    """Scan every row for an rs number, any casing; return the matching
    records, CA-ordered, once each."""
    hits = [raw_record(row) for row in rows if row["rsid"] == rsid.lower()]
    return sorted(first_of_each(hits), key=record_order)


def brute_force_lookup(
    rows: list[dict], gene: str | None, descriptor: VariantDescriptor
) -> list[tuple]:
    """Scan every row; return the matching records, once each, in the same
    deterministic order the indexed lookup promises."""
    canon = canonical_string(descriptor)
    protein = descriptor.level is SequenceLevel.PROTEIN
    incomplete = (
        descriptor.edit_kind is EditKind.SUBSTITUTION
        and descriptor.alt_allele is None
    )
    hits = []
    for row in rows:
        if gene and row["gene"] != gene:
            continue
        if protein and incomplete:
            m = _PREFIX_RX.match(row["prot"])
            ok = m is not None and m.group(0) == canon
        elif protein:
            ok = row["prot"] == canon
        else:
            ok = row["dna"] == canon
        if ok:
            hits.append(raw_record(row))
    return sorted(first_of_each(hits), key=record_order)


# ---------------------------------------------------------------------------
# Recognition: every scanned rule over the whole text
# ---------------------------------------------------------------------------

# A mention touches no ASCII letter and no decimal digit of any script.
_EDGE_BEFORE = r"(?<![A-Za-z\d])"
_EDGE_AFTER = r"(?![A-Za-z\d])"
# Stretches of ASCII letters and decimal digits of any script, with the
# commas that ASCII digits flank on both sides.
_RUN = re.compile(r"[A-Za-z\d]+(?:(?<=[0-9]),(?=[0-9])[A-Za-z\d]+)*")


def lexicon_runs(text: str) -> list[tuple[str, int, int]]:
    """The runs the lexicon pass reads, with their spans: a stretch that
    holds a digit of another script is none."""
    return [
        (m.group(), m.start(), m.end())
        for m in _RUN.finditer(text) if m.group().isascii()
    ]


def rule_candidates_oracle(text: str, types=None) -> list[tuple]:
    """What ``Recognizer._rule_candidates`` should return, with no trigger
    prefilter and no word-start pass: each scanned grammar rule of the
    ``types`` (all when None), in ``GRAMMAR_RULES`` order, runs its guarded
    ``finditer`` over the whole text.  Each candidate is (start, end, type,
    descriptor or identifier, components as (role, span) pairs)."""
    candidates = []
    for rule in GRAMMAR_RULES:
        if not rule.scan or (types is not None and rule.mtype not in types):
            continue
        pattern = _EDGE_BEFORE + (rule.scan_pattern or rule.pattern) + _EDGE_AFTER
        for m in re.finditer(pattern, text, rule.flags):
            try:
                built = rule.build(m)
            except (ValueError, ParseFailure):
                continue
            if isinstance(built, str):
                mtype = rule.mtype
            else:
                mtype = classify_descriptor(built)
            components = tuple(
                (GROUP_ROLES[g], m.span(g))
                for g in m.re.groupindex
                if g in GROUP_ROLES and m.start(g) != m.end(g)
            )
            candidates.append((m.start(), m.end(), mtype, built, components))
    return candidates


def fused_components(remainder: str) -> dict:
    """The role spans, within a fused run's variant ``remainder``, of the
    match a descriptor is built from: under each fused grammar in turn
    (protein, then DNA mutations), the first of its rules in
    ``GRAMMAR_RULES`` order whose pattern matches all of the remainder, and
    the next grammar when building from that match fails."""
    for hint in (MentionType.PROTEIN_MUTATION, MentionType.DNA_MUTATION):
        for rule in GRAMMAR_RULES:
            if rule.mtype is not hint:
                continue
            m = re.fullmatch(rule.pattern, remainder, rule.flags)
            if m is None:
                continue
            try:
                rule.build(m)
            except (ValueError, ParseFailure):
                break
            return {
                GROUP_ROLES[g]: m.span(g)
                for g in m.re.groupindex
                if g in GROUP_ROLES and m.start(g) != m.end(g)
            }
    return {}


def scan_every_rule(
    text: str, lexicon: frozenset[str] | None = None, doc_id: str = ""
) -> tuple[list[Mention], list[GeneMention]]:
    """What ``Recognizer.scan_document`` should return, with no trigger
    prefilter: every scanned grammar rule runs over the whole text, and each
    candidate, longest first, is tested for overlap against all kept ones."""

    def byte(i: int) -> int:
        return len(text[:i].encode("utf-8"))

    # (start, end, type, descriptor or identifier, components, gene hint)
    candidates = [
        (start, end, mtype, built, dict(components), None)
        for start, end, mtype, built, components in rule_candidates_oracle(text)
    ]
    genes = []
    for run, start, end in lexicon_runs(text) if lexicon else ():
        if run in lexicon:
            genes.append((run, start, end))
            continue
        # A run holding a comma is read as a number: it may be a symbol,
        # but it never splits.
        if "," in run:
            continue
        split = split_gene_fused(run, lexicon)
        if split is not None:
            gene, descriptor, cut = split
            genes.append((gene, start, start + cut))
            at = start + cut
            components = {
                role: (at + s, at + e)
                for role, (s, e) in fused_components(run[cut:]).items()
            }
            candidates.append((at, end, classify_descriptor(descriptor),
                               descriptor, components, gene))

    mentions = []
    for start, end, mtype, built, components, hint in arbitrate(candidates):
        identifier = built if isinstance(built, str) else None
        mentions.append(Mention(
            doc_id=doc_id,
            start=byte(start),
            end=byte(end),
            text=text[start:end],
            mtype=mtype,
            components={r: (byte(s), byte(e)) for r, (s, e) in components.items()},
            descriptor=None if identifier else built,
            identifier=identifier,
            gene_hint=hint,
        ))
    return mentions, [GeneMention(g, byte(s), byte(e)) for g, s, e in genes]


def arbitrate(candidates: list[tuple]) -> list[tuple]:
    """Overlap arbitration, pair by pair.  Each candidate is a tuple that
    starts (start, end, type); the first of each such triple counts.  Longest
    first, then leftmost, then type priority, a candidate is kept when it
    overlaps none kept so far.  The kept ones come back in start order."""
    first = {}
    for cand in candidates:
        first.setdefault(cand[:3], cand)
    ordered = sorted(
        first.values(),
        key=lambda c: (c[0] - c[1], c[0], TYPE_PRIORITY.index(c[2])),
    )
    kept = []
    for cand in ordered:
        if all(cand[1] <= k[0] or k[1] <= cand[0] for k in kept):
            kept.append(cand)
    return sorted(kept, key=lambda c: c[0])


# ---------------------------------------------------------------------------
# Gene context: list scans
# ---------------------------------------------------------------------------

def gene_context_oracle(mention, gene_mentions, sentences=None):
    """The gene context rule by scanning every sentence and every gene:
    a fused hint, else the in-sentence gene with the nearest midpoint
    (earlier start on ties), else the nearest gene ending before the
    mention.  A mention no sentence holds, or no sentences at all, sees the
    whole text as its sentence."""
    if mention.gene_hint:
        return mention.gene_hint
    if not gene_mentions:
        return None

    def midpoint(start, end):
        return (start + end) / 2.0

    mid = midpoint(mention.start, mention.end)
    if sentences is None:
        sentence = (0, float("inf"))
    else:
        sentence = next(
            (s for s in sentences if s[0] <= mention.start < s[1]),
            (0, float("inf")),
        )
    in_sentence = [
        g
        for g in gene_mentions
        if sentence[0] <= midpoint(g.start, g.end) < sentence[1]
    ]
    if in_sentence:
        best = min(
            in_sentence,
            key=lambda g: (abs(midpoint(g.start, g.end) - mid), g.start),
        )
        return best.symbol
    preceding = [g for g in gene_mentions if g.end <= mention.start]
    if preceding:
        best = min(
            preceding,
            key=lambda g: (mid - midpoint(g.start, g.end), g.start),
        )
        return best.symbol
    return None


# ---------------------------------------------------------------------------
# Grouping: breadth-first transitive closure
# ---------------------------------------------------------------------------

def closure_partition(n: int, linked) -> list[tuple[int, ...]]:
    """Partition 0..n-1 into components of the symmetric relation
    ``linked(i, j)``, each sorted, ordered by first member."""
    unassigned = set(range(n))
    components = []
    while unassigned:
        seed = min(unassigned)
        component = {seed}
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if j not in component and (linked(i, j) or linked(j, i)):
                    component.add(j)
                    frontier.append(j)
        unassigned -= component
        components.append(tuple(sorted(component)))
    components.sort(key=lambda c: c[0])
    return components


def ambiguous_oracle(members, descriptors, renders, flagged, record_sets) -> bool:
    """Whether one group is ambiguous, re-derived by brute force.

    A group is ambiguous when a member's own id is flagged, or when its
    decided members (an id, and not a substitution missing its mutant) fall
    into more than one breadth-first component of "same rendering or a
    shared KB record".
    """
    if any(flagged[i] for i in members):
        return True
    decided = []
    for i in members:
        d = descriptors[i]
        incomplete = (
            isinstance(d, VariantDescriptor)
            and d.edit_kind is EditKind.SUBSTITUTION
            and d.alt_allele is None
        )
        if renders[i] != "-" and not incomplete:
            decided.append(i)

    def same(a: int, b: int) -> bool:
        i, j = decided[a], decided[b]
        return renders[i] == renders[j] or bool(record_sets[i] & record_sets[j])

    return len(closure_partition(len(decided), same)) > 1


def prefix_compatible(a: VariantDescriptor, b: VariantDescriptor) -> bool:
    """Re-derived compatibility check for incomplete/complete mention pairs."""
    if not (isinstance(a, VariantDescriptor) and isinstance(b, VariantDescriptor)):
        return False
    same_shape = (
        a.edit_kind is EditKind.SUBSTITUTION
        and b.edit_kind is EditKind.SUBSTITUTION
        and a.level is b.level
        and a.position is not None
        and a.position == b.position
        and a.ref_allele is not None
        and a.ref_allele == b.ref_allele
    )
    if not same_shape:
        return False
    return (a.alt_allele is None) != (b.alt_allele is None)


# ---------------------------------------------------------------------------
# Descriptor generator
# ---------------------------------------------------------------------------

def _dna_seq(rng: random.Random, lo=1, hi=4) -> str:
    return "".join(rng.choice(DNA) for _ in range(rng.randint(lo, hi)))


def _aa_seq(rng: random.Random, lo=1, hi=3) -> str:
    return "".join(rng.choice(AA) for _ in range(rng.randint(lo, hi)))


def _dna_level(rng: random.Random) -> SequenceLevel:
    return rng.choice([
        SequenceLevel.DNA_CODING,
        SequenceLevel.DNA_GENOMIC,
        SequenceLevel.RNA,
        SequenceLevel.MITO,
        SequenceLevel.UNSPECIFIED,
    ])


def random_descriptor(rng: random.Random):
    """One random descriptor whose canonical form the grammar can re-read.

    Shapes no surface grammar produces (a positionless deletion that still
    carries its deleted sequence, say) are deliberately never generated.
    """
    pos = rng.randint(1, 500000)
    shape = rng.randrange(16)
    if shape == 0:
        return VariantDescriptor(
            level=_dna_level(rng), position=pos,
            ref_allele=rng.choice([None, rng.choice(DNA)]),
            alt_allele=rng.choice(DNA), edit_kind=EditKind.SUBSTITUTION,
        )
    if shape == 1:
        return VariantDescriptor(
            level=_dna_level(rng), position=pos,
            ref_allele=rng.choice(DNA), edit_kind=EditKind.SUBSTITUTION,
        )
    if shape == 2:
        return VariantDescriptor(
            level=_dna_level(rng),
            ref_allele=rng.choice(DNA), alt_allele=rng.choice(DNA),
            edit_kind=EditKind.SUBSTITUTION,
        )
    if shape == 3:
        seq = _dna_seq(rng)
        return VariantDescriptor(
            level=_dna_level(rng), position=pos,
            ref_allele=seq,
            edit_kind=rng.choice([EditKind.DELETION, EditKind.DUPLICATION]),
        )
    if shape == 4:
        # Sequenced insertion; a bare sized insertion at DNA level has no
        # surface form to round-trip through.
        return VariantDescriptor(
            level=_dna_level(rng), position=pos,
            position_end=rng.choice([None, pos + 1]),
            alt_allele=_dna_seq(rng), edit_kind=EditKind.INSERTION,
        )
    if shape == 5:
        return VariantDescriptor(
            level=SequenceLevel.PROTEIN, position=pos,
            ref_allele=rng.choice(AA),
            alt_allele=rng.choice(AA + "*"),
            edit_kind=EditKind.SUBSTITUTION,
        )
    if shape == 6:
        return VariantDescriptor(
            level=SequenceLevel.PROTEIN, position=pos,
            ref_allele=rng.choice(AA), edit_kind=EditKind.SUBSTITUTION,
        )
    if shape == 7:
        return VariantDescriptor(
            level=SequenceLevel.PROTEIN,
            ref_allele=rng.choice(AA), alt_allele=rng.choice(AA),
            edit_kind=EditKind.SUBSTITUTION,
        )
    if shape == 8:
        return VariantDescriptor(
            level=SequenceLevel.PROTEIN, position=pos,
            ref_allele=rng.choice(AA), edit_kind=EditKind.FRAMESHIFT,
        )
    if shape == 9:
        return VariantDescriptor(
            level=SequenceLevel.PROTEIN, position=pos,
            ref_allele=rng.choice(AA),
            edit_kind=rng.choice([EditKind.DELETION, EditKind.DUPLICATION]),
        )
    if shape == 10:
        return VariantDescriptor(
            level=SequenceLevel.PROTEIN, position=pos,
            position_end=rng.choice([None, pos + 1]),
            alt_allele=_aa_seq(rng), edit_kind=EditKind.INSERTION,
        )
    if shape == 11:
        size = rng.randint(1, 9999)
        return VariantDescriptor(
            position=rng.choice([None, pos]),
            edit_kind=rng.choice(
                [EditKind.DELETION, EditKind.INSERTION, EditKind.DUPLICATION]
            ),
            size=size,
        )
    if shape == 12:
        return VariantDescriptor(
            position=pos, position_end=pos + rng.randint(0, 50),
            edit_kind=rng.choice([EditKind.DELETION, EditKind.DUPLICATION]),
        )
    chrom = rng.choice([str(rng.randint(1, 22)), "X", "Y"])
    if shape == 13:
        band = str(rng.randint(1, 39))
        if rng.random() < 0.5:
            band += f".{rng.randint(1, 13)}"
        return RegionDescriptor(
            chromosome=chrom, kind=RegionKind.CHROMOSOME_BAND,
            arm_band=rng.choice("pq") + band,
        )
    start = rng.randint(0, 200_000_000)
    end = start + rng.randint(0, 60_000_000)
    if shape == 14:
        return RegionDescriptor(
            chromosome=chrom, kind=RegionKind.BP_REGION,
            start_bp=start, end_bp=end,
        )
    return RegionDescriptor(
        chromosome=chrom,
        kind=rng.choice([RegionKind.CNV_DEL, RegionKind.CNV_DUP]),
        start_bp=start, end_bp=end,
    )
