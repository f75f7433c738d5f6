"""Map recognized mentions to stable variant identifiers.

The preference ladder runs ClinGen allele id, then rs number with alleles,
then bare rs number, then a gene-anchored HGVS string, and finally the
unnormalized marker "-".  A policy reorders the ladder; what a mention can
ever receive is limited by how complete it is and what the knowledge base
holds.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import IntEnum

from .hgvs import MentionType, VariantDescriptor, canonical_string
from .kb import KnowledgeBase, VariantRecord
from .recognizer import GeneMention, Mention


class IdKind(IntEnum):
    """Identifier tiers, ordered by specificity (higher is more specific)."""

    UNNORMALIZED = 0
    GENE_ANCHORED = 1
    RSID = 2
    RS_ALLELE = 3
    CAID = 4


@dataclass(frozen=True)
class NormalizedId:
    """A rendered-comparable identifier.  The ambiguity flag never takes
    part in equality; two mentions resolving to the same id group together
    whether or not either resolution was ambiguous."""

    kind: IdKind
    ca: str = ""
    rsid: str = ""
    ref: str = ""
    alt: str = ""
    gene: str = ""
    hgvs: str = ""
    ambiguous: bool = field(default=False, compare=False)

    def render(self) -> str:
        if self.kind is IdKind.CAID:
            return self.ca
        if self.kind is IdKind.RS_ALLELE:
            return f"{self.rsid}({self.ref}>{self.alt})"
        if self.kind is IdKind.RSID:
            return self.rsid
        if self.kind is IdKind.GENE_ANCHORED:
            return f"{self.gene}: {self.hgvs}"
        return "-"


UNNORMALIZED = NormalizedId(IdKind.UNNORMALIZED)

_POLICY_NAMES = {
    "caid": IdKind.CAID,
    "rs_allele": IdKind.RS_ALLELE,
    "rsid": IdKind.RSID,
    "gene": IdKind.GENE_ANCHORED,
}


@dataclass(frozen=True)
class NormalizationPolicy:
    """The identifier tiers to try, most preferred first."""

    order: tuple[IdKind, ...]

    @classmethod
    def from_string(cls, names: str) -> "NormalizationPolicy":
        kinds = []
        for name in names.split(","):
            name = name.strip().lower()
            if name not in _POLICY_NAMES:
                raise ValueError(
                    f"unknown policy tier {name!r}; expected one of "
                    + ", ".join(_POLICY_NAMES)
                )
            kind = _POLICY_NAMES[name]
            if kind not in kinds:
                kinds.append(kind)
        return cls(tuple(kinds))


DEFAULT_POLICY = NormalizationPolicy(
    (IdKind.CAID, IdKind.RS_ALLELE, IdKind.RSID, IdKind.GENE_ANCHORED)
)


def _identity(rec: VariantRecord) -> tuple[str, str]:
    return (rec.rsid, rec.ca_id)


def candidate_records(
    kb: KnowledgeBase, gene: str | None, descriptor: VariantDescriptor
) -> list[VariantRecord]:
    """KB rows a mention could mean: all exact matches, narrowed to the
    gene context when that still leaves something."""
    if gene:
        scoped = kb.lookup(gene, descriptor)
        if scoped:
            return scoped
    return kb.lookup(None, descriptor)


def _mention_gene(mention: Mention) -> str | None:
    """The gene a mention is read against: its context, else its fused gene."""
    return mention.gene_context or mention.gene_hint


def normalize(
    mention: Mention,
    kb: KnowledgeBase,
    *,
    policy: NormalizationPolicy = DEFAULT_POLICY,
) -> NormalizedId:
    """Resolve one mention to the best identifier the policy allows.

    dbSNP mentions carry their own rs number.  Descriptor mentions are
    looked up KB-wide; the mention's own gene, which grouping reads too,
    narrows multiple hits, and any ambiguity left is flagged on the result.
    Incomplete mentions (no mutant allele) get no allele-specific ids.
    """
    if mention.mtype is MentionType.SNP and mention.identifier:
        return NormalizedId(IdKind.RSID, rsid=mention.identifier)
    descriptor = mention.descriptor
    if not isinstance(descriptor, VariantDescriptor):
        return UNNORMALIZED
    gene = _mention_gene(mention)
    records = candidate_records(kb, gene, descriptor)
    return _ladder(records, gene, descriptor, policy)


def _ladder(
    records: list[VariantRecord],
    gene: str | None,
    descriptor: VariantDescriptor,
    policy: NormalizationPolicy,
) -> NormalizedId:
    ambiguous = len({_identity(r) for r in records}) > 1
    best = records[0] if records else None
    incomplete = descriptor.is_incomplete
    for kind in policy.order:
        if kind is IdKind.CAID:
            if best is not None and best.ca_id and not incomplete:
                return NormalizedId(IdKind.CAID, ca=best.ca_id, ambiguous=ambiguous)
        elif kind is IdKind.RS_ALLELE:
            if (
                best is not None
                and best.rsid
                and best.ref_allele
                and best.alt_allele
                and not incomplete
            ):
                return NormalizedId(
                    IdKind.RS_ALLELE,
                    rsid=best.rsid,
                    ref=best.ref_allele,
                    alt=best.alt_allele,
                    ambiguous=ambiguous,
                )
        elif kind is IdKind.RSID:
            if best is not None and best.rsid:
                return NormalizedId(
                    IdKind.RSID, rsid=best.rsid, ambiguous=ambiguous
                )
        elif kind is IdKind.GENE_ANCHORED:
            if gene:
                return NormalizedId(
                    IdKind.GENE_ANCHORED,
                    gene=gene,
                    hgvs=canonical_string(descriptor),
                    ambiguous=ambiguous,
                )
    return UNNORMALIZED


def gene_contexts(
    mentions: list[Mention],
    gene_mentions: list[GeneMention],
    sentences: list[tuple[int, int]] | None = None,
) -> list[str | None]:
    """The gene each mention most plausibly belongs to, in mention order.

    The rule is :func:`resolve_gene_context`'s.  Genes never overlap, so in
    text order their midpoints and their ends increase too; each mention
    costs a few bisections.  Midpoints are kept doubled (start + end) so
    that they stay integers.
    """
    if not gene_mentions:
        return [m.gene_hint for m in mentions]
    mids = [g.start + g.end for g in gene_mentions]
    ends = [g.end for g in gene_mentions]
    starts = [s for s, _ in sentences] if sentences else []
    out: list[str | None] = []
    for m in mentions:
        if m.gene_hint:
            out.append(m.gene_hint)
            continue
        lo, hi = 0, len(mids)
        k = bisect_right(starts, m.start) - 1
        if k >= 0 and m.start < sentences[k][1]:
            s0, s1 = sentences[k]
            lo, hi = bisect_left(mids, 2 * s0), bisect_left(mids, 2 * s1)
        if lo < hi:
            # The nearest midpoint is a neighbour of the mention's own; the
            # one before it wins a tie, as the earlier start.
            mid = m.start + m.end
            j = bisect_left(mids, mid, lo, hi)
            if j == hi or (j > lo and mid - mids[j - 1] <= mids[j] - mid):
                j -= 1
            out.append(gene_mentions[j].symbol)
            continue
        j = bisect_right(ends, m.start)
        out.append(gene_mentions[j - 1].symbol if j else None)
    return out


def resolve_gene_context(
    mention: Mention,
    gene_mentions: list[GeneMention],
    sentences: list[tuple[int, int]] | None = None,
) -> str | None:
    """Pick the gene a mention most plausibly belongs to.

    A gene fused onto the mention always wins.  Otherwise the nearest gene
    in the same sentence (by byte midpoint, earlier on ties), then the
    nearest gene anywhere before the mention.  Without sentence spans, or
    when no span holds the mention's start, the whole text counts as one
    sentence.

    ``gene_mentions`` must be in text order, as ``scan_document`` and
    ``find_gene_mentions`` return them, and ``sentences`` as
    ``split_sentences`` returns them: sorted spans that do not overlap.
    For many mentions of one document, :func:`gene_contexts` does the same
    in one pass.
    """
    return gene_contexts([mention], gene_mentions, sentences)[0]
