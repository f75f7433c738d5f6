"""Group the mentions of one document that talk about the same variant.

Two mentions link when they normalize to the same identifier, when they
share a knowledge-base record, or when one is the incomplete form of the
other ("P799" next to "P799L").  Groups are the transitive closure of those
links; every member then reports the most specific identifier the group
reached together.

No link is found by testing pairs: each mention joins the first mention
seen with its rendered id or with any of its KB records.  Prefix links are
found by class: substitutions sharing (level, position, wild type) split
into classes by (has mutant, gene), and a class links to the classes of the
other kind whose gene agrees.  One pass builds the closure and, over fully
specified members, the finer closure that decides ambiguity; the prefix
links are added after it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .hgvs import EditKind, VariantDescriptor
from .kb import KnowledgeBase, VariantRecord
from .normalizer import IdKind, NormalizedId, _mention_gene, candidate_records
from .recognizer import Mention


def _prefix_key(d) -> tuple | None:
    """A substitution's (level, position, wild type) if it names all three."""
    if (
        isinstance(d, VariantDescriptor)
        and d.edit_kind is EditKind.SUBSTITUTION
        and d.position is not None
        and d.ref_allele is not None
    ):
        return (d.level, d.position, d.ref_allele)
    return None


@dataclass(frozen=True)
class VariantGroup:
    """Indices into the mention list, plus the identifier they share."""

    members: tuple[int, ...]
    group_id: NormalizedId
    ambiguous: bool = False


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def group_mentions(
    mentions: list[Mention],
    ids: list[NormalizedId],
    kb: KnowledgeBase,
    link_keys: list[list] | None = None,
) -> list[VariantGroup]:
    """Partition a document's mentions into identity groups.

    ``ids`` is the per-mention normalization result, parallel to
    ``mentions``.  ``link_keys``, also parallel, are the mentions' KB
    records and rendered ids when the caller has them already (see
    :func:`_link_keys`); without them they are looked up here.  Groups
    come back ordered by first member; members are index-sorted.  The
    group identifier is the most specific tier any member reached, lowest
    rendering on ties, and the group is flagged ambiguous when
    fully-specified members point at conflicting variants.
    """
    n = len(mentions)
    closure = _UnionFind(n)
    # The same-id and shared-record links again, among decided members only
    # (an id, and a fully specified variant).  A group whose decided members
    # span more than one root of this second closure is ambiguous.
    decided = _UnionFind(n)
    is_decided = [False] * n
    first: dict = {}  # link key -> first mention carrying it
    first_decided: dict = {}
    # (level, position, wild type) -> (has mutant, gene) -> members
    buckets: dict[tuple, dict[tuple[bool, str | None], list[int]]] = {}
    for i, (m, nid) in enumerate(zip(mentions, ids)):
        d = m.descriptor
        is_decided[i] = nid.kind is not IdKind.UNNORMALIZED and not (
            isinstance(d, VariantDescriptor) and d.is_incomplete
        )
        keys = link_keys[i] if link_keys is not None else _link_keys(m, nid, kb)
        for key in keys:
            closure.union(i, first.setdefault(key, i))
            if is_decided[i]:
                decided.union(i, first_decided.setdefault(key, i))
        prefix = _prefix_key(d)
        if prefix is not None:
            classes = buckets.setdefault(prefix, {})
            key = (d.alt_allele is not None, _mention_gene(m))
            classes.setdefault(key, []).append(i)
    for classes in buckets.values():
        _link_prefix_classes(classes, closure)

    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(closure.find(i), []).append(i)

    groups = []
    for root in sorted(clusters):
        members = tuple(clusters[root])
        identities = {decided.find(i) for i in members if is_decided[i]}
        ambiguous = len(identities) > 1 or any(ids[i].ambiguous for i in members)
        groups.append(VariantGroup(members, _best_id(members, ids), ambiguous))
    return groups


def _link_prefix_classes(
    classes: dict[tuple[bool, str | None], list[int]], closure: _UnionFind
) -> None:
    """Prefix links inside one (level, position, wild type) bucket.

    Every member of a class with a mutant is prefix-compatible with every
    member of a class without one, and the reverse; the link holds when
    their genes agree, a missing gene agreeing with any.  So two partner
    classes are completely linked, and one union per member and one per
    partner pair give the closure that testing every pair would.  A class
    with no partner stays apart, even within itself.
    """
    linked: set[tuple[bool, str | None]] = set()
    for (has_mutant, gene), members in classes.items():
        if not has_mutant:
            continue
        if gene is None:
            partners = [key for key in classes if not key[0]]
        else:
            partners = [
                key for key in ((False, gene), (False, None)) if key in classes
            ]
        for key in partners:
            closure.union(members[0], classes[key][0])
            linked.add(key)
        if partners:
            linked.add((has_mutant, gene))
    for key in linked:
        first, *rest = classes[key]
        for j in rest:
            closure.union(first, j)


def _link_keys(
    m: Mention,
    nid: NormalizedId,
    kb: KnowledgeBase,
    records: list[VariantRecord] | None = None,
) -> list:
    """The KB records ``m`` could mean, plus its rendered id if it has one.
    ``records`` are a descriptor's ``candidate_records`` when the caller
    read them already."""
    if isinstance(m.descriptor, VariantDescriptor):
        if records is None:
            records = candidate_records(kb, _mention_gene(m), m.descriptor)
        keys = list(records)
    elif m.identifier and m.identifier.startswith("rs"):
        keys = list(kb.lookup_rsid(m.identifier))
    else:
        keys = []
    if nid.kind is not IdKind.UNNORMALIZED:
        keys.append(nid.render())
    return keys


def _best_id(members: tuple[int, ...], ids: list[NormalizedId]) -> NormalizedId:
    # Most specific tier wins; the lexicographically lowest rendering
    # breaks ties inside a tier.
    return min(
        (ids[i] for i in members),
        key=lambda nid: (-nid.kind, nid.render()),
    )


def propagated_ids(
    mentions: list[Mention],
    ids: list[NormalizedId],
    groups: list[VariantGroup],
) -> list[NormalizedId]:
    """Per-mention ids after groups share their best identifier."""
    out = list(ids)
    for group in groups:
        if group.group_id.kind is IdKind.UNNORMALIZED:
            continue
        shared = replace(group.group_id, ambiguous=group.ambiguous)
        for i in group.members:
            out[i] = shared
    return out
