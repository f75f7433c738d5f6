"""In-memory spans around the benchmark's own calls into varlex.

A span is (name, start, end, parent, doc): perf_counter_ns times, the index
of the enclosing span or -1, and the id of the document being processed.
Nothing is written until :meth:`Tracer.write` runs at the end of a traced
run.  Spans inside ``src/`` are a later change; these sit at the module
boundaries the benchmark can reach from outside.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from varlex import (
    Annotation,
    Document,
    IdKind,
    MentionType,
    group_mentions,
    normalize,
    propagated_ids,
    resolve_gene_context,
    split_sentences,
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.docs: list[str] = []
        self._open: list[int] = []
        self.doc = ""
        self.counts: Counter = Counter()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.docs.append(self.doc)
        self.ends.append(0)
        self._open.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._open.pop()

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total seconds, self seconds) per span name.  Self time is a
        span's length minus the time its direct children cover; children
        of one span never overlap because the traced run is serial."""
        total: Counter = Counter()
        child: list[int] = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            length = self.ends[i] - self.starts[i]
            total[self.names[i]] += length
            if parent >= 0:
                child[parent] += length
        own: Counter = Counter()
        for i, name in enumerate(self.names):
            own[name] += self.ends[i] - self.starts[i] - child[i]
        return (
            {k: v / 1e9 for k, v in total.items()},
            {k: v / 1e9 for k, v in own.items()},
        )

    def write(self, path: str) -> None:
        origin = min(self.starts, default=0)
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name,
                    "start_ns": self.starts[i] - origin,
                    "end_ns": self.ends[i] - origin,
                    "parent": self.parents[i],
                    "doc": self.docs[i],
                }) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._end(self.idx)
        return False


_TIER_NAMES = {
    IdKind.CAID: "caid",
    IdKind.RS_ALLELE: "rs_allele",
    IdKind.RSID: "rsid",
    IdKind.GENE_ANCHORED: "gene_anchored",
    IdKind.UNNORMALIZED: "unnormalized",
}
TIER_NAMES = tuple(_TIER_NAMES.values())
LABELS = tuple(t.label for t in MentionType)


def traced_annotate(annotator, doc: Document, tr: Tracer) -> Document:
    """``Annotator.annotate_document`` rebuilt from public calls, with one
    span per call and counts of what each layer produced.  The benchmark
    checks that its output equals the real method's on every document."""
    tr.doc = doc.doc_id
    counts = tr.counts
    with tr.span("pipeline.annotate_document"):
        text = doc.full_text
        with tr.span("recognizer.scan_document"):
            mentions, genes = annotator.recognizer.scan_document(text, doc.doc_id)
        with tr.span("tokenizer.split_sentences"):
            sentences = split_sentences(text)
        for mention in mentions:
            with tr.span("normalizer.resolve_gene_context"):
                mention.gene_context = resolve_gene_context(
                    mention, genes, sentences
                )
        ids = []
        for mention in mentions:
            with tr.span("normalizer.normalize"):
                ids.append(normalize(mention, annotator.kb, policy=annotator.policy))
        before = ids
        if annotator.group:
            with tr.span("grouping.group_mentions"):
                groups = group_mentions(mentions, ids, annotator.kb)
            with tr.span("grouping.propagated_ids"):
                ids = propagated_ids(mentions, ids, groups)
            counts["grouping.groups"] += len(groups)
            counts["grouping.ambiguous_groups"] += sum(g.ambiguous for g in groups)
        annotations = []
        for mention, norm in zip(mentions, ids):
            if mention.mtype is MentionType.REFSEQ and mention.identifier:
                rendered = mention.identifier
            else:
                rendered = norm.render()
            annotations.append(
                Annotation(
                    mention.start,
                    mention.end,
                    mention.text,
                    mention.mtype.label,
                    rendered,
                )
            )
    for mention, first, final in zip(mentions, before, ids):
        counts["recognizer.mentions." + mention.mtype.label] += 1
        counts["normalizer.ids." + _TIER_NAMES[first.kind]] += 1
        if mention.gene_hint:
            counts["normalizer.gene_source.fused"] += 1
        elif mention.gene_context:
            counts["normalizer.gene_source.context"] += 1
        else:
            counts["normalizer.gene_source.none"] += 1
        if final.kind > first.kind:
            counts["grouping.ids_upgraded"] += 1
    return Document(doc.doc_id, doc.title, doc.abstract, tuple(annotations))
