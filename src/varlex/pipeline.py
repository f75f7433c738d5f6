"""End-to-end annotation: recognize, resolve genes, normalize, group.

Within a document, mentions that agree on type, descriptor or identifier,
and gene are normalized, grouped and rendered once, through the public
``normalize``, ``group_mentions`` and ``propagated_ids`` on the first
mention of each; nothing is kept from one document to the next, so any
process may annotate any document.  ``annotate_all`` with more than one
worker forks a pool of worker processes on first use and keeps it for
later calls.  Each worker inherits the annotator, KB, lexicon and compiled
rules included, from the fork, so only documents and results cross the
process boundary.  Every worker gets one contiguous slice of the batch and
the slices are joined in input order, so output is identical at any worker
count.
"""

from __future__ import annotations

import os
import weakref
from typing import Iterable

from .corpus import Annotation, Document
from .grouping import group_mentions, propagated_ids
from .hgvs import MentionType
from .kb import KnowledgeBase
from .normalizer import (
    DEFAULT_POLICY,
    NormalizationPolicy,
    _mention_gene,
    gene_contexts,
    normalize,
)
from .recognizer import Recognizer, split_sentences

# Batches smaller than this are annotated serially.  Handing out slices
# and collecting results costs about as much as annotating four short
# abstracts; on a 2-core host two workers were 1.2x faster than serial on
# eight mention-sparse abstracts and even on four.
_PARALLEL_MIN_DOCS = 8

# The annotator a forked worker inherited from its parent.
_worker: Annotator | None = None


def _start_worker(annotator: weakref.ref) -> None:
    global _worker
    _worker = annotator()


def _annotate_slice(docs: list[Document]) -> list[Document]:
    return [_worker.annotate_document(d) for d in docs]


class Annotator:
    """Configured pipeline over plain text or PubTator documents."""

    def __init__(
        self,
        kb: KnowledgeBase | None = None,
        lexicon: frozenset[str] | None = None,
        policy: NormalizationPolicy = DEFAULT_POLICY,
        group: bool = True,
    ):
        self.kb = kb if kb is not None else KnowledgeBase(())
        self.recognizer = Recognizer(lexicon)
        self.policy = policy
        self.group = group
        # Once forked: the worker count, the state the workers copied, the
        # pool, and the finalizer that shuts the pool down.
        self._pool = None

    def annotate_document(self, doc: Document) -> Document:
        """The same document with annotations replaced by pipeline output."""
        text = doc.full_text
        mentions, genes = self.recognizer._scan_document(text, doc.doc_id)
        if mentions:
            # Without a gene, no gene context reads sentences.
            sentences = split_sentences(text) if genes else None
            contexts = gene_contexts(mentions, genes, sentences)
            for mention, gene in zip(mentions, contexts):
                mention.gene_context = gene
        # Mentions that agree on all that normalization and grouping read
        # resolve alike, so each distinct key is normalized, grouped and
        # rendered once, at its first mention, and its mentions share that.
        slot, reps, slots = {}, [], []
        for m in mentions:
            key = (m.mtype, m.descriptor, m.identifier, _mention_gene(m))
            i = slot.setdefault(key, len(reps))
            if i == len(reps):
                reps.append(m)
            slots.append(i)
        ids = [normalize(m, self.kb, policy=self.policy) for m in reps]
        if self.group:
            ids = propagated_ids(reps, ids, group_mentions(reps, ids, self.kb))
        rendered = [
            m.identifier
            if m.mtype is MentionType.REFSEQ and m.identifier
            else nid.render()
            for m, nid in zip(reps, ids)
        ]
        # A list, not a generator: tuple() resizes a tuple of guessed length
        # to fit a generator, and the resized tuples pile up in CPython's
        # tuple free lists, 0.8 MB more at peak on the abstracts benchmark.
        annotations = [
            Annotation(m.start, m.end, m.text, m.mtype.label, rendered[i])
            for m, i in zip(mentions, slots)
        ]
        return Document(doc.doc_id, doc.title, doc.abstract, tuple(annotations))

    def annotate_text(self, text: str, doc_id: str = "doc1") -> Document:
        """Annotate a bare string, treating it as a title-only document."""
        return self.annotate_document(Document(doc_id, text, ""))

    def annotate_all(
        self, docs: Iterable[Document], threads: int = 1
    ) -> list[Document]:
        """Annotate many documents in ``threads`` worker processes.

        The output is in input order and identical at any worker count.
        Small batches, ``threads`` of 1 or less, and platforms without
        ``fork`` run serially in this process.  A document that raises in
        a worker raises the same error here.
        """
        docs = list(docs)
        # Workers must inherit the annotator rather than unpickle it.
        forks = hasattr(os, "fork")
        if threads <= 1 or len(docs) < _PARALLEL_MIN_DOCS or not forks:
            return [self.annotate_document(d) for d in docs]
        # Imported here, as in _workers: a serial process never needs it.
        from concurrent import futures

        pool = self._workers(threads)
        step = -(-len(docs) // threads)
        try:
            slices = [
                pool.submit(_annotate_slice, docs[i:i + step])
                for i in range(0, len(docs), step)
            ]
            return [doc for done in slices for doc in done.result()]
        except futures.BrokenExecutor:
            self._close_pool()
            raise

    def _workers(self, n: int) -> futures.ProcessPoolExecutor:
        """A pool of ``n`` workers forked from this annotator as it is now."""
        state = (self.kb, self.recognizer, self.policy, self.group)
        if self._pool is not None:
            workers, forked, pool, _ = self._pool
            if workers == n and all(a is b for a, b in zip(forked, state)):
                return pool
            self._close_pool()
        # Imported here: multiprocessing, concurrent.futures and the process
        # pool's modules add 1.7 MB to a process that only annotates serially.
        import multiprocessing
        from concurrent import futures

        # The pool holds the annotator weakly, so it cannot keep the
        # annotator alive here; a forked worker finds it alive in the
        # memory it copied.  The finalizer shuts the pool down when the
        # annotator is collected, and at exit.
        pool = futures.ProcessPoolExecutor(
            n,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker,
            initargs=(weakref.ref(self),),
        )
        self._pool = (n, state, pool, weakref.finalize(self, pool.shutdown))
        return pool

    def _close_pool(self) -> None:
        if self._pool is not None:
            *_, shutdown = self._pool
            shutdown()
            self._pool = None
