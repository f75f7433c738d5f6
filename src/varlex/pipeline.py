"""End-to-end annotation: recognize, resolve genes, normalize, group.

The annotator is stateless across documents, so a thread pool may process
any number of documents concurrently; results are returned in input order
and are identical at any thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Iterable

from .corpus import Annotation, Document
from .grouping import group_mentions, propagated_ids
from .hgvs import MentionType
from .kb import KnowledgeBase
from .normalizer import (
    DEFAULT_POLICY,
    NormalizationPolicy,
    gene_contexts,
    normalize,
)
from .recognizer import Recognizer
from .tokenizer import split_sentences


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

    def annotate_document(self, doc: Document) -> Document:
        """The same document with annotations replaced by pipeline output."""
        text = doc.full_text
        mentions, genes = self.recognizer.scan_document(text, doc.doc_id)
        if mentions:
            # Without a gene, no gene context reads sentences.
            sentences = split_sentences(text) if genes else None
            contexts = gene_contexts(mentions, genes, sentences)
            for mention, gene in zip(mentions, contexts):
                mention.gene_context = gene
        ids = [normalize(m, self.kb, policy=self.policy) for m in mentions]
        if self.group:
            groups = group_mentions(mentions, ids, self.kb)
            ids = propagated_ids(mentions, ids, groups)
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
        return Document(doc.doc_id, doc.title, doc.abstract, tuple(annotations))

    def annotate_text(self, text: str, doc_id: str = "doc1") -> Document:
        """Annotate a bare string, treating it as a title-only document."""
        return self.annotate_document(Document(doc_id, text, ""))

    def annotate_all(
        self, docs: Iterable[Document], threads: int = 1
    ) -> list[Document]:
        """Annotate many documents, preserving order at any thread count."""
        docs = list(docs)
        if threads <= 1 or len(docs) <= 1:
            return [self.annotate_document(d) for d in docs]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(self.annotate_document, docs))
