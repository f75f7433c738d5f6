"""Annotator.annotate_all over a pool of forked worker processes, and the
stage calls behind one annotate_document."""

import gc
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

import varlex.pipeline
from varlex import (
    Annotator,
    Document,
    KnowledgeBase,
    NormalizationPolicy,
    OffsetMismatch,
    Recognizer,
    read_pubtator,
    resolve_gene_context,
    split_sentences,
    write_pubtator,
)

from conftest import data_path


def _corpus(n):
    """``n`` documents cycling through the sample corpus, each with its
    own id, with the gold annotations dropped."""
    sample = read_pubtator(data_path("sample_corpus.txt"))
    return [
        Document(f"{i}-{d.doc_id}", d.title, d.abstract)
        for i, d in zip(range(n), sample * (n // len(sample) + 1))
    ]


def _workers():
    return {p.pid for p in multiprocessing.active_children()}


@pytest.fixture(scope="module")
def shared(kb, lexicon):
    # One annotator for the module, so later calls reuse its pool.
    return Annotator(kb=kb, lexicon=lexicon)


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
@pytest.mark.parametrize("n_docs", [0, 1, 3, 65])
def test_worker_count_never_changes_output(shared, threads, n_docs):
    docs = _corpus(n_docs)
    serial = [shared.annotate_document(d) for d in docs]
    assert write_pubtator(shared.annotate_all(docs, threads=threads)) == (
        write_pubtator(serial)
    )


def test_pool_is_forked_lazily_and_kept(kb, lexicon):
    before = _workers()
    annotator = Annotator(kb=kb, lexicon=lexicon)
    annotator.annotate_all(_corpus(3), threads=2)
    assert _workers() == before
    annotator.annotate_all(_corpus(65), threads=2)
    forked = _workers() - before
    assert len(forked) == 2
    annotator.annotate_all(_corpus(65), threads=2)
    assert _workers() - before == forked


class _RaisingRecognizer(Recognizer):
    """Raises a typed error on the document with id ``boom``."""

    def _scan_document(self, text, doc_id):
        if doc_id == "boom":
            raise OffsetMismatch(doc_id, 3, 7, "V600E", "V60")
        return super()._scan_document(text, doc_id)


def test_error_in_a_worker_reaches_the_caller_typed(kb, lexicon):
    annotator = Annotator(kb=kb, lexicon=lexicon)
    annotator.recognizer = _RaisingRecognizer(lexicon)
    docs = _corpus(65)
    # In the last slice at every worker count tried.
    docs[60] = Document("boom", "BRAF V600E.", "")
    with pytest.raises(OffsetMismatch) as raised:
        annotator.annotate_all(docs, threads=3)
    err = raised.value
    assert (err.doc_id, err.start, err.end, err.expected, err.found) == (
        "boom", 3, 7, "V600E", "V60"
    )
    assert str(err) == str(OffsetMismatch("boom", 3, 7, "V600E", "V60"))
    # The pool survives the error.
    del docs[60]
    assert annotator.annotate_all(docs, threads=3) == [
        annotator.annotate_document(d) for d in docs
    ]


@pytest.mark.parametrize("name, value", [
    ("policy", NormalizationPolicy.from_string("rsid,gene")),
    ("group", False),
    ("kb", KnowledgeBase(())),
])
def test_rebinding_after_a_parallel_call_reaches_the_workers(
    kb, lexicon, name, value
):
    annotator = Annotator(kb=kb, lexicon=lexicon)
    docs = _corpus(65)
    before = write_pubtator(annotator.annotate_all(docs, threads=2))
    setattr(annotator, name, value)
    serial = write_pubtator(annotator.annotate_all(docs, threads=1))
    assert serial != before
    assert write_pubtator(annotator.annotate_all(docs, threads=2)) == serial


def test_dropped_annotator_leaves_no_worker(kb, lexicon):
    before = _workers()
    annotator = Annotator(kb=kb, lexicon=lexicon)
    annotator.annotate_all(_corpus(65), threads=2)
    forked = _workers() - before
    assert forked
    del annotator
    gc.collect()
    assert not forked & _workers()


def test_killed_worker_fails_one_call_and_the_next_forks_anew(kb, lexicon):
    before = _workers()
    annotator = Annotator(kb=kb, lexicon=lexicon)
    docs = _corpus(65)
    expected = annotator.annotate_all(docs, threads=2)
    first = _workers() - before
    os.kill(min(first), signal.SIGKILL)
    with pytest.raises(BrokenProcessPool):
        annotator.annotate_all(docs, threads=2)
    assert annotator.annotate_all(docs, threads=2) == expected
    assert not first & (_workers() - before)


def test_stages_run_once_per_distinct_resolution(kb, lexicon, monkeypatch):
    # Repeats within a sentence and across sentences, with and without a
    # gene before them: protein changes, an rs number and an accession.
    doc = Document("d", "BRAF V600E and V600E; KRAS G12D.", (
        "V600E recurs. BRAF V600E, G12D and P799 with P799. "
        "rs113488022 and rs113488022 and NM_004333.4 twice: NM_004333.4."
    ))
    annotator = Annotator(kb=kb, lexicon=lexicon)
    text = doc.full_text
    mentions, genes = annotator.recognizer.scan_document(text, "d")
    sentences = split_sentences(text)
    first = {}
    for m in mentions:
        gene = resolve_gene_context(m, genes, sentences)
        first.setdefault((m.mtype, m.descriptor, m.identifier, gene), m)
    distinct = [(m.start, m.end) for m in first.values()]
    assert len(distinct) < len(mentions)

    calls = {"normalize": [], "group_mentions": []}

    def spy(name):
        stage = getattr(varlex.pipeline, name)

        def call(ms, *args, **kwargs):
            batch = ms if isinstance(ms, list) else [ms]
            calls[name].append([(m.start, m.end) for m in batch])
            return stage(ms, *args, **kwargs)

        monkeypatch.setattr(varlex.pipeline, name, call)

    spy("normalize")
    spy("group_mentions")
    annotated = annotator.annotate_document(doc)
    assert len(annotated.annotations) == len(mentions)
    assert [span for batch in calls["normalize"] for span in batch] == distinct
    assert calls["group_mentions"] == [distinct]
