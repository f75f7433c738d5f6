"""Annotator.annotate_all over a pool of forked worker processes."""

import gc
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from varlex import (
    Annotator,
    Document,
    KnowledgeBase,
    NormalizationPolicy,
    OffsetMismatch,
    Recognizer,
    read_pubtator,
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
