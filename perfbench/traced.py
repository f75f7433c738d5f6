"""The traced run: per-layer seconds and counts over a fixed document set.

The set is the first ``trace_docs`` documents of the workload, so counts
repeat exactly for a seed.  Each document goes through an untraced pass
(the reference output and the time the overhead is measured against) and
then through the traced rebuild; the two outputs must be equal.  Side calls
that do not block the result (gene lexicon pass, natural-language and
region rules) run after the traced pass as root spans of their own.
"""

from __future__ import annotations

import itertools
import statistics
import time

from spans import LABELS, TIER_NAMES, Tracer, traced_annotate
from measure import Run, iter_blocks

# name -> unit, in report order.  A layer a workload never calls reports 0.
PER_LAYER = {
    "recognizer.scan_document.self_s": "s",
    "recognizer.find_gene_mentions_s": "s",
    "recognizer.nl_rules_s": "s",
    "recognizer.region_rules_s": "s",
    **{f"recognizer.mentions.{label}": "count" for label in LABELS},
    "tokenizer.split_sentences.self_s": "s",
    "normalizer.resolve_gene_context.self_s": "s",
    "normalizer.normalize.self_s": "s",
    **{f"normalizer.ids.{tier}": "count" for tier in TIER_NAMES},
    "normalizer.unnormalized_share": "ratio",
    "normalizer.gene_source.fused": "count",
    "normalizer.gene_source.context": "count",
    "normalizer.gene_source.none": "count",
    "grouping.group_mentions.self_s": "s",
    "grouping.propagated_ids.self_s": "s",
    "grouping.groups": "count",
    "grouping.ambiguous_groups": "count",
    "grouping.ids_upgraded": "count",
    "pipeline.annotate_document.self_s": "s",
    "pipeline.workers_speedup": "ratio",
    "pipeline.length_ratio_64x": "ratio",
    "kb.load_kb_s": "s",
    "kb.load_genes_s": "s",
    "corpus.read_pubtator_s": "s",
    "corpus.annotations_verified": "count",
    "corpus.write_pubtator_s": "s",
    "evaluation.evaluate_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Spans reported by self time, and spans reported by total time.
_SELF = {
    "recognizer.scan_document.self_s": "recognizer.scan_document",
    "tokenizer.split_sentences.self_s": "tokenizer.split_sentences",
    "normalizer.resolve_gene_context.self_s": "normalizer.resolve_gene_context",
    "normalizer.normalize.self_s": "normalizer.normalize",
    "grouping.group_mentions.self_s": "grouping.group_mentions",
    "grouping.propagated_ids.self_s": "grouping.propagated_ids",
    "pipeline.annotate_document.self_s": "pipeline.annotate_document",
}
_TOTAL = {
    "recognizer.find_gene_mentions_s": "recognizer.find_gene_mentions",
    "recognizer.nl_rules_s": "recognizer.recognize_natural_language",
    "recognizer.region_rules_s": "recognizer.recognize_region",
    "corpus.read_pubtator_s": "corpus.read_pubtator",
    "corpus.write_pubtator_s": "corpus.write_pubtator",
    "evaluation.evaluate_s": "evaluation.evaluate",
}

# Repeats of the single abstract in the length probe; its median is the
# denominator of pipeline.length_ratio_64x.
_PROBE_REPEATS = 21


def _traced_annotation(r: Run, tr: Tracer, values: dict) -> None:
    v, cfg = r.v, r.cfg
    n, size = cfg["trace_docs"], cfg["batch"]
    inputs = list(itertools.islice(iter_blocks(cfg["input"]), n))
    golds = list(itertools.islice(iter_blocks(cfg["gold"]), n))

    docs = []
    reference, latencies = [], []
    started = time.perf_counter()
    for i in range(0, n, size):
        batch = v.read_pubtator_text("".join(inputs[i:i + size]))
        out, lat = r.annotate_serial(batch)
        v.write_pubtator(out)
        docs.extend(batch)
        reference.extend(out)
        latencies.extend(lat)
    untraced_s = time.perf_counter() - started

    outputs, texts = [], []
    started = time.perf_counter()
    for i in range(0, n, size):
        tr.doc = ""
        with tr.span("corpus.read_pubtator"):
            batch = v.read_pubtator_text("".join(inputs[i:i + size]))
        out = [traced_annotate(r.annotator, d, tr) for d in batch]
        tr.doc = ""
        with tr.span("corpus.write_pubtator"):
            texts.append(v.write_pubtator(out))
        outputs.extend(out)
    traced_s = time.perf_counter() - started
    r.attempted = len(docs)
    r.check("traced_equals_annotate_document", outputs == reference)
    values["trace.overhead_ratio"] = traced_s / untraced_s

    for doc in docs:
        tr.doc = doc.doc_id
        text = doc.full_text
        with tr.span("recognizer.find_gene_mentions"):
            r.annotator.recognizer.find_gene_mentions(text)
        with tr.span("recognizer.recognize_natural_language"):
            r.annotator.recognizer.recognize_natural_language(text, doc.doc_id)
        with tr.span("recognizer.recognize_region"):
            r.annotator.recognizer.recognize_region(text, doc.doc_id)

    tr.doc = ""
    gold = r.round_trip("round_trip.gold", "".join(golds), tr.span)
    tr.counts["corpus.annotations_verified"] += sum(len(d.annotations) for d in gold)
    r.add_scores({"type": [0, 0, 0], "id": [0, 0, 0]}, gold, outputs, tr.span)
    r.round_trip("round_trip.input", "".join(inputs))
    r.round_trip("round_trip.output", "".join(texts))

    if cfg["threads"] > 1:
        started = time.perf_counter()
        threaded = r.annotator.annotate_all(docs, threads=cfg["threads"])
        threaded_s = time.perf_counter() - started
        r.check("threads_identical", threaded == reference)
        values["pipeline.workers_speedup"] = sum(latencies) / threaded_s

    if cfg.get("probe"):
        (doc,) = v.read_pubtator(cfg["probe"])
        once = []
        for _ in range(_PROBE_REPEATS):
            started = time.perf_counter()
            r.annotator.annotate_document(doc)
            once.append(time.perf_counter() - started)
        long_doc = v.Document(doc.doc_id, doc.title,
                              " ".join([doc.abstract] * 64))
        started = time.perf_counter()
        r.annotator.annotate_document(long_doc)
        values["pipeline.length_ratio_64x"] = (
            (time.perf_counter() - started) / statistics.median(once)
        )


def _traced_evaluation(r: Run, tr: Tracer, values: dict) -> None:
    n = r.cfg["trace_docs"]
    started = time.perf_counter()
    reference, _, _ = r.evaluate_loop(n)
    untraced_s = time.perf_counter() - started
    r.attempted = r.failed = 0
    started = time.perf_counter()
    totals, _, verified = r.evaluate_loop(n, tr.span)
    traced_s = time.perf_counter() - started
    r.check("traced_equals_untraced", totals == reference)
    tr.counts["corpus.annotations_verified"] += verified
    values["trace.overhead_ratio"] = traced_s / untraced_s


def run(r: Run) -> None:
    """Fill ``r.metrics`` with every per-layer metric and write the spans."""
    tr = Tracer()
    values = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    values["kb.load_kb_s"] = r.setup.get("load_kb_s", 0.0)
    values["kb.load_genes_s"] = r.setup.get("load_genes_s", 0.0)
    if r.cfg["annotates"]:
        _traced_annotation(r, tr, values)
    else:
        _traced_evaluation(r, tr, values)
    total, own = tr.totals()
    for metric, span in _SELF.items():
        values[metric] = own.get(span, 0.0)
    for metric, span in _TOTAL.items():
        values[metric] = total.get(span, 0.0)
    for name, count in tr.counts.items():
        values[name] = count
    mentions = sum(tr.counts[f"recognizer.mentions.{label}"] for label in LABELS)
    if mentions:
        values["normalizer.unnormalized_share"] = (
            tr.counts["normalizer.ids.unnormalized"] / mentions
        )
    r.notes["normalizer.unnormalized_share"] = f"base: {mentions} mentions"
    r.notes["trace.overhead_ratio"] = "traced pass time over untraced pass time, same documents"
    tr.write(r.cfg["spans"])
    r.notes["spans"] = f"{len(tr.names)} spans written to {r.cfg['spans']}"
    r.metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
