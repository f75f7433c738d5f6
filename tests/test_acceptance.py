"""End-to-end checks, one per advertised capability.

Each test prints a single verdict line even under pytest's capture so a
plain ``pytest tests/test_acceptance.py`` run reads as a checklist.  The
corpus-level score in criterion 8 is reported, not asserted: set
VARLEX_EVAL_CORPUS to score a real gold file instead of the bundled
sample.
"""

import dataclasses
import os
import random
import time

from varlex import (
    Annotator,
    Document,
    EvalMode,
    KnowledgeBase,
    NormalizationPolicy,
    Recognizer,
    canonical_string,
    classify_surface,
    evaluate,
    group_mentions,
    normalize,
    read_pubtator,
    read_pubtator_text,
    write_pubtator,
)
from varlex.hgvs import RegionDescriptor, region_string

import oracles
from conftest import data_path


def _verdict(capsys, number, description, check):
    try:
        check()
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    with capsys.disabled():
        print(f"[acceptance] criterion {number}: PASS - {description}")


# -- 1 ----------------------------------------------------------------------

CATALOG = [
    ("Rs763780", "SNP"),
    ("c.1976A>T", "DNAMutation"),
    ("1976A", "DNAAllele"),
    ("A>T", "DNAChange"),
    ("p.Gln659Leu", "ProteinMutation"),
    ("glutamine at codon 659", "ProteinAllele"),
    ("methionine to threonine", "ProteinChange"),
    ("306 base pair insertion", "OtherMutation"),
    ("Chr 15: 3,18,33,000-3,74,77,000bp deletion", "CopyNumberVariant"),
    ("NM_203475.1", "RefSeq"),
    ("10q11.12", "Chromosome"),
    ("Chr10: 46123781-51028772", "GenomicRegion"),
]


def test_criterion_1_recognition_catalog(recognizer, capsys):
    def check():
        for surface, label in CATALOG:
            text = f"The study reported {surface} in several probands."
            mentions = [m for m in recognizer.recognize(text)
                        if m.text == surface]
            assert len(mentions) == 1, (surface, recognizer.recognize(text))
            m = mentions[0]
            assert m.mtype.label == label, (surface, m.mtype.label)
            assert text[m.start: m.end] == surface

    _verdict(capsys, 1, "all twelve mention categories recognized with "
                        "exact spans", check)


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_composite_mentions(recognizer, kb, capsys):
    def check():
        text = "Tumours carrying BRAFV600E responded."
        mentions, genes = recognizer.scan_document(text)
        m = next(m for m in mentions if m.text == "V600E")
        assert m.gene_hint == "BRAF"
        assert m.mtype.label == "ProteinMutation"
        assert any(g.symbol == "BRAF" for g in genes)
        assert normalize(m, kb).render() == "CA123643"

        nl = "nine-nucleotide deletion starting at position 1952"
        got = recognizer.recognize(f"We found a {nl} in exon 19.")
        m2 = next(m for m in got if m.text == nl)
        assert m2.mtype.label == "OtherMutation"
        assert m2.descriptor.size == 9
        assert m2.descriptor.position == 1952

    _verdict(capsys, 2, "fused gene-variant tokens split and natural "
                        "language phrases parse", check)


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_normalization_fallback(recognizer, kb, capsys):
    def check():
        m = recognizer.recognize("the c.1799T>A variant")[0]
        m.gene_context = "BRAF"
        for policy, expected in [
            ("caid", "CA123643"),
            ("rs_allele", "rs113488022(T>A)"),
            ("rsid", "rs113488022"),
            ("gene", "BRAF: c.1799T>A"),
        ]:
            got = normalize(m, kb, policy=NormalizationPolicy.from_string(policy))
            assert got.render() == expected, (policy, got.render())
        m.gene_context = None
        bottom = normalize(m, KnowledgeBase(()))
        assert bottom.render() == "-"

    _verdict(capsys, 3, "identifier fallback chain yields the five exact "
                        "renderings", check)


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_within_document_grouping(kb, capsys):
    def check():
        rec = Recognizer(frozenset({"TRPV4"}))
        text = "TRPV4 P799L was typed; a distinct proband carried P799."
        mentions, genes = rec.scan_document(text)
        assert [m.text for m in mentions] == ["P799L", "P799"]
        for m in mentions:
            m.gene_context = "TRPV4"
        ids = [normalize(m, kb) for m in mentions]
        groups = group_mentions(mentions, ids, kb)
        assert len(groups) == 1
        assert groups[0].members == (0, 1)
        assert groups[0].group_id.render() == "rs121912637"
        assert [i.render() for i in ids] == ["rs121912637", "rs121912637"]

    _verdict(capsys, 4, "complete and incomplete forms of one variant "
                        "share a group and an identifier", check)


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_property_round_trips(kb, capsys):
    def check():
        rng = random.Random(424242)
        failures = []
        for _ in range(1000):
            d = oracles.random_descriptor(rng)
            if isinstance(d, RegionDescriptor):
                surface = region_string(d)
            else:
                surface = canonical_string(d)
            try:
                _, reparsed = classify_surface(surface)
            except Exception as exc:
                failures.append((surface, repr(exc)))
                continue
            if isinstance(reparsed, RegionDescriptor):
                again = region_string(reparsed)
            else:
                again = canonical_string(reparsed)
            if again != surface:
                failures.append((surface, again))
        assert not failures, failures[:5]

        surfaces = ["V600E", "V600K", "V600", "c.1799T>A", "1799T>A",
                    "1799T", "G12D", "G12", "P799L", "P799", "rs113488022",
                    "rs763780", "c.35G>A", "H161R", "R175H", "c.524G>A"]
        gene_pool = ["BRAF", "KRAS", "TP53", "TRPV4", "IL17F", None]
        rec = Recognizer()
        rows = [{"rsid": r.rsid, "ca": r.ca_id, "gene": r.gene,
                 "dna": r.dna_hgvs, "prot": r.protein_hgvs,
                 "ref": r.ref_allele, "alt": r.alt_allele}
                for r in kb.records]

        def reference_records(m):
            if m.identifier is not None:
                return {dataclasses.astuple(r)
                        for r in kb.lookup_rsid(m.identifier)}
            full = oracles.brute_force_lookup(rows, None, m.descriptor)
            gene = m.gene_context
            scoped = [t for t in full if t[2] == gene] if gene else []
            return set(scoped or full)

        for _ in range(25):
            picks = rng.choices(surfaces, k=rng.randint(2, 20))
            mentions = rec.recognize("; ".join(picks) + ".")
            ids = []
            for m in mentions:
                m.gene_context = rng.choice(gene_pool)
                ids.append(normalize(m, kb))
            got = [tuple(g.members)
                   for g in group_mentions(mentions, ids, kb)]
            sets = [reference_records(m) for m in mentions]
            pairs = set()
            n = len(mentions)
            for i in range(n):
                for j in range(i + 1, n):
                    a, b = mentions[i], mentions[j]
                    if ids[i].render() == ids[j].render() != "-":
                        pairs.add((i, j))
                    elif sets[i] & sets[j]:
                        pairs.add((i, j))
                    elif (a.descriptor is not None
                          and b.descriptor is not None
                          and oracles.prefix_compatible(a.descriptor,
                                                        b.descriptor)
                          and (a.gene_context is None
                               or b.gene_context is None
                               or a.gene_context == b.gene_context)):
                        pairs.add((i, j))
            want = oracles.closure_partition(
                n, lambda i, j: (i, j) in pairs or (j, i) in pairs)
            assert sorted(got) == sorted(want)

    _verdict(capsys, 5, "1000 canonical round trips clean and grouping "
                        "matches an independent closure", check)


# -- 6 ----------------------------------------------------------------------

def test_criterion_6_evaluation_arithmetic(capsys):
    def check():
        title = "V600E and G12D and R175H and H161R."
        gold_doc = Document("1", title, "", (
            _ann(title, "V600E"), _ann(title, "G12D"),
            _ann(title, "R175H"), _ann(title, "H161R"),
        ))
        pred_doc = Document("1", title, "", (
            _ann(title, "V600E"), _ann(title, "G12D"),
            _ann(title, "H161"),
        ))
        identity = evaluate([gold_doc], [gold_doc])
        assert (identity.precision, identity.recall, identity.f1) == (1, 1, 1)
        report = evaluate([gold_doc], [pred_doc])
        assert (report.tp, report.fp, report.fn) == (2, 1, 2)
        assert f"{report.precision:.4f}" == "0.6667"
        assert f"{report.recall:.4f}" == "0.5000"
        assert f"{report.f1:.4f}" == "0.5714"

    _verdict(capsys, 6, "micro-averaged scores match the worked example "
                        "to four decimals", check)


def _ann(title, surface):
    from varlex import Annotation
    start = title.index(surface)
    return Annotation(start, start + len(surface), surface,
                      "ProteinMutation")


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_corpus_round_trip(kb, lexicon, capsys):
    def check():
        rng = random.Random(7)
        annotator = Annotator(kb=kb, lexicon=lexicon)
        phrases = [
            "BRAF V600E was recurrent", "we found c.1799T>A",
            "carriers of rs113488022", "KRAS G12D dominated",
            "deletion of chr7:156583796-156584569", "the 10q11.12 band",
            "a 306 base pair insertion", "p.Gln659Leu segregated",
            "the βIII isoform was unaffected", "H161R (c.482A>G) was typed",
        ]
        docs = []
        for i in range(60):
            title = f"Synthetic record {i} on {rng.choice(phrases)}."
            body = ". ".join(rng.choice(phrases)
                             for _ in range(rng.randint(2, 6))) + "."
            docs.append(annotator.annotate_document(
                Document(f"d{i}", title, body)))
        text = write_pubtator(docs)
        assert write_pubtator(read_pubtator_text(text)) == text
        assert read_pubtator_text(text) == docs

    _verdict(capsys, 7, "60 annotated documents survive a byte-exact "
                        "round trip", check)


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_corpus_evaluation_harness(kb, lexicon, capsys):
    def check():
        path = os.environ.get("VARLEX_EVAL_CORPUS")
        source = path or data_path("sample_corpus.txt")
        gold = read_pubtator(source)
        assert gold, "evaluation corpus is empty"
        annotator = Annotator(kb=kb, lexicon=lexicon)
        bare = [Document(d.doc_id, d.title, d.abstract) for d in gold]
        predicted = annotator.annotate_all(bare)
        with capsys.disabled():
            origin = path or "bundled sample"
            print(f"[acceptance] criterion 8 report ({origin}, "
                  f"{len(gold)} documents)")
            for mode in EvalMode:
                r = evaluate(gold, predicted, mode)
                print(f"[acceptance]   {mode.value:>4}: "
                      f"TP={r.tp} FP={r.fp} FN={r.fn} "
                      f"P={r.precision:.4f} R={r.recall:.4f} "
                      f"F={r.f1:.4f}")

    _verdict(capsys, 8, "evaluation harness scores a gold corpus and "
                        "reports all three modes", check)


# -- 9 ----------------------------------------------------------------------

def _throughput_corpus(n_docs):
    rng = random.Random(99)
    sentences = [
        "BRAF V600E remained the most common event",
        "we confirmed c.1799T>A by Sanger sequencing",
        "rs113488022 was imputed with high confidence",
        "KRAS G12D co-occurred in two cases",
        "a 306 base pair insertion disrupted splicing",
        "the 10q11.12 band showed copy gain",
        "deletion of chr7:156583796-156584569 was focal",
        "no pathogenic variant was detected in controls",
        "expression of the mutant allele varied",
        "p.Gln659Leu was classified as likely pathogenic",
        "the cohort comprised archival specimens",
        "findings were replicated in an independent series",
    ]
    docs = []
    for i in range(n_docs):
        title = f"Synthetic abstract {i}."
        parts = []
        size = 0
        while size < 1400:
            s = rng.choice(sentences)
            parts.append(s)
            size += len(s) + 2
        abstract = ". ".join(parts) + "."
        docs.append(Document(f"t{i}", title, abstract))
    return docs


def test_criterion_9_throughput_and_thread_invariance(kb, lexicon, capsys):
    def check():
        annotator = Annotator(kb=kb, lexicon=lexicon)
        docs = _throughput_corpus(10_000)
        mean = sum(len(d.full_text.encode("utf-8")) for d in docs) / len(docs)
        assert 1200 <= mean <= 1800, mean
        started = time.perf_counter()
        annotated = annotator.annotate_all(docs, threads=1)
        elapsed = time.perf_counter() - started
        with capsys.disabled():
            print(f"[acceptance] criterion 9 timing: {len(docs)} documents "
                  f"in {elapsed:.1f}s single-threaded")
        assert elapsed < 60.0, elapsed
        assert sum(len(d.annotations) for d in annotated) > 10_000

        subset = docs[:1500]
        single = annotator.annotate_all(subset, threads=1)
        multi = annotator.annotate_all(subset, threads=4)
        assert write_pubtator(single) == write_pubtator(multi)

    _verdict(capsys, 9, "10,000 documents annotate in under a minute and "
                        "worker count never changes output", check)
