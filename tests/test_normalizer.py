import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varlex import (
    GeneMention,
    IdKind,
    KnowledgeBase,
    Mention,
    MentionType,
    NormalizationPolicy,
    NormalizedId,
    Recognizer,
    UNNORMALIZED,
    VariantRecord,
    candidate_records,
    classify_surface,
    normalize,
    resolve_gene_context,
    split_sentences,
)
from varlex.normalizer import gene_contexts

from oracles import brute_force_lookup, gene_context_oracle


def mention_for(recognizer, text, surface=None):
    mentions = recognizer.recognize(text)
    if surface is None:
        assert len(mentions) == 1, mentions
        return mentions[0]
    return next(m for m in mentions if m.text == surface)


def test_render_all_five_forms():
    assert NormalizedId(IdKind.CAID, ca="CA123643").render() == "CA123643"
    allele = NormalizedId(IdKind.RS_ALLELE, rsid="rs113488022", ref="T", alt="A")
    assert allele.render() == "rs113488022(T>A)"
    assert NormalizedId(IdKind.RSID, rsid="rs763780").render() == "rs763780"
    anchored = NormalizedId(IdKind.GENE_ANCHORED, gene="BRAF", hgvs="c.1799T>A")
    assert anchored.render() == "BRAF: c.1799T>A"
    assert UNNORMALIZED.render() == "-"


def test_policy_from_string():
    policy = NormalizationPolicy.from_string("rsid,gene")
    assert policy.order == (IdKind.RSID, IdKind.GENE_ANCHORED)
    dedup = NormalizationPolicy.from_string("caid, caid, rs_allele")
    assert dedup.order == (IdKind.CAID, IdKind.RS_ALLELE)
    with pytest.raises(ValueError):
        NormalizationPolicy.from_string("caid,bogus")
    with pytest.raises(ValueError, match="unknown policy tier ''"):
        NormalizationPolicy.from_string("")


def test_full_fallback_chain(recognizer, kb):
    m = mention_for(recognizer, "the c.1799T>A variant")
    outcomes = {
        "caid": "CA123643",
        "rs_allele": "rs113488022(T>A)",
        "rsid": "rs113488022",
        "gene": "BRAF: c.1799T>A",
    }
    m.gene_context = "BRAF"
    for name, expected in outcomes.items():
        policy = NormalizationPolicy.from_string(name)
        got = normalize(m, kb, policy=policy)
        assert got.render() == expected, name


def test_gene_is_read_from_the_mention_only(recognizer, kb):
    # A gene passed beside the mention could disagree with the one grouping
    # reads; the policy is keyword-only so a gene cannot bind to it.
    m = mention_for(recognizer, "the c.1799T>A variant")
    with pytest.raises(TypeError):
        normalize(m, kb, "BRAF")
    with pytest.raises(TypeError):
        normalize(m, kb, gene_context="BRAF")


def test_no_gene_no_match_is_unnormalized(recognizer):
    empty = KnowledgeBase(())
    m = mention_for(recognizer, "the c.1799T>A variant")
    assert normalize(m, empty) is UNNORMALIZED
    assert normalize(m, empty).render() == "-"


def test_gene_anchor_without_kb_rows(recognizer):
    empty = KnowledgeBase(())
    m = mention_for(recognizer, "the c.1799T>A variant")
    m.gene_context = "BRAF"
    got = normalize(m, empty)
    assert got.kind is IdKind.GENE_ANCHORED
    assert got.render() == "BRAF: c.1799T>A"


def test_snp_mention_normalizes_directly(recognizer, kb):
    m = mention_for(recognizer, "carriers of rs113488022 were excluded")
    got = normalize(m, kb)
    assert got.kind is IdKind.RSID
    assert got.render() == "rs113488022"


def test_incomplete_mention_stops_at_rsid(recognizer, kb):
    # P799 has no alternate allele, so allele-level ids are out of reach.
    m = mention_for(recognizer, "a change at P799 was seen", "P799")
    m.gene_context = "TRPV4"
    got = normalize(m, kb)
    assert got.kind is IdKind.RSID
    assert got.render() == "rs121912637"


def test_incomplete_mention_never_gets_caid():
    kb = KnowledgeBase((
        VariantRecord("", "CA9", "TP53", "", "p.R175H", "", ""),
    ))
    rec = Recognizer(frozenset({"TP53"}))
    m = mention_for(rec, "residue R175 was altered", "R175")
    m.gene_context = "TP53"
    got = normalize(m, kb)
    assert got.kind is IdKind.GENE_ANCHORED
    assert got.render() == "TP53: p.R175"


def test_gene_context_narrows_candidates(kb):
    rec = Recognizer(frozenset({"BRAF", "KRAS"}))
    m = mention_for(rec, "we saw V600E in tumours", "V600E")
    m.gene_context = "BRAF"
    braf = normalize(m, kb)
    assert braf.render() == "CA123643"
    # KRAS has no V600E row; the global index still finds the BRAF row and
    # nothing contradicts it, so the id survives gene mismatch.
    m.gene_context = "KRAS"
    kras = normalize(m, kb)
    assert kras.render() == "CA123643"


def test_ambiguity_flag_when_two_genes_share_surface():
    kb = KnowledgeBase((
        VariantRecord("rs1", "CA1", "GENEA", "", "p.V600E", "", ""),
        VariantRecord("rs2", "CA2", "GENEB", "", "p.V600E", "", ""),
    ))
    rec = Recognizer()
    m = mention_for(rec, "the V600E variant")
    got = normalize(m, kb)
    assert got.ambiguous
    assert got.kind is IdKind.CAID
    # Gene context collapses the ambiguity.
    m.gene_context = "GENEB"
    scoped = normalize(m, kb)
    assert not scoped.ambiguous
    assert scoped.render() == "CA2"


# Small KBs in which one DNA or protein string is named by several genes,
# and rows repeat: a few rows drawn, then drawn from again.
_SHARED_ROW = st.tuples(
    st.sampled_from(["", "rs2", "rs10"]),
    st.sampled_from(["", "CA1", "CA2"]),
    st.sampled_from(["G1", "G2", "G3"]),
    st.sampled_from(["", "c.1A>T", "c.2del"]),
    st.sampled_from(["", "p.K1N", "p.K1L", "p.V600E"]),
    st.sampled_from(["", "A"]),
    st.sampled_from(["", "T"]),
)
_SHARED_KB = st.lists(_SHARED_ROW, min_size=1, max_size=6).flatmap(
    lambda base: st.lists(st.sampled_from(base), min_size=1, max_size=12)
)
_FIELDS = ("rsid", "ca", "gene", "dna", "prot", "ref", "alt")


@given(_SHARED_KB)
@example([
    ("rs2", "CA1", "G1", "c.1A>T", "p.K1N", "A", "T"),
    ("rs10", "CA2", "G2", "c.1A>T", "p.K1L", "A", "T"),
])
@settings(max_examples=300, deadline=None)
def test_candidate_records_scope_to_the_gene_else_fall_back(rows):
    kb = KnowledgeBase([VariantRecord(*row) for row in rows])
    raw = [dict(zip(_FIELDS, row)) for row in rows]
    for surface in ("c.1A>T", "c.2del", "c.3G>C", "p.K1N", "p.K1", "p.V600E",
                    "p.V600"):
        descriptor = classify_surface(surface)[1]
        for gene in (None, "", "G1", "G2", "G4"):
            scoped = brute_force_lookup(raw, gene, descriptor) if gene else []
            want = scoped or brute_force_lookup(raw, None, descriptor)
            got = candidate_records(kb, gene, descriptor)
            assert [dataclasses.astuple(r) for r in got] == want, (surface, gene)


def test_mention_gene_hint_feeds_normalization(recognizer, kb):
    m = mention_for(recognizer, "tumours with BRAFV600E recurred", "V600E")
    assert m.gene_hint == "BRAF"
    assert normalize(m, kb).render() == "CA123643"


def test_identifier_mentions_other_than_snp_stay_unnormalized(recognizer, kb):
    m = mention_for(recognizer, "transcript NM_203475.1 was used")
    assert normalize(m, kb) is UNNORMALIZED


def test_region_mentions_stay_unnormalized(recognizer, kb):
    m = mention_for(recognizer, "band 10q11.12 was amplified")
    assert normalize(m, kb) is UNNORMALIZED


# Gene context resolution.

def byte_sentences(text):
    return split_sentences(text)


def test_hint_beats_everything(recognizer):
    text = "KRAS study: BRAFV600E was found."
    mentions, genes = recognizer.scan_document(text)
    m = next(m for m in mentions if m.text == "V600E")
    assert resolve_gene_context(m, genes, byte_sentences(text)) == "BRAF"


def test_same_sentence_nearest_wins(recognizer):
    text = ("EGFR was wild type. KRAS carried G12D and far downstream "
            "sat TP53. BRAF was next.")
    mentions, genes = recognizer.scan_document(text)
    m = next(m for m in mentions if m.text == "G12D")
    # KRAS and TP53 share the sentence; KRAS midpoint is closer.
    assert resolve_gene_context(m, genes, byte_sentences(text)) == "KRAS"


def test_same_sentence_tie_prefers_earlier(recognizer):
    text = "KRAS and EGFR G12D KRAS and EGFR."
    mentions, genes = recognizer.scan_document(text)
    m = next(m for m in mentions if m.text == "G12D")
    got = resolve_gene_context(m, genes, byte_sentences(text))
    assert got in {g.symbol for g in genes}
    # Distances are symmetric here, so the earlier mention must win.
    before = [g for g in genes if g.end <= m.start]
    assert got == before[-1].symbol or got == before[0].symbol


def test_preceding_gene_used_when_sentence_has_none(recognizer):
    text = "BRAF was sequenced in all samples. The V600E change recurred."
    mentions, genes = recognizer.scan_document(text)
    m = next(m for m in mentions if m.text == "V600E")
    assert resolve_gene_context(m, genes, byte_sentences(text)) == "BRAF"


def test_no_genes_resolves_to_none(recognizer):
    text = "The V600E change recurred."
    mentions, genes = recognizer.scan_document(text)
    m = mentions[0]
    assert genes == []
    assert resolve_gene_context(m, genes, byte_sentences(text)) is None


def test_following_gene_never_used(recognizer):
    text = "The V600E change recurred. BRAF was sequenced later."
    mentions, genes = recognizer.scan_document(text)
    m = next(m for m in mentions if m.text == "V600E")
    assert resolve_gene_context(m, genes, byte_sentences(text)) is None


def test_sentences_default_is_whole_text(recognizer):
    text = "The V600E change recurred. BRAF was sequenced later."
    mentions, genes = recognizer.scan_document(text)
    m = next(m for m in mentions if m.text == "V600E")
    # Without sentence spans everything shares one sentence, so the later
    # BRAF becomes eligible.
    assert resolve_gene_context(m, genes) == "BRAF"


def test_gene_ending_where_the_mention_starts_precedes_it():
    # The gene's sentence is not the mention's, so it can only count as the
    # gene before the mention.
    m = Mention("d", 10, 15, "V600E", MentionType.PROTEIN_MUTATION)
    genes = [GeneMention("BRAF", 6, 10)]
    assert gene_contexts([m], genes, [(0, 9), (9, 20)]) == ["BRAF"]


# Lexicon genes, fused forms, variant surfaces, sentence breaks and
# non-ASCII filler.  Four-letter genes around five-character variants put
# two genes at the same distance ("BRAF V600E KRAS").
_CONTEXT_PIECES = [
    "BRAF", "KRAS", "TP53", "EGFR", "BRAFV600E", "KRASG12D", "V600E", "G12D",
    "p.V600", "c.1799T>A", "rs113488022", ". The", ". Then", "and", "же",
    "β", "碱基", " ",
]


@given(st.lists(st.tuples(st.sampled_from(_CONTEXT_PIECES),
                          st.sampled_from(["", " ", ". ", "; "])),
                max_size=16))
@example([("BRAF", " "), ("V600E", " "), ("KRAS", ".")])
@example([("KRAS", " "), ("and", " "), ("EGFR", " "), ("G12D", " "),
          ("KRAS", " "), ("and", " "), ("EGFR", ". ")])
@settings(max_examples=300, deadline=None)
def test_gene_contexts_match_list_scan_oracle(recognizer, pieces):
    text = "".join(piece + sep for piece, sep in pieces)
    mentions, genes = recognizer.scan_document(text)
    sentences = split_sentences(text)
    # Every other sentence leaves mentions that no sentence holds.
    for spans in (sentences, None, sentences[::2]):
        want = [gene_context_oracle(m, genes, spans) for m in mentions]
        assert gene_contexts(mentions, genes, spans) == want, (text, spans)
        assert [resolve_gene_context(m, genes, spans) for m in mentions] == want
