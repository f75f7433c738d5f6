"""Once per distinct mention in a document.

The recognizer builds each distinct match text of a rule once per text,
and the annotator resolves each distinct (type, descriptor, identifier,
gene) once per document.  These tests hold both to the plain paths: every
rule's own ``finditer``, and one ``normalize`` per mention with grouping's
own KB lookups.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from varlex import (
    Annotation,
    Annotator,
    Document,
    MentionType,
    group_mentions,
    normalize,
    propagated_ids,
    resolve_gene_context,
    split_sentences,
)
from varlex.hgvs import GRAMMAR_RULES

from oracles import rule_candidates_oracle, scan_every_rule

# A look-around, a back-reference, a word boundary or an anchor: anything
# that reads past a match's own text.  A negated class ("[^x]") is caught
# too, which errs on the safe side.
_READS_OUTSIDE = re.compile(r"\(\?(?:=|!|<=|<!|P=)|\\(?:[1-9]|[bBAZ])|[\^$]")


def test_no_pattern_reads_outside_its_match():
    # The memo keyed by (scanner, match text) is sound only while a match's
    # groups, and so what its rule builds, follow from its text alone.  The
    # recognizer's guards look outside; the rules' patterns must not.
    for rule in GRAMMAR_RULES:
        for pattern in (rule.pattern, rule.scan_pattern or ""):
            assert _READS_OUTSIDE.search(pattern) is None, rule.name


# Surfaces to repeat: texts two rules both match and build differently
# ("A>T"), texts a neighbour can swallow into a longer match, a variant the
# KB knows under one gene only and one it knows under none, and builds that
# fail ("chr7:200-100" ends before it starts).
_REPEATED = [
    "V600E", "p.V600E", "V600", "V601E", "P799", "p.P799L", "A>T",
    "1799T>A", "c.1799T>A", "G12D", "rs113488022", "chr7:200-100",
    "c.200_100del", "10q11.12", "306 base pair insertion", "NM_004333.4",
]
# What may stand before a repeat: genes, fused or not, so equal surfaces get
# other ids, and prefixes that lengthen the match.
_BEFORE = [
    "", "", "BRAF ", "KRAS ", "TP53 ", "TRPV4 ", "BRAF", "KRAS", "c.", "p.",
    "1", "deletion of ",
]
# What may stand after one: suffixes that lengthen or break the match.
_AFTER = ["", "", "", " deletion", "A", ">T", "E", "/C", " of chr7:1-2"]
# Sentence breaks put the genes around repeats into other sentences.
_SEPS = [" ", "; ", ". ", ". The ", ", and "]


@st.composite
def _document(draw):
    surface = draw(st.sampled_from(_REPEATED))
    others = st.sampled_from(_REPEATED)
    parts = []
    for _ in range(draw(st.integers(2, 6))):
        before = draw(st.sampled_from(_BEFORE))
        after = draw(st.sampled_from(_AFTER))
        # Now and then another surface, so repeats interleave.
        middle = draw(st.sampled_from([surface] * 3 + [draw(others)]))
        parts.append(before + middle + after + draw(st.sampled_from(_SEPS)))
    return "".join(parts)


def _annotate_without_memos(annotator, doc):
    """``annotate_document`` rebuilt from exported calls: one scan, one
    gene context per mention, one ``normalize`` per mention, and grouping
    with its own KB lookups."""
    kb = annotator.kb
    text = doc.full_text
    mentions, genes = annotator.recognizer.scan_document(text, doc.doc_id)
    sentences = split_sentences(text)
    for m in mentions:
        m.gene_context = resolve_gene_context(m, genes, sentences)
    ids = [normalize(m, kb, policy=annotator.policy) for m in mentions]
    if annotator.group:
        ids = propagated_ids(mentions, ids, group_mentions(mentions, ids, kb))
    return Document(doc.doc_id, doc.title, doc.abstract, tuple(
        Annotation(
            m.start, m.end, m.text, m.mtype.label,
            m.identifier if m.mtype is MentionType.REFSEQ and m.identifier
            else nid.render(),
        )
        for m, nid in zip(mentions, ids)
    ))


@given(title=_document(), abstract=_document())
@settings(max_examples=300, deadline=None)
def test_memos_change_no_output(kb, lexicon, recognizer, title, abstract):
    doc = Document("d", title, abstract)
    text = doc.full_text
    candidates = [
        (c.start, c.end, c.mtype, c.built, c.components)
        for c in recognizer._rule_candidates(text, None)
    ]
    assert candidates == rule_candidates_oracle(text)
    assert recognizer.scan_document(text, "d") == scan_every_rule(
        text, lexicon, "d"
    )
    for group in (True, False):
        annotator = Annotator(kb=kb, lexicon=lexicon, group=group)
        assert annotator.annotate_document(doc) == _annotate_without_memos(
            annotator, doc
        )
