import gc
import random
import re
import statistics
import string
import sys
import time
import unicodedata
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varlex import (
    Annotator,
    ComponentRole,
    EditKind,
    GeneMention,
    MentionType,
    ParseFailure,
    Recognizer,
    RegionKind,
    classify_surface,
    split_gene_fused,
)
from varlex.hgvs import GRAMMAR_RULES, _SPACES, fold
from varlex.recognizer import (
    _NL_TYPES,
    _REGION_TYPES,
    _Candidate,
    _expanded,
    _letter_digit_runs,
    _present_triggers,
)

from oracles import (
    arbitrate,
    lexicon_runs,
    rule_candidates_oracle,
    scan_every_rule,
)

MT = MentionType


def spans(mentions):
    return [(m.text, m.mtype.label) for m in mentions]


def find_one(mentions, text):
    hits = [m for m in mentions if m.text == text]
    assert len(hits) == 1, f"{text!r}: {spans(mentions)}"
    return hits[0]


@pytest.mark.parametrize("surface,label", [
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
])
def test_each_surface_found_with_exact_span(recognizer, surface, label):
    text = f"Background sentence mentions {surface} in passing."
    mentions = recognizer.recognize(text)
    m = find_one(mentions, surface)
    assert m.mtype.label == label
    assert text[m.start: m.end] == surface
    assert m.start == text.index(surface)


def test_results_sorted_and_non_overlapping(recognizer):
    text = ("BRAF V600E and c.1799T>A, also rs113488022 near 10q11.12 "
            "plus a nine nucleotide deletion at position 1952.")
    mentions = recognizer.recognize(text)
    assert len(mentions) >= 4
    for a, b in zip(mentions, mentions[1:]):
        assert a.start < b.start
        assert a.end <= b.start


def test_longest_candidate_wins(recognizer):
    # "1799T" alone is a DNA allele, but the full substitution swallows it.
    mentions = recognizer.recognize("the c.1799T>A variant")
    assert spans(mentions) == [("c.1799T>A", "DNAMutation")]


def test_type_priority_breaks_exact_ties(recognizer):
    # A>T reads as either a nucleotide or residue change; nucleotides win.
    mentions = recognizer.recognize("an A>T transversion")
    assert spans(mentions) == [("A>T", "DNAChange")]


def test_word_boundaries_guard_matches(recognizer):
    assert recognizer.recognize("TRS763780X") == []
    assert recognizer.recognize("prefix1976Asuffix") == []
    # Flanking letters block the full substitution; the inner allele still
    # stands because "." and ">" are legal boundaries for it.
    leftovers = recognizer.recognize("xxc.1799T>Ayy")
    assert spans(leftovers) == [("1799T", "DNAAllele")]


def test_components_cover_sub_spans(recognizer):
    text = "we found c.1799T>A here"
    m = recognizer.recognize(text)[0]
    comps = m.components
    pos = comps[ComponentRole.POSITION]
    wt = comps[ComponentRole.WILDTYPE]
    mt = comps[ComponentRole.MUTANT]
    assert text[pos[0]:pos[1]] == "1799"
    assert text[wt[0]:wt[1]] == "T"
    assert text[mt[0]:mt[1]] == "A"
    for s, e in comps.values():
        assert m.start <= s < e <= m.end


@pytest.mark.parametrize("surface,wt,pos,mt", [
    ("p.Gln659Leu", "Gln", "659", "Leu"),
    ("p.Val600fs", "Val", "600", None),
    ("p.Val600del", "Val", "600", None),
])
def test_protein_components(recognizer, surface, wt, pos, mt):
    text = f"carrying {surface} today"
    m = recognizer.recognize(text)[0]
    parts = {role: text[s:e] for role, (s, e) in m.components.items()}
    expected = {ComponentRole.WILDTYPE: wt, ComponentRole.POSITION: pos}
    if mt is not None:
        expected[ComponentRole.MUTANT] = mt
    assert parts == expected


def test_fused_gene_token_splits(recognizer):
    text = "The BRAFV600E mutation was common."
    mentions = recognizer.recognize(text)
    m = find_one(mentions, "V600E")
    assert m.mtype is MT.PROTEIN_MUTATION
    assert m.gene_hint == "BRAF"
    assert text[m.start: m.end] == "V600E"
    genes = recognizer.find_gene_mentions(text)
    assert GeneMention("BRAF", 4, 8) in genes


def test_fused_split_prefers_longest_gene():
    lexicon = frozenset({"BRAF", "BRAFV"})
    # BRAFV is also a listed symbol, but the remainder "600E" is not a
    # variant, so the split backtracks to BRAF.
    result = split_gene_fused("BRAFV600E", lexicon)
    assert result is not None
    gene, descriptor, cut = result
    assert gene == "BRAF"
    assert cut == 4
    assert descriptor.position == 600


def test_fused_split_reaches_the_longest_symbol():
    # Cuts start at the longest symbol's length, so a gene of exactly that
    # length is the first prefix tried.
    gene, _, cut = split_gene_fused("BRAFV600E", frozenset({"BRAF"}))
    assert (gene, cut) == ("BRAF", 4)


def test_fused_split_is_case_sensitive(recognizer):
    assert split_gene_fused("brafV600E", recognizer.lexicon) is None
    assert recognizer.recognize("brafV600E") == []


def test_fused_split_requires_variant_tail():
    lexicon = frozenset({"BRAF"})
    assert split_gene_fused("BRAFFY12", lexicon) is None


def test_unlisted_prefix_does_not_split(recognizer):
    assert recognizer.recognize("XYZV600E") == []


def test_gene_mentions_found_by_exact_match(recognizer):
    text = "BRAF and KRAS but not braf or KRAS2"
    symbols = [g.symbol for g in recognizer.find_gene_mentions(text)]
    assert symbols == ["BRAF", "KRAS"]


def test_no_lexicon_means_no_genes_and_no_splits():
    bare = Recognizer()
    assert bare.find_gene_mentions("BRAF V600E") == []
    assert [m.text for m in bare.recognize("BRAFV600E text")] == []
    assert [m.text for m in bare.recognize("BRAF V600E text")] == ["V600E"]


def test_digit_grouping_commas_stay_inside_numbers():
    # A run absorbs a comma only between two digits: "3,18,33,000" is one
    # run, so no symbol inside it is a gene, while the comma after "1,000"
    # has no digit on its right and leaves "18" a run of its own.
    recognizer = Recognizer(frozenset({"18", "33"}))
    assert recognizer.find_gene_mentions("3,18,33,000") == []
    assert recognizer.find_gene_mentions("1,000, 18") == [GeneMention("18", 7, 9)]


class _CountingLexicon(frozenset):
    """A lexicon that counts the comparisons made against it."""

    eq_calls = 0
    __hash__ = frozenset.__hash__

    def __eq__(self, other):
        _CountingLexicon.eq_calls += 1
        return frozenset.__eq__(self, other)


_FUSED_TEXT = "BRAFV600E and X12Y, KRASG12D or Q61K9 " * 50


def test_equal_lexicons_are_never_compared():
    symbols = ["BRAF", "KRAS", "NRAS"]
    first, second = _CountingLexicon(symbols), _CountingLexicon(symbols)
    assert first == second and first is not second
    _CountingLexicon.eq_calls = 0
    for lexicon in (first, second, first):
        genes = Recognizer(lexicon).find_gene_mentions(_FUSED_TEXT)
        assert [g.symbol for g in genes[:2]] == ["BRAF", "KRAS"]
    assert _CountingLexicon.eq_calls == 0


class _Lexicon(frozenset):
    """A lexicon that a weak reference can point to."""


def test_a_scan_keeps_no_lexicon_alive():
    lexicon = _Lexicon({"BRAF", "KRAS"})
    recognizer = Recognizer(lexicon)
    assert recognizer.recognize(_FUSED_TEXT)
    ref = weakref.ref(lexicon)
    del recognizer, lexicon
    gc.collect()
    assert ref() is None


def test_a_second_equal_lexicon_splits_fast():
    # A process may load its gene file twice; the second, equal lexicon
    # must split fused runs as fast as the first.
    first = frozenset(_gene_symbol(i) for i in range(20_000))
    second = frozenset(list(first))
    assert first == second and first is not second
    text = " ".join(f"X{i}Y" for i in range(20_000))
    assert Recognizer(first).find_gene_mentions(text) == []
    recognizer = Recognizer(second)
    started = time.perf_counter()
    assert recognizer.find_gene_mentions(text) == []
    assert time.perf_counter() - started < 1.0


def test_natural_language_subset(recognizer):
    text = "a nine-nucleotide deletion starting at position 1952 appeared"
    mentions = recognizer.recognize_natural_language(text)
    m = find_one(mentions, "nine-nucleotide deletion starting at position 1952")
    assert m.mtype is MT.OTHER_MUTATION
    assert m.descriptor.size == 9
    assert m.descriptor.position == 1952
    assert m.descriptor.edit_kind is EditKind.DELETION


def test_natural_language_case_insensitive(recognizer):
    mentions = recognizer.recognize_natural_language(
        "Nine Nucleotide Deletion and a GLUTAMINE AT CODON 659 site"
    )
    labels = sorted(m.mtype.label for m in mentions)
    assert labels == ["OtherMutation", "ProteinAllele"]


def test_region_subset(recognizer):
    text = "loci at 5q33 and chr7:156583796-156584569 were deleted"
    mentions = recognizer.recognize_region(text)
    assert [m.mtype for m in mentions] == [MT.CHROMOSOME, MT.GENOMIC_REGION]


def test_region_subset_skips_other_types(recognizer):
    assert recognizer.recognize_region("V600E and rs113488022") == []


def test_cnv_swallows_inner_region(recognizer):
    text = "a Chr 15: 3,18,33,000-3,74,77,000bp deletion event"
    mentions = recognizer.recognize(text)
    assert spans(mentions) == [
        ("Chr 15: 3,18,33,000-3,74,77,000bp deletion", "CopyNumberVariant"),
    ]
    d = mentions[0].descriptor
    assert (d.start_bp, d.end_bp) == (31833000, 37477000)
    assert d.kind is RegionKind.CNV_DEL


@pytest.mark.parametrize("head", ["chr1", "chr1:1-2", "chromosome 1"])
def test_region_head_before_long_whitespace_is_fast(recognizer, head):
    # A CNV pattern with two adjacent optional-whitespace runs once
    # backtracked quadratically here: 6 s for these 20,000 spaces.
    text = head + " " * 20_000
    started = time.perf_counter()
    recognizer.recognize(text)
    assert time.perf_counter() - started < 1.0


def test_rs_identifier_lowercased(recognizer):
    for surface in ("rs113488022", "Rs113488022", "RS113488022"):
        m = recognizer.recognize(f"see {surface} here")[0]
        assert m.identifier == "rs113488022"


def test_refseq_is_case_sensitive(recognizer):
    assert recognizer.recognize("nm_203475.1") == []
    m = recognizer.recognize("NM_203475.1")[0]
    assert m.identifier == "NM_203475.1"


def test_offsets_are_bytes_with_multibyte_text(recognizer):
    text = "β-globin碱基 c.20A>T variant"
    mentions = recognizer.recognize(text)
    m = find_one(mentions, "c.20A>T")
    assert text.encode()[m.start: m.end].decode() == "c.20A>T"
    assert m.start == text.encode("utf-8").index(b"c.20A>T")


def test_reversed_cnv_coordinates_dropped(recognizer):
    assert recognizer.recognize("a chr7:500-100 deletion here") in ([],)


def test_determinism_across_instances(lexicon):
    text = ("KRAS G12D with c.35G>A and rs121913529; also BRAFV600E, "
            "10q11.12, plus methionine to threonine at codon 3.")
    first = Recognizer(lexicon).recognize(text)
    second = Recognizer(lexicon).recognize(text)
    assert first == second


def test_scan_document_matches_separate_calls(recognizer):
    text = "BRAF V600E and KRASG12D were assayed."
    mentions, genes = recognizer.scan_document(text)
    assert mentions == recognizer.recognize(text)
    assert genes == recognizer.find_gene_mentions(text)


def test_randomized_output_invariants(recognizer):
    rng = random.Random(11)
    snippets = [
        "V600E", "c.1799T>A", "rs113488022", "BRAFV600E", "1976A", "A>T",
        "p.P799", "NM_203475.1", "10q11.12", "Chr10: 46123781-51028772",
        "306 base pair insertion", "plain words", "BRAF", "and же",
    ]
    for _ in range(40):
        text = " ".join(rng.choices(snippets, k=rng.randint(1, 12)))
        mentions = recognizer.recognize(text)
        for a, b in zip(mentions, mentions[1:]):
            assert a.end <= b.start
        for m in mentions:
            assert text.encode()[m.start: m.end].decode() == m.text
            assert (m.descriptor is None) != (m.identifier is None)


@pytest.mark.parametrize(
    "odd,plain",
    [
        ("ſerine to alanine", "serine to alanine"),
        ("İsoleucine at codon 12", "Isoleucine at codon 12"),
        ("cytoſine to adenine", "cytosine to adenine"),
        ("ſix base pair deletion", "six base pair deletion"),
        ("6 base pair deletıon", "6 base pair deletion"),
    ],
)
def test_characters_that_fold_to_ascii_read_like_ascii(
    recognizer, annotator, odd, plain
):
    # re.IGNORECASE matches these spellings, so the builders must read them.
    (a,), (b,) = recognizer.recognize(odd), recognizer.recognize(plain)
    assert a.text == odd
    assert (a.mtype, a.descriptor) == (b.mtype, b.descriptor)
    ids = [
        [x.norm_id for x in annotator.annotate_text(t).annotations]
        for t in (odd, plain)
    ]
    assert ids[0] == ids[1]


_TRIGGERED_RULES = [r for r in GRAMMAR_RULES if r.scan and r.triggers]


@pytest.mark.parametrize("rule", _TRIGGERED_RULES, ids=lambda r: r.name)
@given(data=st.data())
@settings(deadline=None)
def test_every_scan_match_holds_a_trigger(rule, data):
    pattern = re.compile(rule.scan_pattern or rule.pattern, rule.flags)
    surface = data.draw(st.from_regex(pattern, fullmatch=True))
    haystack = fold(surface) if rule.flags & re.IGNORECASE else surface
    assert any(t in haystack for t in rule.triggers), (rule.name, surface)


_SCANNED_RULES = [r for r in GRAMMAR_RULES if r.scan]


@pytest.mark.parametrize("rule", _SCANNED_RULES, ids=lambda r: r.name)
@given(data=st.data())
@settings(deadline=None)
def test_every_scan_match_begins_with_a_start(rule, data):
    pattern = re.compile(rule.scan_pattern or rule.pattern, rule.flags)
    surface = data.draw(st.from_regex(pattern, fullmatch=True))
    assert surface[0] in _expanded(rule.starts, rule.flags), (rule.name, surface)


def test_expanded_starts_are_every_ignorecase_spelling():
    # from_regex makes case variants with swapcase() only, so it never
    # draws the four non-ASCII letters re.IGNORECASE matches to ASCII ones.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    folding = [r for r in _SCANNED_RULES if r.flags & re.IGNORECASE]
    assert folding
    for rule in folding:
        assert rule.starts == rule.starts.lower(), rule.name
        declared = re.compile("[%s]" % re.escape(rule.starts), re.IGNORECASE)
        spellings = set(declared.findall(every))
        assert spellings == set(_expanded(rule.starts, rule.flags)), rule.name


@pytest.mark.parametrize("rule", _SCANNED_RULES, ids=lambda r: r.name)
@given(data=st.data())
@settings(deadline=None)
def test_every_scan_match_has_a_second_from_its_seconds(rule, data):
    pattern = re.compile(rule.scan_pattern or rule.pattern, rule.flags)
    surface = data.draw(st.from_regex(pattern, fullmatch=True))
    assert len(surface) >= 2, (rule.name, surface)
    assert surface[1] in _expanded(rule.seconds, rule.flags), (rule.name, surface)


def test_expanded_seconds_are_every_spelling():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    # A \s second is declared as _SPACES, so it must be all \s matches.
    assert set(re.findall(r"\s", every)) == set(_SPACES)
    for rule in _SCANNED_RULES:
        assert rule.seconds, rule.name
        if rule.flags & re.IGNORECASE:
            assert rule.seconds == rule.seconds.lower(), rule.name
        declared = re.compile("[%s]" % re.escape(rule.seconds), rule.flags)
        spellings = set(declared.findall(every))
        assert spellings == set(_expanded(rule.seconds, rule.flags)), rule.name


# Trigger literals, texts where they overlap or nest ("Thr." holds "Thr"
# and "r.", "isoleucine" holds "leucine", "-->" holds ">"), upper-case
# spellings, and the four characters that fold to ASCII letters.
_TRIGGER_PIECES = sorted({
    t for rule in _SCANNED_RULES for t in rule.triggers
}) + [
    "Thr.", "rs.", "chromosome", "chr", "CHR", "Chromosome", "deletion",
    "del", "DEL", "-->", "isoleucine", "phenylalanine", "NM_", "p.V",
    "İ", "ı", "ſ", "\u212a", "İsoleucine", "ſerine", "\u212aIT", "β", "x",
]


@given(st.lists(st.tuples(st.sampled_from(_TRIGGER_PIECES),
                          st.sampled_from(["", "", " ", ".", "s"])),
                max_size=10))
@settings(max_examples=300, deadline=None)
def test_trigger_gate_finds_exactly_the_triggers_present(recognizer, pieces):
    text = "".join(piece + sep for piece, sep in pieces)
    kinds = list(zip(recognizer._trigger_finders, (text, fold(text))))
    for (finder, prefixes), haystack in kinds:
        want = {t for t in prefixes if t in haystack}
        assert _present_triggers(finder, prefixes, haystack) == want
    # The two kinds together hold every trigger of every scanned rule.
    folding = {
        t for r in _SCANNED_RULES if r.flags & re.IGNORECASE for t in r.triggers
    }
    raw = {t for r in _SCANNED_RULES if not r.flags & re.IGNORECASE
           for t in r.triggers}
    assert [set(p) for _, p in recognizer._trigger_finders] == [raw, folding]


def _alnum_letter_digit_runs(text):
    return [
        run for run, _, _ in lexicon_runs(text)
        if run.isalnum() and not run.isalpha() and not run.isdigit()
    ]


@pytest.mark.parametrize("text,runs", [
    ("1,2A3", []),
    ("A1,2", []),
    ("A1, 2B", ["A1", "2B"]),
    ("x,1B", ["1B"]),
    ("BRAFV600E and 3,18 or TP53", ["BRAFV600E", "TP53"]),
    ("éA1 Б2b ٣C a١", ["A1", "2b"]),
    # A run touching a digit of another script is none.
    ("BRAFV600E٢ ٢A1 x1,2٣B4 1٣,2B", ["2B"]),
])
def test_letter_digit_runs_examples(text, runs):
    assert _letter_digit_runs(text) == runs == _alnum_letter_digit_runs(text)


@given(st.text(alphabet="aZ09,,  .é٣Б_-", max_size=40))
@settings(max_examples=500, deadline=None)
def test_letter_digit_runs_are_the_mixed_alnum_runs(text):
    assert _letter_digit_runs(text) == _alnum_letter_digit_runs(text)


# Gene symbols (with and without digits), fused tokens that split and that
# do not, and digit-grouping commas; none is a rule candidate.
_GENE_PIECES = [
    "BRAF", "TP53", "TRPV4", "IL17F", "BRAFV600E", "KRASG12D", "TP53R175H",
    "BRAFX1", "braf", "X12Y", "1,2", "BRAF1,2", "é", "٣", "the",
]


@given(st.lists(st.tuples(st.sampled_from(_GENE_PIECES),
                          st.sampled_from(["", " ", ", "])),
                max_size=8))
@settings(max_examples=300, deadline=None)
def test_texts_without_a_rule_candidate_keep_every_gene(
    recognizer, lexicon, pieces
):
    text = "".join(piece + sep for piece, sep in pieces)
    if recognizer._rule_candidates(text, None):
        return
    mentions, genes = scan_every_rule(text, lexicon)
    assert recognizer.scan_document(text) == (mentions, genes)
    assert recognizer.find_gene_mentions(text) == genes
    scanned = recognizer._scan_document(text, "")
    if mentions:
        assert scanned[:2] == (mentions, genes)
    else:
        assert scanned == ([], [], None)


# Surfaces of every scanned rule, the four characters that fold to ASCII
# letters, and non-ASCII filler.  An empty separator lets pieces fuse.
_PIECES = [
    "rs113488022", "RS12", "NM_203475.1", "c.1799T>A", "1799T/A",
    "c.35_36delGA", "1976A", "A>T", "G/C", "adenine to guanine",
    "CYTOſINE to thymine", "V600E", "p.Val600Glu", "Val600fs", "V600del",
    "p.Gln659", "p.V600", "A1976", "glutamine at codon 659",
    "İsoleucine at residue 12", "serine to alanine", "ſerine to ALANINE",
    "Ala to Gly", "V>E", "306 base pair insertion", "ſix base pair deletıon",
    "chr7:156583796-156584569 deletion", "deletion of chr7:1-2",
    "Chr10: 46123781-51028772", "10q11.12", "chromosome 7 q 31",
    "BRAF", "BRAFV600E", "KRAS", "ſ", "ı", "İ", "K", "же", "β", "→", "–",
    "碱基", "to", "at",
]


@given(st.lists(st.tuples(st.sampled_from(_PIECES),
                          st.sampled_from(["", " ", "; ", "\u00a0"])),
                max_size=12))
@settings(max_examples=300, deadline=None)
def test_scan_matches_every_rule_oracle(recognizer, lexicon, pieces):
    text = "".join(piece + sep for piece, sep in pieces)
    assert recognizer.scan_document(text, "d") == scan_every_rule(
        text, lexicon, "d"
    )


# Texts that work the word-start pass at its edges, with candidates each
# must yield: a match after a digit-grouping comma; a word start inside a
# match, which finditer skips ("T>C" is not a candidate); a match starting
# where another ends (under the guards, never where the same rule's last
# match ends); fold characters at word starts; non-ASCII digits, which no
# rule reads and none of whose neighbours a mention may touch.
_EDGE_CASES = {
    "1,234A": [(MT.DNA_ALLELE, "234A")],
    "A>T>C": [(MT.DNA_CHANGE, "A>T"), (MT.PROTEIN_CHANGE, "A>T")],
    "V600*ſix base pair deletion": [
        (MT.PROTEIN_MUTATION, "V600*"),
        (MT.PROTEIN_ALLELE, "V600"),
        (MT.OTHER_MUTATION, "ſix base pair deletion"),
    ],
    "İsoleucine at codon 12": [
        (MT.PROTEIN_ALLELE, "İsoleucine at codon 12"),
    ],
    "\u212aIT and ſerine to alanine": [
        (MT.PROTEIN_CHANGE, "ſerine to alanine"),
    ],
    "٣ base pair deletion": [],
    "a ١٢-bp insertion": [],
    # A non-ASCII digit or space as the second character.
    "1٢A": [],
    "A\u2003>\u2003T": [
        (MT.DNA_CHANGE, "A\u2003>\u2003T"),
        (MT.PROTEIN_CHANGE, "A\u2003>\u2003T"),
    ],
    "rs1٢ rs12": [(MT.SNP, "rs12")],
    "٢V600E": [],
    "V600E٢": [],
    "c.1٢A>T and V600E": [(MT.PROTEIN_MUTATION, "V600E")],
    # Nor may the lexicon pass split a run touching one.
    "BRAFV600E٢": [],
    "٢BRAFV600E": [],
}
_TYPE_SETS = {"all": None, "nl": _NL_TYPES, "region": _REGION_TYPES}


def _candidate_tuples(recognizer, text, types):
    return [
        (c.start, c.end, c.mtype, c.built, c.components)
        for c in recognizer._rule_candidates(text, types)
    ]


@pytest.mark.parametrize("types", _TYPE_SETS.values(), ids=list(_TYPE_SETS))
@pytest.mark.parametrize("text", _EDGE_CASES)
def test_rule_candidates_edge_cases_match_the_oracle(recognizer, text, types):
    got = _candidate_tuples(recognizer, text, types)
    assert got == rule_candidates_oracle(text, types)
    assert [(c[2], text[c[0]:c[1]]) for c in got] == [
        (mtype, surface)
        for mtype, surface in _EDGE_CASES[text]
        if types is None or mtype in types
    ]


@pytest.mark.parametrize("text", _EDGE_CASES)
def test_edge_cases_with_a_lexicon_match_the_oracle(recognizer, lexicon, text):
    assert recognizer.scan_document(text) == scan_every_rule(text, lexicon)


def test_no_gene_or_fused_mention_touches_a_non_ascii_digit(recognizer):
    text = "BRAFV600E٢ and ٢BRAFV600E, BRAF٢ or ٢KRAS"
    assert recognizer.scan_document(text) == ([], [])
    assert recognizer._scan_document(text, "") == ([], [], None)


@pytest.mark.parametrize("types", _TYPE_SETS.values(), ids=list(_TYPE_SETS))
@given(pieces=st.lists(
    st.tuples(st.sampled_from(_PIECES + list(_EDGE_CASES)),
              st.sampled_from(["", " ", "; ", "\u00a0"])),
    max_size=12,
))
@settings(max_examples=200, deadline=None)
def test_rule_candidates_match_the_oracle_in_order(recognizer, types, pieces):
    # Element by element: arbitration breaks exact ties by input order.
    text = "".join(piece + sep for piece, sep in pieces)
    want = rule_candidates_oracle(text, types)
    assert _candidate_tuples(recognizer, text, types) == want


def _non_ascii(categories):
    return [
        c for c in map(chr, range(128, sys.maxunicode + 1))
        if unicodedata.category(c) in categories
    ]


# Decimal digits of other scripts, by value, and non-ASCII space, line and
# paragraph separators, read from the Unicode database, not the grammar.
_OTHER_DIGITS = _non_ascii({"Nd"})
_OTHER_DIGITS_BY_VALUE = {
    v: [d for d in _OTHER_DIGITS if unicodedata.digit(d) == v]
    for v in range(10)
}
_OTHER_SPACES = _non_ascii({"Zs", "Zl", "Zp"})
_DIGIT_PIECES = _PIECES + ["rs1", "c.1", "V6", "00E", "12", "7q", "A", ">T"]
_SURFACES_WITH_DIGITS = [
    p for p in _PIECES if any(c in string.digits for c in p)
]


@given(
    pieces=st.lists(st.tuples(
        st.sampled_from(_DIGIT_PIECES) | st.sampled_from(_OTHER_DIGITS),
        st.sampled_from(["", " ", ";"])
        | st.sampled_from(_OTHER_SPACES)
        | st.sampled_from(_OTHER_DIGITS),
    ), max_size=10),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_no_mention_reads_or_touches_a_non_ascii_digit(
    recognizer, pieces, data
):
    # With a lexicon, neither a gene nor a fused mention may either.
    text = "".join(piece + sep for piece, sep in pieces)
    raw = text.encode("utf-8")
    for mentions, genes in (
        Recognizer().scan_document(text), recognizer.scan_document(text)
    ):
        for m in [*mentions, *genes]:
            surface = raw[m.start:m.end].decode("utf-8")
            before = raw[:m.start].decode("utf-8")[-1:]
            after = raw[m.end:].decode("utf-8")[:1]
            for c in (*surface, before, after):
                assert c not in _OTHER_DIGITS, (text, surface)
    # A grammar surface with one ASCII digit swapped for an equal digit of
    # another script parses under no rule.
    surface = data.draw(st.sampled_from(_SURFACES_WITH_DIGITS))
    i = data.draw(st.sampled_from(
        [i for i, c in enumerate(surface) if c in string.digits]
    ))
    other = data.draw(st.sampled_from(_OTHER_DIGITS_BY_VALUE[int(surface[i])]))
    with pytest.raises(ParseFailure):
        classify_surface(surface[:i] + other + surface[i + 1:])


# Crowded candidate lists: short texts so spans nest and overlap, a few
# types so equal spans tie on type, and repeats of one (start, end, type)
# told apart by what they built.
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 8),
                          st.sampled_from(list(MT)[:4])),
                max_size=40))
@settings(max_examples=300, deadline=None)
def test_arbitration_matches_pairwise_oracle(spans):
    candidates = [
        _Candidate(start, start + length, mtype, f"c{i}", ())
        for i, (start, length, mtype) in enumerate(spans)
    ]
    want = arbitrate([(c.start, c.end, c.mtype, c) for c in candidates])
    assert Recognizer._resolve(candidates) == [t[3] for t in want]


# Lexicon symbols: one character, digit-led, holding a joining comma, and
# ones no run can be (punctuation, a non-ASCII letter).
_SYMBOLS = [
    "A", "V", "a", "7", "1A", "12", "2B", "1,2", "B", "BR", "BRAF", "Ab",
    "KRAS", "TP53", "X-1", "é1", "BRAF-1", "ſ",
]
# Texts of symbols, variant tails they fuse with, numbers joined by commas,
# and digits of another script that runs may touch.
_HEAD_PIECES = [
    *_SYMBOLS, "V600E", "G12D", "600E", "c.35G>A", "3,4", "1,2,3", "٢", "١",
    "é", "the", ",",
]


@given(
    symbols=st.frozensets(st.sampled_from(_SYMBOLS), max_size=8),
    pieces=st.lists(st.tuples(st.sampled_from(_HEAD_PIECES),
                              st.sampled_from(["", "", " ", ",", "-"])),
                    max_size=10),
)
@settings(max_examples=500, deadline=None)
def test_symbol_heads_find_every_run_a_symbol_can_start(symbols, pieces):
    # The lexicon pass reads only the runs its head finder points at; the
    # oracle tries every run.
    text = "".join(piece + sep for piece, sep in pieces)
    recognizer = Recognizer(symbols)
    mentions, genes = scan_every_rule(text, symbols, "d")
    assert recognizer.find_gene_mentions(text) == genes
    assert recognizer.scan_document(text, "d") == (mentions, genes)


def _min_seconds(work, batches):
    # Interleaved, so a slow spell of the machine hits every batch alike.
    # The collector is paused while a batch is timed: its passes walk the
    # whole heap, so their cost does not scale with the input, and a
    # linear scan could read as superlinear.
    enabled = gc.isenabled()
    best = [float("inf")] * len(batches)
    for _ in range(3):
        for k, batch in enumerate(batches):
            gc.disable()
            try:
                started = time.perf_counter()
                for item in batch:
                    work(item)
                best[k] = min(best[k], time.perf_counter() - started)
            finally:
                if enabled:
                    gc.enable()
    return best


def _doubling_ratio(work, build):
    """How much longer ``work(build(2 * n))`` takes than ``work(build(n))``,
    for the first doubled n whose input takes 25 ms.  The median of five
    min-of-3 ratios: a shared machine slows single runs by a third.

    ``build(n)`` is worked twice per timing, so both timings span the
    same wall time: when other work on the host comes in short bursts, a
    window half as long is left clean more often, which inflates the
    ratio."""
    n = 25
    while _min_seconds(work, [[build(n)]])[0] < 0.025:
        n *= 2
    batches = [[build(n)] * 2, [build(2 * n)]]
    return statistics.median(
        2 * twice / pair
        for pair, twice in (_min_seconds(work, batches) for _ in range(5))
    )


def _gene_symbol(i):
    # Letters only, so "GENEAB V600" stays a gene and a mention.
    letters = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[r] + letters
    return "GENE" + letters


def _distinct_genes(n):
    # Each sentence pair puts another gene's classes into the one
    # (protein, 600, V) prefix bucket.
    return "".join(
        f"{_gene_symbol(i)} V600. {_gene_symbol(i)} V600E. " for i in range(n)
    )


@pytest.mark.parametrize("unit", [
    "Ala1 ", "A>", "V600E ", "BRAF V600E. ", "p.V600 ", "A1", "cc ", "p ",
    "1,2 ", _distinct_genes,
], ids=lambda u: u if isinstance(u, str) else "distinct_genes")
def test_dense_input_scales_linearly(annotator, unit):
    if isinstance(unit, str):
        build = unit.__mul__
    else:
        build = unit
        annotator = Annotator(
            lexicon=frozenset(_gene_symbol(i) for i in range(20_000))
        )
    assert _doubling_ratio(annotator.annotate_text, build) <= 2.5


def test_dense_allele_run_is_fast(annotator):
    started = time.perf_counter()
    annotator.annotate_text("Ala1 " * 6400)
    assert time.perf_counter() - started < 1.0


def _crowded(n):
    """``n`` kept spans in text order, each with an equal span of a lower
    type and a shorter span inside, both of which lose to it."""
    candidates = []
    for i in range(n):
        s = 10 * i
        candidates += [
            _Candidate(s, s + 5, MT.PROTEIN_MUTATION, "kept", ()),
            _Candidate(s, s + 5, MT.DNA_ALLELE, "tie", ()),
            _Candidate(s + 1, s + 3, MT.SNP, "inside", ()),
        ]
    return candidates


def test_arbitration_scales_linearly():
    # Arbitration alone: a candidate tested against every kept span costs
    # less than the rest of an annotation and passes the test above.
    assert _doubling_ratio(Recognizer._resolve, _crowded) <= 2.5
