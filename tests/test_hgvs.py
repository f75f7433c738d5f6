import random
import re
import string
import sys

import pytest

from varlex import (
    EditKind,
    MentionType,
    ParseFailure,
    RegionDescriptor,
    RegionKind,
    SequenceLevel,
    UnknownResidue,
    VariantDescriptor,
    canonical_string,
    classify_descriptor,
    classify_surface,
    normalize_amino_acid,
    parse_descriptor,
    region_string,
)
from varlex.hgvs import AA3_TO_1, AA_NAME_TO_1, GRAMMAR_RULES, GROUP_NAMES, fold

from oracles import random_descriptor

MT = MentionType


# -- residue and arrow normalization -----------------------------------------

_RESIDUE_SPELLINGS = [
    ("V", "V"), ("v", "V"), ("Val", "V"), ("VAL", "V"), ("val", "V"),
    ("valine", "V"), ("Glutamine", "Q"), ("glutamic acid", "E"),
    ("glutamate", "E"), ("aspartate", "D"), ("aspartic acid", "D"),
    ("Ter", "*"), ("stop", "*"), ("X", "*"), ("x", "*"), ("*", "*"),
    ("Sec", "U"), ("selenocysteine", "U"), ("U", "U"), ("ſtop", "*"),
]
# Every table key in three cases.  Spellings listed above are left out, so
# that no case is run twice and no earlier case changes its id.
_RESIDUE_SPELLINGS += [
    case for case in dict.fromkeys(
        (spell(name), code)
        for table in (AA3_TO_1, AA_NAME_TO_1)
        for name, code in table.items()
        for spell in (str.lower, str.upper, str.title)
    )
    if case not in _RESIDUE_SPELLINGS
]


@pytest.mark.parametrize("name,code", _RESIDUE_SPELLINGS)
def test_residue_names_collapse_to_one_letter(name, code):
    assert normalize_amino_acid(name) == code


@pytest.mark.parametrize("bad", ["", "Zzz", "B", "aminoacid", "Xaa9"])
def test_unknown_residues_raise(bad):
    with pytest.raises(UnknownResidue):
        normalize_amino_acid(bad)


@pytest.mark.parametrize("text,expected", [
    ("M>T", "M>T"),
    ("G/C", "G>C"),
    ("methionine to threonine", "M>T"),
    ("Methionine TO Threonine", "M>T"),
    ("adenine to guanine", "A>G"),
    ("guanine to cytosine", "G>C"),
    ("A>T", "A>T"),
])
def test_arrow_normalization(text, expected):
    # Each spelling the grammar reads is a change; a protein one renders "p.".
    mtype, d = classify_surface(text)
    level = "p." if mtype is MT.PROTEIN_CHANGE else ""
    assert canonical_string(d) == level + expected


def test_arrow_requires_separator():
    with pytest.raises(ParseFailure):
        classify_surface("M T")


# -- descriptor construction rules --------------------------------------------

def test_position_must_be_positive():
    with pytest.raises(ValueError):
        VariantDescriptor(
            position=0, ref_allele="A", alt_allele="T",
            edit_kind=EditKind.SUBSTITUTION,
        )


def test_position_end_cannot_precede_position():
    with pytest.raises(ValueError):
        VariantDescriptor(
            position=100, position_end=99, edit_kind=EditKind.DELETION,
        )


def test_substitution_needs_an_allele():
    with pytest.raises(ValueError):
        VariantDescriptor(position=5, edit_kind=EditKind.SUBSTITUTION)


def test_protein_substitution_needs_wildtype():
    with pytest.raises(ValueError):
        VariantDescriptor(
            level=SequenceLevel.PROTEIN, position=600, alt_allele="E",
            edit_kind=EditKind.SUBSTITUTION,
        )


def test_positionless_substitution_needs_both_alleles():
    with pytest.raises(ValueError):
        VariantDescriptor(ref_allele="A", edit_kind=EditKind.SUBSTITUTION)


def test_frameshift_is_protein_only():
    with pytest.raises(ValueError):
        VariantDescriptor(
            level=SequenceLevel.DNA_CODING, position=5, ref_allele="A",
            edit_kind=EditKind.FRAMESHIFT,
        )


def test_deletion_size_comes_from_range():
    d = VariantDescriptor(
        level=SequenceLevel.DNA_CODING, position=100, position_end=104,
        edit_kind=EditKind.DELETION,
    )
    assert d.size == 5


def test_deletion_range_comes_from_size():
    d = VariantDescriptor(position=1952, size=9, edit_kind=EditKind.DELETION)
    assert d.position_end == 1960


def test_deletion_size_and_range_must_agree():
    with pytest.raises(ValueError):
        VariantDescriptor(
            position=10, position_end=12, size=7, edit_kind=EditKind.DELETION,
        )


def test_deleted_sequence_fixes_size():
    d = VariantDescriptor(
        level=SequenceLevel.DNA_CODING, position=7, ref_allele="ACG",
        edit_kind=EditKind.DELETION,
    )
    assert d.size == 3
    assert d.position_end == 9


def test_insertion_span_is_flanking_not_length():
    # Inserting three bases between positions 100 and 101 is legal; the
    # range never constrains the inserted length.
    d = VariantDescriptor(
        level=SequenceLevel.DNA_CODING, position=100, position_end=101,
        alt_allele="ATG", edit_kind=EditKind.INSERTION,
    )
    assert d.size == 3
    assert d.position_end == 101


def test_alleles_must_use_the_right_alphabet():
    with pytest.raises(ValueError):
        VariantDescriptor(
            position=5, ref_allele="Z", alt_allele="T",
            edit_kind=EditKind.SUBSTITUTION,
        )
    # Protein letters are fine at protein level only.
    VariantDescriptor(
        level=SequenceLevel.PROTEIN, position=5, ref_allele="Q",
        alt_allele="L", edit_kind=EditKind.SUBSTITUTION,
    )
    with pytest.raises(ValueError):
        VariantDescriptor(
            level=SequenceLevel.DNA_CODING, position=5, ref_allele="Q",
            alt_allele="L", edit_kind=EditKind.SUBSTITUTION,
        )


def test_incomplete_property():
    complete = VariantDescriptor(
        level=SequenceLevel.PROTEIN, position=600, ref_allele="V",
        alt_allele="E", edit_kind=EditKind.SUBSTITUTION,
    )
    partial = VariantDescriptor(
        level=SequenceLevel.PROTEIN, position=600, ref_allele="V",
        edit_kind=EditKind.SUBSTITUTION,
    )
    assert not complete.is_incomplete
    assert partial.is_incomplete


def test_region_validation():
    with pytest.raises(ValueError):
        RegionDescriptor(chromosome="", kind=RegionKind.CHROMOSOME_BAND,
                         arm_band="q33")
    with pytest.raises(ValueError):
        RegionDescriptor(chromosome="7", kind=RegionKind.BP_REGION,
                         start_bp=100, end_bp=50)
    with pytest.raises(ValueError):
        RegionDescriptor(chromosome="7", kind=RegionKind.CNV_DEL,
                         start_bp=100, end_bp=None)


# -- parsing ------------------------------------------------------------------

@pytest.mark.parametrize("surface,hint,canonical", [
    ("c.1799T>A", MT.DNA_MUTATION, "c.1799T>A"),
    ("1799 T>A", MT.DNA_MUTATION, "1799T>A"),
    ("c.1799T->A", MT.DNA_MUTATION, "c.1799T>A"),
    ("g.12345del", MT.DNA_MUTATION, "g.12345del"),
    ("c.123_125delAAA", MT.DNA_MUTATION, "c.123_125delAAA"),
    ("c.123insAT", MT.DNA_MUTATION, "c.123insAT"),
    ("1976A", MT.DNA_ALLELE, "1976A"),
    ("c.1976A", MT.DNA_ALLELE, "c.1976A"),
    ("A>T", MT.DNA_CHANGE, "A>T"),
    ("A-->T", MT.DNA_CHANGE, "A>T"),
    ("guanine to cytosine", MT.DNA_CHANGE, "G>C"),
    ("V600E", MT.PROTEIN_MUTATION, "p.V600E"),
    ("p.V600E", MT.PROTEIN_MUTATION, "p.V600E"),
    ("Val600Glu", MT.PROTEIN_MUTATION, "p.V600E"),
    ("p.Gln659Leu", MT.PROTEIN_MUTATION, "p.Q659L"),
    ("Gln659Ter", MT.PROTEIN_MUTATION, "p.Q659*"),
    ("Q659X", MT.PROTEIN_MUTATION, "p.Q659*"),
    ("V600fs", MT.PROTEIN_MUTATION, "p.V600fs"),
    ("Val600fs", MT.PROTEIN_MUTATION, "p.V600fs"),
    ("p.V600del", MT.PROTEIN_MUTATION, "p.V600del"),
    ("Val600dup", MT.PROTEIN_MUTATION, "p.V600dup"),
    ("p.P799", MT.PROTEIN_ALLELE, "p.P799"),
    ("P799", MT.PROTEIN_ALLELE, "p.P799"),
    ("Cys326", MT.PROTEIN_ALLELE, "p.C326"),
    ("glutamine at codon 659", MT.PROTEIN_ALLELE, "p.Q659"),
    ("Glutamine at position 659", MT.PROTEIN_ALLELE, "p.Q659"),
    ("methionine to threonine", MT.PROTEIN_CHANGE, "p.M>T"),
    ("Met to Thr", MT.PROTEIN_CHANGE, "p.M>T"),
    ("M>T", MT.PROTEIN_CHANGE, "p.M>T"),
    ("306 base pair insertion", MT.OTHER_MUTATION, "ins306"),
    ("nine-nucleotide deletion starting at position 1952",
     MT.OTHER_MUTATION, "1952_1960del"),
    ("two amino acid deletion", MT.OTHER_MUTATION, "del2"),
    ("12 bp duplication", MT.OTHER_MUTATION, "dup12"),
])
def test_surface_forms_parse_to_canonicals(surface, hint, canonical):
    d = parse_descriptor(surface, hint)
    assert canonical_string(d) == canonical


def test_natural_language_sizes_use_number_words():
    d = parse_descriptor("twenty nucleotide insertion", MT.OTHER_MUTATION)
    assert d.size == 20
    assert d.edit_kind is EditKind.INSERTION
    assert d.position is None


def test_positioned_natural_language_edit():
    d = parse_descriptor(
        "nine-nucleotide deletion starting at position 1952",
        MT.OTHER_MUTATION,
    )
    assert (d.size, d.position, d.position_end) == (9, 1952, 1960)
    assert d.edit_kind is EditKind.DELETION


@pytest.mark.parametrize("surface,chrom,band", [
    ("10q11.12", "10", "q11.12"),
    ("5q33", "5", "q33"),
    ("chromosome 5 q 33", "5", "q33"),
    ("Xp21.1", "X", "p21.1"),
    ("chr7q31", "7", "q31"),
])
def test_band_regions(surface, chrom, band):
    d = parse_descriptor(surface, MT.CHROMOSOME)
    assert d.kind is RegionKind.CHROMOSOME_BAND
    assert (d.chromosome, d.arm_band) == (chrom, band)


def test_bp_region_needs_colon():
    d = parse_descriptor("chr7:156583796-156584569", MT.GENOMIC_REGION)
    assert (d.start_bp, d.end_bp) == (156583796, 156584569)
    with pytest.raises(ParseFailure):
        parse_descriptor("chr7 156583796-156584569", MT.GENOMIC_REGION)


def test_cnv_with_grouped_digits():
    d = parse_descriptor(
        "Chr 15: 3,18,33,000-3,74,77,000bp deletion", MT.CNV
    )
    assert d.chromosome == "15"
    assert d.start_bp == 31833000
    assert d.end_bp == 37477000
    assert d.kind is RegionKind.CNV_DEL


def test_cnv_leading_edit_word():
    d = parse_descriptor("deletion of chr19:54,666,173-54,677,766", MT.CNV)
    assert d.kind is RegionKind.CNV_DEL
    assert d.start_bp == 54666173


def test_cnv_reversed_coordinates_rejected():
    with pytest.raises(ParseFailure):
        parse_descriptor("chr7:500-100 deletion", MT.CNV)


def test_rule_groups_use_the_builder_vocabulary():
    # A group name outside the vocabulary would be ignored by the builder
    # and the recognizer alike, silently dropping a field.
    for rule in GRAMMAR_RULES:
        for pattern in (rule.pattern, rule.scan_pattern or rule.pattern):
            names = set(re.compile(pattern, rule.flags).groupindex)
            assert names <= GROUP_NAMES, (pattern, names - GROUP_NAMES)


def test_rule_names_are_unique():
    names = [rule.name for rule in GRAMMAR_RULES]
    assert len(set(names)) == len(names)


def test_fold_maps_every_ignorecase_letter_to_ascii():
    # The trigger prefilter and the name tables rely on this: whatever
    # re.IGNORECASE matches to an ASCII letter, fold turns into that letter.
    non_ascii = set()
    for cp in range(sys.maxunicode + 1):
        c = chr(cp)
        if not re.fullmatch("[a-z]", c, re.IGNORECASE):
            continue
        letter = next(
            x for x in string.ascii_lowercase
            if re.fullmatch(x, c, re.IGNORECASE)
        )
        assert fold(c) == letter, hex(cp)
        if not c.isascii():
            non_ascii.add(c)
    assert {"\u0130", "\u0131", "\u017f", "\u212a"} <= non_ascii
    assert fold("İsoleucine ſerine deletıon") == "isoleucine serine deletion"


def test_identifier_parsing():
    assert classify_surface("rs763780") == (MT.SNP, "rs763780")
    assert classify_surface("Rs763780") == (MT.SNP, "rs763780")
    assert classify_surface("RS763780") == (MT.SNP, "rs763780")
    assert classify_surface("NM_203475.1") == (MT.REFSEQ, "NM_203475.1")
    assert classify_surface("NP_002010") == (MT.REFSEQ, "NP_002010")
    with pytest.raises(ParseFailure):
        classify_surface("rs0123")
    with pytest.raises(ParseFailure):
        classify_surface("nm_203475.1")


def test_identifier_and_descriptor_hints_do_not_mix():
    with pytest.raises(ValueError, match="use classify_surface"):
        parse_descriptor("rs763780", MT.SNP)
    with pytest.raises(ValueError):
        parse_descriptor("NM_203475.1", MT.REFSEQ)


def test_leading_zero_positions_rejected():
    with pytest.raises(ParseFailure):
        parse_descriptor("c.0179T>A", MT.DNA_MUTATION)


def test_parse_failure_carries_surface_and_position():
    with pytest.raises(ParseFailure) as exc:
        parse_descriptor("c.1799T>", MT.DNA_MUTATION)
    assert exc.value.surface == "c.1799T>"
    assert exc.value.position >= 0
    assert "c.1799T>" in str(exc.value)


# -- classification ------------------------------------------------------------

@pytest.mark.parametrize("surface,label", [
    ("rs763780", "SNP"),
    ("c.1976A>T", "DNAMutation"),
    ("1976A", "DNAAllele"),
    ("A>T", "DNAChange"),
    ("p.Gln659Leu", "ProteinMutation"),
    ("p.P799", "ProteinAllele"),
    ("methionine to threonine", "ProteinChange"),
    ("306 base pair insertion", "OtherMutation"),
    ("NM_203475.1", "RefSeq"),
    ("10q11.12", "Chromosome"),
    ("Chr10: 46123781-51028772", "GenomicRegion"),
    ("Chr 15: 3,18,33,000-3,74,77,000bp deletion", "CopyNumberVariant"),
])
def test_classify_surface(surface, label):
    mtype, _ = classify_surface(surface)
    assert mtype.label == label


def test_classify_surface_rejects_garbage():
    with pytest.raises(ParseFailure):
        classify_surface("not a variant")


def test_type_labels_round_trip():
    for mtype in MentionType:
        assert MentionType(mtype.label) is mtype


def test_classification_follows_descriptor_shape():
    cases = [
        (VariantDescriptor(level=SequenceLevel.PROTEIN, position=1,
                           ref_allele="V", alt_allele="E",
                           edit_kind=EditKind.SUBSTITUTION), MT.PROTEIN_MUTATION),
        (VariantDescriptor(level=SequenceLevel.PROTEIN, position=1,
                           ref_allele="V",
                           edit_kind=EditKind.SUBSTITUTION), MT.PROTEIN_ALLELE),
        (VariantDescriptor(level=SequenceLevel.PROTEIN, ref_allele="V",
                           alt_allele="E",
                           edit_kind=EditKind.SUBSTITUTION), MT.PROTEIN_CHANGE),
        (VariantDescriptor(level=SequenceLevel.DNA_CODING, position=1,
                           ref_allele="A", alt_allele="T",
                           edit_kind=EditKind.SUBSTITUTION), MT.DNA_MUTATION),
        (VariantDescriptor(position=1, ref_allele="A",
                           edit_kind=EditKind.SUBSTITUTION), MT.DNA_ALLELE),
        (VariantDescriptor(ref_allele="A", alt_allele="T",
                           edit_kind=EditKind.SUBSTITUTION), MT.DNA_CHANGE),
        (VariantDescriptor(size=9, edit_kind=EditKind.DELETION), MT.OTHER_MUTATION),
        (RegionDescriptor(chromosome="5", kind=RegionKind.CHROMOSOME_BAND,
                          arm_band="q33"), MT.CHROMOSOME),
        (RegionDescriptor(chromosome="7", kind=RegionKind.BP_REGION,
                          start_bp=1, end_bp=2), MT.GENOMIC_REGION),
        (RegionDescriptor(chromosome="7", kind=RegionKind.CNV_DUP,
                          start_bp=1, end_bp=2), MT.CNV),
    ]
    for descriptor, expected in cases:
        assert classify_descriptor(descriptor) is expected


# -- canonical round trips -------------------------------------------------------

def test_canonical_forms_are_stable():
    rng = random.Random(20260821)
    for _ in range(300):
        d = random_descriptor(rng)
        if isinstance(d, RegionDescriptor):
            surface = region_string(d)
        else:
            surface = canonical_string(d)
        hint = classify_descriptor(d)
        again = parse_descriptor(surface, hint)
        assert again == d, f"{surface!r} re-parsed as {again!r}, expected {d!r}"
