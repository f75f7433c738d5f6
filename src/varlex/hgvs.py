"""Variant descriptors and the surface grammars that produce them.

A descriptor is the structured reading of one variant mention: sequence
level, position, wild-type and mutant alleles, and edit kind.  Region
descriptors cover cytogenetic bands, base-pair ranges, and copy number
events.  The grammars here are shared by :func:`parse_descriptor`, which
full-matches a known surface form, and by the recognizer, which scans the
same patterns across running text.

A rule states what its match means only through the names of its pattern's
groups, drawn from one vocabulary (:data:`GROUP_NAMES`, described on
:class:`GrammarRule`).  The same groups feed both the descriptor built from
a match and the component spans (position, wild-type, mutant;
:data:`GROUP_ROLES`) the recognizer reports.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Union

from .errors import ParseFailure, UnknownResidue


class MentionType(Enum):
    """The twelve variant concept types.  Values double as file labels."""

    SNP = "SNP"
    DNA_MUTATION = "DNAMutation"
    DNA_ALLELE = "DNAAllele"
    DNA_CHANGE = "DNAChange"
    PROTEIN_MUTATION = "ProteinMutation"
    PROTEIN_ALLELE = "ProteinAllele"
    PROTEIN_CHANGE = "ProteinChange"
    OTHER_MUTATION = "OtherMutation"
    CNV = "CopyNumberVariant"
    REFSEQ = "RefSeq"
    CHROMOSOME = "Chromosome"
    GENOMIC_REGION = "GenomicRegion"

    @property
    def label(self) -> str:
        return self.value


# Overlap arbitration order: more specific concept types win when spans tie.
TYPE_PRIORITY = (
    MentionType.SNP,
    MentionType.DNA_MUTATION,
    MentionType.PROTEIN_MUTATION,
    MentionType.CNV,
    MentionType.GENOMIC_REGION,
    MentionType.REFSEQ,
    MentionType.CHROMOSOME,
    MentionType.DNA_ALLELE,
    MentionType.PROTEIN_ALLELE,
    MentionType.DNA_CHANGE,
    MentionType.PROTEIN_CHANGE,
    MentionType.OTHER_MUTATION,
)

IDENTIFIER_TYPES = frozenset({MentionType.SNP, MentionType.REFSEQ})


class SequenceLevel(Enum):
    DNA_CODING = "c"
    DNA_GENOMIC = "g"
    PROTEIN = "p"
    RNA = "r"
    MITO = "m"
    UNSPECIFIED = ""


class EditKind(Enum):
    SUBSTITUTION = "SUBSTITUTION"
    DELETION = "DELETION"
    INSERTION = "INSERTION"
    DUPLICATION = "DUPLICATION"
    FRAMESHIFT = "FRAMESHIFT"
    UNSPECIFIED = "UNSPECIFIED"


class RegionKind(Enum):
    CHROMOSOME_BAND = "CHROMOSOME_BAND"
    BP_REGION = "BP_REGION"
    CNV_DEL = "CNV_DEL"
    CNV_DUP = "CNV_DUP"


class ComponentRole(Enum):
    WILDTYPE = "WILDTYPE"
    MUTANT = "MUTANT"
    POSITION = "POSITION"


# ---------------------------------------------------------------------------
# Residue tables
# ---------------------------------------------------------------------------

AA3_TO_1 = {
    "Ala": "A", "Arg": "R", "Asn": "N", "Asp": "D", "Cys": "C",
    "Gln": "Q", "Glu": "E", "Gly": "G", "His": "H", "Ile": "I",
    "Leu": "L", "Lys": "K", "Met": "M", "Phe": "F", "Pro": "P",
    "Ser": "S", "Thr": "T", "Trp": "W", "Tyr": "Y", "Val": "V",
    "Sec": "U", "Ter": "*",
}

AA_NAME_TO_1 = {
    "alanine": "A", "arginine": "R", "asparagine": "N",
    "aspartate": "D", "aspartic acid": "D", "cysteine": "C",
    "glutamine": "Q", "glutamate": "E", "glutamic acid": "E",
    "glycine": "G", "histidine": "H", "isoleucine": "I",
    "leucine": "L", "lysine": "K", "methionine": "M",
    "phenylalanine": "F", "proline": "P", "serine": "S",
    "threonine": "T", "tryptophan": "W", "tyrosine": "Y",
    "valine": "V", "selenocysteine": "U", "stop": "*",
}

NUC_NAME_TO_1 = {
    "adenine": "A", "guanine": "G", "cytosine": "C",
    "thymine": "T", "uracil": "U",
}

# The twenty standard residues and the nucleotides in one-letter code.
_AA20 = "ACDEFGHIKLMNPQRSTVWY"
_NUC_LETTERS = "ACGTU"
_AA_ONE = frozenset(_AA20)

NUMBER_WORDS = {
    "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10,
    "eleven": 11, "twelve": 12, "thirteen": 13, "fourteen": 14,
    "fifteen": 15, "sixteen": 16, "seventeen": 17, "eighteen": 18,
    "nineteen": 19, "twenty": 20,
}


# The non-ASCII characters re.IGNORECASE matches to an ASCII letter, by
# letter.  fold replaces "ı" first, so "ı" plus a combining dot gives "i".
_OTHER_CASES = {"s": "ſ", "i": "ıİ", "k": "K"}
_FOLDS = tuple(
    (other.lower(), letter)
    for letter, others in _OTHER_CASES.items()
    for other in others
    if other.lower() != letter
)


def fold(text: str) -> str:
    """Lower-case ``text`` so that every character ``re.IGNORECASE`` matches
    to an ASCII letter becomes that letter.

    ``str.lower`` alone leaves the long s (``ſ``) and the dotless i (``ı``),
    and turns the dotted capital I (``İ``) into ``i`` plus a combining dot;
    the Kelvin sign already lowers to ``k``.
    """
    low = text.lower()
    for lowered, letter in _FOLDS:
        low = low.replace(lowered, letter)
    return low


def _letters_at(words: Iterable[str], i: int) -> str:
    """The characters the ``words`` hold at index ``i``, sorted."""
    return "".join(sorted({word[i] for word in words}))


def normalize_amino_acid(name: str) -> str:
    """Collapse a residue spelling to its one-letter code.

    Accepts one-letter codes, three-letter codes, and full names in any
    case.  Ter/Stop/X map to "*", selenocysteine to "U".
    """
    s = name.strip()
    if not s:
        raise UnknownResidue(name)
    if len(s) == 1:
        u = s.upper()
        if u in _AA_ONE or u == "U":
            return u
        if u in ("X", "*"):
            return "*"
        raise UnknownResidue(name)
    if len(s) == 3:
        code = AA3_TO_1.get(s.capitalize())
        if code:
            return code
    low = fold(s)
    if low in AA_NAME_TO_1:
        return AA_NAME_TO_1[low]
    raise UnknownResidue(name)


def _normalize_allele_name(side: str) -> str:
    s = side.strip()
    low = fold(s)
    if low in NUC_NAME_TO_1:
        return NUC_NAME_TO_1[low]
    if len(s) == 1 and s.upper() in _NUC_LETTERS:
        return s.upper()
    return normalize_amino_acid(s)


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

_DNA_ALPHABET = frozenset(_NUC_LETTERS)
_PROTEIN_ALPHABET = _AA_ONE | {"U", "*"}


@dataclass(frozen=True)
class VariantDescriptor:
    """Structured reading of a sequence-variant mention.

    ``size`` counts edited units for length-described events ("nine
    nucleotide deletion"); when both a position and a size are known for a
    deletion or duplication the end position is derived from them.  ``raw``
    keeps the verbatim surface and never takes part in equality.
    """

    level: SequenceLevel = SequenceLevel.UNSPECIFIED
    position: int | None = None
    position_end: int | None = None
    ref_allele: str | None = None
    alt_allele: str | None = None
    edit_kind: EditKind = EditKind.UNSPECIFIED
    size: int | None = None
    raw: str = field(default="", compare=False)

    def __post_init__(self):
        if self.position is not None and self.position < 1:
            raise ValueError(f"position must be >= 1, got {self.position}")
        if self.position_end is not None:
            if self.position is None:
                raise ValueError("position_end without position")
            if self.position_end < self.position:
                raise ValueError("position_end before position")
        if self.size is not None and self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        alphabet = (
            _PROTEIN_ALPHABET
            if self.level is SequenceLevel.PROTEIN
            else _DNA_ALPHABET
        )
        for allele in (self.ref_allele, self.alt_allele):
            if allele is not None:
                if not allele or not set(allele) <= alphabet:
                    raise ValueError(f"bad allele string {allele!r}")
        kind = self.edit_kind
        if kind is EditKind.SUBSTITUTION:
            if self.ref_allele is None and self.alt_allele is None:
                raise ValueError("substitution needs at least one allele")
            if self.level is SequenceLevel.PROTEIN and self.ref_allele is None:
                raise ValueError("protein substitution needs a wild-type allele")
            if self.position is None and (
                self.ref_allele is None or self.alt_allele is None
            ):
                raise ValueError("positionless substitution needs both alleles")
        elif kind is EditKind.FRAMESHIFT:
            if self.level is not SequenceLevel.PROTEIN:
                raise ValueError("frameshift is a protein-level edit")
            if self.position is None or self.ref_allele is None:
                raise ValueError("frameshift needs a position and wild-type")
        elif kind in (EditKind.DELETION, EditKind.DUPLICATION):
            seq = self.ref_allele
            if self.size is None:
                if self.position is not None and self.position_end is not None:
                    object.__setattr__(
                        self, "size", self.position_end - self.position + 1
                    )
                elif seq is not None:
                    object.__setattr__(self, "size", len(seq))
                elif self.position is not None:
                    object.__setattr__(self, "size", 1)
            if (
                self.size is not None
                and self.position is not None
                and self.position_end is None
            ):
                object.__setattr__(
                    self, "position_end", self.position + self.size - 1
                )
            if self.position is not None and self.position_end is not None:
                span = self.position_end - self.position + 1
                if self.size is not None and self.size != span:
                    raise ValueError(
                        f"size {self.size} disagrees with span {span}"
                    )
            if seq is not None and self.size is not None and len(seq) != self.size:
                raise ValueError("size disagrees with deleted sequence length")
        elif kind is EditKind.INSERTION:
            # Insertion ranges name the flanking positions, so the span is
            # unrelated to the inserted length; only the sequence fixes size.
            if self.size is None and self.alt_allele is not None:
                object.__setattr__(self, "size", len(self.alt_allele))
            if (
                self.alt_allele is not None
                and self.size is not None
                and len(self.alt_allele) != self.size
            ):
                raise ValueError("size disagrees with inserted sequence length")

    @property
    def is_incomplete(self) -> bool:
        """True for allele-style mentions that name no mutant ("V600")."""
        return (
            self.edit_kind is EditKind.SUBSTITUTION and self.alt_allele is None
        )


@dataclass(frozen=True)
class RegionDescriptor:
    """A chromosomal location: band, base-pair range, or copy number event."""

    chromosome: str
    kind: RegionKind
    arm_band: str | None = None
    start_bp: int | None = None
    end_bp: int | None = None
    raw: str = field(default="", compare=False)

    def __post_init__(self):
        if not self.chromosome:
            raise ValueError("empty chromosome label")
        if self.kind is RegionKind.CHROMOSOME_BAND:
            if not self.arm_band:
                raise ValueError("band region needs an arm/band label")
        else:
            if self.start_bp is None or self.end_bp is None:
                raise ValueError(f"{self.kind.value} needs both coordinates")
            if self.start_bp < 0 or self.end_bp < self.start_bp:
                raise ValueError("coordinates out of order")


Descriptor = Union[VariantDescriptor, RegionDescriptor]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_EDIT_WORD = {
    EditKind.DELETION: "del",
    EditKind.INSERTION: "ins",
    EditKind.DUPLICATION: "dup",
}


def canonical_string(d: VariantDescriptor) -> str:
    """Deterministic canonical rendering, e.g. ``c.1799T>A`` or ``p.V600E``.

    Incomplete variants keep their partial form ("p.P799"); protein
    substitutions render in one-letter code without a separator.
    """
    letter = d.level.value
    prefix = f"{letter}." if letter else ""
    protein = d.level is SequenceLevel.PROTEIN
    if d.edit_kind is EditKind.SUBSTITUTION:
        if d.position is None:
            return f"{prefix}{d.ref_allele}>{d.alt_allele}"
        if protein:
            alt = d.alt_allele or ""
            return f"{prefix}{d.ref_allele}{d.position}{alt}"
        if d.alt_allele is None:
            return f"{prefix}{d.position}{d.ref_allele}"
        return f"{prefix}{d.position}{d.ref_allele or ''}>{d.alt_allele}"
    if d.edit_kind is EditKind.FRAMESHIFT:
        return f"{prefix}{d.ref_allele}{d.position}fs"
    if d.edit_kind in _EDIT_WORD:
        word = _EDIT_WORD[d.edit_kind]
        ins = d.edit_kind is EditKind.INSERTION
        seq = d.alt_allele if ins else d.ref_allele
        if (
            protein
            and not ins
            and seq is not None
            and len(seq) == 1
            and d.position is not None
            and d.position_end in (None, d.position)
        ):
            return f"{prefix}{seq}{d.position}{word}"
        if d.position is None:
            return f"{word}{d.size}"
        out = f"{prefix}{d.position}"
        if d.position_end is not None and d.position_end != d.position:
            out += f"_{d.position_end}"
        out += word
        if seq:
            out += seq
        elif ins and d.size is not None:
            out += str(d.size)
        return out
    # Unspecified edit: fall back to the incomplete substitution shape.
    if protein:
        return f"{prefix}{d.ref_allele or ''}{d.position or ''}"
    return f"{prefix}{d.position or ''}{d.ref_allele or ''}"


def region_string(r: RegionDescriptor) -> str:
    """Compact rendering of a region descriptor."""
    if r.kind is RegionKind.CHROMOSOME_BAND:
        return f"{r.chromosome}{r.arm_band}"
    out = f"chr{r.chromosome}:{r.start_bp}-{r.end_bp}"
    if r.kind is RegionKind.CNV_DEL:
        out += "del"
    elif r.kind is RegionKind.CNV_DUP:
        out += "dup"
    return out


def classify_descriptor(d: Descriptor) -> MentionType:
    """The mention type whose grammar owns this descriptor's canonical form."""
    if isinstance(d, RegionDescriptor):
        if d.kind is RegionKind.CHROMOSOME_BAND:
            return MentionType.CHROMOSOME
        if d.kind is RegionKind.BP_REGION:
            return MentionType.GENOMIC_REGION
        return MentionType.CNV
    if d.level is SequenceLevel.PROTEIN:
        if d.edit_kind is EditKind.SUBSTITUTION:
            if d.position is None:
                return MentionType.PROTEIN_CHANGE
            if d.alt_allele is None:
                return MentionType.PROTEIN_ALLELE
            return MentionType.PROTEIN_MUTATION
        return MentionType.PROTEIN_MUTATION
    if d.edit_kind is EditKind.SUBSTITUTION:
        if d.position is None:
            return MentionType.DNA_CHANGE
        if d.alt_allele is None:
            return MentionType.DNA_ALLELE
        return MentionType.DNA_MUTATION
    if d.level is not SequenceLevel.UNSPECIFIED:
        return MentionType.DNA_MUTATION
    if d.ref_allele is not None or d.alt_allele is not None:
        return MentionType.DNA_MUTATION
    return MentionType.OTHER_MUTATION


# ---------------------------------------------------------------------------
# Grammar rules
# ---------------------------------------------------------------------------

# Component roles of the groups that name a sub-span of a variant mention.
GROUP_ROLES: dict[str, ComponentRole] = {
    "pos": ComponentRole.POSITION,
    "wt": ComponentRole.WILDTYPE,
    "wt3": ComponentRole.WILDTYPE,
    "wtn": ComponentRole.WILDTYPE,
    "mt": ComponentRole.MUTANT,
    "mt3": ComponentRole.MUTANT,
    "mtn": ComponentRole.MUTANT,
}

# Every group name a rule pattern may use; see GrammarRule.
GROUP_NAMES = frozenset(GROUP_ROLES) | {
    "lv", "pos2", "ed", "seq", "size",
    "chrom", "arm", "band", "c1", "c2",
    "digits", "acc",
}


@dataclass(frozen=True)
class GrammarRule:
    """One surface pattern of one mention type.

    The named groups of the pattern are the only statement of what a match
    means, in one vocabulary (:data:`GROUP_NAMES`):

    - ``lv`` sequence-level letter (``c``, ``g``, ``m``, ``r``); without
      it the level is protein for the protein types, else unspecified;
    - ``pos``/``pos2`` first and last position;
    - ``wt``/``wt3``/``wtn`` and ``mt``/``mt3``/``mtn`` wild-type and
      mutant alleles as one-letter code, three-letter code or name;
    - ``ed`` edit word, ``seq`` edited sequence, ``size`` length in digits
      or a number word;
    - ``chrom``/``arm``/``band`` and ``chrom``/``c1``/``c2`` regions;
    - ``digits`` dbSNP number and ``acc`` RefSeq accession.

    :meth:`build` reads the descriptor or identifier from these groups, and
    the recognizer reads component spans from the same groups through
    :data:`GROUP_ROLES`.  ``pattern`` is used for full-string parsing;
    ``scan_pattern`` (defaulting to the same string) is what the recognizer
    embeds in running text.  Rules with ``scan=False`` exist only so
    canonical renderings re-parse.

    ``name`` is stable and unique across :data:`GRAMMAR_RULES`.
    ``triggers`` are literals of which every scan match contains at least
    one, so the recognizer runs the rule only on text holding one of them.
    For a case-sensitive rule they are exact-case and tested against the
    raw text; for an ``re.IGNORECASE`` rule they are lower-case and tested
    against :func:`fold` of the text.  A rule with no triggers always runs.
    No trigger is a proper prefix of another trigger sought in the same
    text, so at most one starts at any position.
    ``starts`` lists the characters a scan match can begin with and
    ``seconds`` those its second character can be, so the recognizer tries
    the rule only at word starts holding one of the first followed by one
    of the second.  Every scan match is at least two characters long.  Both
    must be complete, since the recognizer tries the rule at no other
    characters.  They are declared the way ``triggers`` are: exact case for
    a case-sensitive rule, lower case for an ``re.IGNORECASE`` one, whose
    other spellings the recognizer adds.  Digits in a pattern are ASCII
    (``[0-9]``), and a second character that can be whitespace (``\\s``)
    is declared as :data:`_SPACES`, every character ``\\s`` matches.
    """

    name: str
    mtype: MentionType
    pattern: str
    flags: int = 0
    scan: bool = True
    scan_pattern: str | None = None
    triggers: tuple[str, ...] = ()
    starts: str = ""
    seconds: str = ""
    rx: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rx", re.compile(self.pattern, self.flags))

    def build(self, m: re.Match) -> Descriptor | str:
        """The descriptor, or identifier string, that a match of this rule
        names."""
        gd = m.groupdict()
        if "digits" in gd:
            return f"rs{gd['digits']}"
        if "acc" in gd:
            return gd["acc"]
        if "chrom" in gd:
            return _build_region(m, gd)
        return _build_variant(m, gd, self.mtype in _PROTEIN_TYPES)


_PROTEIN_TYPES = frozenset({
    MentionType.PROTEIN_MUTATION,
    MentionType.PROTEIN_ALLELE,
    MentionType.PROTEIN_CHANGE,
})

_POS = r"[1-9][0-9]*"
_NUC = "[%s]" % _NUC_LETTERS
# The sequence levels a DNA rule's prefix ("c.") may name.
_DNA_LEVELS = "cgmr"
_LV = r"(?P<lv>[%s])\." % _DNA_LEVELS
# What follows the prefix of a deletion, insertion or duplication.
_LEVEL_EDIT = r"(?P<pos>%s)(?:_(?P<pos2>%s))?(?P<ed>del|ins|dup)(?P<seq>%s*)" % (
    _POS, _POS, _NUC
)
_AA1 = "[%s]" % _AA20
_AA1_MUT = r"[%sUX*]" % _AA20
# Three-letter residues a wild type may name: all but the stop codon.
_AA3_WT = tuple(code for code in AA3_TO_1 if code != "Ter")
_AA3 = "(?:%s)" % "|".join(_AA3_WT)
_AA3_MUT = r"(?:%s|X|\*)" % "|".join(AA3_TO_1)
_AA_NAME = "(?:%s)" % "|".join(
    sorted(AA_NAME_TO_1, key=len, reverse=True)
)
_NUC_NAME = "(?:%s)" % "|".join(NUC_NAME_TO_1)
_NUM_WORD = "(?:%s)" % "|".join(
    sorted(NUMBER_WORDS, key=len, reverse=True)
)
_ARROWS = ("-->", "->", "→", ">")
_ARROW_SEP = r"\s?(?:%s)\s?" % "|".join(_ARROWS)
_CHROM = r"(?:[1-9][0-9]?|[XY]|MT?)"
_COORD = r"[0-9](?:[0-9,]*[0-9])?"
_BAND = r"[0-9]+(?:\.[0-9]+)?"
_CHR_WORD = r"[Cc]hr(?:omosome)?\.?\s*"
_UNIT = r"nucleotides?|base[ \-]?pairs?|bp|amino[ \-]?acids?|codons?"


def _number(value: str | None) -> int | None:
    """A count or position written in digits or as a number word."""
    if not value:
        return None
    return int(value) if value.isdigit() else NUMBER_WORDS[fold(value)]


def _allele(gd: dict[str, str | None], *names: str) -> str | None:
    for name in names:
        value = gd.get(name)
        if value:
            return _normalize_allele_name(value)
    return None


def _coord(value: str) -> int:
    return int(value.replace(",", ""))


# Edit words as rules capture them: "fs", "del", "deletion" and so on.
_EDIT_BY_WORD = {"fs": EditKind.FRAMESHIFT} | {
    word: kind
    for kind, short in _EDIT_WORD.items()
    for word in (short, kind.value.lower())
}


def _build_variant(
    m: re.Match, gd: dict[str, str | None], protein: bool
) -> VariantDescriptor:
    letter = gd.get("lv")
    if letter:
        level = SequenceLevel(letter)
    else:
        level = SequenceLevel.PROTEIN if protein else SequenceLevel.UNSPECIFIED
    word = gd.get("ed")
    kind = _EDIT_BY_WORD[fold(word)] if word else EditKind.SUBSTITUTION
    ins = kind is EditKind.INSERTION
    # The edited sequence is what an insertion adds and what any other
    # edit removes or copies.
    seq = gd.get("seq") or None
    return VariantDescriptor(
        level=level,
        position=_number(gd.get("pos")),
        position_end=_number(gd.get("pos2")),
        ref_allele=_allele(gd, "wt", "wt3", "wtn") or (None if ins else seq),
        alt_allele=_allele(gd, "mt", "mt3", "mtn") or (seq if ins else None),
        edit_kind=kind,
        size=_number(gd.get("size")),
        raw=m.group(0),
    )


def _build_region(m: re.Match, gd: dict[str, str | None]) -> RegionDescriptor:
    chromosome = gd["chrom"].upper()
    if gd.get("arm"):
        return RegionDescriptor(
            chromosome=chromosome,
            kind=RegionKind.CHROMOSOME_BAND,
            arm_band=f"{gd['arm'].lower()}{gd['band']}",
            raw=m.group(0),
        )
    start, end = _coord(gd["c1"]), _coord(gd["c2"])
    if end < start:
        raise ParseFailure(m.group(0), m.start("c2") - m.start(), "end before start")
    word = gd.get("ed")
    if word is None:
        kind = RegionKind.BP_REGION
    elif word.lower().startswith("del"):
        kind = RegionKind.CNV_DEL
    else:
        kind = RegionKind.CNV_DUP
    return RegionDescriptor(
        chromosome=chromosome,
        kind=kind,
        start_bp=start,
        end_bp=end,
        raw=m.group(0),
    )


# Trigger literals shared by several rules; see GrammarRule.
_ARROW_TRIGGERS = (">", "→")

# Start and second characters shared by several rules; see GrammarRule.
# A position may follow a sequence-level prefix ("c."), a residue a "p."
# prefix.
_DIGITS = "0123456789"
_POS_STARTS = _DIGITS[1:]
# Every character \s matches: those str.isspace accepts, none above U+3000.
_SPACES = "".join(c for c in map(chr, range(0x3001)) if c.isspace())
_LEVEL_POS_STARTS = _DNA_LEVELS + _POS_STARTS
# After a level prefix's letter comes its dot; after a position's first
# digit, another digit.
_LEVEL_POS_SECONDS = "." + _DIGITS
_AA1_STARTS = _AA20
_AA3_STARTS = _letters_at(_AA3_WT, 0)
_AA3_SECONDS = _letters_at(_AA3_WT, 1)
_AA_NAME_STARTS = _letters_at(AA_NAME_TO_1, 0)
_AA_NAME_SECONDS = _letters_at(AA_NAME_TO_1, 1)
# What may follow a residue or nucleotide letter on its way to an arrow.
_ARROW_SECONDS = _SPACES + _letters_at(_ARROWS, 0)
_REFSEQ_PREFIXES = ("NM", "NP", "NC", "NG", "NR", "XM", "XP")

GRAMMAR_RULES: tuple[GrammarRule, ...] = (
    # --- identifiers -------------------------------------------------------
    GrammarRule(
        "snp",
        MentionType.SNP,
        r"[Rr][Ss](?P<digits>%s)" % _POS,
        triggers=("rs", "Rs", "rS", "RS"),
        starts="Rr",
        seconds="Ss",
    ),
    GrammarRule(
        "refseq",
        MentionType.REFSEQ,
        r"(?P<acc>(?:%s)_[0-9]+(?:\.[0-9]+)?)" % "|".join(_REFSEQ_PREFIXES),
        triggers=tuple(prefix + "_" for prefix in _REFSEQ_PREFIXES),
        starts=_letters_at(_REFSEQ_PREFIXES, 0),
        seconds=_letters_at(_REFSEQ_PREFIXES, 1),
    ),
    # --- DNA ---------------------------------------------------------------
    GrammarRule(
        "dna_arrow",
        MentionType.DNA_MUTATION,
        r"(?:%s)?(?P<pos>%s)\s?(?P<wt>%s?)%s(?P<mt>%s)"
        % (_LV, _POS, _NUC, _ARROW_SEP, _NUC),
        triggers=_ARROW_TRIGGERS,
        starts=_LEVEL_POS_STARTS,
        seconds=_LEVEL_POS_SECONDS + _NUC_LETTERS + _ARROW_SECONDS,
    ),
    GrammarRule(
        "dna_slash",
        MentionType.DNA_MUTATION,
        r"(?:%s)?(?P<pos>%s)(?P<wt>%s)/(?P<mt>%s)"
        % (_LV, _POS, _NUC, _NUC),
        triggers=("/",),
        starts=_LEVEL_POS_STARTS,
        seconds=_LEVEL_POS_SECONDS + _NUC_LETTERS,
    ),
    GrammarRule(
        "dna_level_edit",
        MentionType.DNA_MUTATION,
        "(?:%s)?%s" % (_LV, _LEVEL_EDIT),
        scan_pattern=_LV + _LEVEL_EDIT,
        triggers=tuple(level + "." for level in _DNA_LEVELS),
        starts=_DNA_LEVELS,
        seconds=".",
    ),
    GrammarRule(
        "dna_allele",
        MentionType.DNA_ALLELE,
        r"(?:%s)?(?P<pos>%s)(?P<wt>%s)" % (_LV, _POS, _NUC),
        starts=_LEVEL_POS_STARTS,
        seconds=_LEVEL_POS_SECONDS + _NUC_LETTERS,
    ),
    GrammarRule(
        "dna_change_arrow",
        MentionType.DNA_CHANGE,
        r"(?:%s)?(?P<wt>%s)%s(?P<mt>%s)" % (_LV, _NUC, _ARROW_SEP, _NUC),
        triggers=_ARROW_TRIGGERS,
        starts=_DNA_LEVELS + _NUC_LETTERS,
        seconds="." + _ARROW_SECONDS,
    ),
    GrammarRule(
        "dna_change_slash",
        MentionType.DNA_CHANGE,
        r"(?P<wt>%s)/(?P<mt>%s)" % (_NUC, _NUC),
        triggers=("/",),
        starts=_NUC_LETTERS,
        seconds="/",
    ),
    GrammarRule(
        "dna_change_words",
        MentionType.DNA_CHANGE,
        r"(?P<wtn>%s)\s+to\s+(?P<mtn>%s)" % (_NUC_NAME, _NUC_NAME),
        flags=re.IGNORECASE,
        triggers=tuple(NUC_NAME_TO_1),
        starts=_letters_at(NUC_NAME_TO_1, 0),
        seconds=_letters_at(NUC_NAME_TO_1, 1),
    ),
    # --- protein -----------------------------------------------------------
    GrammarRule(
        "protein_one_letter",
        MentionType.PROTEIN_MUTATION,
        r"(?:p\.)?(?P<wt>%s)(?P<pos>%s)(?P<mt>%s)" % (_AA1, _POS, _AA1_MUT),
        starts="p" + _AA1_STARTS,
        seconds="." + _POS_STARTS,
    ),
    GrammarRule(
        "protein_three_letter",
        MentionType.PROTEIN_MUTATION,
        r"(?:p\.)?(?P<wt3>%s)(?P<pos>%s)(?P<mt3>%s)" % (_AA3, _POS, _AA3_MUT),
        triggers=_AA3_WT,
        starts="p" + _AA3_STARTS,
        seconds="." + _AA3_SECONDS,
    ),
    GrammarRule(
        "protein_frameshift",
        MentionType.PROTEIN_MUTATION,
        r"(?:p\.)?(?:(?P<wt>%s)|(?P<wt3>%s))(?P<pos>%s)(?P<ed>fs)"
        % (_AA1, _AA3, _POS),
        triggers=("fs",),
        starts="p" + _AA1_STARTS,
        seconds="." + _POS_STARTS + _AA3_SECONDS,
    ),
    GrammarRule(
        "protein_del_dup",
        MentionType.PROTEIN_MUTATION,
        r"(?:p\.)?(?:(?P<wt>%s)|(?P<wt3>%s))(?P<pos>%s)(?P<ed>del|dup)"
        % (_AA1, _AA3, _POS),
        triggers=("del", "dup"),
        starts="p" + _AA1_STARTS,
        seconds="." + _POS_STARTS + _AA3_SECONDS,
    ),
    GrammarRule(
        "protein_range_edit",
        MentionType.PROTEIN_MUTATION,
        # The p. prefix is mandatory: a bare "1952ins306" is an
        # unspecified-level event, not a protein one.
        r"p\.(?P<pos>%s)(?:_(?P<pos2>%s))?(?P<ed>del|ins|dup)"
        r"(?:(?P<seq>%s+)|(?P<size>%s))?" % (_POS, _POS, _AA1, _POS),
        scan=False,
    ),
    GrammarRule(
        "protein_allele_three_letter",
        MentionType.PROTEIN_ALLELE,
        r"(?:p\.)?(?P<wt3>%s)(?P<pos>%s)" % (_AA3, _POS),
        triggers=_AA3_WT,
        starts="p" + _AA3_STARTS,
        seconds="." + _AA3_SECONDS,
    ),
    GrammarRule(
        "protein_allele_p",
        MentionType.PROTEIN_ALLELE,
        r"p\.(?P<wt>%s)(?P<pos>%s)" % (_AA1, _POS),
        triggers=("p.",),
        starts="p",
        seconds=".",
    ),
    GrammarRule(
        "protein_allele_one_letter",
        MentionType.PROTEIN_ALLELE,
        r"(?P<wt>%s)(?P<pos>%s)" % (_AA1, _POS),
        # Bare one-letter alleles need two digits in running text; "T4"-style
        # shorthand is too noisy to claim.
        scan_pattern=r"(?P<wt>%s)(?P<pos>[1-9][0-9]+)" % _AA1,
        starts=_AA1_STARTS,
        seconds=_POS_STARTS,
    ),
    GrammarRule(
        "protein_allele_words",
        MentionType.PROTEIN_ALLELE,
        r"(?P<wtn>%s)\s+at\s+(?:codon|residue|position)\s+(?P<pos>%s)"
        % (_AA_NAME, _POS),
        flags=re.IGNORECASE,
        triggers=("codon", "residue", "position"),
        starts=_AA_NAME_STARTS,
        seconds=_AA_NAME_SECONDS,
    ),
    GrammarRule(
        "protein_change_words",
        MentionType.PROTEIN_CHANGE,
        r"(?P<wtn>%s)\s+to\s+(?P<mtn>%s)" % (_AA_NAME, _AA_NAME),
        flags=re.IGNORECASE,
        triggers=tuple(AA_NAME_TO_1),
        starts=_AA_NAME_STARTS,
        seconds=_AA_NAME_SECONDS,
    ),
    GrammarRule(
        "protein_change_three_letter",
        MentionType.PROTEIN_CHANGE,
        r"(?:p\.)?(?P<wt3>%s)\s+to\s+(?P<mt3>%s)" % (_AA3, _AA3),
        triggers=_AA3_WT,
        starts="p" + _AA3_STARTS,
        seconds="." + _AA3_SECONDS,
    ),
    GrammarRule(
        "protein_change_arrow",
        MentionType.PROTEIN_CHANGE,
        r"(?:p\.)?(?P<wt>%s)%s(?P<mt>%s)" % (_AA1, _ARROW_SEP, _AA1_MUT),
        triggers=_ARROW_TRIGGERS,
        starts="p" + _AA1_STARTS,
        seconds="." + _ARROW_SECONDS,
    ),
    # --- natural-language sizes --------------------------------------------
    GrammarRule(
        "size_words",
        MentionType.OTHER_MUTATION,
        r"(?P<size>[0-9]{1,9}|%s)[ \-](?:%s)[ \-](?P<ed>deletion|insertion|duplication)"
        r"(?:\s+(?:starting\s+at|at)\s+position\s+(?P<pos>%s))?"
        % (_NUM_WORD, _UNIT, _POS),
        flags=re.IGNORECASE,
        triggers=("deletion", "insertion", "duplication"),
        starts=_DIGITS + _letters_at(NUMBER_WORDS, 0),
        seconds=_DIGITS + " -" + _letters_at(NUMBER_WORDS, 1),
    ),
    GrammarRule(
        "edit_size",
        MentionType.OTHER_MUTATION,
        r"(?P<ed>del|ins|dup)(?P<size>%s)" % _POS,
        scan=False,
    ),
    GrammarRule(
        "position_edit_size",
        MentionType.OTHER_MUTATION,
        r"(?P<pos>%s)(?:_(?P<pos2>%s))?(?P<ed>del|ins|dup)(?P<size>%s)?"
        % (_POS, _POS, _POS),
        scan=False,
    ),
    # --- regions -----------------------------------------------------------
    GrammarRule(
        "cnv_region_edit",
        MentionType.CNV,
        r"%s(?P<chrom>%s)\s*(?::\s*)?(?P<c1>%s)\s*[-–]\s*(?P<c2>%s)"
        r"\s*(?:(?:bp|base[ \-]?pairs?)\s*)?(?P<ed>deletions?|duplications?|del|dup)"
        % (_CHR_WORD, _CHROM, _COORD, _COORD),
        flags=re.IGNORECASE,
        triggers=("chr",),
        starts="c",
        seconds="h",
    ),
    GrammarRule(
        "cnv_edit_region",
        MentionType.CNV,
        r"(?P<ed>deletion|duplication|del|dup)\s+(?:(?:of|at|on|in)\s+)?"
        r"%s(?P<chrom>%s)\s*:\s*(?P<c1>%s)\s*[-–]\s*(?P<c2>%s)"
        r"(?:\s*(?:bp|base[ \-]?pairs?))?"
        % (_CHR_WORD, _CHROM, _COORD, _COORD),
        flags=re.IGNORECASE,
        triggers=("chr",),
        starts="d",
        seconds="eu",
    ),
    GrammarRule(
        "genomic_region",
        MentionType.GENOMIC_REGION,
        r"%s(?P<chrom>%s)\s*:\s*(?P<c1>%s)\s*[-–]\s*(?P<c2>%s)"
        % (_CHR_WORD, _CHROM, _COORD, _COORD),
        triggers=("chr", "Chr"),
        starts="Cc",
        seconds="h",
    ),
    GrammarRule(
        "chromosome_band",
        MentionType.CHROMOSOME,
        r"(?:%s)?(?P<chrom>[1-9][0-9]?|[XY])(?P<arm>[pq])(?P<band>%s)"
        % (_CHR_WORD, _BAND),
        starts="Cc" + _POS_STARTS + "XY",
        seconds="h" + _DIGITS + "pq",
    ),
    GrammarRule(
        "chromosome_words",
        MentionType.CHROMOSOME,
        r"chromosome\s+(?P<chrom>[1-9][0-9]?|[XYxy])\s+(?P<arm>[pq])\s*"
        r"(?P<band>%s)" % _BAND,
        flags=re.IGNORECASE,
        triggers=("chr",),
        starts="c",
        seconds="h",
    ),
)

RULES_BY_TYPE: dict[MentionType, tuple[GrammarRule, ...]] = {}
for _rule in GRAMMAR_RULES:
    RULES_BY_TYPE.setdefault(_rule.mtype, ())
    RULES_BY_TYPE[_rule.mtype] = RULES_BY_TYPE[_rule.mtype] + (_rule,)


def _full_matches(
    surface: str, rules: Iterable[GrammarRule]
) -> Iterator[tuple[GrammarRule, re.Match]]:
    """Yield ``(rule, match)`` for each rule matching all of ``surface``, in
    rule order; once none is left, raise :class:`ParseFailure` at the end of
    the longest prefix any other rule matched."""
    best = 0
    for rule in rules:
        m = rule.rx.fullmatch(surface)
        if m is not None:
            yield rule, m
            continue
        prefix = rule.rx.match(surface)
        if prefix is not None:
            best = max(best, prefix.end())
    raise ParseFailure(surface, best)


def parse_descriptor(surface: str, hint: MentionType) -> Descriptor:
    """Parse ``surface`` under the grammar for ``hint``.

    Raises :class:`ParseFailure` naming the first offending character when
    no rule for the type matches the whole string.
    """
    return _parse(surface, hint)[0]


def _parse(surface: str, hint: MentionType) -> tuple[Descriptor, re.Match]:
    """``parse_descriptor``'s descriptor, and the match it was built from."""
    if hint in IDENTIFIER_TYPES:
        raise ValueError(f"{hint.name} mentions carry identifiers; "
                         "use classify_surface")
    rule, m = next(_full_matches(surface, RULES_BY_TYPE[hint]))
    try:
        return rule.build(m), m
    except ValueError as exc:
        raise ParseFailure(surface, 0, str(exc)) from exc


def classify_surface(surface: str) -> tuple[MentionType, Descriptor | str]:
    """Find the mention type owning ``surface`` and parse it.

    Types are tried in priority order; the reported type is re-derived from
    the parsed descriptor so that equivalent forms classify identically.
    """
    rules = (rule for mtype in TYPE_PRIORITY for rule in RULES_BY_TYPE[mtype])
    for rule, m in _full_matches(surface, rules):
        try:
            built = rule.build(m)
        except (ValueError, ParseFailure):
            continue
        if isinstance(built, str):
            return rule.mtype, built
        return classify_descriptor(built), built
