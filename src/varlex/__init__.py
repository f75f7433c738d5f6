"""Rule-based recognition, normalization, and grouping of genomic variant
mentions in biomedical text."""

from .corpus import (
    Annotation,
    Document,
    read_pubtator,
    read_pubtator_text,
    write_pubtator,
)
from .errors import (
    DuplicateKey,
    FileUnreadable,
    MalformedLine,
    MalformedRow,
    OffsetMismatch,
    ParseFailure,
    UnknownResidue,
    VarlexError,
)
from .evaluation import EvalMode, EvalReport, evaluate
from .grouping import VariantGroup, group_mentions, propagated_ids
from .hgvs import (
    ComponentRole,
    EditKind,
    MentionType,
    RegionDescriptor,
    RegionKind,
    SequenceLevel,
    VariantDescriptor,
    canonical_string,
    classify_descriptor,
    classify_surface,
    normalize_amino_acid,
    parse_descriptor,
    region_string,
)
from .kb import KnowledgeBase, VariantRecord, load_genes, load_kb
from .normalizer import (
    DEFAULT_POLICY,
    UNNORMALIZED,
    IdKind,
    NormalizationPolicy,
    NormalizedId,
    candidate_records,
    normalize,
    resolve_gene_context,
)
from .pipeline import Annotator
from .recognizer import (
    GeneMention,
    Mention,
    Recognizer,
    split_gene_fused,
    split_sentences,
)

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "Annotator",
    "ComponentRole",
    "DEFAULT_POLICY",
    "Document",
    "DuplicateKey",
    "EditKind",
    "EvalMode",
    "EvalReport",
    "FileUnreadable",
    "GeneMention",
    "IdKind",
    "UNNORMALIZED",
    "KnowledgeBase",
    "MalformedLine",
    "MalformedRow",
    "Mention",
    "MentionType",
    "NormalizationPolicy",
    "NormalizedId",
    "OffsetMismatch",
    "ParseFailure",
    "Recognizer",
    "RegionDescriptor",
    "RegionKind",
    "SequenceLevel",
    "UnknownResidue",
    "VariantDescriptor",
    "VariantGroup",
    "VariantRecord",
    "VarlexError",
    "canonical_string",
    "classify_descriptor",
    "classify_surface",
    "evaluate",
    "group_mentions",
    "load_genes",
    "load_kb",
    "candidate_records",
    "normalize",
    "normalize_amino_acid",
    "parse_descriptor",
    "propagated_ids",
    "read_pubtator",
    "read_pubtator_text",
    "region_string",
    "resolve_gene_context",
    "split_gene_fused",
    "split_sentences",
    "write_pubtator",
]
