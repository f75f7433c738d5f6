"""Micro-averaged precision, recall, and F1 over annotated corpora.

Gold and predicted documents pair up by id; items missing on either side
count against recall or precision respectively.  The three modes score
plain spans, spans with labels, and per-document identifier sets (the last
collapses repeated mentions of the same variant).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .corpus import Document


class EvalMode(Enum):
    MENTION_SPAN = "span"
    MENTION_TYPE = "type"
    NORM_ID = "id"


@dataclass(frozen=True)
class EvalReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "EvalReport":
        # An empty prediction against an empty gold standard is perfect,
        # not undefined.
        if tp + fp > 0:
            precision = tp / (tp + fp)
        else:
            precision = 1.0 if fn == 0 else 0.0
        if tp + fn > 0:
            recall = tp / (tp + fn)
        else:
            recall = 1.0 if fp == 0 else 0.0
        if precision + recall > 0:
            f1 = 2 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
        return cls(tp, fp, fn, precision, recall, f1)


def _items(docs: Iterable[Document], mode: EvalMode) -> set[tuple]:
    if mode is EvalMode.MENTION_SPAN:
        return {
            (doc.doc_id, ann.start, ann.end)
            for doc in docs for ann in doc.annotations
        }
    if mode is EvalMode.MENTION_TYPE:
        return {
            (doc.doc_id, ann.start, ann.end, ann.label)
            for doc in docs for ann in doc.annotations
        }
    # Identifier scoring ignores mentions nothing resolved.
    return {
        (doc.doc_id, ann.norm_id)
        for doc in docs for ann in doc.annotations
        if ann.norm_id and ann.norm_id != "-"
    }


def evaluate(
    gold: Iterable[Document],
    predicted: Iterable[Document],
    mode: EvalMode = EvalMode.MENTION_SPAN,
) -> EvalReport:
    """Micro-averaged scores of ``predicted`` against ``gold``."""
    gold_items = _items(gold, mode)
    pred_items = _items(predicted, mode)
    tp = len(gold_items & pred_items)
    fp = len(pred_items - gold_items)
    fn = len(gold_items - pred_items)
    return EvalReport.from_counts(tp, fp, fn)
