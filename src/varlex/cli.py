"""Command line front end.

Three subcommands: ``annotate`` runs the full pipeline over a PubTator file
or plain text, ``parse`` explains a single variant surface form, and
``evaluate`` scores a prediction file against a gold file.  Exit status is
0 on success, 1 when input content cannot be processed, and 2 for usage or
unreadable-file errors and for an output pipe closed by its reader.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TextIO

from .corpus import (
    Document,
    _lines,
    _read_text,
    read_pubtator,
    read_pubtator_text,
    write_pubtator,
)
from .errors import FileUnreadable, VarlexError
from .evaluation import EvalMode, evaluate
from .hgvs import (
    RegionDescriptor,
    SequenceLevel,
    VariantDescriptor,
    canonical_string,
    classify_surface,
    region_string,
)
from .kb import KnowledgeBase, load_genes, load_kb
from .normalizer import DEFAULT_POLICY, NormalizationPolicy
from .pipeline import Annotator


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varlex",
        description="Recognize, normalize, and group variant mentions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    annotate = sub.add_parser(
        "annotate", help="annotate a PubTator corpus or plain text"
    )
    annotate.add_argument(
        "input", nargs="?", default="-",
        help="input file, or - for standard input (default)",
    )
    annotate.add_argument(
        "-o", "--output", default="-",
        help="output file, or - for standard output (default)",
    )
    annotate.add_argument(
        "--kb", default=None,
        help="variant knowledge base TSV (default: $VARLEX_KB)",
    )
    annotate.add_argument(
        "--genes", default=None, help="gene lexicon, one symbol per line"
    )
    annotate.add_argument(
        "--policy", default=None,
        help="identifier preference, comma separated from "
             "caid, rs_allele, rsid, gene",
    )
    annotate.add_argument(
        "--no-group", action="store_true",
        help="emit per-mention identifiers without document-level grouping",
    )
    annotate.add_argument(
        "--threads", type=int, default=1, help="worker processes (default 1)"
    )
    annotate.add_argument(
        "--format", choices=("pubtator", "text"), default="pubtator",
        help="input format: a PubTator corpus, or one plain-text "
             "document per line",
    )

    parse = sub.add_parser("parse", help="explain one variant surface form")
    parse.add_argument("surface", help="the mention text to parse")

    ev = sub.add_parser("evaluate", help="score predictions against gold")
    ev.add_argument("gold", help="gold PubTator file")
    ev.add_argument("predicted", help="predicted PubTator file")
    ev.add_argument(
        "--mode", choices=sorted(mode.value for mode in EvalMode), default="span",
        help="span, type, or id matching (default span)",
    )
    return parser


class _OutputUnwritable(Exception):
    """The output path cannot be opened or written; exits 2."""


def _write_output(path: str, content: str) -> None:
    if path == "-":
        sys.stdout.write(content)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        raise _OutputUnwritable(f"cannot write {path}: {exc}") from exc


def _text_documents(content: str) -> list[Document]:
    docs = []
    for line in _lines(content):
        if line.strip():
            docs.append(Document(f"doc{len(docs) + 1}", line, ""))
    return docs


def _cmd_annotate(args: argparse.Namespace) -> int:
    kb_path = args.kb or os.environ.get("VARLEX_KB")
    kb = load_kb(kb_path) if kb_path else KnowledgeBase(())
    lexicon = load_genes(args.genes) if args.genes else None
    policy = (
        NormalizationPolicy.from_string(args.policy)
        if args.policy
        else DEFAULT_POLICY
    )
    annotator = Annotator(
        kb=kb, lexicon=lexicon, policy=policy, group=not args.no_group
    )
    content = _read_text(sys.stdin if args.input == "-" else args.input)
    if args.format == "text":
        docs = _text_documents(content)
    else:
        docs = read_pubtator_text(content)
    annotated = annotator.annotate_all(docs, threads=max(1, args.threads))
    _write_output(args.output, write_pubtator(annotated))
    return 0


def _describe(surface: str, out: TextIO) -> None:
    mtype, parsed = classify_surface(surface)
    out.write(f"type: {mtype.label}\n")
    if isinstance(parsed, str):
        out.write(f"id: {parsed}\n")
        return
    if isinstance(parsed, RegionDescriptor):
        out.write(f"canonical: {region_string(parsed)}\n")
        out.write(f"chromosome: {parsed.chromosome}\n")
        if parsed.arm_band:
            out.write(f"band: {parsed.arm_band}\n")
        if parsed.start_bp is not None:
            out.write(f"start: {parsed.start_bp}\n")
            out.write(f"end: {parsed.end_bp}\n")
        return
    assert isinstance(parsed, VariantDescriptor)
    out.write(f"canonical: {canonical_string(parsed)}\n")
    if parsed.level is not SequenceLevel.UNSPECIFIED:
        out.write(f"level: {parsed.level.value}\n")
    if parsed.position is not None:
        out.write(f"position: {parsed.position}\n")
    if parsed.position_end is not None and parsed.position_end != parsed.position:
        out.write(f"position_end: {parsed.position_end}\n")
    if parsed.ref_allele is not None:
        out.write(f"wildtype: {parsed.ref_allele}\n")
    if parsed.alt_allele is not None:
        out.write(f"mutant: {parsed.alt_allele}\n")
    out.write(f"edit: {parsed.edit_kind.value.lower()}\n")
    if parsed.size is not None:
        out.write(f"size: {parsed.size}\n")


def _cmd_parse(args: argparse.Namespace) -> int:
    _describe(args.surface, sys.stdout)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    gold = read_pubtator(args.gold)
    predicted = read_pubtator(args.predicted)
    report = evaluate(gold, predicted, EvalMode(args.mode))
    sys.stdout.write(f"TP={report.tp} FP={report.fp} FN={report.fn}\n")
    sys.stdout.write(
        f"P={report.precision:.4f} R={report.recall:.4f} F={report.f1:.4f}\n"
    )
    return 0


_COMMANDS = {
    "annotate": _cmd_annotate,
    "parse": _cmd_parse,
    "evaluate": _cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        # Flush inside the try, so that a closed pipe is caught below and
        # not at exit.  With fd 1 closed there is no stdout to flush.
        if sys.stdout is not None:
            sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed the pipe ("| head").  Point stdout at devnull
        # so that the flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except (FileUnreadable, _OutputUnwritable) as exc:
        print(f"varlex: {exc}", file=sys.stderr)
        return 2
    except (VarlexError, ValueError) as exc:
        print(f"varlex: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
