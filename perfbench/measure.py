"""Measurement loops and output checks shared by the untraced and traced runs.

Checks run after each timed batch, outside its timing, and keep nothing
but counts, so the process's memory does not grow with the number of
documents a run gets through.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import time

import gauge

# Throughput is the median of per-window rates, each window at least this
# long, so a short stall elsewhere on the machine moves one window and not
# the figure.  Short windows also let the pace readings around them follow
# the machine closely.
WINDOW_S = 0.25


def iter_blocks(path: str):
    """Document blocks of a PubTator file, each with its blank line, read
    one at a time so a run holds no more of its input than one batch."""
    with open(path, encoding="utf-8") as fh:
        lines = []
        for line in fh:
            if line == "\n":
                if lines:
                    yield "".join(lines) + "\n"
                    lines = []
            else:
                lines.append(line)
        if lines:
            yield "".join(lines) + "\n"


def batches_of(size: int, *paths: str):
    """Lists of ``size`` blocks, one list per file, in step."""
    streams = [iter_blocks(p) for p in paths]
    while True:
        chunk = [list(itertools.islice(s, size)) for s in streams]
        if not chunk[0]:
            return
        yield chunk


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    k = (len(ordered) - 1) * pct / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def tail_latency(latencies: list[float], pct: float) -> tuple[float, int, int]:
    """The ``pct``-th percentile taken over consecutive groups of samples,
    each just large enough to hold ten samples beyond it, and the median
    over the groups; a burst of machine noise then moves one group, not
    the figure.  Returns (value, groups, group size); with fewer samples
    than one group it is the percentile of them all, with 0 groups."""
    size = math.ceil(10 / (1 - pct / 100))
    groups = [latencies[i:i + size]
              for i in range(0, len(latencies) - size + 1, size)]
    if not groups:
        return percentile(latencies, pct), 0, size
    return statistics.median(percentile(g, pct) for g in groups), len(groups), size


class Windows:
    """Timed work grouped into windows of at least ``WINDOW_S`` seconds,
    each bracketed by readings of the machine's pace (see gauge.py).

    Rates are reported as the median over windows of each window's rate
    times its pace, and latencies divided by the pace of their window, so
    both read as at the nominal speed.  Pace readings fall between timed
    batches and are never inside a timing.
    """

    def __init__(self):
        self.closed: list[tuple[int, int, float, float, list[float]]] = []
        self._pace = gauge.pace()
        self._open()

    def _open(self) -> None:
        self.docs = self.nbytes = 0
        self.seconds = 0.0
        self.latencies: list[float] = []

    def add(self, docs: int, nbytes: int, seconds: float) -> None:
        self.docs += docs
        self.nbytes += nbytes
        self.seconds += seconds

    def maybe_close(self) -> None:
        """Close the window once it holds enough timed work."""
        if self.seconds >= WINDOW_S:
            self._close()

    def _close(self) -> None:
        end = gauge.pace()
        self.closed.append((self.docs, self.nbytes, self.seconds,
                            (self._pace + end) / 2, self.latencies))
        self._pace = end
        self._open()

    def finish(self) -> dict:
        """Close the last window; return nominal and raw figures."""
        if self.docs:
            self._close()
        # A short final window is kept only when it is the only one.
        full = [w for w in self.closed if w[2] >= WINDOW_S] or self.closed
        paces = [w[3] for w in self.closed]
        return {
            "docs_per_s": statistics.median(d / s * p for d, _, s, p, _ in full),
            "mb_per_s": statistics.median(b / 1e6 / s * p for _, b, s, p, _ in full),
            "raw_docs_per_s": statistics.median(d / s for d, _, s, _, _ in full),
            "latencies": [x / p for _, _, _, p, lat in self.closed for x in lat],
            "raw_latencies": [x for *_, lat in self.closed for x in lat],
            "windows": len(full),
            "pace": statistics.median(paces),
        }


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


def no_span(name: str) -> _NoSpan:
    return _NO_SPAN


class Run:
    """State of one workload run: the package, its annotator, check
    results, failure counts and the metrics to report."""

    def __init__(self, cfg: dict, varlex, annotator, setup: dict):
        self.cfg = cfg
        self.v = varlex
        self.annotator = annotator
        self.setup = setup
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.notes: dict[str, str] = {}
        self.metrics: dict[str, tuple[float, str]] = {}

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def round_trip(self, name: str, text: str, span=no_span) -> list:
        """Read PubTator text, write it back, require identical bytes."""
        v = self.v
        with span("corpus.read_pubtator"):
            docs = v.read_pubtator_text(text)
        with span("corpus.write_pubtator"):
            again = v.write_pubtator(docs)
        self.check(name, again == text)
        return docs

    # -- annotation workloads ---------------------------------------------------

    def annotate_serial(self, docs):
        """annotate_document per document: outputs and per-document seconds."""
        out, latencies = [], []
        for doc in docs:
            started = time.perf_counter()
            try:
                result = self.annotator.annotate_document(doc)
            except Exception:  # a document that raises counts as failed
                self.failed += 1
                continue
            latencies.append(time.perf_counter() - started)
            out.append(result)
        return out, latencies

    def add_scores(self, scores: dict, gold, outputs, span=no_span) -> None:
        """Add span+label and id counts against planted gold to ``scores``.

        Only KB-backed ids (ClinGen, rs) are scored: gold plants no
        gene-anchored ids, so predicted ones are blanked before scoring.
        """
        v = self.v
        kb_only = [
            v.Document(d.doc_id, d.title, d.abstract, tuple(
                a if a.norm_id.startswith(("CA", "rs")) else
                v.Annotation(a.start, a.end, a.text, a.label, "")
                for a in d.annotations
            ))
            for d in outputs
        ]
        for key, predicted, mode in (
            ("type", outputs, v.EvalMode.MENTION_TYPE),
            ("id", kb_only, v.EvalMode.NORM_ID),
        ):
            with span("evaluation.evaluate"):
                r = v.evaluate(gold, predicted, mode)
            total = scores[key]
            total[0] += r.tp
            total[1] += r.fp
            total[2] += r.fn

    def end_to_end_annotate(self) -> None:
        """Closed loop over batches: read PubTator, annotate, write PubTator.

        With more than one thread a batch goes through ``annotate_all``;
        each batch is then annotated again serially, which gives the
        per-document latencies and the thread-invariance check.
        """
        v, cfg = self.v, self.cfg
        threads, size = cfg["threads"], cfg["batch"]
        scores = {"type": [0, 0, 0], "id": [0, 0, 0]}
        windows = Windows()
        deadline = time.perf_counter() + cfg["seconds"]
        for inputs, golds in batches_of(size, cfg["input"], cfg["gold"]):
            if time.perf_counter() >= deadline:
                break
            chunk = "".join(inputs)
            started = time.perf_counter()
            docs = v.read_pubtator_text(chunk)
            if threads > 1:
                try:
                    out = self.annotator.annotate_all(docs, threads=threads)
                except Exception:
                    self.failed += len(docs)
                    out = []
            else:
                out, lat = self.annotate_serial(docs)
                windows.latencies.extend(lat)
            text = v.write_pubtator(out)
            windows.add(len(docs), len(chunk.encode("utf-8")),
                        time.perf_counter() - started)
            self.attempted += len(docs)

            self.round_trip("round_trip.input", chunk)
            gold = self.round_trip("round_trip.gold", "".join(golds))
            self.round_trip("round_trip.output", text)
            if threads > 1:
                serial, lat = self.annotate_serial(docs)
                windows.latencies.extend(lat)
                self.check("threads_identical", v.write_pubtator(serial) == text)
            self.add_scores(scores, gold, out)
            windows.maybe_close()
        self.report_end_to_end(windows.finish(), scores)

    # -- evaluate workload --------------------------------------------------------

    def evaluate_doc(self, gold_block: str, pred_block: str, totals: dict,
                     span=no_span) -> int:
        """Read one gold/prediction pair, score all three modes, write both
        back; return the number of annotations the reads verified."""
        v = self.v
        with span("corpus.read_pubtator"):
            gold = v.read_pubtator_text(gold_block)
        with span("corpus.read_pubtator"):
            pred = v.read_pubtator_text(pred_block)
        for mode in v.EvalMode:
            with span("evaluation.evaluate"):
                r = v.evaluate(gold, pred, mode)
            total = totals[mode.value]
            total[0] += r.tp
            total[1] += r.fp
            total[2] += r.fn
        with span("corpus.write_pubtator"):
            gold_text = v.write_pubtator(gold)
        with span("corpus.write_pubtator"):
            pred_text = v.write_pubtator(pred)
        self.check("round_trip.output",
                   gold_text == gold_block and pred_text == pred_block)
        return sum(len(d.annotations) for d in gold + pred)

    def evaluate_loop(self, n_docs: int | None, span=no_span):
        """Score document pairs in order, cycling through the corpus, until
        the deadline or, when ``n_docs`` is given, for that many pairs.
        Returns TP/FP/FN totals per mode, the timing windows and the
        number of annotations verified on read."""
        cfg = self.cfg
        with open(cfg["expected"], encoding="utf-8") as fh:
            expected = json.load(fh)
        if not expected:
            raise ValueError("the evaluate corpus is empty")
        want = {m: [0, 0, 0] for m in ("span", "type", "id")}
        totals = {m.value: [0, 0, 0] for m in self.v.EvalMode}
        windows = Windows()
        verified = 0
        deadline = time.perf_counter() + cfg["seconds"]
        pairs = itertools.chain.from_iterable(
            zip(iter_blocks(cfg["gold"]), iter_blocks(cfg["pred"]), expected)
            for _ in itertools.repeat(None)
        )
        for i, (gold_block, pred_block, implied) in enumerate(pairs):
            if n_docs is None:
                if time.perf_counter() >= deadline:
                    break
            elif i == n_docs:
                break
            self.attempted += 1
            started = time.perf_counter()
            try:
                verified += self.evaluate_doc(
                    gold_block, pred_block, totals, span
                )
            except Exception:
                self.failed += 1
                continue
            elapsed = time.perf_counter() - started
            windows.latencies.append(elapsed)
            windows.add(1, len(gold_block.encode("utf-8"))
                        + len(pred_block.encode("utf-8")), elapsed)
            windows.maybe_close()
            for mode, counts in implied.items():
                for j in range(3):
                    want[mode][j] += counts[j]
        for mode, got in totals.items():
            self.check(f"eval_counts.{mode}", got == want[mode])
        return totals, windows, verified

    def end_to_end_evaluate(self) -> None:
        totals, windows, _ = self.evaluate_loop(None)
        self.report_end_to_end(windows.finish(), totals)

    def report_end_to_end(self, measured: dict, scores: dict) -> None:
        f1 = {k: self.v.EvalReport.from_counts(*c).f1 for k, c in scores.items()}
        latencies = measured["latencies"]
        pct = self.cfg["tail_pct"]
        tail, groups, size = tail_latency(latencies, pct)
        raw_tail, _, _ = tail_latency(measured["raw_latencies"], pct)
        self.metrics.update({
            "docs_per_s": (measured["docs_per_s"], "docs/s"),
            "mb_per_s": (measured["mb_per_s"], "MB/s"),
            "doc_latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "doc_latency_tail_ms": (tail * 1e3, "ms"),
            "mention_f1": (f1["type"], "ratio"),
            "id_f1": (f1["id"], "ratio"),
        })
        raw = measured["raw_latencies"]
        self.notes.update({
            "docs_per_s": (
                f"median of {measured['windows']} windows; raw "
                f"{measured['raw_docs_per_s']:.6g} at pace {measured['pace']:.3f}"
            ),
            "doc_latency_p50_ms": (
                f"of {len(latencies)} samples; raw {statistics.median(raw) * 1e3:.6g}"
            ),
            "doc_latency_tail_ms": (
                f"p{pct:g}, median over {groups} groups of {size} samples, "
                f"each with {size - math.ceil(size * pct / 100)} beyond it"
                if groups else
                f"p{pct:g} of all {len(latencies)} samples, fewer than one "
                f"group of {size}"
            ) + f"; raw {raw_tail * 1e3:.6g}",
            "failed_share": f"{self.failed} of {self.attempted} documents",
        })
