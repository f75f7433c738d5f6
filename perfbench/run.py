"""varlex benchmark: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload abstracts --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports varlex from ``src/``.  It
generates the workload's inputs from the seed under ``.perfbench/``, times
set-up in fresh processes, runs the workload in one more fresh process,
checks the outputs and prints one line per metric, then one JSON object as
the last line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the traced pass and reports the per-layer metrics, writing its spans
to ``.perfbench/trace-<workload>-<seed>.jsonl``.  The exit status is 0 when
every output check passed, 1 when one failed and 2 when the checkout holds
no varlex sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
NPROC = os.cpu_count() or 1

# Per workload: how it runs, how many documents to generate per second of
# run (enough that the closed loop does not run dry; the evaluate loop
# cycles through its corpus instead, which keeps its files small), how many documents
# per second of run the traced pass covers, the latency percentile reported
# as the tail (the highest with at least ten samples beyond it at this
# commit's speed), and how many fresh processes time set-up.
WORKLOADS = {
    "abstracts": dict(
        annotates=True, threads=1, batch=16, docs_rate=800, trace_rate=40,
        tail_pct=99, setup_samples=5,
    ),
    "pubmed_sparse": dict(
        annotates=True, threads=NPROC, batch=64, docs_rate=500, trace_rate=40,
        tail_pct=99, setup_samples=3,
    ),
    "fulltext": dict(
        annotates=True, threads=1, batch=1, docs_rate=8, trace_rate=0.4,
        tail_pct=75, setup_samples=3,
    ),
    "evaluate": dict(
        annotates=False, threads=1, batch=1, docs_rate=100, trace_rate=60,
        tail_pct=99, setup_samples=7,
    ),
}

KB_ROWS = 100_000
LEXICON_SIZE = 20_000

# In BENCHMARK.json's order.
END_TO_END = (
    "docs_per_s",
    "mb_per_s",
    "doc_latency_p50_ms",
    "doc_latency_tail_ms",
    "setup_s",
    "peak_rss_mb",
    "mention_f1",
    "id_f1",
)

# The whole command must end within three minutes; a worker still running
# when this much time has passed since start is killed.
DEADLINE_S = 170


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def generate(workload: str, seed: int, seconds: int, scale: float,
             work: str) -> dict:
    """Write the workload's input files; return the paths for the worker."""
    spec = WORKLOADS[workload]
    trace_docs = max(1, math.ceil(spec["trace_rate"] * seconds * scale))
    n_docs = max(trace_docs, math.ceil(spec["docs_rate"] * seconds * scale))
    files: dict = {"trace_docs": trace_docs}
    if workload == "abstracts":
        files["kb"] = _write(os.path.join(work, "kb.tsv"), gen.BUNDLED_KB)
        files["genes"] = _write(os.path.join(work, "genes.txt"), gen.BUNDLED_GENES)
        docs = gen.abstracts(n_docs, seed)
    elif workload == "evaluate":
        gold, pred, expected = gen.evaluate_corpora(n_docs, seed)
        files["gold"] = _write(os.path.join(work, "gold.txt"), gen.pubtator_text(gold))
        files["pred"] = _write(os.path.join(work, "pred.txt"), gen.pubtator_text(pred))
        files["expected"] = _write(os.path.join(work, "expected.json"),
                                   json.dumps(expected))
        return files
    else:
        rng = random.Random(seed)
        genes = gen.synthetic_lexicon(rng, max(50, int(LEXICON_SIZE * scale)))
        rows = gen.synthetic_kb(rng, genes, max(100, int(KB_ROWS * scale)))
        files["kb"] = _write(os.path.join(work, "kb.tsv"), gen.kb_text(rows))
        files["genes"] = _write(os.path.join(work, "genes.txt"), gen.genes_text(genes))
        if workload == "pubmed_sparse":
            docs = gen.pubmed_sparse(n_docs, seed, rows, genes)
        else:
            docs = gen.fulltext(n_docs, seed, rows, genes)
            probe = gen.bare(gen.abstracts(1, seed))
            files["probe"] = _write(os.path.join(work, "probe.txt"),
                                    gen.pubtator_text(probe))
    files["input"] = _write(os.path.join(work, "input.txt"),
                            gen.pubtator_text(gen.bare(docs)))
    files["gold"] = _write(os.path.join(work, "gold.txt"), gen.pubtator_text(docs))
    return files


def _worker(config: str, deadline: float, *extra: str) -> dict:
    """Run the worker in a fresh process and return its result."""
    with open(config, encoding="utf-8") as fh:
        result_path = json.load(fh)["result"]
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), config, *extra],
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every generated input by this factor (smoke tests)",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # worker before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "varlex", "__init__.py")):
        print(f"perfbench: no varlex sources under {src}; run from the root "
              "of a varlex checkout", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    base = os.path.join(root, ".perfbench")
    work = os.path.join(base, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg = generate(args.workload, args.seed, args.seconds, args.scale, work)
    cfg.update(
        workload=args.workload,
        seconds=args.seconds,
        trace=args.trace,
        src=src,
        annotates=spec["annotates"],
        threads=spec["threads"],
        batch=spec["batch"],
        tail_pct=spec["tail_pct"],
        result=os.path.join(work, "result.json"),
        spans=os.path.join(base, f"trace-{args.workload}-{args.seed}.jsonl"),
    )
    config = _write(os.path.join(work, "config.json"), json.dumps(cfg))

    try:
        setups = [
            _worker(config, deadline, "--setup-only")["setup"]
            for _ in range(spec["setup_samples"] - 1)
        ]
        result = _worker(config, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup"])

    metrics = {k: tuple(v) for k, v in result["metrics"].items()}
    notes = result["notes"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
        metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
        notes["setup_s"] = (
            f"median of {len(setups)} fresh processes; raw "
            f"{statistics.median(s['raw_setup_s'] for s in setups):.6g}"
        )
        metrics = {name: metrics[name] for name in END_TO_END}
    attempted, failed = result["attempted"], result["failed"]

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} threads={spec['threads']} "
          f"nproc={NPROC} python={platform.python_version()}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<42} {_fmt(value):>14} {unit}{note}")
    if not args.trace:
        share = failed / attempted if attempted else 0.0
        print(f"  {'failed_share':<42} {_fmt(share):>14} ratio  "
              f"({notes.get('failed_share', '')})")
    if "spans" in notes:
        print(f"  {notes['spans']}")
    for name, ok in sorted(result["checks"].items()):
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    correct = bool(result["checks"]) and all(result["checks"].values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
