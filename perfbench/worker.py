"""One workload in a fresh process: set up, measure, check, report.

Run by ``run.py`` as ``python3 perfbench/worker.py CONFIG.json`` from the
root of a checkout; with ``--setup-only`` it times set-up and stops.  The
result goes to the JSON file the config names.  Set-up time is measured
from before ``import varlex`` to a built ``Annotator``, so nothing here
imports varlex before :func:`_set_up` starts its clock.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import gauge


def _peak_rss_mb() -> float:
    """High-water resident memory of this process image.

    Linux carries ``ru_maxrss`` over from the parent through fork and exec,
    so it would report the generator's memory; ``VmHWM`` belongs to this
    image alone.  Elsewhere fall back to ``ru_maxrss`` (kilobytes).
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _set_up(cfg: dict):
    """Import varlex, load the KB and lexicon, build the Annotator.

    ``setup_s`` is the raw time divided by the machine's pace around it
    (see gauge.py); ``raw_setup_s`` is the time as measured.
    """
    pace_before = gauge.pace()
    started = time.perf_counter()
    sys.path.insert(0, cfg["src"])
    import varlex

    timings = {}
    kb = lexicon = None
    if cfg.get("kb"):
        t = time.perf_counter()
        kb = varlex.load_kb(cfg["kb"])
        timings["load_kb_s"] = time.perf_counter() - t
    if cfg.get("genes"):
        t = time.perf_counter()
        lexicon = varlex.load_genes(cfg["genes"])
        timings["load_genes_s"] = time.perf_counter() - t
    annotator = None
    if cfg["annotates"]:
        annotator = varlex.Annotator(kb=kb, lexicon=lexicon)
    timings["raw_setup_s"] = time.perf_counter() - started
    pace = (pace_before + gauge.pace()) / 2
    timings["setup_s"] = timings["raw_setup_s"] / pace
    return varlex, annotator, timings


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        cfg = json.load(fh)
    varlex, annotator, setup = _set_up(cfg)
    result: dict = {"setup": setup}
    if "--setup-only" not in argv:
        from measure import Run

        run = Run(cfg, varlex, annotator, setup)
        if cfg["trace"]:
            import traced

            traced.run(run)
        elif cfg["annotates"]:
            run.end_to_end_annotate()
        else:
            run.end_to_end_evaluate()
        result.update({
            "attempted": run.attempted,
            "failed": run.failed,
            "checks": run.checks,
            "notes": run.notes,
            "metrics": run.metrics,
            "peak_rss_mb": _peak_rss_mb(),
        })
    tmp = cfg["result"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, cfg["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
