"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import gen  # noqa: E402
from varlex import EvalMode, evaluate, read_pubtator_text, write_pubtator  # noqa: E402

WORKLOADS = ("abstracts", "pubmed_sparse", "fulltext", "evaluate")


def _big_inputs(seed: int):
    import random

    rng = random.Random(seed)
    genes = gen.synthetic_lexicon(rng, 60)
    return gen.synthetic_kb(rng, genes, 300), genes


def _generate(workload: str, seed: int):
    if workload == "abstracts":
        return gen.abstracts(30, seed)
    if workload == "evaluate":
        return gen.evaluate_corpora(30, seed)
    rows, genes = _big_inputs(seed)
    if workload == "pubmed_sparse":
        return gen.pubmed_sparse(60, seed, rows, genes)
    return gen.fulltext(2, seed, rows, genes)


def test_abstracts_equal_the_acceptance_corpus():
    from test_acceptance import _throughput_corpus

    expected = [(d.doc_id, d.title, d.abstract) for d in _throughput_corpus(300)]
    got = [(d[0], d[1], d[2]) for d in gen.abstracts(300, 99)]
    assert got == expected


def test_bundled_kb_and_lexicon_equal_the_test_data():
    data = os.path.join(ROOT, "tests", "data")
    with open(os.path.join(data, "kb_braf.tsv"), encoding="utf-8") as fh:
        assert fh.read() == gen.BUNDLED_KB
    with open(os.path.join(data, "genes.txt"), encoding="utf-8") as fh:
        assert fh.read() == gen.BUNDLED_GENES


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_seeded(workload):
    assert _generate(workload, 5) == _generate(workload, 5)
    assert _generate(workload, 5) != _generate(workload, 6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_gold_passes_the_offset_check(workload):
    produced = _generate(workload, 7)
    corpora = produced[:2] if workload == "evaluate" else (produced,)
    for docs in corpora:
        text = gen.pubtator_text(docs)
        read = read_pubtator_text(text)  # raises OffsetMismatch on a bad span
        assert write_pubtator(read) == text
        assert sum(len(d.annotations) for d in read) > 0


def test_evaluate_counts_follow_from_the_perturbations():
    gold, pred, expected = gen.evaluate_corpora(200, 3)
    gold = read_pubtator_text(gen.pubtator_text(gold))
    pred = read_pubtator_text(gen.pubtator_text(pred))
    for mode in EvalMode:
        r = evaluate(gold, pred, mode)
        want = [sum(e[mode.value][k] for e in expected) for k in range(3)]
        assert [r.tp, r.fp, r.fn] == want, mode


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.02"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    spec = _spec()
    assert workload in {w["name"] for w in spec["workloads"]}
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] for line in lines[:-1])
    if not trace:
        assert any(line.split()[:1] == ["failed_share"] for line in lines)
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package():
    bare_dir = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare_dir, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare_dir, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare_dir)
    try:
        proc = _run(bare_dir, "abstracts", 0)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare_dir, ignore_errors=True)
