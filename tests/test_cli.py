import os
import subprocess
import sys

import pytest

from varlex import (
    Document,
    FileUnreadable,
    VarlexError,
    load_genes,
    load_kb,
    read_pubtator,
    read_pubtator_text,
    write_pubtator,
)
from varlex import cli
from varlex.cli import main
from varlex.kb import KB_HEADER

from conftest import data_path
from test_errors import _subclasses

CORPUS = """10327394|t|Mutations of the BRAF gene in human cancer.
10327394|a|We detected the V600E substitution in two thirds of melanomas.
10327394\t17\t21\tGene\tGene

"""


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "in.txt"
    # Strip the gene annotation; the pipeline writes its own lines.
    path.write_text(CORPUS.replace("10327394\t17\t21\tGene\tGene\n", ""),
                    encoding="utf-8")
    return path


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_parse_prints_type_and_fields(capsys):
    code, out, err = run(["parse", "p.Gln659Leu"], capsys)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "type: ProteinMutation"
    assert "canonical: p.Q659L" in lines
    assert "position: 659" in lines
    assert "wildtype: Q" in lines
    assert "mutant: L" in lines


def test_parse_identifier_prints_id(capsys):
    code, out, _ = run(["parse", "Rs763780"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "type: SNP"
    assert "id: rs763780" in out


def test_parse_region_prints_coordinates(capsys):
    code, out, _ = run(["parse", "Chr10: 46123781-51028772"], capsys)
    assert code == 0
    assert "type: GenomicRegion" in out
    assert "start: 46123781" in out
    assert "end: 51028772" in out


@pytest.mark.parametrize("surface", ["not-a-variant", "c.1٢A>T"])
def test_parse_garbage_fails_with_code_1(capsys, surface):
    code, out, err = run(["parse", surface], capsys)
    assert code == 1
    assert "cannot parse" in err
    assert err.startswith("varlex:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_annotate_writes_pubtator(corpus_file, kb_path, genes_path,
                                  tmp_path, capsys):
    out_path = tmp_path / "out.txt"
    code, _, err = run([
        "annotate", str(corpus_file),
        "-o", str(out_path),
        "--kb", kb_path,
        "--genes", genes_path,
    ], capsys)
    assert code == 0, err
    docs = read_pubtator_text(out_path.read_text(encoding="utf-8"))
    anns = docs[0].annotations
    v600e = next(a for a in anns if a.text == "V600E")
    assert v600e.label == "ProteinMutation"
    assert v600e.norm_id == "CA123643"


def test_annotate_to_stdout_defaults(corpus_file, kb_path, genes_path, capsys):
    code, out, _ = run([
        "annotate", str(corpus_file), "--kb", kb_path, "--genes", genes_path,
    ], capsys)
    assert code == 0
    assert "CA123643" in out
    assert out.endswith("\n\n")


def test_annotate_reads_kb_from_environment(corpus_file, kb_path, genes_path,
                                            capsys, monkeypatch):
    monkeypatch.setenv("VARLEX_KB", kb_path)
    code, out, _ = run(
        ["annotate", str(corpus_file), "--genes", genes_path], capsys
    )
    assert code == 0
    assert "CA123643" in out


def test_annotate_flag_overrides_environment(corpus_file, kb_path, tmp_path,
                                             genes_path, capsys, monkeypatch):
    monkeypatch.setenv("VARLEX_KB", str(tmp_path / "absent.tsv"))
    code, out, _ = run(
        ["annotate", str(corpus_file), "--kb", kb_path,
         "--genes", genes_path], capsys
    )
    assert code == 0
    assert "CA123643" in out


def test_annotate_without_kb_uses_gene_anchors(corpus_file, genes_path, capsys):
    code, out, _ = run(
        ["annotate", str(corpus_file), "--genes", genes_path], capsys
    )
    assert code == 0
    assert "BRAF: p.V600E" in out


def test_annotate_policy_flag(corpus_file, kb_path, genes_path, capsys):
    code, out, _ = run([
        "annotate", str(corpus_file), "--kb", kb_path, "--genes", genes_path,
        "--policy", "rsid,gene",
    ], capsys)
    assert code == 0
    assert "rs113488022" in out
    assert "CA123643" not in out


def test_annotate_text_format(kb_path, genes_path, tmp_path, capsys):
    src = tmp_path / "lines.txt"
    src.write_text("BRAF V600E was found.\n\nKRAS G12D was found.\n",
                   encoding="utf-8")
    code, out, _ = run([
        "annotate", str(src), "--format", "text",
        "--kb", kb_path, "--genes", genes_path,
    ], capsys)
    assert code == 0
    docs = read_pubtator_text(out)
    assert [d.doc_id for d in docs] == ["doc1", "doc2"]
    assert docs[0].annotations[0].norm_id == "CA123643"
    assert docs[1].annotations[0].norm_id == "CA123644"


def test_characters_that_fold_to_ascii_do_not_crash(tmp_path, capsys):
    odd = ["ſerine to alanine", "İsoleucine at codon 12",
           "cytoſine to adenine", "ſix base pair deletion",
           "6 base pair deletıon"]
    src = tmp_path / "odd.txt"
    src.write_text("\n\n".join(odd) + "\n", encoding="utf-8")
    code, out, err = run(["annotate", str(src), "--format", "text"], capsys)
    assert (code, err) == (0, "")
    docs = read_pubtator_text(out)
    assert [[a.text for a in d.annotations] for d in docs] == [[t] for t in odd]
    code, out, _ = run(["parse", odd[0]], capsys)
    assert code == 0
    assert out == run(["parse", "serine to alanine"], capsys)[1]


def test_annotate_threads_do_not_change_output(corpus_file, kb_path,
                                               genes_path, tmp_path, capsys):
    blocks = []
    for i in range(1, 21):
        blocks.append(f"{i}|t|BRAF V600E study {i}.\n"
                      f"{i}|a|We also saw c.1799T>A and rs113488022.\n\n")
    src = tmp_path / "many.txt"
    src.write_text("".join(blocks), encoding="utf-8")
    outputs = []
    for threads in ("1", "4"):
        code, out, _ = run([
            "annotate", str(src), "--kb", kb_path, "--genes", genes_path,
            "--threads", threads,
        ], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_annotate_sample_matches_frozen_output(kb_path, genes_path, tmp_path,
                                               capsys):
    # sample_annotated.txt is the recorded output of this exact command; a
    # change that alters behaviour on purpose regenerates it.
    out_path = tmp_path / "sample_annotated.txt"
    code, _, err = run([
        "annotate", data_path("sample_corpus.txt"),
        "--kb", kb_path, "--genes", genes_path,
        "-o", str(out_path),
    ], capsys)
    assert code == 0, err
    with open(data_path("sample_annotated.txt"), "rb") as fh:
        assert out_path.read_bytes() == fh.read()


def test_annotate_no_group_keeps_local_ids(kb_path, genes_path, tmp_path,
                                           capsys):
    src = tmp_path / "doc.txt"
    src.write_text("4|t|BRAF V600E was typed.\n4|a|The V600 site matters.\n\n",
                   encoding="utf-8")
    grouped_code, grouped, _ = run([
        "annotate", str(src), "--kb", kb_path, "--genes", genes_path,
    ], capsys)
    solo_code, solo, _ = run([
        "annotate", str(src), "--kb", kb_path, "--genes", genes_path,
        "--no-group",
    ], capsys)
    assert grouped_code == solo_code == 0
    # Grouping lets the bare V600 inherit the allele id; alone it cannot
    # reach it.
    assert grouped.count("CA123643") == 2
    assert solo.count("CA123643") == 1


def test_annotate_missing_input_is_exit_2(capsys, tmp_path):
    code, _, err = run(["annotate", str(tmp_path / "nope.txt")], capsys)
    assert code == 2
    assert "nope.txt" in err


def test_annotate_unwritable_output_is_exit_2(corpus_file, tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code, _, err = run(["annotate", str(corpus_file), "-o", str(target)], capsys)
    assert code == 2
    assert err.startswith(f"varlex: cannot write {target}")
    assert "Traceback" not in err


def test_annotate_malformed_corpus_is_exit_1(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("1|a|Abstract without title.\n\n", encoding="utf-8")
    code, _, err = run(["annotate", str(src)], capsys)
    assert code == 1
    assert err.startswith("varlex:")


def test_annotate_bad_policy_is_exit_1(corpus_file, capsys):
    code, _, err = run(
        ["annotate", str(corpus_file), "--policy", "bogus"], capsys
    )
    assert code == 1


# Per kind of input file: a text holding a byte that is not UTF-8, the
# line it is on, its loader, and the options that hand it to annotate.
# Line 1 ends in "\r\n" or "\r" in two of them, one line end each; the
# long lexicon puts the byte past the first 64 KB.
_NOT_UTF8 = {
    "kb": ("\t".join(KB_HEADER).encode() + b"\r\nrs1\tCA1\tBR\xffAF\tc.1A>T"
           b"\t\tA\tT\n", 2, load_kb, ["--kb"]),
    "lexicon": (b"BRAF\rKR\xffAS\n", 2, load_genes, ["--genes"]),
    "long_lexicon": (b"BRAF\n" * 20_000 + b"KR\xffAS\n", 20_001, load_genes,
                     ["--genes"]),
    "pubtator": (b"1|t|Title\n1|a|Ab\xffstract\n\n", 2, read_pubtator, []),
}


@pytest.mark.parametrize("kind", sorted(_NOT_UTF8))
def test_a_file_that_is_not_utf8_names_its_path_and_line(kind, tmp_path,
                                                         capsys):
    data, line, load, option = _NOT_UTF8[kind]
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(data)
    message = f"cannot read {path}: line {line} is not UTF-8 (byte 0xff)"
    with pytest.raises(FileUnreadable) as err:
        load(str(path))
    assert (err.value.path, str(err.value)) == (str(path), message)
    # A stream is named by its name, without the line.
    with open(path, encoding="utf-8") as fh, pytest.raises(FileUnreadable) as err:
        load(fh)
    assert str(err.value) == f"cannot read {path}: not UTF-8 (byte 0xff)"
    corpus = data_path("sample_corpus.txt")
    annotate = ["annotate", *option, str(path), corpus] if option else [
        "annotate", str(path)]
    for argv in (annotate, ["evaluate", str(path), corpus]):
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", f"varlex: {message}\n")


@pytest.mark.parametrize(
    "error", [VarlexError, *_subclasses(VarlexError)], ids=lambda e: e.__name__
)
def test_every_package_error_is_one_line_and_a_status(error, monkeypatch,
                                                       capsys):
    def fail(args):
        # No __init__: every subclass, present or future, is built alike.
        raise error.__new__(error, "bad input")

    monkeypatch.setitem(cli._COMMANDS, "parse", fail)
    code, out, err = run(["parse", "V600E"], capsys)
    assert code == (2 if issubclass(error, FileUnreadable) else 1)
    assert (out, err) == ("", "varlex: bad input\n")


def test_annotate_reads_a_title_holding_a_line_separator(kb_path, genes_path,
                                                         tmp_path, capsys):
    doc = Document("7", "BRAF\u2028V600E\x85 in melanoma", "We saw V600E.")
    src = tmp_path / "in.txt"
    src.write_text(write_pubtator([doc]), encoding="utf-8")
    code, out, err = run(
        ["annotate", str(src), "--kb", kb_path, "--genes", genes_path], capsys
    )
    assert (code, err) == (0, "")
    [annotated] = read_pubtator_text(out)
    assert (annotated.title, annotated.abstract) == (doc.title, doc.abstract)
    assert [a.text for a in annotated.annotations].count("V600E") == 2
    src.write_text("BRAF\u2028V600E\nKRAS G12D\r\n", encoding="utf-8")
    code, out, _ = run(["annotate", str(src), "--format", "text"], capsys)
    assert code == 0
    assert [d.title for d in read_pubtator_text(out)] == [
        "BRAF\u2028V600E", "KRAS G12D",
    ]


def test_evaluate_prints_counts_then_metrics(tmp_path, capsys):
    gold = tmp_path / "gold.txt"
    pred = tmp_path / "pred.txt"
    base = "1|t|V600E and G12D and R175H and H161R.\n1|a|Body.\n"
    gold.write_text(
        base
        + "1\t0\t5\tV600E\tProteinMutation\n"
        + "1\t10\t14\tG12D\tProteinMutation\n"
        + "1\t19\t24\tR175H\tProteinMutation\n"
        + "1\t29\t34\tH161R\tProteinMutation\n\n",
        encoding="utf-8",
    )
    pred.write_text(
        base
        + "1\t0\t5\tV600E\tProteinMutation\n"
        + "1\t10\t14\tG12D\tProteinMutation\n"
        + "1\t29\t33\tH161\tProteinMutation\n\n",
        encoding="utf-8",
    )
    code, out, _ = run(["evaluate", str(gold), str(pred)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "TP=2 FP=1 FN=2"
    assert lines[1] == "P=0.6667 R=0.5000 F=0.5714"


def test_evaluate_mode_flag(tmp_path, capsys):
    gold = tmp_path / "gold.txt"
    pred = tmp_path / "pred.txt"
    base = "1|t|V600E here.\n1|a|Body.\n"
    gold.write_text(base + "1\t0\t5\tV600E\tProteinMutation\tCA1\n\n",
                    encoding="utf-8")
    pred.write_text(base + "1\t0\t5\tV600E\tDNAMutation\tCA1\n\n",
                    encoding="utf-8")
    for mode, tp in (("span", 1), ("type", 0), ("id", 1)):
        code, out, _ = run(
            ["evaluate", str(gold), str(pred), "--mode", mode], capsys
        )
        assert code == 0
        assert out.splitlines()[0].startswith(f"TP={tp} ")


def test_evaluate_missing_file_is_exit_2(tmp_path, capsys):
    code, _, err = run(
        ["evaluate", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")], capsys
    )
    assert code == 2


def test_unknown_subcommand_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "varlex.cli", "parse", "V600E"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "type: ProteinMutation" in proc.stdout


def test_parallel_cli_exits_cleanly_in_its_own_interpreter(kb_path, genes_path,
                                                          tmp_path):
    sample = read_pubtator(data_path("sample_corpus.txt"))
    docs = [
        Document(f"{i}{d.doc_id}", d.title, d.abstract)
        for i in range(17) for d in sample
    ]
    assert len(docs) >= 200
    src = tmp_path / "corpus.txt"
    src.write_text(write_pubtator(docs), encoding="utf-8")
    outputs = []
    for threads in ("1", "2"):
        # Workers inherit stdout, so capturing it waits for every process
        # that holds it: returning within the timeout means that no worker
        # outlived the command.
        proc = subprocess.run(
            [sys.executable, "-m", "varlex.cli", "annotate", str(src),
             "--kb", kb_path, "--genes", genes_path, "--threads", threads],
            capture_output=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(read_pubtator_text(outputs[1].decode("utf-8"))) == len(docs)


@pytest.mark.parametrize("command", [
    ["parse", "V600E"],
    ["evaluate", data_path("sample_annotated.txt"),
     data_path("sample_annotated.txt")],
    ["annotate", data_path("sample_corpus.txt"), "--threads", "2"],
], ids=lambda c: c[0])
def test_closed_output_pipe_exits_quietly(command):
    # The reader is gone before the command writes, as under "| head -0".
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "varlex.cli", *command],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"")
