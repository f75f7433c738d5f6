import dataclasses
import gc
import io
import pickle
import random
import tracemalloc
from itertools import starmap

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varlex import (
    DuplicateKey,
    FileUnreadable,
    KnowledgeBase,
    MalformedRow,
    VariantRecord,
    VarlexError,
    classify_surface,
    load_genes,
    load_kb,
)
from varlex import kb as kb_module
from varlex.corpus import _lines
from varlex.kb import KB_HEADER, _is_one_symbol

import oracles

HEADER = "\t".join(KB_HEADER)


def desc(surface):
    return classify_surface(surface)[1]


def write_kb(tmp_path, rows, name="kb.tsv"):
    path = tmp_path / name
    path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    return str(path)


def test_fixture_loads(kb):
    assert len(kb) == 5
    record = kb.lookup_rsid("rs113488022")[0]
    assert record.gene == "BRAF"
    assert record.ca_id == "CA123643"
    assert record.protein_hgvs == "p.V600E"


def test_lookup_by_protein_hgvs(kb):
    d = desc("V600E")
    records = kb.lookup("BRAF", d)
    assert [r.rsid for r in records] == ["rs113488022"]


def test_lookup_by_dna_hgvs(kb):
    d = desc("c.1799T>A")
    records = kb.lookup("BRAF", d)
    assert [r.ca_id for r in records] == ["CA123643"]


def test_incomplete_mention_matches_position_prefix(kb):
    d = desc("P799")
    records = kb.lookup("TRPV4", d)
    assert [r.rsid for r in records] == ["rs121912637"]


def test_lookup_wrong_gene_is_empty(kb):
    d = desc("V600E")
    assert kb.lookup("KRAS", d) == []


def test_global_lookup_with_empty_gene(kb):
    d = desc("V600E")
    records = kb.lookup("", d)
    assert [r.rsid for r in records] == ["rs113488022"]


def test_lookup_rsid_number_and_casing(kb):
    assert kb.lookup_rsid("RS763780") == kb.lookup_rsid("rs763780")
    assert kb.lookup_rsid("763780") == []
    assert kb.lookup_rsid("rs999999999") == []


def test_rows_without_rsid_sort_after_rsid_rows(kb):
    d = desc("R175H")
    records = kb.lookup("TP53", d)
    assert [r.ca_id for r in records] == ["CA555555"]
    assert records[0].rsid == ""


def test_record_ordering_is_numeric_not_lexical():
    a = VariantRecord("rs9", "", "G1", "c.1A>T", "", "A", "T")
    b = VariantRecord("rs10", "", "G1", "c.1A>T", "", "A", "T")
    c = VariantRecord("", "CA7", "G1", "c.1A>T", "", "A", "T")
    kb = KnowledgeBase((b, c, a))
    got = kb.lookup("G1", desc("c.1A>T"))
    assert [r.rsid or r.ca_id for r in got] == ["rs9", "rs10", "CA7"]


def test_identical_rows_are_returned_once(tmp_path):
    row = "rs1\tCA1\tBRAF\tc.1A>T\tp.K1N\tA\tT"
    kb = load_kb(write_kb(tmp_path, [row, row]))
    assert len(kb) == 2
    for gene in ("BRAF", None):
        assert [r.rsid for r in kb.lookup(gene, desc("c.1A>T"))] == ["rs1"]
        assert [r.rsid for r in kb.lookup(gene, desc("p.K1N"))] == ["rs1"]
        assert [r.rsid for r in kb.lookup(gene, desc("p.K1"))] == ["rs1"]
    assert [r.ca_id for r in kb.lookup_rsid("rs1")] == ["CA1"]


@pytest.mark.parametrize("gene", ["BRAF", None])
@pytest.mark.parametrize("mutate", [
    lambda got: got.append(got[0]),
    lambda got: got.clear(),
], ids=["append", "clear"])
def test_returned_lists_do_not_alias_the_index(kb_path, gene, mutate):
    kb = load_kb(kb_path)
    d = desc("V600E")
    before = list(kb.lookup(gene, d))
    mutate(kb.lookup(gene, d))
    assert kb.lookup(gene, d) == before
    before = list(kb.lookup_rsid("rs113488022"))
    mutate(kb.lookup_rsid("rs113488022"))
    assert kb.lookup_rsid("rs113488022") == before


_KEYED_ROWS = [
    "rs1\tCA1\tG1\tc.1A>T\tp.K1N\tA\tT",
    "rs2\tCA2\tG1\tc.2del\tp.V600E\t\t",
    "rs3\tCA3\tG2\tc.2del\tp.V600E\t\t",
    "\tCA4\tG1\tc.3G>C\tp.V600K\tG\tC",
    "rs2\tCA5\tG1\tc.4A>G\t\tA\tG",
]


@pytest.mark.parametrize("index,key,shared", [
    ("_by_dna", "c.1A>T", False),
    ("_by_dna", "c.2del", True),
    ("_by_prot", "p.K1N", False),
    ("_by_prot", "p.V600E", True),
    ("_by_prefix", "p.K1", False),
    ("_by_prefix", "p.V600", True),
    ("_by_rsid", "rs1", False),
    ("_by_rsid", "rs2", True),
])
def test_single_and_shared_keys_give_fresh_lists(tmp_path, index, key, shared):
    path = write_kb(tmp_path, _KEYED_ROWS)
    kb = load_kb(path)
    raw = oracles.read_raw_rows(path)
    # The premise: one key of each index holds its one row, a tuple of the
    # seven cells, and one holds a list of its rows.
    held = getattr(kb, index)[key]
    assert type(held) is (list if shared else tuple)
    if index == "_by_rsid":
        probes = [(lambda: kb.lookup_rsid(key),
                   oracles.brute_force_rsid_lookup(raw, key))]
    else:
        d = desc(key)
        probes = [
            (lambda g=gene: kb.lookup(g, d),
             oracles.brute_force_lookup(raw, gene, d))
            for gene in (None, "G1")
        ]
    for lookup, want in probes:
        got = lookup()
        assert [dataclasses.astuple(r) for r in got] == want
        assert want
        before = list(got)
        got.append(got[0])
        assert lookup() == before
        lookup().clear()
        assert lookup() == before


def test_rows_differing_only_in_dna_form_are_two_records(tmp_path):
    # Same rs number, CA id and gene; only the DNA form tells them apart.
    rows = ["rs1\tCA1\tG1\tc.5A>T\tp.M2L\tA\tT",
            "rs1\tCA1\tG1\tc.6A>T\tp.M2L\tA\tT"]
    path = write_kb(tmp_path, rows)
    kb = load_kb(path)
    raw = oracles.read_raw_rows(path)
    for gene in (None, "G1"):
        for surface in ("p.M2L", "p.M2"):
            got = [dataclasses.astuple(r) for r in kb.lookup(gene, desc(surface))]
            assert got == oracles.brute_force_lookup(raw, gene, desc(surface))
            assert [r[3] for r in got] == ["c.5A>T", "c.6A>T"]
    got = [dataclasses.astuple(r) for r in kb.lookup_rsid("rs1")]
    assert got == oracles.brute_force_rsid_lookup(raw, "rs1")
    assert len(got) == 2


# Small KBs whose rows share DNA, protein, prefix and rs keys, repeat one
# another, and tie on sort_key while differing in other fields: a few rows
# drawn, then drawn from again.
_ORDER_ROW = st.tuples(
    st.sampled_from(["", "rs2", "rs10"]),
    st.sampled_from(["", "CA1", "CA2"]),
    st.sampled_from(["G1", "G2"]),
    st.sampled_from(["", "c.1A>T", "c.2del"]),
    st.sampled_from(["", "p.K1N", "p.K1L", "p.V600E"]),
    st.sampled_from(["", "A"]),
    st.sampled_from(["", "T"]),
)
_ORDER_KB = st.lists(_ORDER_ROW, min_size=1, max_size=6).flatmap(
    lambda base: st.lists(st.sampled_from(base), min_size=1, max_size=14)
)


@given(_ORDER_KB)
@settings(max_examples=500, deadline=None)
def test_every_index_value_is_one_dedup_and_sort_of_all_rows(rows):
    kb = KnowledgeBase([VariantRecord(*row) for row in rows])
    want = oracles.index_oracle(rows)
    first = {}
    for row in kb._rows:
        first.setdefault(row, row)
    for name in want:
        index = getattr(kb, "_by_" + name)
        got = {}
        for key, held in index.items():
            # A list holds two rows or more.
            assert type(held) is not list or len(held) > 1
            held = held if type(held) is list else [held]
            # Of identical rows, the first is the one held.
            assert all(type(row) is tuple and row is first[row] for row in held)
            got[key] = held
        assert got == want[name], name


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileUnreadable):
        load_kb(str(tmp_path / "absent.tsv"))


def test_header_must_match(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("rsid\tgene\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as err:
        load_kb(str(path))
    assert err.value.line_no == 1


@pytest.mark.parametrize("row,column", [
    ("xs1\tCA1\tBRAF\tc.1A>T\t\tA\tT", "rsid"),
    ("rs01\tCA1\tBRAF\tc.1A>T\t\tA\tT", "rsid"),
    ("rs1\u0662\tCA1\tBRAF\tc.1A>T\t\tA\tT", "rsid"),  # Arabic-Indic 2
    ("rs1\tCB1\tBRAF\tc.1A>T\t\tA\tT", "ca_id"),
    ("rs1\tCA\u0661\u0662\tBRAF\tc.1A>T\t\tA\tT", "ca_id"),  # Arabic-Indic 12
    ("rs1\tCA1\t\tc.1A>T\t\tA\tT", "gene"),
    ("rs1\tCA1\tBR AF\tc.1A>T\t\tA\tT", "gene"),
    ("\t\tBRAF\tc.1A>T\t\tA\tT", "rsid"),
    ("rs1\tCA1\tBRAF\t\t\tA\tT", "dna_hgvs"),
    ("rs1\tCA1\tBRAF\tc.1A>T\t\tQ\tT", "ref"),
    ("rs1\tCA1\tBRAF\tc.1A>T\t\tA\tZ", "alt"),
    ("rs1\tCA1\tBRAF\tc.1A>T\tp.V600E\tA", "columns"),
])
def test_bad_rows_name_the_offending_column(tmp_path, row, column):
    with pytest.raises(MalformedRow) as err:
        load_kb(write_kb(tmp_path, [row]))
    assert err.value.column == column
    assert err.value.line_no == 2


def test_ca_ids_take_ascii_digits_only(tmp_path):
    good = "rs113488022\tCA123643\tBRAF\tc.1799T>A\tp.V600E\tT\tA"
    kb = load_kb(write_kb(tmp_path, [good]))
    assert [r.ca_id for r in kb.lookup_rsid("rs113488022")] == ["CA123643"]
    bad = "rs2\tCA\u0661\u0662\tKRAS\tc.35G>A\t\tG\tA"
    with pytest.raises(MalformedRow) as err:
        load_kb(write_kb(tmp_path, [good, bad]))
    assert (err.value.line_no, err.value.column) == (3, "ca_id")


def test_rsid_longer_than_int_reads_loads_and_sorts_last(tmp_path):
    # 5,000 digits is past int()'s default limit of 4,300.
    long_rsid = "rs" + "1" * 5000
    rows = [
        f"{long_rsid}\t\tG1\tc.1A>T\t\tA\tT",
        "rs2\t\tG2\tc.1A>T\t\tA\tT",
    ]
    kb = load_kb(write_kb(tmp_path, rows))
    assert [r.rsid for r in kb.lookup_rsid(long_rsid)] == [long_rsid]
    assert [r.rsid for r in kb.lookup(None, desc("c.1A>T"))] == ["rs2", long_rsid]


def test_conflicting_rsids_for_same_variant_rejected(tmp_path):
    rows = [
        "rs1\t\tBRAF\tc.1A>T\t\tA\tT",
        "rs2\t\tBRAF\tc.1A>T\t\tA\tT",
    ]
    with pytest.raises(DuplicateKey) as err:
        load_kb(write_kb(tmp_path, rows))
    assert err.value.first == "rs1"
    assert err.value.second == "rs2"
    assert err.value.line_no == 3


# Small KBs whose keys collide: three HGVS strings shared by both columns
# (so one row's DNA form can be another's protein form, or its own), two
# genes naming them, and rows with and without an rs number.
_DUP_HGVS = st.sampled_from(["", "c.1A>T", "p.K1N", "x"])
_DUP_ROW = st.tuples(
    st.sampled_from(["", "rs1", "rs2", "rs3"]),
    st.sampled_from(["G1", "G2"]),
    _DUP_HGVS,
    _DUP_HGVS,
)


@given(st.lists(_DUP_ROW, min_size=1, max_size=8))
@settings(max_examples=500, deadline=None)
def test_duplicate_key_check_agrees_with_the_pair_keyed_oracle(rows):
    raw = [
        {"rsid": rsid, "ca": "CA1", "gene": gene, "dna": dna or prot or "x",
         "prot": prot, "ref": "", "alt": "", "line_no": line_no}
        for line_no, (rsid, gene, dna, prot) in enumerate(rows, start=2)
    ]
    text = "\n".join([HEADER] + [
        "\t".join((r["rsid"], r["ca"], r["gene"], r["dna"], r["prot"], "", ""))
        for r in raw
    ])
    want = oracles.duplicate_key_oracle(raw)
    if want is None:
        assert len(load_kb(io.StringIO(text))) == len(rows)
        return
    with pytest.raises(DuplicateKey) as err:
        load_kb(io.StringIO(text))
    got = err.value
    assert (got.line_no, got.key, got.first, got.second) == want


# The row regex reads a clean KB; _kb_rows reads any other text again, row
# by row, and alone decides what is refused.

def _row_by_row(text):
    rows = kb_module._kb_rows(_lines(text))
    return KnowledgeBase(starmap(VariantRecord, rows))


def _outcome(load, text):
    """The indexes, records and size of a load, or its error's type, line,
    column and message."""
    try:
        kb = load(text)
    except VarlexError as err:
        return type(err), err.line_no, getattr(err, "column", None), str(err)
    indexes = [dict(getattr(kb, "_by_" + name))
               for name in ("rsid", "prot", "dna", "prefix")]
    return indexes, kb.records, len(kb)


# Cells the row regex takes as they are; a DNA cell may hold a protein
# string and a protein cell a DNA string, so the two key spaces meet.
_CLEAN_CELLS = (
    ["", "rs1", "rs2", "rs12"],
    ["", "CA1", "CA7"],
    ["G1", "G2", "BRAF"],
    ["", "c.1A>T", "c.2del", "p.K1N"],
    ["", "p.K1N", "p.K1L", "p.V600E", "c.1A>T"],
    ["", "A", "TU"],
    ["", "T", "ACGTU"],
)
# Cells it does not take: padded, non-ASCII, or refused by the row check.
_ODD_CELLS = (
    [" rs1", "rs01", "rs1\u0662"],
    ["CA1 ", "CB1", "\u00a0CA1"],
    ["G1\x0c", "\u00e9", "BR AF", ""],
    ["c.1A>T\u00e9", " c.1A>T", "c. 1A>T"],
    ["p.K1N\u2028", "p.\u00c91N", "p.K1 N"],
    ["a", "Q", " A"],
    ["\u0410", "T "],
)


@st.composite
def _kb_text(draw):
    def row():
        cells = [
            draw(st.sampled_from(clean if draw(st.integers(0, 23)) else odd))
            for clean, odd in zip(_CLEAN_CELLS, _ODD_CELLS)
        ]
        change = draw(st.sampled_from([0] * 24 + [-1, 1]))
        return cells[:change] if change < 0 else cells + ["A"] * change

    # A few rows, drawn from again, so that rows repeat and keys collide;
    # now and then a line that is empty or holds whitespace only.
    base = [row() for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        # A twin of a row under another rs number, its HGVS cells kept or
        # swapped: a conflict in one key space or across the two.
        twin = list(draw(st.sampled_from(base)))
        twin[0] = draw(st.sampled_from(["rs3", "rs31"]))
        if len(twin) > 4 and draw(st.booleans()):
            twin[3], twin[4] = twin[4], twin[3]
        base.append(twin)
    base = list(map("\t".join, base))
    lines = draw(st.lists(st.sampled_from(base * 10 + ["", " ", "\x0c"]),
                          max_size=14))
    header = draw(st.sampled_from([HEADER] * 9 + [" " + HEADER]))
    end = draw(st.sampled_from(["\n"] * 9 + ["\r\n", "\r", None]))
    ends = [end or draw(st.sampled_from(["\n", "\r\n", "\r"]))
            for _ in range(len(lines) + 1)]
    last = draw(st.sampled_from(["", ends[-1]]))
    return "".join(map("".join, zip([header, *lines], ends[:-1] + [last])))


@given(_kb_text())
@settings(max_examples=500, deadline=None)
def test_regex_load_agrees_with_the_row_by_row_load(text):
    got = _outcome(lambda t: load_kb(io.StringIO(t)), text)
    assert got == _outcome(_row_by_row, text)


@pytest.mark.parametrize("flaw", ["padded_last_cell", "conflict_a_chunk_on"])
def test_regex_load_agrees_with_the_row_by_row_load_across_chunks(flaw):
    # Rows enough for three chunks; the one flaw sits past the first.
    rows = [f"rs{i}\tCA{i}\tG{i % 97}\tc.{i}A>T\tp.M{i}L\tA\tT"
            for i in range(1, 4001)]
    if flaw == "padded_last_cell":
        rows[-1] = rows[-1].replace("\tG", "\t G", 1)
    else:
        # Row 1's (gene, DNA) key under another rs number.
        rows.append("rs9999\tCA9999\tG1\tc.1A>T\t\tA\tT")
    text = "\n".join([HEADER, *rows]) + "\n"
    assert text.index(rows[-1]) > kb_module._CHUNK
    got = _outcome(lambda t: load_kb(io.StringIO(t)), text)
    assert got == _outcome(_row_by_row, text)
    assert (got[0] is DuplicateKey) == (flaw == "conflict_a_chunk_on")


def test_a_clean_kb_loads_without_the_row_check(tmp_path, monkeypatch):
    # DNA forms repeat across genes, so keys hold lists and the conflict
    # check has rows to look at; empty lines end some stretches of rows.
    rows = [
        f"rs{i}\tCA{i}\tG{i % 97}\tc.{i % 1000 + 1}A>T\tp.M{i}L\tA\tT"
        + "\n" * (i % 2000 == 0)
        for i in range(1, 5001)
    ]
    path = write_kb(tmp_path, rows + [""])

    def refuse(line_no, cols):
        raise AssertionError(f"line {line_no} was checked on its own")

    monkeypatch.setattr(kb_module, "_check_row", refuse)
    kb = load_kb(path)
    assert len(kb) == 5000
    got = kb.lookup(None, desc("c.5A>T"))
    assert [r.rsid for r in got] == [f"rs{i}" for i in (4, 1004, 2004, 3004, 4004)]
    assert [r.gene for r in kb.lookup("G5", desc("p.M5"))] == ["G5"]


_PAIR = ("rs1\tCA1\tBRAF\tc.1A>T\tp.K1N\tA\tT",
         "rs2\tCA2\tKRAS\tc.2A>T\tp.G12D\tA\tT")
_PAIR_RECORDS = [("rs1", "CA1", "BRAF", "c.1A>T", "p.K1N", "A", "T"),
                 ("rs2", "CA2", "KRAS", "c.2A>T", "p.G12D", "A", "T")]


@pytest.mark.parametrize("text,want", [
    (HEADER + "\n" + _PAIR[0] + "\n" + _PAIR[1].replace("\tKRAS", "\t KRAS")
     + "\n", _PAIR_RECORDS),
    (HEADER + "\r\n" + _PAIR[0] + "\r\n" + _PAIR[1] + "\r\n", _PAIR_RECORDS),
    ("\n".join([HEADER, *_PAIR, "rs3\tCA3\tBRAF\tc.9G>C\tp.K1N\tG\tC"]) + "\n",
     (DuplicateKey, 4,
      "line 4: key ('BRAF', 'p.K1N') already mapped to rs1, got rs3")),
], ids=["padded_cell", "crlf", "duplicate_key"])
def test_texts_the_regex_cannot_vouch_for_are_read_row_by_row(
    monkeypatch, text, want
):
    checked = []
    check = kb_module._check_row
    monkeypatch.setattr(kb_module, "_check_row",
                        lambda line_no, cols: checked.append(line_no)
                        or check(line_no, cols))
    if isinstance(want, tuple):
        with pytest.raises(want[0]) as err:
            load_kb(io.StringIO(text))
        assert (err.value.line_no, str(err.value)) == want[1:]
    else:
        records = load_kb(io.StringIO(text)).records
        assert [dataclasses.astuple(r) for r in records] == want
    assert checked[:2] == [2, 3]


def _traced_load_of_5000_rows(tmp_path):
    """A 5,000-row KB loaded under tracemalloc, with the bytes the load
    left live and its peak, both counted from before it."""
    rows = [
        f"rs{i}\tCA{i}\tG{i % 97}\tc.{i}A>T\tp.M{i}L\tA\tT"
        for i in range(1, 5001)
    ]
    path = write_kb(tmp_path, rows)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kb = load_kb(path)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kb) == 5000
    return kb, live - before, peak - before


def test_load_peak_stays_near_what_stays_live(tmp_path):
    # The file's lines and the duplicate-key map are freed before the
    # indexes are built.
    _, live, peak = _traced_load_of_5000_rows(tmp_path)
    assert peak <= 1.2 * live


def test_load_live_bytes_per_row_stay_bounded(tmp_path):
    # A key with one record holds the record itself, not a list of one.
    # The figure follows CPython 3.11's tracemalloc accounting: 489 B a
    # row there, 861 B while every key held a list.
    kb, live, _ = _traced_load_of_5000_rows(tmp_path)
    assert live / len(kb) <= 562


@pytest.fixture()
def gc_state():
    """Sets the collector on or off for a test and restores it after."""
    enabled = gc.isenabled()
    yield lambda on: gc.enable() if on else gc.disable()
    if enabled:
        gc.enable()
    else:
        gc.disable()


_GOOD_ROW = "rs1\tCA1\tBRAF\tc.1A>T\t\tA\tT"
_LOADS = {
    "loads": ([_GOOD_ROW], None),
    "malformed": ([_GOOD_ROW, "rs2\tCA2\tBR AF\tc.2A>T\t\tA\tT",
                   "rs3\tCA3\tKRAS\tc.3A>T\t\tA\tT"], MalformedRow),
    "duplicate": ([_GOOD_ROW, "rs2\t\tBRAF\tc.1A>T\t\tA\tT"], DuplicateKey),
    "unreadable": (None, FileUnreadable),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
@pytest.mark.parametrize("case", _LOADS)
def test_load_leaves_the_collector_as_it_found_it(
    tmp_path, gc_state, enabled, case
):
    rows, error = _LOADS[case]
    path = write_kb(tmp_path, rows) if rows else str(tmp_path / "absent.tsv")
    gc_state(enabled)
    if error is None:
        assert len(load_kb(path)) == 1
    else:
        with pytest.raises(error):
            load_kb(path)
    assert gc.isenabled() is enabled


_FIELDS = ("rs1", "CA1", "BRAF", "c.1A>T", "p.K1N", "A", "T")


def test_record_is_a_frozen_value_without_a_dict():
    rec = VariantRecord(*_FIELDS)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.gene = "KRAS"
    assert not hasattr(rec, "__dict__")
    twin = VariantRecord(*_FIELDS)
    assert rec == twin and hash(rec) == hash(twin) == hash(_FIELDS)
    assert dataclasses.astuple(rec) == _FIELDS
    assert rec != VariantRecord("rs2", *_FIELDS[1:])
    assert len({rec, twin, VariantRecord("", *_FIELDS[1:])}) == 2
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rec, protocol))
        assert type(back) is VariantRecord
        assert back == rec and hash(back) == hash(rec)
        assert back.sort_key() == rec.sort_key()
        with pytest.raises(dataclasses.FrozenInstanceError):
            back.gene = "KRAS"


def test_rows_of_one_gene_share_one_gene_string(tmp_path):
    rows = [
        "rs1\tCA1\tBRAF\tc.1A>T\t\tA\tT",
        "rs2\tCA2\t BRAF\tc.2A>T\t\tA\tT",
        "rs3\tCA3\tKRAS\tc.3A>T\t\tA\tT",
    ]
    first, second, third = load_kb(write_kb(tmp_path, rows)).records
    assert first.gene == second.gene == "BRAF"
    assert first.gene is second.gene
    assert third.gene == "KRAS"


# Row cells: good and bad column words, padded with ASCII and non-ASCII
# whitespace (tab and line ends aside), or a few of them run together,
# which also gives empty cells and whitespace inside a word.
_SPACES = [" ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
           "\u00a0", "\u2028", "\u3000"]
_PAD = st.lists(st.sampled_from(_SPACES), max_size=2).map("".join)


def _cell(good, bad):
    words = st.sampled_from(good * 3 + bad)
    mixed = st.lists(st.sampled_from(_SPACES + good + bad), max_size=3)
    word = st.integers(0, 4).flatmap(
        lambda k: mixed.map("".join) if k == 4 else words
    )
    return st.tuples(_PAD, word, _PAD).map("".join)


_ALLELES = ["", "A", "C", "G", "T", "U", "TU", "ACGTU"]
_CELLS = (
    _cell(["rs1", "rs12", ""], ["rs01", "Rs1", "rs\u0661", "x"]),
    _cell(["CA1", "CA12", ""], ["ca1", "CA\u0662", "C"]),
    _cell(["BRAF", "TP53", "braf", "X-1", "\u00e9"],
          ["\u00a0"] + ["BR" + space + "AF" for space in _SPACES]),
    _cell(["c.1A>T", "c.2del", ""], ["c. 1A>T"]),
    _cell(["p.V600E", "p.K1N", ""], ["p.K1 N"]),
    _cell(_ALLELES, ["a", "t", "N", "\u0410", "A T"]),
    _cell(_ALLELES, ["g", "u", "R", "Z", "C\u2028G"]),
)


@st.composite
def _row(draw):
    cells = [draw(cell) for cell in _CELLS]
    change = draw(st.sampled_from([0] * 8 + [-1, 1]))
    return cells[:change] if change < 0 else cells + ["A"] * change


@given(st.lists(_row(), min_size=1, max_size=4))
@settings(max_examples=400, deadline=None)
def test_row_checks_agree_with_the_plain_predicates(rows):
    lines = ["\t".join(cells) for cells in rows]
    want, keys = [], {}
    for line_no, (line, cells) in enumerate(zip(lines, rows), start=2):
        if not line.strip():
            continue
        verdict = oracles.kb_row_verdict(cells)
        if isinstance(verdict, str):
            want = (line_no, verdict)
            break
        rsid, _, gene, dna, prot = verdict[:5]
        for hgvs in (dna, prot):
            if hgvs and rsid:
                # Conflicting keys are another check's business.
                assume(keys.setdefault((gene, hgvs), rsid) == rsid)
        want.append(verdict)
    source = io.StringIO("\n".join([HEADER, *lines]) + "\n")
    if isinstance(want, tuple):
        with pytest.raises(MalformedRow) as err:
            load_kb(source)
        assert (err.value.line_no, err.value.column) == want
    else:
        records = load_kb(source).records
        assert [dataclasses.astuple(r) for r in records] == want


def test_repeated_identical_mapping_allowed(tmp_path):
    rows = [
        "rs1\tCA1\tBRAF\tc.1A>T\t\tA\tT",
        "rs1\tCA2\tBRAF\tc.1A>T\tp.K1N\tA\tT",
    ]
    kb = load_kb(write_kb(tmp_path, rows))
    assert len(kb) == 2


def test_blank_lines_skipped(tmp_path):
    text = HEADER + "\n\nrs1\tCA1\tBRAF\tc.1A>T\t\tA\tT\n\n"
    path = tmp_path / "kb.tsv"
    path.write_text(text, encoding="utf-8")
    assert len(load_kb(str(path))) == 1


def test_load_genes(tmp_path):
    path = tmp_path / "genes.txt"
    path.write_text("BRAF\n\n  KRAS \nTP53\n", encoding="utf-8")
    assert load_genes(str(path)) == frozenset({"BRAF", "KRAS", "TP53"})


def test_load_genes_rejects_embedded_whitespace(tmp_path):
    path = tmp_path / "genes.txt"
    path.write_text("BRAF\nTP 53\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as err:
        load_genes(str(path))
    assert err.value.line_no == 2


# Lexicon lines: symbols, near-symbols and whitespace of every kind str
# strips and splits on, run together.  Zero-width space and joiners are not
# whitespace.
_WORD_CHARS = ["A", "1", "-", "\u00e9", "\u200b", "\u2060", "\t", " ",
               "\u1680", "\u2029", *_SPACES]


@given(st.lists(st.lists(st.sampled_from(_WORD_CHARS), max_size=5)
                .map("".join), min_size=1, max_size=4))
@settings(max_examples=500, deadline=None)
def test_one_symbol_rule_agrees_with_the_plain_predicate(lines):
    # KB gene cells and lexicon lines share the rule; the KB side is
    # test_row_checks_agree_with_the_plain_predicates.
    for line in lines:
        word = line.strip()
        assert _is_one_symbol(word) == oracles.is_one_symbol(word)
    want = set()
    for line_no, line in enumerate(lines, start=1):
        word = line.strip()
        if not word:
            continue
        if not oracles.is_one_symbol(word):
            with pytest.raises(MalformedRow) as err:
                load_genes(io.StringIO("\n".join(lines)))
            assert (err.value.line_no, err.value.column) == (line_no, "symbol")
            return
        want.add(word)
    assert load_genes(io.StringIO("\n".join(lines))) == want


def test_kb_row_holding_a_form_feed_is_one_row():
    # Only \n, \r\n and \r end a line, as in PubTator files.
    row = "rs1\tCA1\tG1\tc.5A>T\tp.M2L\x0c\tA\tT"
    kb = load_kb(io.StringIO(HEADER + "\n" + row + "\n"))
    assert [r.protein_hgvs for r in kb.records] == ["p.M2L"]


_FORM_FEED_ROW = "rs1\tCA1\tG1\tc.5A>T\tp.M2L\x0c\tA\tT"


@pytest.mark.parametrize("text,line_nos", [
    (HEADER + "\n" + _FORM_FEED_ROW + "\n", [2]),
    (HEADER + "\r\n" + _FORM_FEED_ROW + "\r" + _GOOD_ROW + "\n", [2, 3]),
], ids=["form_feed", "every_line_end"])
def test_raw_rows_oracle_ends_lines_as_the_loader_does(tmp_path, text, line_nos):
    path = tmp_path / "kb.tsv"
    path.write_bytes(text.encode("utf-8"))
    raw = oracles.read_raw_rows(str(path))
    records = load_kb(str(path)).records
    assert [oracles.raw_record(r) for r in raw] == [
        dataclasses.astuple(r) for r in records
    ]
    assert [r["line_no"] for r in raw] == line_nos


def test_kb_line_numbers_count_only_line_ends():
    rows = ["rs1\tCA1\tG1\tc.5A>T\tp.M2L\tA\tT\x0c", "rs2\tCA2\tG1"]
    with pytest.raises(MalformedRow) as info:
        load_kb(io.StringIO("\n".join([HEADER] + rows) + "\n"))
    assert (info.value.line_no, info.value.column) == (3, "columns")


def test_gene_line_holding_a_line_separator_is_one_symbol():
    with pytest.raises(MalformedRow, match="bad gene symbol") as info:
        load_genes(io.StringIO("BRAF\u2028KRAS\n"))
    assert info.value.line_no == 1


def test_load_genes_missing_file(tmp_path):
    with pytest.raises(FileUnreadable):
        load_genes(str(tmp_path / "absent.txt"))


# Cross-check indexed lookups against a row-scanning oracle on a bigger
# generated table.

GENES = ["BRAF", "KRAS", "TP53", "EGFR", "IL17F", "TRPV4", "PTEN", "MYC"]
NUCS = "ACGT"
AAS = "ACDEFGHIKLMNPQRSTVWY"


def random_rows(rng, n):
    rows = []
    used = set()
    for i in range(n):
        gene = rng.choice(GENES)
        pos = rng.randint(1, 2500)
        ref, alt = rng.sample(NUCS, 2)
        dna = f"c.{pos}{ref}>{alt}" if rng.random() < 0.8 else ""
        wt, mt = rng.sample(AAS, 2)
        prot = f"p.{wt}{rng.randint(1, 900)}{mt}" if rng.random() < 0.7 else ""
        if not dna and not prot:
            dna = f"c.{pos}{ref}>{alt}"
        key = (gene, dna, prot)
        if key in used:
            continue
        used.add(key)
        rsid = f"rs{rng.randint(1, 10 ** 9)}" if rng.random() < 0.85 else ""
        ca = f"CA{rng.randint(1, 10 ** 7)}" if rng.random() < 0.6 else ""
        if not rsid and not ca:
            ca = f"CA{rng.randint(1, 10 ** 7)}"
        alleles = (ref, alt) if dna and rng.random() < 0.9 else ("", "")
        rows.append("\t".join((rsid, ca, gene, dna, prot, *alleles)))
    return rows


def test_lookup_agrees_with_row_scan_oracle(tmp_path):
    rng = random.Random(20260821)
    rows = random_rows(rng, 220)
    path = write_kb(tmp_path, rows, "big.tsv")
    kb = load_kb(path)
    raw = oracles.read_raw_rows(path)

    probes = []
    for _ in range(120):
        gene = rng.choice(GENES + [""])
        if rng.random() < 0.5:
            pos = rng.randint(1, 2500)
            ref, alt = rng.sample(NUCS, 2)
            probes.append((gene, desc(f"c.{pos}{ref}>{alt}")))
        elif rng.random() < 0.6:
            wt, mt = rng.sample(AAS, 2)
            probes.append((gene, desc(f"{wt}{rng.randint(1, 900)}{mt}")))
        else:
            wt = rng.choice(AAS)
            probes.append((gene, desc(f"p.{wt}{rng.randint(1, 900)}")))
    # Salt in probes guaranteed to hit rows.
    for line in rng.sample(rows, 40):
        rsid, ca, gene, dna, prot, ref, alt = line.split("\t")
        surface = dna or prot
        probes.append((gene, desc(surface)))
        if prot:
            probes.append((gene, desc(prot[:-1])))

    hits = 0
    for gene, descriptor in probes:
        got = [dataclasses.astuple(r) for r in kb.lookup(gene, descriptor)]
        want = oracles.brute_force_lookup(raw, gene, descriptor)
        assert got == want, (gene, descriptor.raw)
        hits += bool(got)
    assert hits >= 40
