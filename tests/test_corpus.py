import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varlex import (
    Annotation,
    Document,
    MalformedLine,
    OffsetMismatch,
    FileUnreadable,
    read_pubtator,
    read_pubtator_text,
    write_pubtator,
)

EXAMPLE = """10327394|t|Mutations of the BRAF gene in human cancer.
10327394|a|We detected the V600E substitution in two thirds of melanomas.
10327394\t60\t65\tV600E\tProteinMutation\tCA123643

"""


def test_example_block_parses():
    docs = read_pubtator_text(EXAMPLE)
    assert len(docs) == 1
    doc = docs[0]
    assert doc.doc_id == "10327394"
    assert doc.title == "Mutations of the BRAF gene in human cancer."
    assert doc.abstract.startswith("We detected")
    assert doc.annotations == (
        Annotation(60, 65, "V600E", "ProteinMutation", "CA123643"),
    )


def test_offsets_are_into_title_space_abstract():
    docs = read_pubtator_text(EXAMPLE)
    doc = docs[0]
    a = doc.annotations[0]
    assert doc.full_text[a.start: a.end] == "V600E"
    assert doc.full_text == f"{doc.title} {doc.abstract}"


def test_round_trip_is_byte_exact():
    assert write_pubtator(read_pubtator_text(EXAMPLE)) == EXAMPLE


def test_write_then_read_preserves_documents():
    docs = [
        Document("d1", "BRAF V600E title.", "Abstract with c.1799T>A here.",
                 (Annotation(5, 10, "V600E", "ProteinMutation", "CA123643"),
                  Annotation(32, 41, "c.1799T>A", "DNAMutation"))),
        Document("d2", "No abstract here.", "", ()),
    ]
    text = write_pubtator(docs)
    assert read_pubtator_text(text) == docs


def test_five_column_annotation_has_empty_norm_id():
    text = ("1|t|A V600E title.\n"
            "1|a|Body.\n"
            "1\t2\t7\tV600E\tProteinMutation\n\n")
    doc = read_pubtator_text(text)[0]
    assert doc.annotations[0].norm_id == ""
    # And it writes back without a sixth column.
    assert write_pubtator([doc]) == text


def test_title_may_contain_pipes():
    text = "9|t|Quality | of | life.\n9|a|Body text.\n\n"
    doc = read_pubtator_text(text)[0]
    assert doc.title == "Quality | of | life."


def test_abstract_line_optional():
    text = "9|t|Title only.\n\n"
    doc = read_pubtator_text(text)[0]
    assert doc.abstract == ""
    assert doc.full_text == "Title only. "


def test_multibyte_offsets_verified_as_bytes():
    title = "β-globin study."
    # "β" is two bytes, so the annotation span is shifted right by one.
    start = title.encode("utf-8").index(b"globin")
    text = f"7|t|{title}\n7|a|Body.\n7\t{start}\t{start + 6}\tglobin\tGene\n\n"
    doc = read_pubtator_text(text)[0]
    assert doc.annotations[0].text == "globin"


def test_missing_title_line_rejected():
    with pytest.raises(MalformedLine) as err:
        read_pubtator_text("5|a|Abstract first.\n\n")
    assert err.value.line_no == 1


def test_second_title_line_rejected():
    with pytest.raises(MalformedLine):
        read_pubtator_text("5|t|One.\n5|t|Two.\n\n")


def test_annotation_id_must_match_block():
    text = "5|t|Title.\n5|a|Body.\n6\t0\t5\tTitle\tGene\n\n"
    with pytest.raises(MalformedLine) as err:
        read_pubtator_text(text)
    assert err.value.line_no == 3


@pytest.mark.parametrize("ann", [
    "5\t0\t5",                      # too few columns
    "5\t0\t5\tTitle\tGene\tX\tY",   # too many
    "5\tzero\t5\tTitle\tGene",      # non-numeric start
    "5\t0\tfive\tTitle\tGene",      # non-numeric end
    "5\t5\t5\tTitle\tGene",         # empty span
    "5\t6\t5\tTitle\tGene",         # reversed span
    "5\t0\t5\tTitle\t",             # empty label
])
def test_malformed_annotation_lines(ann):
    text = f"5|t|Title.\n5|a|Body.\n{ann}\n\n"
    with pytest.raises(MalformedLine):
        read_pubtator_text(text)


_HEAD = "5|t|Title.\n5|a|Body.\n"


@pytest.mark.parametrize("text,error,line_no,message", [
    ("|t|Title.\n", MalformedLine, 1, "line 1: empty document id"),
    ("5|t|Title.\n6|a|Body.\n", MalformedLine, 2,
     "line 2: document id '6' inside block '5'"),
    ("5|t|One.\n5|t|Two.\n", MalformedLine, 2,
     "line 2: second title line in block"),
    ("5|a|Abstract first.\n", MalformedLine, 1,
     "line 1: abstract line before title line"),
    (_HEAD + "5|a|Again.\n", MalformedLine, 3,
     "line 3: second abstract line in block"),
    (_HEAD + "5\t0\t5\n", MalformedLine, 3,
     "line 3: expected 5 or 6 tab-separated fields, got 3"),
    (_HEAD + "6\t0\t5\tTitle\tGene\n", MalformedLine, 3,
     "line 3: annotation for '6' inside block '5'"),
    ("5\t0\t5\tTitle\tGene\n5|t|Title.\n", MalformedLine, 1,
     "line 1: annotation for '5' inside block None"),
    (_HEAD + "Body.\n", MalformedLine, 3, "line 3: unrecognized line 'Body.'"),
    (_HEAD + "5\tzero\t5\tTitle\tGene\n", MalformedLine, 3,
     "line 3: bad start offset 'zero'"),
    (_HEAD + "5\t0\tfive\tTitle\tGene\n", MalformedLine, 3,
     "line 3: bad end offset 'five'"),
    # Offsets are ASCII digits: not a superscript, which int() rejects, nor
    # Arabic-Indic digits, which it reads (0..12 would select the text).
    (_HEAD + "5\t\u00b2\t5\tTitle\tGene\n", MalformedLine, 3,
     "line 3: bad start offset '\u00b2'"),
    (_HEAD + "5\t0\t\u0661\u0662\tTitle. Body.\tGene\n", MalformedLine, 3,
     "line 3: bad end offset '\u0661\u0662'"),
    pytest.param(_HEAD + "5\t" + "9" * 5000 + "\t5\tTitle\tGene\n", MalformedLine,
                 3, f"line 3: bad start offset '{'9' * 5000}'",
                 id="start offset of 5000 digits"),
    (_HEAD + "5\t6\t5\tTitle\tGene\n", MalformedLine, 3,
     "line 3: empty span 6..5"),
    (_HEAD + "5\t0\t5\tTitle\t\n", MalformedLine, 3,
     "line 3: empty annotation label"),
    (_HEAD + "5\t0\t5\tWrong\tGene\n", OffsetMismatch, None,
     "document 5: span [0, 5) reads 'Title', annotation says 'Wrong'"),
    ("6|t|Café\n6\t4\t6\té \tGene\n", OffsetMismatch, None,
     "document 6: span [4, 6) reads '\ufffd ', annotation says 'é '"),
    # Every line of a block is checked before any of its offsets, and a
    # block is read whole before the next one starts.
    (_HEAD + "5\t0\t5\tWrong\tGene\nBody.\n", MalformedLine, 4,
     "line 4: unrecognized line 'Body.'"),
    (_HEAD + "5\t0\t5\tWrong\tGene\n\nBody.\n", OffsetMismatch, None,
     "document 5: span [0, 5) reads 'Title', annotation says 'Wrong'"),
    (_HEAD + "5\t0\t5\tTitle\tGene\n \t\n6|t|A.\r\n6|t|B.\n", MalformedLine,
     6, "line 6: second title line in block"),
])
def test_every_reader_error_names_its_line(text, error, line_no, message):
    with pytest.raises(error) as info:
        read_pubtator_text(text)
    assert type(info.value) is error
    assert getattr(info.value, "line_no", None) == line_no
    assert str(info.value) == message


def test_offset_mismatch_reports_expected_and_found():
    text = "5|t|Title.\n5|a|Body.\n5\t0\t5\tWrong\tGene\n\n"
    with pytest.raises(OffsetMismatch) as err:
        read_pubtator_text(text)
    assert err.value.doc_id == "5"
    assert (err.value.start, err.value.end) == (0, 5)
    assert err.value.expected == "Wrong"
    assert err.value.found == "Title"


def test_span_splitting_a_character_is_an_offset_mismatch():
    # Bytes 3..5 of "Café" encode "é"; the span 4..6 starts inside it.
    text = "6|t|Café\n6|a|Body.\n6\t4\t6\té \tGene\n\n"
    with pytest.raises(OffsetMismatch) as err:
        read_pubtator_text(text)
    assert err.value.doc_id == "6"
    assert (err.value.start, err.value.end) == (4, 6)
    assert err.value.expected == "é "
    assert err.value.found == "\ufffd "


def test_read_from_file_and_handle(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(EXAMPLE, encoding="utf-8")
    from_path = read_pubtator(str(path))
    with open(path, "r", encoding="utf-8") as fh:
        from_handle = read_pubtator(fh)
        assert not fh.closed
    assert from_path == from_handle == read_pubtator_text(EXAMPLE)


def test_read_missing_file(tmp_path):
    with pytest.raises(FileUnreadable):
        read_pubtator(str(tmp_path / "absent.txt"))


def test_multi_document_round_trip():
    blocks = []
    for i in range(1, 8):
        start = len(f"Title number {i} with ")
        blocks.append(f"{i}|t|Title number {i} with V600E.\n"
                      f"{i}|a|Abstract body {i}.\n"
                      f"{i}\t{start}\t{start + 5}"
                      f"\tV600E\tProteinMutation\tCA123643\n\n")
    text = "".join(blocks)
    docs = read_pubtator_text(text)
    assert len(docs) == 7
    assert write_pubtator(docs) == text


def test_no_trailing_blank_line_still_parses():
    text = "5|t|Title.\n5|a|Body."
    docs = read_pubtator_text(text)
    assert docs[0].title == "Title."
    assert docs[0].abstract == "Body."


def test_empty_input_gives_no_documents():
    assert read_pubtator_text("") == []
    assert read_pubtator_text("\n\n") == []
    assert write_pubtator([]) == ""


def test_write_preserves_annotation_order():
    # Round-trip fidelity requires writing annotations as stored, not
    # re-sorting them.
    doc = Document("3", "V600E and G12D here.", "",
                   (Annotation(10, 14, "G12D", "ProteinMutation"),
                    Annotation(0, 5, "V600E", "ProteinMutation")))
    lines = write_pubtator([doc]).splitlines()
    assert lines[2].startswith("3\t10\t14")
    assert lines[3].startswith("3\t0\t5")


# Title and abstract text: anything UTF-8 can encode (every code point but
# the surrogates) except the line ends \n, \r\n and \r.
_LINE_TEXT = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\n\r")
)


@st.composite
def _documents(draw):
    docs = []
    for doc_no in range(1, draw(st.integers(0, 3)) + 1):
        title, abstract = draw(_LINE_TEXT), draw(_LINE_TEXT)
        full = f"{title} {abstract}"
        bounds = st.integers(0, len(full))
        annotations = []
        for i, j in draw(st.lists(st.tuples(bounds, bounds), max_size=3)):
            i, j = sorted((i, j))
            piece = full[i:j]
            if not piece or "\t" in piece:
                continue
            start = len(full[:i].encode("utf-8"))
            end = start + len(piece.encode("utf-8"))
            norm_id = draw(st.sampled_from(["", "rs113488022"]))
            annotations.append(Annotation(start, end, piece, "Gene", norm_id))
        docs.append(Document(str(doc_no), title, abstract, tuple(annotations)))
    return docs


@given(_documents())
@settings(max_examples=300)
def test_written_documents_read_back_equal(docs):
    # Characters such as U+2028, \x85 or \x0c inside a title are text,
    # not line ends.
    assert read_pubtator_text(write_pubtator(docs)) == docs


def test_universal_line_ends_are_read_alike():
    for newline in ("\r\n", "\r"):
        assert read_pubtator_text(EXAMPLE.replace("\n", newline)) == (
            read_pubtator_text(EXAMPLE)
        )
