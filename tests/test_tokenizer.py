from hypothesis import given, settings
from hypothesis import strategies as st

from varlex import split_sentences
from varlex.tokenizer import _sentence_spans, byte_offsets, to_byte_span


def test_byte_offsets_table():
    assert byte_offsets("plain ascii") is None
    table = byte_offsets("aβc")
    assert table == [0, 1, 3, 4]
    assert to_byte_span(table, 1, 2) == (1, 3)
    assert to_byte_span(None, 3, 7) == (3, 7)


@given(st.text())
def test_byte_offsets_match_encoded_prefix_lengths(text):
    table = byte_offsets(text)
    if text.isascii():
        assert table is None
    else:
        assert len(table) == len(text) + 1
        for i in range(len(text) + 1):
            assert table[i] == len(text[:i].encode("utf-8"))


def test_sentence_split_on_period_space_capital():
    text = "We saw V600E. It was frequent. no break here. Final."
    spans = split_sentences(text)
    pieces = [text[s:e] for s, e in spans]
    # ". n" does not open a sentence; ". I" and ". F" do.
    assert pieces == [
        "We saw V600E. ",
        "It was frequent. no break here. ",
        "Final.",
    ]


def test_sentence_spans_partition_text():
    text = "One. Two. Three"
    spans = split_sentences(text)
    assert spans[0][0] == 0
    assert spans[-1][1] == len(text.encode("utf-8"))
    for (_, e1), (s2, _) in zip(spans, spans[1:]):
        assert e1 == s2


def test_sentence_split_empty_text():
    assert split_sentences("") == []


@given(st.text(max_size=300))
@settings(max_examples=200)
def test_sentence_spans_always_partition(text):
    spans = split_sentences(text)
    if not text:
        assert spans == []
        return
    assert spans[0][0] == 0
    assert spans[-1][1] == len(text.encode("utf-8"))
    for (_, e1), (s2, _) in zip(spans, spans[1:]):
        assert e1 == s2


# Non-ASCII prose with sentence breaks, genes and variant mentions.
_PROSE = st.lists(
    st.sampled_from([
        "BRAF", "V600E", "c.1799T>A", "rs113488022", "p.Val600Glu", "We",
        "saw", "The", "Müller", "α-helix", "→", "😀", "ſerine", ". ", ".",
        " ", "\n",
    ]),
    min_size=1, max_size=40,
).map("".join).filter(lambda text: not text.isascii())


@given(_PROSE)
@settings(max_examples=200)
def test_shared_byte_table_serves_scan_and_sentence_split(recognizer, text):
    # The pipeline takes the scan's table for the sentence split, so it
    # must be the text's own; a text without a mention gets none.
    mentions, genes, table = recognizer._scan_document(text, "d")
    if mentions:
        assert table == byte_offsets(text)
        assert (mentions, genes) == recognizer.scan_document(text, "d")
    else:
        assert (genes, table) == ([], None)
        assert recognizer.scan_document(text, "d")[0] == []
        table = byte_offsets(text)
    spans = _sentence_spans(text, table)
    assert spans == split_sentences(text)
    data = text.encode("utf-8")
    pieces = [data[s:e].decode("utf-8") for s, e in spans]
    assert "".join(pieces) == text
    for piece, following in zip(pieces, pieces[1:]):
        assert piece.rstrip()[-1] == "." and piece[-1].isspace()
        assert following[0].isupper()
