"""Text coordinates: byte offsets and sentence spans, both made in
``varlex.recognizer``."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varlex import Annotator, split_sentences
from varlex.recognizer import byte_offsets


def _encoded(text: str, i: int) -> int:
    return len(text[:i].encode("utf-8", "surrogatepass"))


# Characters of one to four UTF-8 bytes, and lone surrogates.
_CHARS = st.one_of(
    st.characters(max_codepoint=0x7F),
    st.characters(min_codepoint=0x80, max_codepoint=0x7FF),
    st.characters(min_codepoint=0x800, max_codepoint=0xFFFF),
    st.characters(min_codepoint=0x10000),
    st.integers(0xD800, 0xDFFF).map(chr),
)


@st.composite
def _text_and_spans(draw):
    text = draw(st.text(_CHARS, max_size=60))
    index = st.integers(0, len(text))
    # Indexes in any order: rising, falling and repeated.
    return text, draw(st.lists(st.tuples(index, index), max_size=20))


def test_byte_offsets_table():
    # ASCII text maps each index to itself.
    identity = byte_offsets("plain ascii")
    assert [identity(i) for i in (0, 3, 7, 11)] == [0, 3, 7, 11]
    offsets = byte_offsets("a\u03b2c")
    # Forward, back and repeated answers from one map.
    assert (offsets(1), offsets(2)) == (1, 3)
    assert (offsets(3), offsets(0)) == (4, 0)
    assert (offsets(2), offsets(2)) == (3, 3)
    surrogate = byte_offsets("\ud800x")
    assert (surrogate(0), surrogate(2)) == (0, 4)


@given(_text_and_spans())
@settings(max_examples=300)
def test_byte_offsets_match_encoded_prefix_lengths(text_and_spans):
    text, spans = text_and_spans
    offsets = byte_offsets(text)
    for i, j in spans:
        assert (offsets(i), offsets(j)) == (_encoded(text, i), _encoded(text, j))
        if text.isascii():
            assert (offsets(i), offsets(j)) == (i, j)


def test_byte_offsets_take_no_memory_per_character():
    # A list of one offset per character took 77 MB for this text.
    text = "a" * 1_000_000 + "\u00e9" + "a" * 999_999
    tracemalloc.start()
    try:
        offsets = byte_offsets(text)
        spans = [(offsets(s), offsets(s + 5)) for s in range(7, len(text), 2_000)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(spans) == 1_000
    assert spans[0] == (7, 12) and spans[-1] == (1_998_008, 1_998_013)
    assert peak < 1_000_000


@pytest.mark.parametrize("text", [
    "\ud800 BRAF V600E",
    "BRAF\udfff c.1799T>A; \ud83d rs113488022.",
    "\udc80. The KRAS G12D \udbff\ud800 and p.Val600Glu",
], ids=["first", "after-a-gene", "around-a-break"])
def test_lone_surrogates_count_three_bytes(recognizer, lexicon, text):
    mentions, genes = recognizer.scan_document(text)
    assert mentions and genes
    assert recognizer.recognize(text) == mentions
    for start, end, surface in [(m.start, m.end, m.text) for m in mentions] + [
        (g.start, g.end, g.symbol) for g in genes
    ]:
        i = text.index(surface)
        assert (start, end) == (_encoded(text, i), _encoded(text, i + len(surface)))
    annotated = Annotator(lexicon=lexicon).annotate_text(text).annotations
    assert [(a.start, a.end, a.text) for a in annotated] == [
        (m.start, m.end, m.text) for m in mentions
    ]


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


# Non-ASCII prose with sentence breaks, genes, variant mentions and a lone
# surrogate.
_PROSE = st.lists(
    st.sampled_from([
        "BRAF", "V600E", "c.1799T>A", "rs113488022", "p.Val600Glu", "We",
        "saw", "The", "Müller", "α-helix", "→", "😀", "ſerine", "\udc00", ". ",
        ".", " ", "\n",
    ]),
    min_size=1, max_size=40,
).map("".join).filter(lambda text: not text.isascii())


@given(_PROSE)
@settings(max_examples=200)
def test_scan_shortcut_and_sentence_split_on_non_ascii_prose(recognizer, text):
    # The pipeline's scan is the public one, except that a text without a
    # mention gives no genes.
    mentions, genes = recognizer.scan_document(text, "d")
    expected = (mentions, genes) if mentions else ([], [])
    assert recognizer._scan_document(text, "d") == expected
    data = text.encode("utf-8", "surrogatepass")
    pieces = [
        data[s:e].decode("utf-8", "surrogatepass")
        for s, e in split_sentences(text)
    ]
    assert "".join(pieces) == text
    for piece, following in zip(pieces, pieces[1:]):
        assert piece.rstrip()[-1] == "." and piece[-1].isspace()
        assert following[0].isupper()
