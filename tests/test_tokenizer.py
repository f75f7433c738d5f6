import string

from hypothesis import given, settings
from hypothesis import strategies as st

from varlex import Token, TokenKind, split_sentences, tokenize
from varlex.tokenizer import _sentence_spans, byte_offsets, byte_slice, to_byte_span


def kinds(text):
    return [(t.text, t.kind) for t in tokenize(text)]


def test_simple_sentence():
    assert kinds("the V600E mutation") == [
        ("the", TokenKind.WORD),
        (" ", TokenKind.WHITESPACE),
        ("V600E", TokenKind.MIXED),
        (" ", TokenKind.WHITESPACE),
        ("mutation", TokenKind.WORD),
    ]


def test_letters_digits_and_punctuation():
    assert kinds("c.1799T>A") == [
        ("c", TokenKind.WORD),
        (".", TokenKind.PUNCT),
        ("1799T", TokenKind.MIXED),
        (">", TokenKind.PUNCT),
        ("A", TokenKind.WORD),
    ]


def test_digit_grouping_commas_stay_inside_numbers():
    tokens = kinds("3,18,33,000 and 1,000, done")
    assert tokens[0] == ("3,18,33,000", TokenKind.NUMBER)
    # The comma after "1,000" has no digit on its right, so it splits off.
    assert ("1,000", TokenKind.NUMBER) in tokens
    assert (",", TokenKind.PUNCT) in tokens


def test_hyphen_and_slash_are_punct():
    tokens = kinds("nine-nucleotide A/T")
    assert ("-", TokenKind.PUNCT) in tokens
    assert ("/", TokenKind.PUNCT) in tokens


def test_whitespace_runs_are_single_tokens():
    tokens = tokenize("a  \t\n b")
    assert [t.kind for t in tokens] == [
        TokenKind.WORD, TokenKind.WHITESPACE, TokenKind.WORD,
    ]


def test_offsets_are_bytes_for_multibyte_text():
    text = "β-globin V600E"
    tokens = tokenize(text)
    # β is two bytes; the hyphen therefore starts at byte 2.
    assert tokens[0] == Token("β", 0, 2, TokenKind.WORD)
    assert tokens[1] == Token("-", 2, 3, TokenKind.PUNCT)
    for t in tokens:
        assert byte_slice(text, t.start, t.end) == t.text


def test_char_offsets_mode():
    text = "β V600E"
    byte_tokens = tokenize(text)
    char_tokens = tokenize(text, char_offsets=True)
    assert byte_tokens[0].end == 2
    assert char_tokens[0].end == 1
    assert [t.text for t in byte_tokens] == [t.text for t in char_tokens]


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


@given(st.text(max_size=300))
@settings(max_examples=300)
def test_tokens_reconstruct_source(text):
    assert "".join(t.text for t in tokenize(text)) == text


@given(st.text(max_size=300))
@settings(max_examples=300)
def test_token_spans_tile_the_byte_range(text):
    tokens = tokenize(text)
    pos = 0
    for t in tokens:
        assert t.start == pos
        assert t.end > t.start
        assert byte_slice(text, t.start, t.end) == t.text
        pos = t.end
    assert pos == len(text.encode("utf-8"))


@given(st.text(alphabet=string.ascii_letters + string.digits + " .,", max_size=200))
@settings(max_examples=200)
def test_token_kinds_match_content(text):
    for t in tokenize(text):
        if t.kind is TokenKind.WORD:
            assert t.text.isalpha()
        elif t.kind is TokenKind.NUMBER:
            assert t.text.replace(",", "").isdigit()
        elif t.kind is TokenKind.MIXED:
            assert any(c.isalpha() for c in t.text)
            assert any(c.isdigit() for c in t.text)
        elif t.kind is TokenKind.WHITESPACE:
            assert t.text.isspace()


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
