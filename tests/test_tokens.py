import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from unjoin.tokens import (
    IDENT, NUMBER, OP, QIDENT, STRING, KEYWORDS, Token, TokenizeError, tokenize,
)

from oracles import SlowTokenizeError, slow_tokenize


def kinds(sql):
    return [t.kind for t in tokenize(sql)]


def values(sql):
    return [t.value for t in tokenize(sql)]


def test_basic_select():
    toks = tokenize("SELECT a, b FROM t WHERE x = 1")
    assert [t.kind for t in toks] == [
        IDENT, IDENT, OP, IDENT, IDENT, IDENT, IDENT, IDENT, OP, NUMBER,
    ]
    assert toks[0].lower == "select"
    assert toks[0].is_keyword("select")
    assert not toks[1].is_keyword("select")


def test_spans_cover_source():
    sql = "SELECT `a b`, 'it''s' FROM [t]"
    for tok in tokenize(sql):
        assert 0 <= tok.start < tok.end <= len(sql)


def test_quoted_identifier_styles():
    toks = tokenize('SELECT "col", `col2`, [col3] FROM t')
    q = [t for t in toks if t.kind == QIDENT]
    assert [(t.value, t.quote) for t in q] == [
        ("col", '"'), ("col2", "`"), ("col3", "["),
    ]


def test_doubled_quote_escapes():
    assert values('SELECT "a""b"')[1] == 'a"b'
    assert values("SELECT 'it''s'")[1] == "it's"


def test_strings_keep_content_not_quotes():
    toks = tokenize("SELECT 'hello world'")
    assert toks[1].kind == STRING
    assert toks[1].value == "hello world"


def test_comments_dropped():
    sql = "SELECT a -- trailing\nFROM t /* block\ncomment */ WHERE b = 2"
    assert values(sql) == ["SELECT", "a", "FROM", "t", "WHERE", "b", "=", "2"]


def test_unterminated_block_comment_runs_to_the_end():
    # SQLite 3.40.1 runs "SELECT name FROM customer /* note" as if the
    # comment were closed at the end of the text.
    assert values("SELECT a FROM t /* note") == ["SELECT", "a", "FROM", "t"]
    assert values("SELECT a /* x; FROM t") == ["SELECT", "a"]
    assert values("SELECT a /*") == ["SELECT", "a"]


def test_names_take_every_character_above_ascii():
    toks = tokenize("SELECT café, été1, 日本$x, a\u00a0b FROM t")
    names = [t.value for t in toks if t.kind == IDENT]
    assert names == ["SELECT", "café", "été1", "日本$x", "a\u00a0b", "FROM", "t"]


def test_numbers():
    toks = tokenize("SELECT 1, 2.5, 1e3, 2.5E-2, .75")
    nums = [t.value for t in toks if t.kind == NUMBER]
    assert nums == ["1", "2.5", "1e3", "2.5E-2", ".75"]


def test_two_char_operators():
    sql = "a <> b != c >= d <= e || f == g"
    ops = [t.value for t in tokenize(sql) if t.kind == OP]
    assert ops == ["<>", "!=", ">=", "<=", "||", "=="]


def test_unterminated_string_reports_offset():
    with pytest.raises(TokenizeError) as info:
        tokenize("SELECT 'oops")
    assert info.value.offset == 7


def test_unterminated_quoted_identifier():
    with pytest.raises(TokenizeError):
        tokenize('SELECT "oops FROM t')


def test_keywords_are_lowercase_set():
    assert "select" in KEYWORDS
    assert "from" in KEYWORDS
    assert all(k == k.lower() for k in KEYWORDS)


@given(st.text(alphabet="abcxyz_019", min_size=1).filter(lambda s: s[0].isalpha() or s[0] == "_"))
def test_identifier_roundtrip(name):
    toks = tokenize(name)
    assert len(toks) == 1
    assert toks[0].kind == IDENT
    assert toks[0].value == name


@given(st.lists(st.sampled_from(["a", "b1", "'s'", "1.5", "*", ",", "(", ")"]), min_size=1, max_size=12))
def test_spans_are_ordered_and_disjoint(parts):
    sql = " ".join(parts)
    toks = tokenize(sql)
    for prev, cur in zip(toks, toks[1:]):
        assert prev.end <= cur.start


def test_blob_literal_is_one_token():
    sql = "SELECT x'41', X'', ax'1', x 'y' FROM t"
    assert [(t.kind, t.value, sql[t.start:t.end]) for t in tokenize(sql)][1:10] == [
        (STRING, "41", "x'41'"), (OP, ",", ","), (STRING, "", "X''"), (OP, ",", ","),
        (IDENT, "ax", "ax"), (STRING, "1", "'1'"), (OP, ",", ","),
        (IDENT, "x", "x"), (STRING, "y", "'y'"),
    ]
    with pytest.raises(TokenizeError):
        tokenize("SELECT x'41")


def test_token_hashable_and_frozen():
    tok = tokenize("a")[0]
    assert isinstance(hash(tok), int)
    with pytest.raises(AttributeError):
        tok.value = "b"


# ----- the tokenizer against its former dataclass version -----

# Pieces that reach every branch of the scanner: the four quote kinds
# with doubled closers and unterminated, both comment styles, numbers
# with dots and exponents, one- and two-character operators, ``$`` in
# names, blob literals, and letters outside ASCII (some lower-case to
# other lengths).
_PIECES = [
    "'", "''", '"', '""', "`", "``", "[", "]", "]]",
    "--", "/*", "*/", "\n", "\r\n", " ", "\t",
    "1", "1e5", "2.5E-3", "1e", "1E+", ".5", "1.2.3", "007",
    "<>", "!=", ">=", "<=", "||", "==", "=", "<", ">", "!", "|", "-", "/", "*",
    ".", ",", ";", "(", ")", "$", "a$1", "_x", "SeLeCt", "FROM", "t.c", "x", "X", "x'4f'",
    "é", "É", "日本", "ß", "İ", "Σ", "ǅ", "\u212a",
]
SQLISH = st.lists(
    st.one_of(st.sampled_from(_PIECES), st.text(max_size=3)), max_size=25
).map("".join)


def _fields(tokens):
    return [(t.kind, t.value, t.start, t.end, t.quote) for t in tokens]


@settings(max_examples=600, deadline=None)
@given(SQLISH)
def test_tokenize_matches_former_tokenizer(sql):
    try:
        want = slow_tokenize(sql)
    except SlowTokenizeError as exc:
        with pytest.raises(TokenizeError) as info:
            tokenize(sql)
        assert info.value.offset == exc.offset
        return
    got = tokenize(sql)
    assert _fields(got) == _fields(want)
    assert [t.lower for t in got] == [t.lower for t in want]


# ----- Token invariants -----


def test_token_attributes_cannot_be_assigned():
    tok = tokenize("Name")[0]
    for attr in ("kind", "value", "start", "end", "quote", "lower", "other"):
        with pytest.raises(AttributeError):
            setattr(tok, attr, "x")


@given(SQLISH)
def test_token_lower_is_value_lower_from_tokenize(sql):
    try:
        tokens = tokenize(sql)
    except TokenizeError:
        return
    for tok in tokens:
        assert tok.lower == tok.value.lower()


@pytest.mark.parametrize("value", ["SeLeCt", "É", "İx", "\u212a", "1E5", "<>", ""])
def test_token_lower_is_value_lower_however_built(value):
    made = [
        Token(IDENT, value, 0, len(value)),
        Token(QIDENT, value, 0, len(value) + 2, quote="`"),
        Token._make((STRING, value, 0, 1)),
        Token(OP, "x", 0, 1)._replace(value=value),
        copy.copy(Token(IDENT, value, 0, 1)),
        copy.deepcopy(Token(IDENT, value, 0, 1)),
        pickle.loads(pickle.dumps(Token(IDENT, value, 0, 1))),
    ]
    for tok in made:
        assert tok.value == value
        assert tok.lower == value.lower()


def test_token_lower_cannot_be_passed_in():
    with pytest.raises(TypeError):
        Token(IDENT, "A", 0, 1, "", "b")
    with pytest.raises(TypeError):
        Token(IDENT, "A", 0, 1, lower="b")
    with pytest.raises(TypeError):
        Token(IDENT, "A", 0, 1)._replace(lower="b")


def test_equal_tokens_hash_equal():
    built = Token(QIDENT, "My Col", 7, 15, quote="[")
    scanned = tokenize("SELECT [My Col]")[1]
    assert scanned == built
    assert hash(scanned) == hash(built)
    assert len({scanned, built}) == 1
    assert built != Token(QIDENT, "My Col", 7, 15, quote="`")
    assert built != Token(QIDENT, "my col", 7, 15, quote="[")
    assert eval(repr(built)) == built
