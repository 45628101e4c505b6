import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import unjoin
from unjoin.tokens import IDENT, NUMBER, OP, QIDENT, STRING, KEYWORDS, TokenizeError, tokenize

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


def _quoted(sql):
    return [(t.kind, t.value, sql[t.start:t.end]) for t in tokenize(sql)][1:]


def test_doubled_closer_at_the_very_end():
    assert _quoted("SELECT 'it'''") == [(STRING, "it'", "'it'''")]
    assert _quoted('SELECT "a"""') == [(QIDENT, 'a"', '"a"""')]


def test_unterminated_region_right_after_a_doubled_closer():
    # The offset is the opening quote's, not the doubled closer's.
    with pytest.raises(TokenizeError) as info:
        tokenize("SELECT 'a''")
    assert info.value.offset == 7
    with pytest.raises(TokenizeError) as info:
        tokenize("SELECT x'4''")
    assert info.value.offset == 8


def test_brackets_never_double():
    # "]]" inside brackets closes the name at the first "]".
    assert _quoted("SELECT [a]]b]") == [(QIDENT, "a", "[a]"), (OP, "]", "]"),
                                        (IDENT, "b", "b"), (OP, "]", "]")]
    assert _quoted("SELECT [a]] FROM t")[:2] == [(QIDENT, "a", "[a]"), (OP, "]", "]")]


def test_blob_with_a_doubled_quote():
    assert _quoted("SELECT x'4''1', 2") == [
        (STRING, "4'1", "x'4''1'"), (OP, ",", ","), (NUMBER, "2", "2")]


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


def test_equal_tokens_hash_equal():
    scanned = tokenize("SELECT [My Col]")[1]
    again = tokenize("SELECT [My Col]")[1]
    assert scanned == again and scanned is not again
    assert hash(scanned) == hash(again)
    assert len({scanned, again}) == 1
    assert scanned != tokenize("SELECT `My Col`")[1]
    assert scanned != tokenize("SELECT [my col]")[1]


# ----- only tokenize builds a token -----

# Nothing derives ``lower`` from ``value`` but ``tokenize``, so a token
# built anywhere else could carry a ``lower`` that is not ``value.lower()``.


def _builds_token(call: ast.Call) -> bool:
    """A ``Token(...)``, ``Token._make``, ``_replace`` or ``tuple.__new__(Token, ...)`` call."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("Token", "_make", "_replace"):
        return True
    return bool(call.args) and isinstance(call.args[0], ast.Name) and call.args[0].id == "Token"


def test_only_tokenize_builds_tokens():
    outside, in_tokenize = [], 0
    for path in sorted(Path(unjoin.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = set()
        if path.name == "tokens.py":
            [tokenize_def] = [node for node in tree.body
                              if isinstance(node, ast.FunctionDef) and node.name == "tokenize"]
            exempt = {id(node) for node in ast.walk(tokenize_def)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _builds_token(node):
                if id(node) in exempt:
                    in_tokenize += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    assert outside == []
    assert in_tokenize > 0  # the check sees tokenize's own builds
