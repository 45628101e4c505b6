"""Offset-preserving SQL tokenizer.

Produces a flat token stream with source offsets so that callers can
rewrite identifier tokens in place without disturbing anything else in
the query text (whitespace, comments, literals, casing of keywords).
"""

from __future__ import annotations

from collections import namedtuple

IDENT = "ident"
QIDENT = "qident"
STRING = "string"
NUMBER = "number"
OP = "op"

# Reserved words that can never be table or column references when they
# appear bare. Function names like COUNT or SUM are deliberately absent;
# they are recognized by the trailing parenthesis instead.
KEYWORDS = frozenset(
    """
    select from where group by having order limit offset distinct all as on using
    join left right full outer inner cross natural and or not in is null like glob
    between exists case when then else end cast union intersect except with
    recursive asc desc collate escape over partition rows range preceding
    following unbounded current row filter values
    """.split()
)

# Every character above U+007F is a name character too, at the start of
# a name and inside it, as in SQLite's tokenizer.
_WORD_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_WORD_CHARS = _WORD_START | frozenset("0123456789$")
_DIGITS = frozenset("0123456789")
_TWO_CHAR_OPS = ("<>", "!=", ">=", "<=", "||", "==")


class TokenizeError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


_new = tuple.__new__


class Token(namedtuple("_TokenTuple", "kind value start end quote lower")):
    """One token: kind, text, source span, and the text in lower case.

    ``value`` is the unquoted text for QIDENT and STRING tokens (a blob
    literal ``x'..'`` is a STRING whose value is its hex text) and the
    raw text otherwise; ``quote`` is the opening quote character of a
    QIDENT. ``lower`` is ``value.lower()``, computed once when the token
    is built, so readers compare case-insensitively without lowering
    again. A token is an immutable tuple: assigning an attribute raises,
    and equality and hashing are by value. Only ``tokenize`` builds
    tokens, each with ``tuple.__new__``, lowering the text itself.
    """

    __slots__ = ()

    def is_keyword(self, *names: str) -> bool:
        return self.kind == IDENT and self.lower in names


_CLOSERS = {'"': '"', "`": "`", "[": "]", "'": "'"}


def _scan_quoted(text: str, i: int) -> tuple[str, int]:
    """Scan the quoted region whose opening mark is at ``i``; return (inner text, end index).

    Each closing mark is found by search. A doubled closer stands for one
    closer, per SQL convention, and the search goes on; brackets never double.
    """
    closer = _CLOSERS[text[i]]
    parts = []
    start = i + 1
    while True:
        j = text.find(closer, start)
        if j < 0:
            raise TokenizeError(f"unterminated {text[i]!r} quote", i)
        parts.append(text[start:j])
        if closer == "]" or not text.startswith(closer, j + 1):
            return closer.join(parts), j + 1
        start = j + 2


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch in " \t\r\n\f":
            i += 1
            continue
        if ch == "-" and sql.startswith("--", i):
            nl = sql.find("\n", i)
            i = n if nl < 0 else nl + 1
            continue
        if ch == "/" and sql.startswith("/*", i):
            # Unterminated, the comment runs to the end, as in SQLite.
            close = sql.find("*/", i + 2)
            i = n if close < 0 else close + 2
            continue
        if ch in _CLOSERS or (ch in "xX" and sql.startswith("'", i + 1)):
            # A string, a quoted name, or a blob literal x'..' (its quote
            # follows the x): one token each, as in SQLite.
            opener = i if ch in _CLOSERS else i + 1
            value, end = _scan_quoted(sql, opener)
            quote = "" if sql[opener] == "'" else ch
            append(_new(Token, (QIDENT if quote else STRING, value, i, end, quote, value.lower())))
            i = end
            continue
        if ch in _WORD_START or ch > "\x7f":
            j = i + 1
            while j < n and (sql[j] in _WORD_CHARS or sql[j] > "\x7f"):
                j += 1
            value = sql[i:j]
            append(_new(Token, (IDENT, value, i, j, "", value.lower())))
            i = j
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and sql[i + 1] in _DIGITS):
            j = i
            seen_dot = False
            while j < n and (sql[j] in _DIGITS or (sql[j] == "." and not seen_dot)):
                if sql[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and sql[j] in ("e", "E"):
                k = j + 1
                if k < n and sql[k] in "+-":
                    k += 1
                if k < n and sql[k] in _DIGITS:
                    while k < n and sql[k] in _DIGITS:
                        k += 1
                    j = k
            value = sql[i:j]
            append(_new(Token, (NUMBER, value, i, j, "", value.lower())))
            i = j
            continue
        two = sql[i : i + 2]
        if two in _TWO_CHAR_OPS:
            # No letters in these, so the text is its own lower case.
            append(_new(Token, (OP, two, i, i + 2, "", two)))
            i += 2
            continue
        # Any other ASCII character.
        append(_new(Token, (OP, ch, i, i + 1, "", ch.lower())))
        i += 1
    return tokens
