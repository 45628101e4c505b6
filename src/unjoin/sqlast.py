"""The SQL front end: a parser for scoped extraction, a role scan for positions.

``parse`` is a recursive-descent parser for the SELECT dialect used by
the benchmarks. Its goal is structural, not semantic: enough shape (FROM
sources, aliases, subqueries, set operations, clause boundaries) to
resolve which tables and columns a query touches, scope by scope.
Expressions are kept as runs. Reference extraction uses it, and scoring
reads from it whether a gold query orders its rows.

A run is a list of tokens in text order, where a parenthesized SELECT
stands as one element of kind ``STMT``: the nested ``SelectStatement``
itself, whose ``lower`` is None and whose ``is_keyword`` is False.
``tokenize`` never emits ``STMT``, so a run reader tests ``kind``,
``lower`` or ``is_keyword`` alone.

``_Roles`` reads the token stream once and says which token index plays
which part: FROM table, qualifier, column, alias, CTE name, dotted
chain. Identifier repair and the flattened-view reads work on token
positions, and keep working on model output the parser rejects, so they
use the scan. The parser, the scan and ``sqlref``'s walk of parsed runs
read syntax through shared readers: ``chain_end`` (a dotted chain),
``qualified_star`` (``name.*``), ``syntax_words`` (``IS [NOT] DISTINCT
FROM``, ``COLLATE <name>``, ``ASC|DESC NULLS FIRST|LAST``: words that
name nothing), and, for the parser and the scan, ``index_hint`` and
``implicit_alias_after``.

``CLAUSE_WORDS`` (the clauses after FROM), ``COMPOUND_WORDS`` (the set
operators) and ``JOIN_WORDS`` (the words that start a join) are each
spelled once; every word set the parser, the scan and repair split on
is built from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from .tokens import IDENT, KEYWORDS, NUMBER, OP, QIDENT, STRING, Token, tokenize


class SqlParseError(ValueError):
    def __init__(self, message: str, offset: int = -1):
        if offset >= 0:
            message = f"{message} (offset {offset})"
        super().__init__(message)


@dataclass
class TableSource:
    name: str
    alias: str | None = None


@dataclass
class DerivedSource:
    select: "SelectStatement"
    alias: str | None = None


@dataclass
class SelectItem:
    expr: list = field(default_factory=list)
    alias: str | None = None
    is_star: bool = False
    star_qualifier: str | None = None


@dataclass
class SelectBlock:
    items: list[SelectItem] = field(default_factory=list)
    sources: list = field(default_factory=list)  # TableSource | DerivedSource
    # Runs of ON/USING, WHERE, GROUP BY, HAVING, ORDER BY and LIMIT/OFFSET,
    # in text order.
    exprs: list[list] = field(default_factory=list)
    ordered: bool = False  # the block has its own ORDER BY


STMT = "stmt"  # the kind of a nested statement in a run


@dataclass
class SelectStatement:
    # How a run reader sees the statement; class-level, so no field.
    kind: ClassVar[str] = STMT
    lower: ClassVar[None] = None
    ctes: list[tuple[str, "SelectStatement"]] = field(default_factory=list)
    # Compound operands; parenthesized operands may themselves be statements.
    blocks: list = field(default_factory=list)

    def is_keyword(self, *names: str) -> bool:
        return False


CLAUSE_WORDS = ("where", "group", "having", "order", "limit", "offset")
COMPOUND_WORDS = ("union", "intersect", "except")
JOIN_WORDS = ("join", "left", "right", "full", "inner", "cross", "natural")

# Words that end an expression run at paren depth 0.
_CLAUSE_STOPS = frozenset(CLAUSE_WORDS + COMPOUND_WORDS + JOIN_WORDS + ("on", "using", "from"))
# Words that are never a bare alias of a FROM source or a select item.
_ALIAS_STOPS = _CLAUSE_STOPS | frozenset(
    "outer and or not in is as when then else end set values".split()
)
_ITEM_ALIAS_STOPS = _ALIAS_STOPS | {"asc", "desc", "null"}


def parse(sql: str) -> SelectStatement:
    tokens = tokenize(sql)
    if not tokens:
        raise SqlParseError("empty statement")
    parser = _Parser(tokens)
    stmt = parser.parse_statement()
    # A single trailing semicolon is fine, anything else is garbage.
    while parser.at_op(";"):
        parser.advance()
    tok = parser.peek()
    if tok is not None:
        raise SqlParseError(f"unexpected trailing {tok.value!r}", tok.start)
    return stmt


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.n = len(tokens)
        self.i = 0

    def peek(self, k: int = 0) -> Token | None:
        j = self.i + k
        return self.tokens[j] if j < self.n else None

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    # at_op and at_keyword run once or more per token: they index the
    # list themselves rather than go through peek.

    def at_op(self, ch: str) -> bool:
        if self.i >= self.n:
            return False
        tok = self.tokens[self.i]
        return tok.kind == OP and tok.value == ch

    def at_keyword(self, *names: str) -> bool:
        if self.i >= self.n:
            return False
        tok = self.tokens[self.i]
        return tok.kind == IDENT and tok.lower in names

    def expect_op(self, ch: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != OP or tok.value != ch:
            at = tok.start if tok else -1
            got = tok.value if tok else "end of input"
            raise SqlParseError(f"expected {ch!r}, got {got!r}", at)
        return self.advance()

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind not in (IDENT, QIDENT):
            at = tok.start if tok else -1
            raise SqlParseError(f"expected {what}", at)
        return self.advance()

    def _starts_statement(self, k: int = 0) -> bool:
        tok = self.peek(k)
        return tok is not None and tok.is_keyword("select", "with")

    # ----- statements -----

    def parse_statement(self) -> SelectStatement:
        stmt = SelectStatement()
        if self.at_keyword("with"):
            self.advance()
            if self.at_keyword("recursive"):
                self.advance()
            while True:
                name = self.expect_ident("CTE name").value
                if self.at_op("("):
                    # Optional explicit column list; skip it.
                    self.advance()
                    self._parse_expr()
                    self.expect_op(")")
                if not self.at_keyword("as"):
                    raise SqlParseError("expected AS in WITH clause", self._here())
                self.advance()
                self.expect_op("(")
                body = self.parse_statement()
                self.expect_op(")")
                stmt.ctes.append((name, body))
                if self.at_op(","):
                    self.advance()
                    continue
                break
        stmt.blocks.append(self._parse_operand())
        while self.at_keyword(*COMPOUND_WORDS):
            self.advance()
            if self.at_keyword("all", "distinct"):
                self.advance()
            stmt.blocks.append(self._parse_operand())
        return stmt

    def _parse_operand(self):
        if self.at_op("(") and self._starts_statement(1):
            self.advance()
            inner = self.parse_statement()
            self.expect_op(")")
            return inner
        return self.parse_block()

    def _here(self) -> int:
        tok = self.peek()
        return tok.start if tok else -1

    # ----- a single SELECT block -----

    def parse_block(self) -> SelectBlock:
        if not self.at_keyword("select"):
            raise SqlParseError("expected SELECT", self._here())
        self.advance()
        if self.at_keyword("distinct", "all"):
            self.advance()
        block = SelectBlock()
        block.items = self._parse_select_items()
        if self.at_keyword("from"):
            self.advance()
            self._parse_sources(block)
        # The clauses after FROM, in the order they may appear, with their BY.
        for clause, by in (
            ("where", None), ("group", "by"), ("having", None), ("order", "by"), ("limit", None)
        ):
            if self.at_keyword(clause):
                self.advance()
                if by:
                    self._expect_keyword(by)
                run = self._parse_expr()
                if clause == "limit" and self.at_keyword("offset"):
                    self.advance()
                    run.extend(self._parse_expr())
                block.exprs.append(run)
                block.ordered |= clause == "order"
        return block

    def _expect_keyword(self, name: str):
        if not self.at_keyword(name):
            raise SqlParseError(f"expected {name.upper()}", self._here())
        self.advance()

    def _parse_select_items(self) -> list[SelectItem]:
        items = []
        while True:
            item = self._parse_one_item()
            items.append(item)
            if self.at_op(","):
                self.advance()
                continue
            break
        return items

    def _parse_one_item(self) -> SelectItem:
        if self.at_op("*"):
            self.advance()
            return SelectItem(is_star=True)
        expr = self._parse_expr(commas=False)
        if not expr:
            raise SqlParseError("expected select expression", self._here())
        if len(expr) == 3 and qualified_star(expr, 0):
            return SelectItem(is_star=True, star_qualifier=expr[0].value)
        alias = None
        # Explicit alias: trailing "AS name".
        if len(expr) >= 2 and expr[-2].is_keyword("as") and expr[-1].kind in (IDENT, QIDENT):
            alias = expr[-1].value
            expr = expr[:-2]
        elif _implicit_alias_ok(expr):
            alias = expr[-1].value
            expr = expr[:-1]
        return SelectItem(expr=expr, alias=alias)

    # ----- FROM clause -----

    def _parse_sources(self, block: SelectBlock):
        self._parse_source_atom(block)
        while True:
            if self.at_op(","):
                self.advance()
                self._parse_source_atom(block)
                continue
            if self.at_keyword(*JOIN_WORDS):
                # LEFT OUTER and the like, then JOIN itself.
                while not self.at_keyword("join") and self.at_keyword("outer", *JOIN_WORDS):
                    self.advance()
                self._expect_keyword("join")
                self._parse_source_atom(block)
                if self.at_keyword("on"):
                    self.advance()
                    # a top-level comma after ON starts the next source
                    block.exprs.append(self._parse_expr(commas=False))
                elif self.at_keyword("using"):
                    # The column list is read as a run, as a CTE's is; its names stay.
                    self.advance()
                    self.expect_op("(")
                    names = self._parse_expr()
                    self.expect_op(")")
                    block.exprs.append([t for t in names if t.kind in (IDENT, QIDENT)])
                continue
            break

    def _parse_source_atom(self, block: SelectBlock):
        if self.at_op("("):
            if self._starts_statement(1):
                self.advance()
                inner = self.parse_statement()
                self.expect_op(")")
                alias = self._parse_alias()
                block.sources.append(DerivedSource(inner, alias))
                return
            # Parenthesized join group; its sources live in the same scope.
            self.advance()
            self._parse_sources(block)
            self.expect_op(")")
            self._parse_alias()
            return
        self.expect_ident("table name")
        # db.table qualification: keep the table part.
        last = chain_end(self.tokens, self.i - 1)
        name = self.tokens[last].value
        self.i = last + 1
        alias = None if index_hint(self.tokens, self.i) else self._parse_alias()
        self.i += index_hint(self.tokens, self.i)
        block.sources.append(TableSource(name, alias))

    def _parse_alias(self) -> str | None:
        if self.at_keyword("as"):
            self.advance()
            return self.expect_ident("alias").value
        tok = self.peek()
        if tok is not None and tok.kind == QIDENT:
            self.advance()
            return tok.value
        if tok is not None and tok.kind == IDENT and tok.lower not in _ALIAS_STOPS:
            self.advance()
            return tok.value
        return None

    # ----- expressions -----

    def _parse_expr(self, commas: bool = True) -> list:
        """Collect expression content until a clause boundary.

        ``commas`` controls whether top-level commas are included (true
        for list-shaped clauses like GROUP BY) or act as a stop (select
        items).
        """
        out = []
        depth = 0
        toks = self.tokens
        while self.i < self.n:
            tok = toks[self.i]
            if tok.kind == OP:
                value = tok.value
                if value == "(":
                    if self._starts_statement(1):
                        self.advance()
                        out.append(self.parse_statement())
                        self.expect_op(")")
                        continue
                    depth += 1
                elif value == ")":
                    if depth == 0:
                        break
                    depth -= 1
                elif value == ",":
                    if depth == 0 and not commas:
                        break
                elif value == ";" and depth == 0:
                    break
            elif tok.kind == IDENT:
                if depth == 0 and tok.lower in _CLAUSE_STOPS:
                    break
                if tok.lower == "cast":
                    out.extend(self._consume_cast())
                    continue
                # A run of syntax words stays whole: IS DISTINCT FROM starts no clause.
                end = self.i + syntax_words(toks, self.i)
                if end > self.i:
                    out.extend(toks[self.i : end])
                    self.i = end
                    continue
            out.append(tok)
            self.i += 1
        return out

    def _consume_cast(self) -> list:
        """CAST(x AS type) keeps CAST(x): the AS is no alias, the type no name."""
        out = [self.advance()]
        if not self.at_op("("):
            return out
        out.append(self.advance())
        inner = self._parse_expr()
        for k in range(len(inner) - 1, -1, -1):
            if inner[k].is_keyword("as"):
                del inner[k:]
                break
        out.extend(inner)
        if self.at_op(")"):
            out.append(self.advance())
        return out


def _implicit_alias_ok(expr: list) -> bool:
    """Heuristic for ``SELECT expr name`` aliases without AS."""
    if len(expr) < 2:
        return False
    last = expr[-1]
    if last.kind not in (IDENT, QIDENT):
        return False
    if last.kind == IDENT and last.lower in _ITEM_ALIAS_STOPS:
        return False
    return implicit_alias_after(expr[-2])


def implicit_alias_after(prev) -> bool:
    """Whether a bare name right after ``prev`` defines an alias.

    ``prev`` is an element of a run. A name after ``)``, a literal,
    another name, ``END`` or a nested statement closes an expression or
    a table (``count(*) n``, ``customer c``, ``CASE ... END flag``,
    ``(SELECT ...) d``); after an operator or any other keyword it is an
    operand (``price * quantity``, ``WHERE status``).
    """
    if prev.kind == OP:
        return prev.value == ")"
    if prev.kind == IDENT and prev.lower in KEYWORDS:
        return prev.lower == "end"
    return True


def chain_end(items: list, i: int) -> int:
    """Index of the last name of the dotted chain ``a.b[.c]`` starting at ``i``.

    ``items`` is a run. Returns ``i`` itself when no ``.name`` follows.
    """
    while i + 2 < len(items):
        dot, name = items[i + 1], items[i + 2]
        if not (dot.kind == OP and dot.value == "." and name.kind in (IDENT, QIDENT)):
            break
        i += 2
    return i


def qualified_star(items: list, i: int) -> bool:
    """Whether ``name . *`` starts at ``i`` in the run ``items``."""
    if i + 2 >= len(items):
        return False
    name, dot, star = items[i : i + 3]
    return (
        star.kind == OP and star.value == "*"
        and dot.kind == OP and dot.value == "."
        and name.kind in (IDENT, QIDENT)
    )


def _words(items: list, i: int, n: int) -> tuple:
    """The lower-case text of up to ``n`` items from ``i``; None for any but a bare word."""
    return tuple(t.lower if t.kind == IDENT else None for t in items[i : i + n])


def syntax_words(items: list, i: int) -> int:
    """How many items at ``i`` are syntax whose words name nothing; 0 if none starts there.

    The runs are ``IS [NOT] DISTINCT FROM`` (its FROM opens no FROM
    list), ``COLLATE <name>`` and ``ASC|DESC NULLS FIRST|LAST``. ``items`` is a run.
    """
    if items[i].lower not in ("is", "collate", "asc", "desc"):
        return 0
    words = _words(items, i, 4)
    if words[0] == "collate":
        return 2 if i + 1 < len(items) and items[i + 1].kind in (IDENT, QIDENT) else 0
    if words[0] in ("asc", "desc"):
        return 3 if words[1:3] in (("nulls", "first"), ("nulls", "last")) else 0
    if words[:3] == ("is", "distinct", "from"):
        return 3
    return 4 if words == ("is", "not", "distinct", "from") else 0


def index_hint(toks: list[Token], i: int) -> int:
    """How many tokens ``INDEXED BY name`` or ``NOT INDEXED`` at ``i`` spans; 0 if none."""
    if i >= len(toks) or toks[i].lower not in ("not", "indexed"):
        return 0
    words = _words(toks, i, 2)
    if words == ("not", "indexed"):
        return 2
    named = i + 2 < len(toks) and toks[i + 2].kind in (IDENT, QIDENT)
    return 3 if words == ("indexed", "by") and named else 0


# ----- role scan -----

# Words that close a FROM list.
_CLAUSE_RESET = frozenset(CLAUSE_WORDS + COMPOUND_WORDS + ("select", "values", "set"))


class _Level:
    """One paren level of the role scan; the bottom one is the statement's own."""

    def __init__(self, source: bool = False, cast: bool = False, cte_cols: bool = False):
        self.source = source  # opened where a FROM source goes: its ")" ends one
        self.cast = False if cast else None  # CAST's paren: whether its AS was reached
        self.cte_cols = cte_cols  # a CTE's column list: its names are definitions
        self.from_list = source  # a FROM list is open: a comma starts a source
        self.with_list = False  # a WITH list is open: a comma starts a CTE


class _Roles:
    """Classifies identifier tokens in a statement by syntactic role.

    Works on the raw token stream with a small amount of state: a stack
    of paren levels, each saying what its "(" opened (a FROM source,
    CAST, a CTE's column list) and whether a FROM or WITH list is open
    on it, and whether the next name is a table, a CTE, or an alias
    definition. Every list holds token indices in text order.
    """

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.tables: list[int] = []
        self.chains: list[tuple[int, int]] = []  # (first, last) name of each a.b[.c]
        self.qualifiers: list[int] = []  # indices; column follows 2 later
        self.columns: list[tuple[int, int | None]] = []  # (index, qualifier index)
        # Alias lower -> token index of its FROM table; None for a derived
        # table or a select item.
        self.alias_defs: dict[str, int | None] = {}
        self.implicit_aliases: list[int] = []  # aliases defined without AS
        # Names before "(" where no call can stand, such as WHER in
        # "FROM customer WHER (...)": after a FROM source or an expression.
        self.stray_calls: list[int] = []
        self.cte_names: set[str] = set()
        self._classify()

    def _classify(self):
        toks = self.toks
        n = len(toks)
        levels = [_Level()]
        expect_table = False
        expect_alias = False
        expect_cte = False
        last_table_idx: int | None = None
        # The last token that may end a FROM source: a FROM table, the ")"
        # closing a FROM subquery or join group, or an alias. A keyword
        # alias or an index hint may follow it.
        source_end: int | None = None
        prev: Token | None = None
        i = 0
        while i < n:
            tok = toks[i]
            level = levels[-1]
            if tok.kind == OP:
                expect_alias = False
                if tok.value == "(":
                    # "FROM (" keeps the table context on the new level.
                    levels.append(_Level(expect_table, prev is not None and prev.is_keyword("cast")))
                elif tok.value == ")":
                    # An unmatched ")" clears the statement's level.
                    if levels.pop().source:
                        source_end = i
                    levels = levels or [_Level()]
                    expect_table = False
                    last_table_idx = None
                elif tok.value == ",":
                    expect_table |= level.from_list
                    expect_cte |= level.with_list
                prev = tok
                i += 1
                continue
            if tok.kind in (STRING, NUMBER):
                expect_alias = expect_table = False
                prev = tok
                i += 1
                continue
            # Identifier. Gather a dotted chain first, keyword or not: a
            # keyword such as ROW may be an alias that qualifies a column.
            j = chain_end(toks, i)
            if j > i:
                if expect_table:
                    # "main.customer": the last name is the table.
                    self.tables.append(j)
                    last_table_idx = source_end = j
                else:
                    # Only the last two parts carry the (qualifier, column) pair.
                    self.chains.append((i, j))
                    self.qualifiers.append(j - 2)
                    self.columns.append((j, j - 2))
                expect_table = False
                expect_alias = False
                prev = toks[j]
                i = j + 1
                continue
            hint = index_hint(toks, i) if source_end == i - 1 else 0
            if hint:
                # The index a FROM table is read by is no reference.
                prev = toks[i + hint - 1]
                i += hint
                continue
            low = tok.lower
            # A keyword after AS or right after a FROM source, such as ROW,
            # is an alias, as ``parse`` reads it, and goes on as a name.
            if tok.kind == IDENT and low in KEYWORDS and not (
                expect_alias or (source_end == i - 1 and low not in _ALIAS_STOPS)
            ):
                if low == "as":
                    if level.cast is not None:
                        level.cast = True
                    else:
                        expect_alias = True
                    prev = tok
                    i += 1
                    continue
                expect_alias = False
                last_table_idx = None
                if low in ("from", "join"):
                    expect_table = level.from_list = True
                elif low == "with":
                    # "FROM (WITH k AS ...": k names a CTE, not a table.
                    expect_cte = level.with_list = True
                    expect_table = level.from_list = False
                elif low in ("on", "using"):
                    # The FROM list goes on: a comma after the condition
                    # starts the next source.
                    expect_table = False
                elif low in _CLAUSE_RESET:
                    expect_table = level.from_list = False
                    if low == "select":
                        level.with_list = False
                else:
                    i += max(syntax_words(toks, i), 1) - 1
                prev = toks[i]
                i += 1
                continue
            if level.cast:
                # A type name such as TEXT in CAST(x AS TEXT).
                prev = tok
                i += 1
                continue
            nxt = toks[i + 1] if i + 1 < n else None
            if level.cte_cols:
                # A CTE's column names are definitions, like aliases.
                self.alias_defs[low] = None
            elif expect_cte and level.with_list:
                self.cte_names.add(low)
                expect_cte = False
                if nxt is not None and nxt.kind == OP and nxt.value == "(":
                    # Its column list opens here: the "(" is read as above.
                    levels.append(_Level(expect_table, tok.is_keyword("cast"), cte_cols=True))
                    expect_alias = False
                    prev = nxt
                    i += 2
                    continue
            elif expect_alias:
                self.alias_defs[low] = last_table_idx
                expect_alias = False
                last_table_idx = None
                source_end = i
            elif expect_table:
                self.tables.append(i)
                last_table_idx = source_end = i
                expect_table = False
            elif nxt is not None and nxt.kind == OP and nxt.value == ".":
                # "name.*" or a dangling dot.
                if qualified_star(toks, i):
                    self.qualifiers.append(i)
                    prev = toks[i + 2]
                    i += 3
                    continue
            elif nxt is not None and nxt.kind == OP and nxt.value == "(":
                # A function name, unless it stands where an alias would.
                if prev is not None and implicit_alias_after(prev):
                    self.stray_calls.append(i)
            elif prev is not None and implicit_alias_after(prev):
                # Implicit alias: "expr name", "table name", "CASE..END name".
                self.alias_defs[low] = last_table_idx
                self.implicit_aliases.append(i)
                last_table_idx = None
                source_end = i
            else:
                self.columns.append((i, None))
            prev = tok
            i += 1
