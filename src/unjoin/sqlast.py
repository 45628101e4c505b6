"""The SQL front end: a parser for scoped extraction, a role scan for positions.

``parse`` is a recursive-descent parser for the SELECT dialect used by
the benchmarks. Its goal is structural, not semantic: enough shape (FROM
sources, aliases, subqueries, set operations, clause boundaries) to
resolve which tables and columns a query touches, scope by scope.
Expressions are kept as flat token runs with nested statements spliced
in where a parenthesized SELECT appears. Reference extraction uses it.

``_Roles`` reads the token stream once and says which token index plays
which part: FROM table, qualifier, column, alias, CTE name, dotted
chain. Identifier repair and the flattened-view reads work on token
positions, and keep working on model output the parser rejects, so they
use the scan. Both share ``chain_end`` and ``implicit_alias_after``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tokens import IDENT, KEYWORDS, NUMBER, OP, QIDENT, STRING, Token, tokenize


class SqlParseError(ValueError):
    def __init__(self, message: str, offset: int = -1):
        if offset >= 0:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass
class TableSource:
    name: str
    alias: str | None = None


@dataclass
class DerivedSource:
    select: "SelectStatement"
    alias: str | None = None


# Expression content: raw tokens interleaved with nested statements.
ExprItem = "Token | SelectStatement"


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
    join_exprs: list[list] = field(default_factory=list)  # ON / USING conditions
    where: list | None = None
    group_by: list | None = None
    having: list | None = None
    order_by: list | None = None
    limit: list | None = None


@dataclass
class SelectStatement:
    ctes: list[tuple[str, "SelectStatement"]] = field(default_factory=list)
    # Compound operands; parenthesized operands may themselves be statements.
    blocks: list = field(default_factory=list)


_CLAUSE_STOPS = frozenset(
    "where group having order limit offset union intersect except on using "
    "join left right full inner cross natural from".split()
)


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
        self.i = 0

    def peek(self, k: int = 0) -> Token | None:
        j = self.i + k
        return self.tokens[j] if j < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_op(self, ch: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == OP and tok.value == ch

    def at_keyword(self, *names: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.is_keyword(*names)

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
                    depth = 1
                    while depth and self.peek() is not None:
                        tok = self.advance()
                        if tok.kind == OP and tok.value == "(":
                            depth += 1
                        elif tok.kind == OP and tok.value == ")":
                            depth -= 1
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
        while self.at_keyword("union", "intersect", "except"):
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
        if self.at_keyword("where"):
            self.advance()
            block.where = self._parse_expr()
        if self.at_keyword("group"):
            self.advance()
            self._expect_keyword("by")
            block.group_by = self._parse_expr(commas=True)
        if self.at_keyword("having"):
            self.advance()
            block.having = self._parse_expr()
        if self.at_keyword("order"):
            self.advance()
            self._expect_keyword("by")
            block.order_by = self._parse_expr(commas=True)
        if self.at_keyword("limit"):
            self.advance()
            block.limit = self._parse_expr(commas=True)
            if self.at_keyword("offset"):
                self.advance()
                block.limit.extend(self._parse_expr())
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
        if not items:
            raise SqlParseError("empty select list", self._here())
        return items

    def _parse_one_item(self) -> SelectItem:
        if self.at_op("*"):
            self.advance()
            return SelectItem(is_star=True)
        expr = self._parse_expr(commas=False)
        if not expr:
            raise SqlParseError("expected select expression", self._here())
        # tbl.* shows up as three trailing tokens in the expression run.
        if (
            len(expr) == 3
            and isinstance(expr[0], Token)
            and expr[0].kind in (IDENT, QIDENT)
            and isinstance(expr[1], Token)
            and expr[1].kind == OP
            and expr[1].value == "."
            and isinstance(expr[2], Token)
            and expr[2].kind == OP
            and expr[2].value == "*"
        ):
            return SelectItem(is_star=True, star_qualifier=expr[0].value)
        alias = None
        # Explicit alias: trailing "AS name".
        if (
            len(expr) >= 2
            and isinstance(expr[-2], Token)
            and expr[-2].is_keyword("as")
            and isinstance(expr[-1], Token)
            and expr[-1].kind in (IDENT, QIDENT)
        ):
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
            if self._at_join_start():
                self._consume_join_words()
                self._parse_source_atom(block)
                if self.at_keyword("on"):
                    self.advance()
                    # a top-level comma after ON starts the next source
                    block.join_exprs.append(self._parse_expr(commas=False))
                elif self.at_keyword("using"):
                    self.advance()
                    self.expect_op("(")
                    cols = []
                    while not self.at_op(")"):
                        tok = self.advance()
                        if tok.kind in (IDENT, QIDENT):
                            cols.append(tok)
                    self.expect_op(")")
                    block.join_exprs.append(cols)
                continue
            break

    def _at_join_start(self) -> bool:
        return self.at_keyword("join", "left", "right", "full", "inner", "cross", "natural")

    def _consume_join_words(self):
        while self.at_keyword("left", "right", "full", "inner", "cross", "natural", "outer"):
            self.advance()
        self._expect_keyword("join")

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
        alias = self._parse_alias()
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
        while True:
            tok = self.peek()
            if tok is None:
                break
            if tok.kind == OP:
                if tok.value == "(":
                    if self._starts_statement(1):
                        self.advance()
                        out.append(self.parse_statement())
                        self.expect_op(")")
                        continue
                    depth += 1
                    out.append(self.advance())
                    continue
                if tok.value == ")":
                    if depth == 0:
                        break
                    depth -= 1
                    out.append(self.advance())
                    continue
                if tok.value == ",":
                    if depth == 0 and not commas:
                        break
                    out.append(self.advance())
                    continue
                if tok.value == ";" and depth == 0:
                    break
                out.append(self.advance())
                continue
            if depth == 0 and tok.kind == IDENT and tok.lower in _CLAUSE_STOPS:
                break
            if tok.is_keyword("cast"):
                out.extend(self._consume_cast())
                continue
            out.append(self.advance())
        return out

    def _consume_cast(self) -> list:
        """CAST(x AS type) keeps CAST(x): the AS is no alias, the type no name."""
        out = [self.advance()]
        if not self.at_op("("):
            return out
        out.append(self.advance())
        inner = self._parse_expr()
        for k in range(len(inner) - 1, -1, -1):
            if isinstance(inner[k], Token) and inner[k].is_keyword("as"):
                del inner[k:]
                break
        out.extend(inner)
        if self.at_op(")"):
            out.append(self.advance())
        return out


_ALIAS_STOPS = frozenset(
    """
    from where group having order limit offset union intersect except on using
    join left right full outer inner cross natural and or not in is as when then
    else end set values
    """.split()
)


def _implicit_alias_ok(expr: list) -> bool:
    """Heuristic for ``SELECT expr name`` aliases without AS."""
    if len(expr) < 2:
        return False
    last = expr[-1]
    if not isinstance(last, Token) or last.kind not in (IDENT, QIDENT):
        return False
    if last.kind == IDENT and last.lower in _ALIAS_STOPS | {"asc", "desc", "null"}:
        return False
    return implicit_alias_after(expr[-2])


def implicit_alias_after(prev) -> bool:
    """Whether a bare name right after ``prev`` defines an alias.

    ``prev`` is a token or a nested statement. A name after ``)``, a
    literal, another name, ``END`` or a nested statement closes an
    expression or a table (``count(*) n``, ``customer c``, ``CASE ...
    END flag``, ``(SELECT ...) d``); after an operator or any other
    keyword it is an operand (``price * quantity``, ``WHERE status``).
    """
    if not isinstance(prev, Token):
        return True
    if prev.kind == OP:
        return prev.value == ")"
    if prev.kind == IDENT and prev.lower in KEYWORDS:
        return prev.lower == "end"
    return True


def chain_end(items: list, i: int) -> int:
    """Index of the last name of the dotted chain ``a.b[.c]`` starting at ``i``.

    ``items`` holds tokens, possibly with nested statements between
    them. Returns ``i`` itself when no ``.name`` follows.
    """
    while i + 2 < len(items):
        dot, name = items[i + 1], items[i + 2]
        if not (
            isinstance(dot, Token)
            and dot.kind == OP
            and dot.value == "."
            and isinstance(name, Token)
            and name.kind in (IDENT, QIDENT)
        ):
            break
        i += 2
    return i


# ----- role scan -----

_CLAUSE_RESET = frozenset(
    "on where select group having order limit offset union intersect except using values set".split()
)


class _Roles:
    """Classifies identifier tokens in a statement by syntactic role.

    Works on the raw token stream with a small amount of state: which
    paren depths belong to a FROM clause, which belong to CAST, whether
    the next name is a table, a CTE, or an alias definition. Every list
    holds token indices in text order.
    """

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.tables: list[int] = []
        self.chains: list[tuple[int, int]] = []  # (first, last) name of each a.b[.c]
        self.qualifiers: list[int] = []  # indices; column follows 2 later
        self.columns: list[tuple[int, int | None]] = []  # (index, qualifier index)
        self.alias_defs: dict[str, int | None] = {}  # alias lower -> table token idx
        self.cte_names: set[str] = set()
        self.select_aliases: set[str] = set()
        self._classify()

    def _classify(self):
        toks = self.toks
        n = len(toks)
        depth = 0
        from_depths: set[int] = set()
        # Depth of each open CAST( -> whether its AS, so its type, was reached.
        cast_depths: dict[int, bool] = {}
        expect_table = False
        expect_alias = False
        with_mode = False
        expect_cte = False
        last_table_idx: int | None = None
        prev: Token | None = None
        i = 0
        while i < n:
            tok = toks[i]
            if tok.kind == OP:
                expect_alias = False
                if tok.value == "(":
                    depth += 1
                    if prev is not None and prev.is_keyword("cast"):
                        cast_depths[depth] = False
                    # "FROM (" keeps the table context on the new level.
                    if expect_table:
                        from_depths.add(depth)
                elif tok.value == ")":
                    from_depths.discard(depth)
                    cast_depths.pop(depth, None)
                    depth = max(0, depth - 1)
                    expect_table = False
                    last_table_idx = None
                elif tok.value == ",":
                    if depth in from_depths:
                        expect_table = True
                    if with_mode and depth == 0:
                        expect_cte = True
                prev = tok
                i += 1
                continue
            if tok.kind in (STRING, NUMBER):
                expect_alias = False
                expect_table = False
                prev = tok
                i += 1
                continue
            low = tok.lower
            if tok.kind == IDENT and low in KEYWORDS:
                if low == "as":
                    if depth in cast_depths:
                        cast_depths[depth] = True
                    else:
                        expect_alias = True
                    prev = tok
                    i += 1
                    continue
                expect_alias = False
                last_table_idx = None
                if low in ("from", "join"):
                    expect_table = True
                    from_depths.add(depth)
                elif low == "with" and depth == 0:
                    with_mode = True
                    expect_cte = True
                elif low in _CLAUSE_RESET:
                    expect_table = False
                    from_depths.discard(depth)
                    if low == "select" and depth == 0:
                        with_mode = False
                prev = tok
                i += 1
                continue
            if cast_depths.get(depth):
                # A type name such as TEXT in CAST(x AS TEXT).
                prev = tok
                i += 1
                continue
            # Identifier. Gather a dotted chain first; only the last two
            # parts carry the (qualifier, column) pair.
            j = chain_end(toks, i)
            if j > i:
                self.chains.append((i, j))
                self.qualifiers.append(j - 2)
                self.columns.append((j, j - 2))
                expect_table = False
                expect_alias = False
                prev = toks[j]
                i = j + 1
                continue
            nxt = toks[i + 1] if i + 1 < n else None
            if expect_cte and with_mode:
                self.cte_names.add(low)
                expect_cte = False
            elif expect_alias:
                self.alias_defs[low] = last_table_idx
                if last_table_idx is None:
                    self.select_aliases.add(low)
                expect_alias = False
                last_table_idx = None
            elif expect_table:
                self.tables.append(i)
                last_table_idx = i
                expect_table = False
            elif nxt is not None and nxt.kind == OP and nxt.value == ".":
                # "name.*" or a dangling dot.
                if i + 2 < n and toks[i + 2].kind == OP and toks[i + 2].value == "*":
                    self.qualifiers.append(i)
                    prev = toks[i + 2]
                    i += 3
                    continue
            elif nxt is not None and nxt.kind == OP and nxt.value == "(":
                pass  # function name
            elif prev is not None and implicit_alias_after(prev):
                # Implicit alias: "expr name", "table name", "CASE..END name".
                self.alias_defs[low] = last_table_idx
                if last_table_idx is None:
                    self.select_aliases.add(low)
                last_table_idx = None
            else:
                self.columns.append((i, None))
            prev = tok
            i += 1
