"""Table and column reference extraction from SQL.

Resolution is scope-aware: aliases, CTE names, derived tables, and
correlated subqueries all resolve against the innermost scope that
defines them; as in SQLite, a CTE's name is in scope in its own body.
Names are normalized to lowercase. A column reference is reported as
"table.column"; the owning table is always reported too.

The table set depends only on the statement: a table is added for a
FROM name that no CTE defines, or for a qualifier outside every scope,
whether or not the schema knows it. The schema decides only which
columns resolve.

Star handling is deliberately asymmetric: a bare ``*`` or ``t.*`` in a
select list expands to the columns it projects, while ``COUNT(*)`` and
other aggregate stars reference no columns at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .schema import DatabaseSchema, SimplifiedSchema
from .sqlast import (
    STMT,
    DerivedSource,
    SelectStatement,
    SqlParseError,
    TableSource,
    _Roles,
    chain_end,
    parse,
    qualified_star,
    syntax_words,
)
from .tokens import IDENT, KEYWORDS, OP, QIDENT, tokenize

__all__ = [
    "RefSet",
    "SqlParseError",
    "extract_refs",
    "extract_refs_simplified",
    "resolve_refs",
]


@dataclass(frozen=True)
class RefSet:
    tables: frozenset[str]
    columns: frozenset[str]  # "table.column", lowercase
    # Bare column names that matched more than one in-scope table.
    ambiguous: frozenset[str] = frozenset()

    def __post_init__(self):
        for col in self.columns:
            table = col.split(".", 1)[0]
            if table not in self.tables:
                raise ValueError(f"column {col!r} lacks its table in the table set")


def extract_refs(sql: str, db: DatabaseSchema) -> RefSet:
    """Resolve every table and column reference in ``sql`` against ``db``.

    Raises SqlParseError when the statement cannot be parsed.
    """
    return resolve_refs(parse(sql), db)


def resolve_refs(stmt: SelectStatement, db: DatabaseSchema) -> RefSet:
    """Resolve every table and column reference in a parsed statement against ``db``."""
    an = _Analyzer(db)
    an.statement(stmt, None, {})
    return RefSet(frozenset(an.tables), frozenset(an.columns), frozenset(an.ambiguous))


@dataclass
class _Scope:
    parent: "_Scope | None"
    ordered: list = field(default_factory=list)  # resolutions in FROM order
    select_aliases: set = field(default_factory=set)
    by_key: dict = field(default_factory=dict, init=False)

    def add(self, key: str | None, res):
        self.ordered.append(res)
        if key:
            self.by_key[key] = res

    def lookup(self, key: str):
        s = self
        while s is not None:
            if key in s.by_key:
                return s.by_key[key]
            s = s.parent
        return None


class _Analyzer:
    """Walks a parsed statement, accumulating resolved references.

    Source resolutions are ("table", name) for base tables and
    ("virtual", outputs) for derived tables and CTEs, where outputs is
    an ordered list of (column_name, pairs) describing what the inner
    select projects.
    """

    def __init__(self, db: DatabaseSchema):
        self.tables: set[str] = set()
        self.columns: set[str] = set()
        self.ambiguous: set[str] = set()
        # Held by the schema; only the lower-case column names (keys, in
        # declared order) are read here.
        self.schema_cols: dict[str, dict[str, str]] = db.columns_by_table

    def add_pairs(self, pairs):
        for table, column in pairs:
            self.tables.add(table)
            self.columns.add(f"{table}.{column}")

    # ----- statement / block walking -----

    def statement(self, stmt: SelectStatement, parent: _Scope | None, cte_env: dict) -> list:
        env = dict(cte_env)
        for name, body in stmt.ctes:
            # A CTE is in scope in its own body, with no columns yet, as in SQLite.
            env[name.lower()] = []
            env[name.lower()] = self.statement(body, parent, env)
        outputs = None
        for operand in stmt.blocks:
            if isinstance(operand, SelectStatement):
                out = self.statement(operand, parent, env)
            else:
                out = self.block(operand, parent, env)
            if outputs is None:
                outputs = out
        return outputs or []

    def block(self, block, parent: _Scope | None, env: dict) -> list:
        """Resolve one select block; returns its (column_name, pairs) outputs."""
        scope = _Scope(parent)
        for src in block.sources:
            if isinstance(src, TableSource):
                low = src.name.lower()
                if low in env:
                    res = ("virtual", env[low])
                else:
                    # Base table named in FROM counts as referenced even
                    # when the schema does not know it; a hallucinated
                    # table should cost precision, not vanish.
                    self.tables.add(low)
                    res = ("table", low)
                scope.add((src.alias or src.name).lower(), res)
            elif isinstance(src, DerivedSource):
                out = self.statement(src.select, parent, env)
                key = src.alias.lower() if src.alias else None
                scope.add(key, ("virtual", out))
        scope.select_aliases = {
            item.alias.lower() for item in block.items if item.alias
        }
        outputs = []
        for item in block.items:
            if item.is_star:
                qualifier = item.star_qualifier
                outputs.extend(self.star(qualifier.lower() if qualifier else None, scope))
                continue
            ref = _plain_ref(item.expr)
            if ref is None:
                self.expr(item.expr, scope, env)
                name, pairs = "", frozenset()
            else:
                qual, name = ref
                if qual is not None:
                    pairs = self.resolve_qualified(qual, name, scope)
                else:
                    pairs = self.resolve_bare(name, scope)
            outputs.append((item.alias.lower() if item.alias else name, pairs))
        for run in block.exprs:
            self.expr(run, scope, env)
        return outputs

    # ----- reference resolution -----

    # Names reach resolution in lower case: from the tokens' stored
    # ``lower`` field, or lowered once where the parser kept the text.

    def _column(self, res, cl: str) -> frozenset | None:
        """The (table, column) pairs source ``res`` gives for ``cl``, or
        None when it has no such column."""
        if res[0] == "table":
            cols = self.schema_cols.get(res[1])
            return frozenset({(res[1], cl)}) if cols is not None and cl in cols else None
        hits = [pairs for name, pairs in res[1] if name == cl]
        return frozenset().union(*hits) if hits else None

    def star(self, ql: str | None, scope: _Scope) -> list:
        """Expand ``*`` (``ql`` None) or ``ql.*`` into the columns it projects."""
        if ql is None:
            sources = scope.ordered
        else:
            res = scope.lookup(ql)
            if res is None:
                self.tables.add(ql)
                return []
            sources = [res]
        out = []
        for res in sources:
            if res[0] == "table":
                table_cols = self.schema_cols.get(res[1], ())
                out.extend((cl, self._column(res, cl)) for cl in table_cols)
            else:
                out.extend(res[1])
        for _, pairs in out:
            self.add_pairs(pairs)
        return out

    def resolve_qualified(self, ql: str, cl: str, scope: _Scope) -> frozenset:
        res = scope.lookup(ql)
        if res is None or res[0] == "table":
            # A base table is credited with the column even when the
            # schema lacks it, and so is a qualifier outside every scope:
            # the prediction pays for the stray reference.
            pairs = frozenset({(ql if res is None else res[1], cl)})
        else:
            pairs = self._column(res, cl) or frozenset()
        self.add_pairs(pairs)
        return pairs

    def resolve_bare(self, cl: str, scope: _Scope) -> frozenset:
        s = scope
        while s is not None:
            owner_sets = {self._column(res, cl) for res in s.ordered} - {None}
            if owner_sets:
                if len(owner_sets) > 1:
                    self.ambiguous.add(cl)
                merged = frozenset().union(*owner_sets)
                self.add_pairs(merged)
                return merged
            if cl in s.select_aliases:
                return frozenset()
            s = s.parent
        return frozenset()

    # ----- expression scanning -----

    def expr(self, items: list, scope: _Scope, env: dict):
        i = 0
        n = len(items)
        while i < n:
            tok = items[i]
            if tok.kind == STMT:
                self.statement(tok, scope, env)
                i += 1
                continue
            if tok.kind not in (IDENT, QIDENT):
                i += 1
                continue
            # A qualifier may be a keyword SQLite takes as an alias, such as ``row``.
            j = chain_end(items, i)
            if j > i:
                self.resolve_qualified(items[j - 2].lower, items[j].lower, scope)
                i = j + 1
                continue
            if tok.kind == IDENT and tok.lower in KEYWORDS:
                i += max(syntax_words(items, i), 1)
                continue
            nxt = items[i + 1] if i + 1 < n else None
            if nxt is not None and nxt.kind == OP and nxt.value == "(":
                i += 1  # function name
                continue
            if qualified_star(items, i):
                self.star(tok.lower, scope)
                i += 3
                continue
            self.resolve_bare(tok.lower, scope)
            i += 1


def _plain_ref(expr: list) -> tuple[str | None, str] | None:
    """Recognize a select item that is exactly one column reference.

    Returns the (qualifier, column) names in lower case.
    """
    first = expr[0] if expr else None
    if first is None or first.kind not in (IDENT, QIDENT):
        return None
    if len(expr) == 3 and chain_end(expr, 0) == 2:
        return (first.lower, expr[2].lower)
    if len(expr) == 1 and not (first.kind == IDENT and first.lower in KEYWORDS):
        return (None, first.lower)
    return None


# ----- simplified-query side -----


def extract_refs_simplified(
    sql: str, simplified: SimplifiedSchema
) -> tuple[RefSet, tuple[str, ...]]:
    """Map references in a single-virtual-table query back to original pairs.

    Dotted chains are matched against the simplification's rendered
    entries; the trailing two parts carry the table.column pair. Names
    that match no entry are reported verbatim in the unresolved list, in
    text order, never guessed at: unknown chains, and bare columns or
    FROM tables other than the virtual table, an alias or a CTE name.
    ``*`` contributes nothing.
    """
    toks = tokenize(sql)
    roles = _Roles(toks)
    pairs: set[tuple[str, str]] = set()
    unresolved: list[tuple[int, str]] = []  # (offset, name)
    for first, last in roles.chains:
        entry = simplified.lookup(toks[last - 2].value + "." + toks[last].value)
        if entry is not None:
            pairs.add((entry.table.lower(), entry.column.lower()))
        else:
            chain = ".".join(toks[k].value for k in range(first, last + 1, 2))
            unresolved.append((toks[first].start, chain))
    known = {simplified.name.lower(), *roles.alias_defs, *roles.cte_names}
    bare = [idx for idx, qualifier in roles.columns if qualifier is None]
    for idx in roles.tables + bare:
        if toks[idx].lower not in known:
            unresolved.append((toks[idx].start, toks[idx].value))
    refset = RefSet(
        frozenset(t for t, _ in pairs),
        frozenset(f"{t}.{c}" for t, c in pairs),
    )
    return refset, tuple(name for _, name in sorted(unresolved))
