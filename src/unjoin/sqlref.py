"""Table and column reference extraction from SQL.

Resolution is scope-aware: aliases, CTE names, derived tables, and
correlated subqueries all resolve against the innermost scope that
defines them. Names are normalized to lowercase. A column reference is
reported as "table.column"; the owning table is always reported too.

Star handling is deliberately asymmetric: a bare ``*`` or ``t.*`` in a
select list expands to the columns it projects, while ``COUNT(*)`` and
other aggregate stars reference no columns at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .schema import DatabaseSchema, SimplifiedSchema
from .sqlast import (
    DerivedSource,
    SelectStatement,
    SqlParseError,
    TableSource,
    _Roles,
    chain_end,
    parse,
)
from .tokens import IDENT, KEYWORDS, OP, QIDENT, Token, tokenize

__all__ = [
    "RefSet",
    "SqlParseError",
    "extract_refs",
    "extract_refs_simplified",
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
    stmt = parse(sql)
    an = _Analyzer(db)
    an.statement(stmt, None, {})
    return RefSet(frozenset(an.tables), frozenset(an.columns), frozenset(an.ambiguous))


@dataclass
class _Scope:
    parent: "_Scope | None"
    ordered: list = field(default_factory=list)  # resolutions in FROM order
    select_aliases: set = field(default_factory=set)

    def add(self, key: str | None, res):
        self.ordered.append(res)
        if key:
            self.by_key[key] = res

    def __post_init__(self):
        self.by_key = {}

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
        self.schema_cols: dict[str, list[str]] = {
            t.name.lower(): [c.name.lower() for c in t.columns] for t in db.tables
        }

    def add_pair(self, table: str, column: str):
        self.tables.add(table)
        self.columns.add(f"{table}.{column}")

    # ----- statement / block walking -----

    def statement(self, stmt: SelectStatement, parent: _Scope | None, cte_env: dict) -> list:
        env = dict(cte_env)
        for name, body in stmt.ctes:
            out = self.statement(body, parent, env)
            env[name.lower()] = out
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
        for item in block.items:
            if item.is_star:
                if item.star_qualifier:
                    self.qualified_star(item.star_qualifier, scope)
                else:
                    self.star_outputs(scope)
            else:
                self.expr(item.expr, scope, env)
        for run in block.join_exprs:
            self.expr(run, scope, env)
        for run in (block.where, block.group_by, block.having, block.order_by, block.limit):
            if run:
                self.expr(run, scope, env)
        return self._outputs(block, scope)

    def _outputs(self, block, scope) -> list:
        outputs = []
        for item in block.items:
            if item.is_star:
                if item.star_qualifier:
                    outputs.extend(self.qualified_star(item.star_qualifier, scope))
                else:
                    outputs.extend(self.star_outputs(scope))
                continue
            ref = _plain_ref(item.expr)
            if ref is not None:
                qual, name = ref
                if qual is not None:
                    pairs = self.resolve_qualified(qual, name, scope)
                else:
                    pairs = self.resolve_bare(name, scope)
                outputs.append(((item.alias or name).lower(), pairs))
            else:
                outputs.append(((item.alias or "").lower(), frozenset()))
        return outputs

    # ----- star expansion -----

    def star_outputs(self, scope: _Scope) -> list:
        out = []
        for res in scope.ordered:
            out.extend(self._source_outputs(res))
        for _, pairs in out:
            for t, c in pairs:
                self.add_pair(t, c)
        return out

    def qualified_star(self, qualifier: str, scope: _Scope) -> list:
        res = scope.lookup(qualifier.lower())
        if res is None:
            self.tables.add(qualifier.lower())
            return []
        out = self._source_outputs(res)
        for _, pairs in out:
            for t, c in pairs:
                self.add_pair(t, c)
        return out

    def _source_outputs(self, res) -> list:
        if res[0] == "table":
            table = res[1]
            return [
                (col, frozenset({(table, col)}))
                for col in self.schema_cols.get(table, [])
            ]
        return list(res[1])

    # ----- reference resolution -----

    def resolve_qualified(self, qualifier: str, column: str, scope: _Scope) -> frozenset:
        ql, cl = qualifier.lower(), column.lower()
        res = scope.lookup(ql)
        if res is None:
            # Qualifier names something outside every scope. Keep it so
            # the prediction pays for the stray reference.
            self.add_pair(ql, cl)
            return frozenset({(ql, cl)})
        if res[0] == "table":
            self.add_pair(res[1], cl)
            return frozenset({(res[1], cl)})
        pairs = set()
        for name, ps in res[1]:
            if name == cl:
                pairs |= ps
        for t, c in pairs:
            self.add_pair(t, c)
        return frozenset(pairs)

    def resolve_bare(self, column: str, scope: _Scope) -> frozenset:
        cl = column.lower()
        s = scope
        while s is not None:
            owner_sets = set()
            for res in s.ordered:
                if res[0] == "table":
                    cols = self.schema_cols.get(res[1])
                    if cols is not None and cl in cols:
                        owner_sets.add(frozenset({(res[1], cl)}))
                else:
                    pairs = set()
                    hit = False
                    for name, ps in res[1]:
                        if name == cl:
                            hit = True
                            pairs |= ps
                    if hit:
                        owner_sets.add(frozenset(pairs))
            if owner_sets:
                if len(owner_sets) > 1:
                    self.ambiguous.add(cl)
                merged = set()
                for ps in owner_sets:
                    merged |= ps
                for t, c in merged:
                    self.add_pair(t, c)
                return frozenset(merged)
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
            if isinstance(tok, SelectStatement):
                self.statement(tok, scope, env)
                i += 1
                continue
            if tok.kind not in (IDENT, QIDENT) or (tok.kind == IDENT and tok.lower in KEYWORDS):
                i += 1
                continue
            j = chain_end(items, i)
            if j > i:
                self.resolve_qualified(items[j - 2].value, items[j].value, scope)
                i = j + 1
                continue
            nxt = items[i + 1] if i + 1 < n else None
            op = nxt.value if isinstance(nxt, Token) and nxt.kind == OP else None
            if op == "(":
                i += 1  # function name
                continue
            star = items[i + 2] if i + 2 < n else None
            if op == "." and isinstance(star, Token) and star.kind == OP and star.value == "*":
                self.qualified_star(tok.value, scope)
                i += 3
                continue
            self.resolve_bare(tok.value, scope)
            i += 1


def _plain_ref(expr: list) -> tuple[str | None, str] | None:
    """Recognize a select item that is exactly one column reference."""
    toks = [x for x in expr if isinstance(x, Token)]
    if len(toks) != len(expr):
        return None
    if len(toks) == 1 and toks[0].kind in (IDENT, QIDENT):
        if toks[0].kind == IDENT and toks[0].lower in KEYWORDS:
            return None
        return (None, toks[0].value)
    if (
        len(toks) == 3
        and toks[0].kind in (IDENT, QIDENT)
        and toks[1].kind == OP
        and toks[1].value == "."
        and toks[2].kind in (IDENT, QIDENT)
    ):
        return (toks[0].value, toks[2].value)
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
