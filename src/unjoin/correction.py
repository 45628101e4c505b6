"""Edit-distance repair of identifier tokens.

Model output frequently carries near-miss identifiers: dropped plurals,
transposed letters, lost underscores. Repair compares each table or
column token against the schema vocabulary, case-insensitively, and
substitutes the closest name when it is close enough. Only identifier
tokens are ever touched; keywords, literals, aliases, and every byte of
surrounding text survive unchanged, so the repair cannot alter query
logic beyond the names themselves.

A candidate is eligible when the distance is at most
max(2, ceil(0.4 * len(candidate))). Ties prefer a candidate from a
table the query already references, then the lexicographically smallest
name.

The search is bounded: a candidate only matters if its distance is within
both its own threshold and the best distance found so far, so candidates
whose length differs by more than that are skipped outright, and the rest
get a banded edit distance that gives up once a row exceeds the bound.
The chosen candidate and its distance are identical to an exhaustive
search, since ties with the best so far are still computed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .schema import DatabaseSchema, SimplifiedSchema
from .tokens import IDENT, KEYWORDS, NUMBER, OP, QIDENT, STRING, Token, tokenize


@dataclass(frozen=True)
class Substitution:
    original: str
    replacement: str
    distance: int
    position: int  # character offset into the input SQL


@dataclass(frozen=True)
class CorrectionReport:
    substitutions: tuple[Substitution, ...] = ()
    unresolved: tuple[str, ...] = ()

    @property
    def changed(self) -> bool:
        return bool(self.substitutions)


def levenshtein(a: str, b: str, bound: int | None = None) -> int:
    """Edit distance between ``a`` and ``b``, exact when ``bound`` is None.

    With a ``bound``, the result is exact when it is at most ``bound``
    and ``bound + 1`` otherwise; only the diagonal band ``|i - j| <=
    bound`` is filled, and the fill stops once a whole row exceeds it.
    """
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if bound is None:
        bound = max(la, lb)  # no distance exceeds this: the band is the table
    over = bound + 1
    if abs(la - lb) > bound:
        return over
    if not a or not b:
        return la + lb
    # Cells outside the band stay at ``over``: their true distance is at
    # least |i - j| > bound, and every value is capped at ``over``.
    prev = [j if j <= bound else over for j in range(lb + 1)]
    for i in range(1, la + 1):
        ca = a[i - 1]
        cur = [over] * (lb + 1)
        if i <= bound:
            cur[0] = i
        row_min = cur[0]
        for j in range(max(1, i - bound), min(lb, i + bound) + 1):
            v = prev[j - 1] if ca == b[j - 1] else prev[j - 1] + 1
            if prev[j] + 1 < v:
                v = prev[j] + 1
            if cur[j - 1] + 1 < v:
                v = cur[j - 1] + 1
            if v > over:
                v = over
            cur[j] = v
            if v < row_min:
                row_min = v
        if row_min > bound:
            return over
        prev = cur
    return prev[lb]


def _threshold(candidate: str) -> int:
    return max(2, math.ceil(0.4 * len(candidate)))


def _best(
    token_lower: str, candidates: list[tuple[str, str, bool]]
) -> tuple[str, int] | None:
    """Pick the closest eligible candidate.

    ``candidates`` holds (lower, canonical, from_referenced) triples.
    Returns (canonical, distance) or None when nothing is close enough.
    """
    best = None
    n = len(token_lower)
    for lower, canonical, referenced in candidates:
        # A candidate farther than the best so far cannot win; one at the
        # same distance still can, on the tie-break.
        limit = _threshold(lower)
        if best is not None and best[0][0] < limit:
            limit = best[0][0]
        if abs(n - len(lower)) > limit:
            continue
        dist = levenshtein(token_lower, lower, limit)
        if dist > limit:
            continue
        key = (dist, not referenced, lower)
        if best is None or key < best[0]:
            best = (key, canonical)
    if best is None:
        return None
    return best[1], best[0][0]


# ----- role classification -----

_CLAUSE_RESET = frozenset(
    "on where select group having order limit offset union intersect except using values set".split()
)


class _Roles:
    """Classifies identifier tokens in a statement by syntactic role.

    Works on the raw token stream with a small amount of state: which
    paren depths belong to a FROM clause, which belong to CAST, whether
    the next name is a table, a CTE, or an alias definition.
    """

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.tables: list[int] = []
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
        cast_depths: set[int] = set()
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
                        cast_depths.add(depth)
                    # "FROM (" keeps the table context on the new level.
                    if expect_table:
                        from_depths.add(depth)
                elif tok.value == ")":
                    from_depths.discard(depth)
                    cast_depths.discard(depth)
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
                    if depth not in cast_depths:
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
            # Identifier. Gather a dotted chain first; only the last two
            # parts carry the (qualifier, column) pair.
            j = i
            while (
                j + 2 < n
                and toks[j + 1].kind == OP
                and toks[j + 1].value == "."
                and toks[j + 2].kind in (IDENT, QIDENT)
            ):
                j += 2
            if j > i:
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
            elif prev is not None and (
                (prev.kind == OP and prev.value in (")", "*"))
                or prev.kind in (STRING, NUMBER)
                or (prev.kind in (IDENT, QIDENT) and not (prev.kind == IDENT and prev.lower in KEYWORDS))
                or prev.is_keyword("end")
            ):
                # Implicit alias: "expr name", "table name", "CASE..END name".
                self.alias_defs[low] = last_table_idx
                if last_table_idx is None:
                    self.select_aliases.add(low)
                last_table_idx = None
            else:
                self.columns.append((i, None))
            prev = tok
            i += 1


# ----- shared correction engine -----


def _correct_tokens(sql: str, db: DatabaseSchema) -> tuple[str, CorrectionReport]:
    toks = tokenize(sql)
    roles = _Roles(toks)
    table_canon = {t.name.lower(): t.name for t in db.tables}
    table_cands = [(tl, canon, False) for tl, canon in sorted(table_canon.items())]
    cols_by_table = {
        t.name.lower(): {c.name.lower(): c.name for c in t.columns} for t in db.tables
    }

    subs: list[tuple[Token, str, int]] = []
    unresolved: list[str] = []
    corrected_value: dict[int, str] = {}

    def token_value(idx: int) -> str:
        return corrected_value.get(idx, toks[idx].value)

    referenced: set[str] = set()
    # Pass 1: table positions.
    for idx in roles.tables:
        tok = toks[idx]
        low = tok.lower
        if low in table_canon:
            referenced.add(low)
            continue
        if low in roles.cte_names:
            continue
        if tok.quote == '"':
            # Double quotes are ambiguous with string literals here;
            # leave them alone rather than rewrite a value.
            continue
        pick = _best(low, table_cands)
        if pick is None:
            unresolved.append(tok.value)
            continue
        subs.append((tok, pick[0], pick[1]))
        corrected_value[idx] = pick[0]
        referenced.add(pick[0].lower())

    alias_map: dict[str, str | None] = {}
    for alias, tidx in roles.alias_defs.items():
        if tidx is None:
            alias_map[alias] = None
        else:
            alias_map[alias] = token_value(tidx).lower()

    # Pass 2: qualifiers.
    qualifier_table: dict[int, str | None] = {}
    for idx in roles.qualifiers:
        tok = toks[idx]
        low = tok.lower
        if low in alias_map:
            target = alias_map[low]
            qualifier_table[idx] = target if target in table_canon else None
            continue
        if low in table_canon:
            qualifier_table[idx] = low
            referenced.add(low)
            continue
        if low in roles.cte_names:
            qualifier_table[idx] = None
            continue
        if tok.quote == '"':
            qualifier_table[idx] = None
            continue
        pick = _best(low, table_cands)
        if pick is None:
            unresolved.append(tok.value)
            qualifier_table[idx] = None
            continue
        subs.append((tok, pick[0], pick[1]))
        corrected_value[idx] = pick[0]
        qualifier_table[idx] = pick[0].lower()
        referenced.add(pick[0].lower())

    # Pass 3: columns.
    referenced_cols: list[tuple[str, str, bool]] = []
    all_cols: list[tuple[str, str, bool]] = []
    for tl in sorted(cols_by_table):
        for cl, canon in sorted(cols_by_table[tl].items()):
            item = (cl, canon, tl in referenced)
            all_cols.append(item)
            if tl in referenced:
                referenced_cols.append(item)
    for idx, qidx in roles.columns:
        tok = toks[idx]
        low = tok.lower
        if qidx is not None:
            table = qualifier_table.get(qidx)
            if table is None and toks[qidx].lower in alias_map and alias_map[toks[qidx].lower] is None:
                # Qualifier is a derived-table or CTE alias; its columns
                # are not schema names, so nothing to validate against.
                continue
            if table is not None:
                scope = cols_by_table[table]
                if low in scope:
                    continue
                if tok.quote == '"':
                    continue
                cands = [(cl, canon, True) for cl, canon in sorted(scope.items())]
            else:
                if any(low in cols_by_table[t] for t in cols_by_table):
                    continue
                if tok.quote == '"':
                    continue
                cands = all_cols
        else:
            if low in alias_map or low in roles.cte_names or low in roles.select_aliases:
                continue
            in_referenced = any(low in cols_by_table[t] for t in referenced)
            if in_referenced:
                continue
            if not referenced and any(low in cols_by_table[t] for t in cols_by_table):
                continue
            if tok.quote == '"':
                continue
            cands = referenced_cols if referenced else all_cols
        pick = _best(low, cands)
        if pick is None:
            unresolved.append(tok.value)
            continue
        subs.append((tok, pick[0], pick[1]))
        corrected_value[idx] = pick[0]

    return _apply(sql, subs, unresolved)


def _apply(sql: str, subs: list, unresolved: list[str]) -> tuple[str, CorrectionReport]:
    out = sql
    records = []
    for tok, replacement, dist in sorted(subs, key=lambda s: -s[0].start):
        text = replacement
        if tok.quote == "`":
            text = f"`{replacement}`"
        elif tok.quote == "[":
            text = f"[{replacement}]"
        out = out[: tok.start] + text + out[tok.end :]
        records.append(Substitution(tok.value, replacement, dist, tok.start))
    records.sort(key=lambda r: r.position)
    report = CorrectionReport(tuple(records), tuple(unresolved))
    return out, report


def correct_identifiers(sql: str, db: DatabaseSchema) -> tuple[str, CorrectionReport]:
    """Repair table and column tokens in ``sql`` against ``db``.

    Returns the rewritten SQL and a report of substitutions (original,
    replacement, distance, offset) plus names that stayed unresolved.
    Applying the function to its own output is a fixed point.
    """
    return _correct_tokens(sql, db)


def correct_identifiers_simplified(
    sql: str, simplified: SimplifiedSchema
) -> tuple[str, CorrectionReport]:
    """Repair references in a query against the flattened virtual table.

    Maximal dotted chains are matched whole against the rendered
    "table.column" entries; the FROM table is matched against the
    virtual table name. Bare names are left alone.
    """
    toks = tokenize(sql)
    n = len(toks)
    virtual_low = simplified.name.lower()
    entry_cands: list[tuple[str, str, bool]] | None = None  # built on first need
    subs: list[tuple[int, int, str, str, int]] = []  # (start, end, orig, repl, dist)
    unresolved: list[str] = []

    expect_table = False
    i = 0
    while i < n:
        tok = toks[i]
        if tok.kind == OP:
            i += 1
            continue
        if tok.kind == IDENT and tok.lower in KEYWORDS:
            if tok.lower in ("from", "join"):
                expect_table = True
            elif tok.lower in _CLAUSE_RESET:
                expect_table = False
            i += 1
            continue
        if tok.kind in (STRING, NUMBER):
            i += 1
            continue
        j = i
        while (
            j + 2 < n
            and toks[j + 1].kind == OP
            and toks[j + 1].value == "."
            and toks[j + 2].kind in (IDENT, QIDENT)
        ):
            j += 2
        if j > i:
            chain = ".".join(toks[k].value for k in range(i, j + 1, 2))
            tail = toks[j - 2].value + "." + toks[j].value
            if simplified.lookup(tail) is None:
                if entry_cands is None:
                    entry_cands = sorted(
                        (e.rendered.lower(), e.rendered, False) for e in simplified.entries
                    )
                pick = _best(chain.lower(), entry_cands)
                if pick is None:
                    unresolved.append(chain)
                else:
                    subs.append((toks[i].start, toks[j].end, chain, pick[0], pick[1]))
            expect_table = False
            i = j + 1
            continue
        if expect_table:
            if tok.lower != virtual_low and tok.quote != '"':
                limit = _threshold(virtual_low)
                dist = levenshtein(tok.lower, virtual_low, limit)
                if dist <= limit:
                    subs.append((tok.start, tok.end, tok.value, simplified.name, dist))
                else:
                    unresolved.append(tok.value)
            expect_table = False
        i += 1

    out = sql
    records = []
    for start, end, orig, repl, dist in sorted(subs, key=lambda s: -s[0]):
        out = out[:start] + repl + out[end:]
        records.append(Substitution(orig, repl, dist, start))
    records.sort(key=lambda r: r.position)
    return out, CorrectionReport(tuple(records), tuple(unresolved))
