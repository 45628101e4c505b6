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
from .sqlast import _Roles
from .tokens import tokenize


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


# ----- repair -----


def correct_identifiers(sql: str, db: DatabaseSchema) -> tuple[str, CorrectionReport]:
    """Repair table and column tokens in ``sql`` against ``db``.

    Returns the rewritten SQL and a report of substitutions (original,
    replacement, distance, offset) plus names that stayed unresolved,
    both in text order.
    Applying the function to its own output is a fixed point.
    """
    toks = tokenize(sql)
    roles = _Roles(toks)
    table_canon = {t.name.lower(): t.name for t in db.tables}
    table_cands = [(tl, canon, False) for tl, canon in sorted(table_canon.items())]
    cols_by_table = {
        t.name.lower(): {c.name.lower(): c.name for c in t.columns} for t in db.tables
    }

    subs: list[tuple[Substitution, int, str]] = []
    unresolved: list[tuple[int, str]] = []  # (offset, name)
    corrected_value: dict[int, str] = {}

    def token_value(idx: int) -> str:
        return corrected_value.get(idx, toks[idx].value)

    def substitute(idx: int, pick: tuple[str, int]):
        tok, (name, dist) = toks[idx], pick
        text = name
        if tok.quote == "`":
            text = f"`{name}`"
        elif tok.quote == "[":
            text = f"[{name}]"
        subs.append((Substitution(tok.value, name, dist, tok.start), tok.end, text))
        corrected_value[idx] = name

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
            unresolved.append((tok.start, tok.value))
            continue
        substitute(idx, pick)
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
            unresolved.append((tok.start, tok.value))
            qualifier_table[idx] = None
            continue
        substitute(idx, pick)
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
            unresolved.append((tok.start, tok.value))
            continue
        substitute(idx, pick)

    return _apply(sql, subs, unresolved)


def correct_identifiers_simplified(
    sql: str, simplified: SimplifiedSchema
) -> tuple[str, CorrectionReport]:
    """Repair references in a query against the flattened virtual table.

    Maximal dotted chains are matched whole against the rendered
    "table.column" entries; FROM tables other than CTE names are matched
    against the virtual table name. Bare names are left alone.
    Unresolved names are reported in text order.
    """
    toks = tokenize(sql)
    roles = _Roles(toks)
    virtual_low = simplified.name.lower()
    subs: list[tuple[Substitution, int, str]] = []
    unresolved: list[tuple[int, str]] = []  # (offset, name)
    for idx in roles.tables:
        tok = toks[idx]
        if tok.lower == virtual_low or tok.lower in roles.cte_names or tok.quote == '"':
            continue
        pick = _best(tok.lower, [(virtual_low, simplified.name, False)])
        if pick is None:
            unresolved.append((tok.start, tok.value))
        else:
            subs.append((Substitution(tok.value, pick[0], pick[1], tok.start), tok.end, pick[0]))
    entry_cands: list[tuple[str, str, bool]] | None = None  # built on first need
    for first, last in roles.chains:
        if simplified.lookup(toks[last - 2].value + "." + toks[last].value) is not None:
            continue
        if entry_cands is None:
            entry_cands = sorted(
                (e.rendered.lower(), e.rendered, False) for e in simplified.entries
            )
        chain = ".".join(toks[k].value for k in range(first, last + 1, 2))
        pick = _best(chain.lower(), entry_cands)
        start = toks[first].start
        if pick is None:
            unresolved.append((start, chain))
        else:
            subs.append((Substitution(chain, pick[0], pick[1], start), toks[last].end, pick[0]))
    return _apply(sql, subs, unresolved)


def _apply(
    sql: str,
    subs: list[tuple[Substitution, int, str]],
    unresolved: list[tuple[int, str]],
) -> tuple[str, CorrectionReport]:
    """Write each (substitution, end offset, text) into ``sql``.

    Substitutions and unresolved (offset, name) pairs are reported in
    text order.
    """
    subs = sorted(subs, key=lambda s: s[0].position)
    out = sql
    for sub, end, text in reversed(subs):
        out = out[: sub.position] + text + out[end:]
    names = tuple(name for _, name in sorted(unresolved))
    return out, CorrectionReport(tuple(s[0] for s in subs), names)
