"""Edit-distance repair of identifier tokens.

Model output frequently carries near-miss identifiers: dropped plurals,
transposed letters, lost underscores. Repair compares each table or
column token against the schema vocabulary, case-insensitively, and
substitutes the closest name when it is close enough. Only identifier
tokens are ever touched; keywords, literals, aliases, and every byte of
surrounding text survive unchanged, so the repair cannot alter query
logic beyond the names themselves.

A FROM table or a qualifier is matched against the table names. A
qualified column is matched against its table's columns, or against
every column when the qualifier names no known table; a bare column
against the columns of the tables the query references, or every
column when it references none. Names that are not schema names are
left alone, neither repaired nor reported: CTE names and the columns
qualified by one, directly or through an alias; columns qualified by a
derived table's alias; and aliases of tables, derived tables and select
items. Double-quoted names are left alone too, since SQLite reads an
unknown one as a string literal. Text that cannot be tokenized (an
unterminated quote or block comment) is left whole for SQLite to judge.

A candidate is eligible when the distance is at most
max(2, ceil(0.4 * len(candidate))). Ties prefer a candidate from a
table the query already references, then the lexicographically smallest
name.

The search is bounded: a candidate only matters if its distance is within
both its own threshold and the best distance found so far, so candidates
whose length differs by more than that are skipped outright. The rest
are scored by ``levenshtein``, Myers' bit-vector edit distance (Myers,
JACM 1999, in the global form Hyyrö 2001 gives): the name being
repaired is the pattern, and each candidate character costs a few
integer operations. A candidate is given up once its distance can no
longer come back within the bound.
The chosen candidate and its distance are identical to an exhaustive
search, since ties with the best so far are still computed exactly.

The vocabulary that repair searches (lookup maps and sorted candidate
lists) is computed once per schema object and held on it; see
``DatabaseSchema`` and ``SimplifiedSchema``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .schema import DatabaseSchema, SimplifiedSchema
from .sqlast import _Roles
from .tokens import TokenizeError, tokenize


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


def levenshtein(a: str, b: str, bound: int | None = None) -> int:
    """Edit distance between ``a`` and ``b``, exact when ``bound`` is None.

    With a ``bound``, the result is exact when it is at most ``bound``
    and ``bound + 1`` otherwise.

    ``a`` is the pattern: ``peq`` maps each of its characters to the
    bitmask of the positions where it occurs. Bit i of the vertical
    delta vectors ``pv``/``mv`` says whether D[i+1][j] - D[i][j] is
    +1/-1 in the current column j of ``b``, and ``score`` is D[m][j].
    Python integers grow as needed, so one vector covers a pattern of
    any length. Each remaining character of ``b`` lowers D[m][j] by at
    most one, so the loop ends once ``score - remaining > bound``.
    """
    if a == b:
        return 0
    m, remaining = len(a), len(b)
    if bound is None:
        bound = max(m, remaining)  # no distance exceeds this
    if abs(m - remaining) > bound:
        return bound + 1
    if not m:
        return remaining
    peq: dict[str, int] = {}
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    full = bit - 1
    top = bit >> 1
    pv, mv, score = full, 0, m
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        remaining -= 1
        if score - remaining > bound:
            return bound + 1
        # Row 0 is D[0][j] = j, so its horizontal delta is always +1.
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return score


def _threshold(candidate: str) -> int:
    return max(2, math.ceil(0.4 * len(candidate)))


def _best(
    token_lower: str, candidates: Sequence[tuple[str, str, bool]]
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
    both in text order. Text that cannot be tokenized comes back
    unchanged with an empty report.
    Applying the function to its own output is a fixed point.
    """
    try:
        toks = tokenize(sql)
    except TokenizeError:
        return sql, CorrectionReport()
    roles = _Roles(toks)
    table_canon = db.table_names
    cols_by_table = db.columns_by_table
    subs: list[tuple[Substitution, int, str]] = []
    unresolved: list[tuple[int, str]] = []  # (offset, name)
    referenced: set[str] = set()

    def repair(idx: int, candidates) -> str | None:
        """Substitute the closest candidate for token ``idx``, or report it.

        Returns the lower-case replacement, or None when the token stays.
        """
        tok = toks[idx]
        if tok.quote == '"':
            # Double quotes are ambiguous with string literals here;
            # leave them alone rather than rewrite a value.
            return None
        pick = _best(tok.lower, candidates)
        if pick is None:
            unresolved.append((tok.start, tok.value))
            return None
        name, dist = pick
        text = {"`": f"`{name}`", "[": f"[{name}]"}.get(tok.quote, name)
        subs.append((Substitution(tok.value, name, dist, tok.start), tok.end, text))
        return name.lower()

    def table_at(idx: int) -> str:
        """The lower-case name a FROM table or qualifier token stands for."""
        low = toks[idx].lower
        if low not in table_canon and low not in roles.cte_names:
            low = repair(idx, db.table_candidates) or low
        if low in table_canon:
            referenced.add(low)
        return low

    from_tables = {idx: table_at(idx) for idx in roles.tables}
    # Alias -> the table it names; None for a derived table or select item.
    alias_map = {
        alias: None if tidx is None else from_tables[tidx]
        for alias, tidx in roles.alias_defs.items()
    }
    qualifier_table = {
        idx: alias_map[toks[idx].lower] if toks[idx].lower in alias_map else table_at(idx)
        for idx in roles.qualifiers
    }

    for idx, qidx in roles.columns:
        low = toks[idx].lower
        if qidx is None:
            if low in alias_map or low in roles.cte_names:
                continue
            within = referenced
        else:
            table = qualifier_table[qidx]
            if table in table_canon:
                within = {table}
            elif table is None or table in roles.cte_names:
                # A derived table or a CTE: its columns are not schema names.
                continue
            else:
                within = ()  # the qualifier names no known table
        # Candidates come from ``within``, or from every table when empty.
        if within:
            if not any(low in cols_by_table[t] for t in within):
                repair(idx, [
                    (cl, canon, True)
                    for t in sorted(within) for cl, canon in sorted(cols_by_table[t].items())
                ])
        elif low not in db.column_name_set:
            repair(idx, [(cl, canon, tl in referenced) for tl, cl, canon in db.flat_columns])

    return _apply(sql, subs, unresolved)


def correct_identifiers_simplified(
    sql: str, simplified: SimplifiedSchema
) -> tuple[str, CorrectionReport]:
    """Repair references in a query against the flattened virtual table.

    Maximal dotted chains are matched whole against the rendered
    "table.column" entries; FROM tables other than CTE names are matched
    against the virtual table name. Bare names are left alone.
    Unresolved names are reported in text order. Text that cannot be
    tokenized comes back unchanged with an empty report.
    """
    try:
        toks = tokenize(sql)
    except TokenizeError:
        return sql, CorrectionReport()
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
    for first, last in roles.chains:
        if simplified.lookup(toks[last - 2].value + "." + toks[last].value) is not None:
            continue
        chain = ".".join(toks[k].value for k in range(first, last + 1, 2))
        pick = _best(chain.lower(), simplified.entry_candidates)
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
