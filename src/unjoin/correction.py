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
items. Text that cannot be tokenized (an unterminated quote) is left
whole for SQLite to judge; an unterminated block comment runs to the
end of the text, as it does in SQLite.

A misspelled clause keyword, such as FRMO in ``SELECT name FRMO
customer``, reads as an alias, or before ``(`` as a call where none can
stand (WHER in ``FROM customer WHER (...)``); it is reported as
unresolved and never rewritten (see ``_misspelled_keywords``).

One quote rule holds on both views. A lone double-quoted name is left
alone, since SQLite reads an unknown one as a string literal; a lone
name in backticks or brackets keeps its quotes; a dotted chain, which
the flat view repairs whole, is written bare. A report's substitutions
are the edits applied, in text order. Each replaces ``original``, the
exact source slice at ``position``, with ``replacement``, the exact text
written; ``distance`` is the search's, from the name as searched (quotes
dropped, a chain's names joined by dots) to the replacement name.

A candidate is eligible when the distance is at most
max(2, ceil(0.4 * len(candidate))). Ties prefer a candidate from a
table the query already references, then the lexicographically smallest
name.

Each search is one pass: ``levenshtein`` scores the token against every
candidate at once, with the candidates packed side by side as the lanes
of one bit-parallel pattern (Myers, JACM 1999; Hyyrö, Fredriksson and
Navarro, JEA 2005) and the token as the text, a few big-integer
operations per token character. Every distance is exact, so the choice
is the one an exhaustive search makes.

The lanes of a list have one width, a whole number of bytes with at
least one bit to spare above the longest name. Lane k holds the k-th
name in its low bits, first character lowest; the bits above a name
are padding, and ``full`` holds the name bits only. After a pass, a
lane's distance is the token's length plus its count of +1 deltas
(``pv``) minus its count of -1 deltas (``mv``). Padding bits may hold
anything by then (``mv`` is never masked), so both vectors are masked
with ``full`` before they are counted: padding never reaches a count,
and an empty name reads as the token's length. Counting is word-wide
too: the masked bits as bytes, each byte turned into its bit count, and
one multiplication that adds up each lane's bytes. The distances come
out as one integer, a field of at least 32 bits per lane with a guard
bit at its top. Each lane's threshold sits under its guard bit in
``ceilings``, so ``(ceilings - distances) & guards`` keeps the guard
bits of the lanes within their thresholds, and no lane borrows from its
neighbour. Only those lanes are read back one at a time, for the
tie-break. A list is not searched when the token is longer than each of
its names by more than the name's threshold.

Every candidate list is one ``PackedNames``: the lower-case names a
search compares, the names a repair writes, and the table whose columns
it holds, if any. The lists are built once per schema object and held
on it: the table names and one list per table's columns on
``DatabaseSchema``, the flat view's name and entries on
``SimplifiedSchema``. A column search walks the lists of the tables in
reach in name order, so a search over several tables makes one kernel
call per table. Each character's lane mask is built the first time a
search needs it.
"""

from __future__ import annotations

import math
from collections.abc import Container, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .sqlast import CLAUSE_WORDS, COMPOUND_WORDS, _Roles
from .tokens import IDENT, KEYWORDS, NUMBER, OP, STRING, TokenizeError, tokenize

if TYPE_CHECKING:  # schema imports this module to build its candidate lists
    from .schema import DatabaseSchema, SimplifiedSchema


@dataclass(frozen=True)
class Substitution:
    """One edit of a repair; its distance ignores case, as the search does."""

    original: str  # the exact text replaced: quotes, a chain's spaces and all
    replacement: str  # the exact text written
    distance: int  # from the name as searched (quotes dropped, "a.b") to the new name
    position: int  # character offset of ``original`` into the input SQL


@dataclass(frozen=True)
class CorrectionReport:
    substitutions: tuple[Substitution, ...] = ()
    unresolved: tuple[str, ...] = ()


def _threshold(length: int) -> int:
    """The largest distance at which a name of ``length`` characters is eligible."""
    return max(2, math.ceil(0.4 * length))


# The number of set bits in each byte value.
_BIT_COUNTS = bytes(bin(value).count("1") for value in range(256))


class PackedNames:
    """A candidate list, packed side by side as the lanes of one pattern.

    Lane k holds ``names[k]``, a lower-case name, one bit per character,
    the first character in the lane's lowest bit; ``canonical[k]`` is
    the name a repair writes for it. ``owner`` is the lower-case table
    whose columns the list holds, None for any other list. Lane k takes
    bits [k * width, (k + 1) * width), where ``width`` is the smallest
    whole number of bytes with a bit above the longest name; the bits
    above a name are padding. The layout is fixed by the names' lengths
    alone, so any character may appear in a name. ``mask(ch)`` has the
    bits of the positions that hold ``ch``; each is built on first use
    and held. Threads racing on one character each build the same value,
    and either is kept.

    ``reach`` is the longest token that some name is within threshold
    of, -1 for an empty list. ``lane(values, k)`` reads lane k of a
    word-parallel result such as ``levenshtein``'s, a field of
    ``_stride`` bits per lane.
    """

    __slots__ = ("names", "canonical", "owner", "reach", "_text", "_full", "_lows",
                 "_masks", "_bytes", "_spread", "_stride", "_adder", "_shift", "_one",
                 "_ceilings", "_guards")

    def __init__(self, lanes: Iterable[tuple[str, str]], owner: str | None = None):
        """``lanes`` holds one (lower, canonical) pair per name, in search order."""
        lanes = tuple(lanes)
        self.names = tuple(lower for lower, _ in lanes)
        self.canonical = tuple(name for _, name in lanes)
        self.owner = owner
        lengths = list(map(len, self.names))
        limits = {length: _threshold(length) for length in set(lengths)}
        self.reach = max((length + limit for length, limit in limits.items()), default=-1)
        lane_bytes = max(lengths, default=0) // 8 + 1
        width = 8 * lane_bytes
        # A byte count takes ``spread`` bytes in the sums: room for a sum
        # of a lane's byte counts, which is below ``width``, and at least
        # 32 bits a lane, so a distance below 2**31 stays under the guard.
        spread = 1
        while 256**spread <= width or spread * width < 32:
            spread += 1
        stride = spread * width
        self._bytes, self._spread, self._stride = lane_bytes, spread, stride
        # Built from hex digits, one run of digits per lane, lane 0 last.
        order = lengths[::-1]
        digits = width // 4
        names_hex = {length: f"{(1 << length) - 1:0{digits}x}" for length in limits}
        self._full = int("".join(map(names_hex.__getitem__, order)) or "0", 16)
        self._lows = self._full & ~(self._full << 1)  # each name's lowest bit
        # Printed top bit first: lane 0's text last, each lane's reversed.
        self._text = "".join([name.ljust(width) for name in self.names])[::-1]
        self._masks: dict[str, int] = {}
        guard = 1 << (stride - 1)
        digits = stride // 4
        ceilings_hex = {length: f"{guard | limit:0{digits}x}" for length, limit in limits.items()}
        self._ceilings = int("".join(map(ceilings_hex.__getitem__, order)) or "0", 16)
        self._one = int(("1".rjust(digits, "0")) * len(lengths) or "0", 16)
        self._guards = self._one * guard
        # Times ``_adder``, each lane's top byte field gets the sum of its
        # lane's byte counts; ``_shift`` brings it to the field's bottom.
        self._adder = int("1".rjust(2 * spread, "0") * lane_bytes, 16)
        self._shift = 8 * spread * (lane_bytes - 1)

    def mask(self, ch: str) -> int:
        bits = self._masks.get(ch)
        if bits is None:
            ones = "1".join(["0" * len(run) for run in self._text.split(ch)])
            bits = self._masks[ch] = int(ones, 2)
        return bits

    def lane(self, values: int, k: int) -> int:
        """Lane k's field of ``values``, a word-parallel result."""
        return (values >> (k * self._stride)) & ((1 << self._stride) - 1)

    def _sums(self, bits: int) -> int:
        """The number of set bits in each lane of ``bits``, one field per lane."""
        counts = bits.to_bytes(self._bytes * len(self.names), "little").translate(_BIT_COUNTS)
        if self._spread > 1:
            wide = bytearray(self._spread * len(counts))
            wide[:: self._spread] = counts
            counts = wide
        total = (int.from_bytes(counts, "little") * self._adder) >> self._shift
        return total & (self._one * (256**self._spread - 1))


def levenshtein(token: str, packed: PackedNames) -> int:
    """Edit distance from ``token`` to each of ``packed.names``, lane k's
    distance in ``packed.lane(result, k)``; exact for any token shorter
    than 2**31 characters.

    One pass of Myers' bit-vector algorithm (Myers, JACM 1999, in the
    global form Hyyrö 2001 gives) over the characters of ``token``,
    with every name a lane of one pattern (Hyyrö, Fredriksson and
    Navarro, JEA 2005). Bit i of a lane in ``pv``/``mv`` says
    whether D[i+1][j] - D[i][j] is +1/-1 in the current column j of
    ``token``. The padding bit above each name is zero in ``pv``, so it
    stops the addition's carry, and it takes the shift out of the name's
    top; ``lows`` sets each name's row 0 delta, D[0][j] - D[0][j-1] = +1.
    What a padding bit holds otherwise never reaches a name's bits.
    After the pass, D[m][n] = n + (+1 deltas) - (-1 deltas) in each
    lane, with both counts taken over the name's bits only.
    """
    if not packed.names:
        return 0
    full, lows, mask = packed._full, packed._lows, packed.mask
    pv, mv = full, 0
    for ch in token:
        eq = mask(ch)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ((xh | pv) ^ full)
        mh = pv & xh
        ph = (ph << 1) | lows
        pv = ((mh << 1) | ((xv | ph) ^ full)) & full
        mv = ph & xv
    return len(token) * packed._one + packed._sums(pv) - packed._sums(mv & full)


def _best(
    token_lower: str, lists: Iterable[PackedNames], referenced: Container[str] = ()
) -> tuple[str, int] | None:
    """Pick the closest eligible name of ``lists``, searched in order.

    The key is (distance, owner not in ``referenced``, lower name), and
    the first of equal keys wins. Returns (canonical, distance) or None
    when nothing is close enough.
    """
    best = None
    for packed in lists:
        if len(token_lower) > packed.reach:
            continue  # beyond every name's threshold
        unowned = packed.owner not in referenced
        distances = levenshtein(token_lower, packed)
        # A lane keeps its guard bit exactly when its distance is at most its threshold.
        eligible = (packed._ceilings - distances) & packed._guards
        while eligible:
            low = eligible & -eligible
            eligible ^= low
            k = low.bit_length() // packed._stride - 1
            key = (packed.lane(distances, k), unowned, packed.names[k])
            if best is None or key < best[0]:
                best = (key, packed.canonical[k])
    if best is None:
        return None
    return best[1], best[0][0]


# The keywords that open a clause; a name that reads as one misspelled
# is reported, never rewritten.
_CLAUSE_KEYWORDS = PackedNames(
    (k, k.upper()) for k in sorted(CLAUSE_WORDS + COMPOUND_WORDS + ("select", "from", "join"))
)


def _misspelled_keywords(toks, roles: _Roles) -> list[tuple[int, str]]:
    """(offset, name) of each implicit alias or stray call name that
    reads as a misspelled clause keyword, such as FRMO in ``SELECT name
    FRMO customer`` or WHER in ``FROM customer WHER (gender = 'F')``.

    The name must be unquoted and no keyword, followed by a bare name, a
    number, a string, BY or ``(``, and within ``_threshold`` of a clause
    keyword.
    """
    found = []
    for idx in roles.implicit_aliases + roles.stray_calls:
        tok = toks[idx]
        nxt = toks[idx + 1] if idx + 1 < len(toks) else None
        if tok.kind != IDENT or tok.lower in KEYWORDS or nxt is None:
            continue
        if nxt.kind in (NUMBER, STRING) or (nxt.kind == OP and nxt.value == "(") or (
            nxt.kind == IDENT and (nxt.lower == "by" or nxt.lower not in KEYWORDS)
        ):
            if _best(tok.lower, [_CLAUSE_KEYWORDS]) is not None:
                found.append((tok.start, tok.value))
    return found


# ----- repair -----


class _Repair:
    """One repair of one text: its tokens and roles, the tables it
    references, what was substituted and what stayed unresolved. Text
    that cannot be tokenized has no tokens, so it is left whole.
    """

    def __init__(self, sql: str):
        self.sql = sql
        try:
            self.toks = tokenize(sql)
        except TokenizeError:
            self.toks = []
        self.roles = _Roles(self.toks)
        self.referenced: set[str] = set()  # lower-case schema tables
        self.subs: list[Substitution] = []  # the edits, applied by ``report``
        self.unresolved: list[tuple[int, str]] = []  # (offset, name)

    def substitute(self, first: int, last: int, lists: list[PackedNames]) -> str | None:
        """Write the closest name of ``lists`` over tokens ``first..last``, or report them.

        The span is one name or a dotted chain, written by the module's
        quote rule. Returns the lower-case replacement, or None when the
        span stays.
        """
        tok, end = self.toks[first], self.toks[last].end
        if first < last:
            searched = ".".join(self.toks[k].value for k in range(first, last + 1, 2))
        elif tok.quote == '"':
            return None
        else:
            searched = tok.value
        pick = _best(searched.lower(), lists, self.referenced)
        if pick is None:
            self.unresolved.append((tok.start, searched))
            return None
        name, dist = pick
        text = {"`": f"`{name}`", "[": f"[{name}]"}.get(tok.quote, name) if first == last else name
        self.subs.append(Substitution(self.sql[tok.start:end], text, dist, tok.start))
        return name.lower()

    def report(self) -> tuple[str, CorrectionReport]:
        """The rewritten text, with substitutions and unresolved names in text order."""
        subs = sorted(self.subs, key=lambda s: s.position)
        out = self.sql
        for sub in reversed(subs):
            out = out[: sub.position] + sub.replacement + out[sub.position + len(sub.original):]
        unresolved = self.unresolved + _misspelled_keywords(self.toks, self.roles)
        names = tuple(name for _, name in sorted(unresolved))
        return out, CorrectionReport(tuple(subs), names)


def correct_identifiers(sql: str, db: DatabaseSchema) -> tuple[str, CorrectionReport]:
    """Repair table and column tokens in ``sql`` against ``db``.

    Returns the rewritten SQL and a report of the edits applied (see
    ``Substitution``) plus names that stayed unresolved, both in text
    order. Text that cannot be tokenized comes back unchanged with an
    empty report. Applying the function to its own output is a fixed
    point.
    """
    rep = _Repair(sql)
    toks, roles, referenced = rep.toks, rep.roles, rep.referenced
    table_canon = db.table_names
    cols_by_table = db.columns_by_table

    def table_at(idx: int) -> str:
        """The lower-case name a FROM table or qualifier token stands for."""
        low = toks[idx].lower
        if low not in table_canon and low not in roles.cte_names:
            low = rep.substitute(idx, idx, [db.packed_tables]) or low
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
        tables = sorted(within or cols_by_table)
        if not any(low in cols_by_table[t] for t in tables):
            rep.substitute(idx, idx, [db.packed_columns[t] for t in tables])

    return rep.report()


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
    rep = _Repair(sql)
    toks, roles = rep.toks, rep.roles
    virtual_low = simplified.name.lower()
    for idx in roles.tables:
        if toks[idx].lower != virtual_low and toks[idx].lower not in roles.cte_names:
            rep.substitute(idx, idx, [simplified.packed_name])
    for first, last in roles.chains:
        if simplified.lookup(toks[last - 2].value + "." + toks[last].value) is None:
            rep.substitute(first, last, [simplified.packed_entries])
    return rep.report()
