"""Independent reference implementations used to cross-check metrics.

Everything here is written the slow, obvious way on purpose: plain loops
and a recursive edit distance, sharing no code with the package. The
banded edit distance is the package's former row-by-row implementation,
kept as a second, differently built oracle for the bit-vector one.
``slow_tokenize`` is the package's former tokenizer, which built each
token as a frozen dataclass and lowered its text on every read; it
follows the same name rule (every character above U+007F is a name
character), so the differential test compares token boundaries too.
It has since gained the package's blob-literal rule: ``x'..'`` is one
string token.
Like the package's, it reads an unterminated block comment to the end
of the text, as SQLite does. ``tokenizing_order_by`` is the package's
former test for a gold query that orders its rows, a paren-depth scan
for an ORDER token, run on ``slow_tokenize``; the parser's flag is
compared against it.

``per_item_filter`` is the one oracle that calls into the package: it is
the former ``filter_items`` loop, which ran ``extract_refs`` on every
item's gold, with the same rule for a gold that names a table its
database lacks. Against it, the package's filter shows that resolving
each distinct gold text once, and sharing its table set among the items
that carry it, changes no kept item, drop reason or warning.
"""

import logging
from dataclasses import dataclass, replace
from functools import lru_cache

from unjoin.sqlref import extract_refs

log = logging.getLogger(__name__)


def naive_precision_recall(pred: frozenset, gold: frozenset) -> tuple[float, float]:
    if not pred:
        precision = 1.0 if not gold else 0.0
    else:
        hits = 0
        for p in pred:
            if p in gold:
                hits += 1
        precision = hits / len(pred)
    if not gold:
        recall = 1.0
    else:
        hits = 0
        for g in gold:
            if g in pred:
                hits += 1
        recall = hits / len(gold)
    return precision, recall


def naive_score(records) -> dict:
    n = len(records)
    qe = em = 0
    tp = tr = cp = cr = 0.0
    for r in records:
        if r.qe:
            qe += 1
        if r.em:
            em += 1
        tp += r.table_precision
        tr += r.table_recall
        cp += r.column_precision
        cr += r.column_recall
    if n == 0:
        return {"n": 0, "qe": 0.0, "em": 0.0, "table_precision": 0.0,
                "table_recall": 0.0, "column_precision": 0.0, "column_recall": 0.0}
    return {
        "n": n,
        "qe": round(100.0 * qe / n, 2),
        "em": round(100.0 * em / n, 2),
        "table_precision": round(100.0 * tp / n, 2),
        "table_recall": round(100.0 * tr / n, 2),
        "column_precision": round(100.0 * cp / n, 2),
        "column_recall": round(100.0 * cr / n, 2),
    }


def naive_buckets(records) -> list[dict]:
    groups: dict[str, list] = {}
    for r in records:
        label = str(r.gold_table_count) if r.gold_table_count < 5 else "5+"
        groups.setdefault(label, []).append(r)
    rows = []
    for label in sorted(groups, key=lambda s: 99 if s == "5+" else int(s)):
        members = groups[label]
        tr = sum(m.table_recall for m in members) / len(members)
        cr = sum(m.column_recall for m in members) / len(members)
        rows.append({
            "bucket": label,
            "n": len(members),
            "table_recall": round(100.0 * tr, 2),
            "column_recall": round(100.0 * cr, 2),
        })
    return rows


def slow_levenshtein(a: str, b: str) -> int:
    @lru_cache(maxsize=None)
    def d(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        return min(d(i - 1, j) + 1, d(i, j - 1) + 1, d(i - 1, j - 1) + cost)

    return d(len(a), len(b))


def banded_levenshtein(a: str, b: str, bound: int | None = None) -> int:
    """Edit distance by a row-by-row DP over the band ``|i - j| <= bound``.

    Exact when ``bound`` is None; otherwise exact when at most ``bound``
    and ``bound + 1`` otherwise, giving up once a whole row exceeds it.
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


def slow_best(token: str, candidates) -> tuple[str, int] | None:
    """Exhaustive closest-candidate search over (lower, canonical, referenced).

    Every candidate gets the full recursive edit distance; the eligible
    one with the smallest (distance, not referenced, lower) key wins,
    and the first of equal keys is kept.
    """
    scored = []
    for lower, canonical, referenced in candidates:
        dist = slow_levenshtein(token, lower)
        threshold = max(2, -(-2 * len(lower) // 5))  # ceil(0.4 * len)
        if dist <= threshold:
            scored.append(((dist, not referenced, lower), canonical))
    if not scored:
        return None
    winner = scored[0]
    for entry in scored[1:]:
        if entry[0] < winner[0]:
            winner = entry
    return winner[1], winner[0][0]


# ----- the former tokenizer, kept as a reference -----

IDENT = "ident"
QIDENT = "qident"
STRING = "string"
NUMBER = "number"
OP = "op"

_WORD_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_WORD_CHARS = _WORD_START | frozenset("0123456789$")
_DIGITS = frozenset("0123456789")
_TWO_CHAR_OPS = ("<>", "!=", ">=", "<=", "||", "==")


class SlowTokenizeError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


@dataclass(frozen=True)
class SlowToken:
    kind: str
    value: str  # unquoted text for QIDENT, raw text otherwise
    start: int
    end: int
    quote: str = ""  # opening quote character for QIDENT tokens

    @property
    def lower(self) -> str:
        return self.value.lower()

    def is_keyword(self, *names: str) -> bool:
        return self.kind == IDENT and self.value.lower() in names


_CLOSERS = {'"': '"', "`": "`", "[": "]", "'": "'"}


def _scan_quoted(text: str, i: int) -> tuple[str, int]:
    """Scan a quoted region starting at ``i``; return (inner text, end index).

    Doubled closing quotes escape themselves, per SQL convention.
    """
    opener = text[i]
    closer = _CLOSERS[opener]
    j = i + 1
    parts = []
    n = len(text)
    while j < n:
        ch = text[j]
        if ch == closer:
            if opener != "[" and j + 1 < n and text[j + 1] == closer:
                parts.append(closer)
                j += 2
                continue
            return "".join(parts), j + 1
        parts.append(ch)
        j += 1
    raise SlowTokenizeError(f"unterminated {opener!r} quote", i)


def slow_tokenize(sql: str) -> list[SlowToken]:
    tokens: list[SlowToken] = []
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
        if ch == "'":
            value, end = _scan_quoted(sql, i)
            tokens.append(SlowToken(STRING, value, i, end))
            i = end
            continue
        if ch in ('"', "`", "["):
            value, end = _scan_quoted(sql, i)
            tokens.append(SlowToken(QIDENT, value, i, end, quote=ch))
            i = end
            continue
        if ch in ("x", "X") and i + 1 < n and sql[i + 1] == "'":
            value, end = _scan_quoted(sql, i + 1)
            tokens.append(SlowToken(STRING, value, i, end))
            i = end
            continue
        if ch in _WORD_START or ch > "\x7f":
            j = i + 1
            while j < n and (sql[j] in _WORD_CHARS or sql[j] > "\x7f"):
                j += 1
            tokens.append(SlowToken(IDENT, sql[i:j], i, j))
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
            tokens.append(SlowToken(NUMBER, sql[i:j], i, j))
            i = j
            continue
        two = sql[i : i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(SlowToken(OP, two, i, i + 2))
            i += 2
            continue
        tokens.append(SlowToken(OP, ch, i, i + 1))
        i += 1
    return tokens


def tokenizing_order_by(sql: str) -> bool:
    """Whether an ORDER token stands outside every parenthesis."""
    depth = 0
    for tok in slow_tokenize(sql):
        if tok.kind == OP and tok.value in ("(", ")"):
            depth = depth + 1 if tok.value == "(" else max(0, depth - 1)
        elif tok.kind == IDENT and depth == 0 and tok.lower == "order":
            return True
    return False


def per_item_filter(items, catalogue):
    """The former ``filter_items``: every item's gold parsed on its own."""
    kept = []
    dropped = []
    for item in items:
        db = catalogue.get(item.db_id)
        if db is None:
            dropped.append((item, f"unknown database {item.db_id!r}"))
            log.warning("dropping %s: unknown database %s", item.item_id, item.db_id)
            continue
        if not item.gold_sql:
            dropped.append((item, "missing gold SQL"))
            log.warning("dropping %s: missing gold SQL", item.item_id)
            continue
        if not item.question.strip():
            dropped.append((item, "missing question"))
            log.warning("dropping %s: missing question", item.item_id)
            continue
        try:
            refs = extract_refs(item.gold_sql, db)
        except ValueError as exc:
            dropped.append((item, f"unparseable gold SQL: {exc}"))
            log.warning("dropping %s: unparseable gold SQL: %s", item.item_id, exc)
            continue
        lacking = sorted(t for t in refs.tables if t not in db.table_names)
        if lacking:
            reason = f"gold names tables its database lacks: {', '.join(lacking)}"
            dropped.append((item, reason))
            log.warning("dropping %s: %s", item.item_id, reason)
            continue
        count = len(refs.tables)
        if count < 2:
            dropped.append((item, "single-table query"))
            continue
        kept.append(replace(item, gold_table_count=count))
    return kept, dropped
