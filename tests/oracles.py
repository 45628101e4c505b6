"""Independent reference implementations used to cross-check metrics.

Everything here is written the slow, obvious way on purpose: plain loops
and a recursive edit distance, sharing no code with the package. The
banded edit distance is the package's former row-by-row implementation,
kept as a second, differently built oracle for the bit-vector one.
"""

from functools import lru_cache


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
