"""Independent reference implementations used to cross-check metrics.

Everything here is written the slow, obvious way on purpose: plain loops
and a recursive edit distance, sharing no code with the package.
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
