"""SQLite execution and benchmark metrics.

QE counts predictions that execute without a runtime error; EM counts
those whose result matches the gold answer. EM is a subset of QE by
construction. Result comparison treats rows as a multiset unless the
gold query orders its output, compares numbers within an absolute
tolerance of 1e-6, trims trailing whitespace from text, and lets NULL
equal only NULL. Those semantics are recorded in run metadata so every
report is self-describing.

Schema-linking quality is measured per query: precision and recall of
the predicted table and column sets against the gold sets, macro
averaged. Bucketing by gold table count yields the plot-ready series
for accuracy versus join width.
"""

from __future__ import annotations

import csv
import json
import sqlite3
import threading
import time
import urllib.parse
from dataclasses import dataclass, fields
from pathlib import Path

OK = "ok"
RUNTIME_ERROR = "runtime_error"
TIMEOUT = "timeout"

NUMERIC_ABS_TOL = 1e-6

COMPARISON_SEMANTICS = {
    "rows": "multiset unless gold has top-level ORDER BY, then sequence",
    "numeric_abs_tol": NUMERIC_ABS_TOL,
    "text": "case-sensitive, trailing whitespace trimmed",
    "null": "equals only null",
    "duplicates": "significant (multiset)",
}


@dataclass(frozen=True)
class ExecOutcome:
    status: str
    rows: tuple[tuple, ...] | None = None
    error: str | None = None
    # Wall time is diagnostic only; it is deliberately not serialized so
    # replayed runs stay byte-identical.
    wall_time_s: float = 0.0

    def __post_init__(self):
        if (self.status == OK) != (self.rows is not None):
            raise ValueError("rows must be present exactly when status is ok")

    def to_dict(self) -> dict:
        out = {"status": self.status}
        if self.rows is not None:
            out["rows"] = [list(r) for r in self.rows]
        if self.error is not None:
            out["error"] = self.error
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExecOutcome":
        rows = raw.get("rows")
        return cls(
            status=raw["status"],
            rows=tuple(tuple(r) for r in rows) if rows is not None else None,
            error=raw.get("error"),
        )


# Authorizer actions a plain query needs. Anything else (a TEMP table,
# a PRAGMA, BEGIN, ATTACH, ...) may leave state on the connection.
_READ_ACTIONS = frozenset(
    (sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE)
)

# Each thread holds one connection: (key, connection, flagged actions).
_held = threading.local()


def _drop_held() -> None:
    held = getattr(_held, "entry", None)
    _held.entry = None
    if held is not None:
        held[1].close()


def _held_connection(path: Path) -> tuple[sqlite3.Connection, list]:
    try:
        st = path.stat()
    except FileNotFoundError:
        raise FileNotFoundError(f"database file not found: {path}") from None
    key = (str(path), st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size)
    held = getattr(_held, "entry", None)
    if held is not None and held[0] == key:
        return held[1], held[2]
    _drop_held()
    uri = "file:" + urllib.parse.quote(str(path.resolve()), safe="/") + "?mode=ro"
    con = sqlite3.connect(uri, uri=True)
    flagged: list = []

    def _authorize(action, *_):
        if action not in _READ_ACTIONS:
            flagged.append(action)
        return sqlite3.SQLITE_OK

    con.set_authorizer(_authorize)
    _held.entry = (key, con, flagged)
    return con, flagged


def execute(sql: str, db_file: str | Path, timeout_s: float = 30.0) -> ExecOutcome:
    """Run one statement read-only and materialize all rows.

    A query still running at the deadline is interrupted and reported
    with status timeout, which counts against QE.

    Each thread holds one ``mode=ro`` connection, keyed by the path and
    the file's device, inode, mtime and size, so a replaced or rewritten
    file is opened afresh. A statement that does anything but read
    (creates a TEMP table, sets a PRAGMA, opens a transaction, attaches
    a database) still runs as on a fresh connection, but the connection
    is closed afterwards, so no query sees state another one left.
    """
    con, flagged = _held_connection(Path(db_file))
    started = time.monotonic()
    deadline = started + timeout_s
    timed_out = []

    def _tick():
        if time.monotonic() > deadline:
            timed_out.append(True)
            return 1
        return 0

    con.set_progress_handler(_tick, 10_000)
    try:
        rows = con.execute(sql).fetchall()
    except sqlite3.Error as exc:
        status = TIMEOUT if timed_out else RUNTIME_ERROR
        return ExecOutcome(status=status, error=str(exc), wall_time_s=time.monotonic() - started)
    finally:
        if flagged or con.in_transaction:
            _drop_held()
    return ExecOutcome(status=OK, rows=tuple(rows), wall_time_s=time.monotonic() - started)


def has_top_level_order_by(sql: str) -> bool:
    """ORDER BY outside any parenthesized subquery.

    Without the substring "order" there is no ORDER token, so such a
    string returns False untokenized (even one the tokenizer rejects).
    """
    if "order" not in sql.lower():
        return False
    from .tokens import IDENT, OP, tokenize

    depth = 0
    for tok in tokenize(sql):
        if tok.kind == OP:
            if tok.value == "(":
                depth += 1
            elif tok.value == ")":
                depth = max(0, depth - 1)
        elif tok.kind == IDENT and depth == 0 and tok.lower == "order":
            return True
    return False


# ----- result comparison -----


def _value_key(v):
    if v is None:
        return (0, "")
    if isinstance(v, bool):
        return (1, float(v))
    if isinstance(v, (int, float)):
        return (1, float(v))
    if isinstance(v, str):
        return (2, v)
    if isinstance(v, bytes):
        return (3, v.hex())
    return (4, repr(v))


def _row_key(row):
    return tuple(_value_key(v) for v in row)


def _values_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if a_num and b_num:
        return abs(float(a) - float(b)) <= NUMERIC_ABS_TOL
    if isinstance(a, str) and isinstance(b, str):
        return a.rstrip() == b.rstrip()
    if type(a) is not type(b):
        return False
    return a == b


def _rows_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(_values_equal(x, y) for x, y in zip(a, b))


def compare_results(gold: ExecOutcome, pred: ExecOutcome, gold_has_order_by: bool) -> bool:
    if gold.status != OK or pred.status != OK:
        return False
    grows = list(gold.rows)
    prows = list(pred.rows)
    if len(grows) != len(prows):
        return False
    if not gold_has_order_by:
        grows.sort(key=_row_key)
        prows.sort(key=_row_key)
    return all(_rows_equal(a, b) for a, b in zip(grows, prows))


# ----- per-query scoring -----


def precision_recall(pred: frozenset, gold: frozenset) -> tuple[float, float]:
    inter = len(pred & gold)
    if pred:
        precision = inter / len(pred)
    else:
        precision = 1.0 if not gold else 0.0
    recall = inter / len(gold) if gold else 1.0
    return precision, recall


# EvalRecord fields held as tuples and written as JSON lists.
_TUPLE_FIELDS = ("gold_tables", "gold_columns", "pred_tables", "pred_columns")


@dataclass(frozen=True)
class EvalRecord:
    item_id: str
    method: str
    db_id: str
    question: str
    gold_sql: str
    prediction: dict
    gold_exec: ExecOutcome
    pred_exec: ExecOutcome | None
    qe: bool
    em: bool
    gold_tables: tuple[str, ...]
    gold_columns: tuple[str, ...]
    pred_tables: tuple[str, ...]
    pred_columns: tuple[str, ...]
    table_precision: float
    table_recall: float
    column_precision: float
    column_recall: float
    gold_table_count: int

    def __post_init__(self):
        if self.em and not self.qe:
            raise ValueError("em implies qe")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, ExecOutcome):
                value = value.to_dict()
            elif f.name in _TUPLE_FIELDS:
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "EvalRecord":
        values = {f.name: raw[f.name] for f in fields(cls) if f.name != "pred_exec"}
        values["gold_exec"] = ExecOutcome.from_dict(values["gold_exec"])
        pred_exec = raw.get("pred_exec")
        values["pred_exec"] = ExecOutcome.from_dict(pred_exec) if pred_exec else None
        for name in _TUPLE_FIELDS:
            values[name] = tuple(values[name])
        return cls(**values)


def score_run(records: list[EvalRecord]) -> dict:
    """Macro-averaged run summary, all values in percent to two decimals."""
    if not records:
        raise ValueError("cannot score an empty record set")
    n = len(records)

    def pct(total: float) -> float:
        return round(100.0 * total / n, 2)

    return {
        "n": n,
        "qe": pct(sum(1 for r in records if r.qe)),
        "em": pct(sum(1 for r in records if r.em)),
        "table_precision": pct(sum(r.table_precision for r in records)),
        "table_recall": pct(sum(r.table_recall for r in records)),
        "column_precision": pct(sum(r.column_precision for r in records)),
        "column_recall": pct(sum(r.column_recall for r in records)),
    }


def _bucket_label(count: int) -> str:
    return "5+" if count >= 5 else str(count)


def bucket_by_table_count(records: list[EvalRecord]) -> list[dict]:
    """Mean table/column recall per gold-table-count bucket (2, 3, 4, 5+)."""
    groups: dict[str, list[EvalRecord]] = {}
    for r in records:
        groups.setdefault(_bucket_label(r.gold_table_count), []).append(r)

    def order(label: str) -> float:
        return float("inf") if label == "5+" else float(label)

    rows = []
    for label in sorted(groups, key=order):
        members = groups[label]
        k = len(members)
        rows.append(
            {
                "bucket": label,
                "n": k,
                "table_recall": round(100.0 * sum(r.table_recall for r in members) / k, 2),
                "column_recall": round(100.0 * sum(r.column_recall for r in members) / k, 2),
            }
        )
    return rows


def build_summary(meta: dict, records: list[EvalRecord]) -> dict:
    """Self-describing run summary: config, provenance, metrics, buckets.

    Built purely from the records file contents, so re-scoring a records
    file reproduces the original summary byte for byte.
    """
    return {
        "config": meta.get("config", {}),
        "template_hashes": meta.get("template_hashes", {}),
        "comparison": meta.get("comparison", {}),
        "metrics": score_run(records),
        "buckets": bucket_by_table_count(records),
    }


# ----- report IO -----


def write_records(records: list[EvalRecord], path: str | Path, meta: dict) -> None:
    """JSON lines: a _meta object first, then one record per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"_meta": meta}, sort_keys=True, ensure_ascii=False) + "\n")
        for record in records:
            fh.write(json.dumps(record.to_dict(), sort_keys=True, ensure_ascii=False) + "\n")


def read_records(path: str | Path) -> tuple[dict, list[EvalRecord]]:
    meta: dict = {}
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            if "_meta" in raw and "item_id" not in raw:
                meta = raw["_meta"]
                continue
            records.append(EvalRecord.from_dict(raw))
    return meta, records


def write_summary(summary: dict, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_bucket_csv(rows: list[dict], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["bucket", "n", "table_recall", "column_recall"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
