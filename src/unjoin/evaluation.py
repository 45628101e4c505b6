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

from .sqlast import SelectBlock, SelectStatement

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

    def __post_init__(self):
        if (self.status == OK) != (self.rows is not None):
            raise ValueError("rows must be present exactly when status is ok")

    def to_dict(self) -> dict:
        """JSON-ready form; a BLOB value is written as ``{"blob": "<hex>"}``."""
        out = {"status": self.status}
        if self.rows is not None:
            out["rows"] = [
                [{"blob": v.hex()} if isinstance(v, bytes) else v for v in r] for r in self.rows
            ]
        if self.error is not None:
            out["error"] = self.error
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExecOutcome":
        rows = raw.get("rows")
        if rows is not None:
            # SQLite values are never JSON objects, so an object is a BLOB.
            rows = tuple(
                tuple(bytes.fromhex(v["blob"]) if isinstance(v, dict) else v for v in r)
                for r in rows
            )
        return cls(status=raw["status"], rows=rows, error=raw.get("error"))


# Authorizer actions a plain query needs. Anything else (a TEMP table,
# a PRAGMA, BEGIN, ATTACH, ...) may leave state on the connection.
_READ_ACTIONS = frozenset(
    (sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE)
)

class HeldConnections:
    """One run's read-only connections, one per thread, all closed by ``close``."""

    def __init__(self):
        # Thread ident -> (key, connection, flagged actions); a thread touches only its own.
        self._by_thread: dict[int, tuple] = {}

    def connection(self, path: Path) -> tuple[sqlite3.Connection, list]:
        """The calling thread's connection to ``path``; a replaced or rewritten file is reopened."""
        try:
            st = path.stat()
        except FileNotFoundError:
            raise FileNotFoundError(f"database file not found: {path}") from None
        key = (str(path), st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size)
        held = self._by_thread.get(threading.get_ident())
        if held is not None and held[0] == key:
            return held[1], held[2]
        self.drop()
        uri = "file:" + urllib.parse.quote(str(path.resolve()), safe="/") + "?mode=ro"
        # ``close`` may run on another thread than the one that opened the
        # connection; only the opening thread ever uses it.
        con = sqlite3.connect(uri, uri=True, check_same_thread=False)
        flagged: list = []

        def _authorize(action, *_):
            if action not in _READ_ACTIONS:
                flagged.append(action)
            return sqlite3.SQLITE_OK

        con.set_authorizer(_authorize)
        self._by_thread[threading.get_ident()] = (key, con, flagged)
        return con, flagged

    def drop(self) -> None:
        """Close the calling thread's connection, if it holds one."""
        held = self._by_thread.pop(threading.get_ident(), None)
        if held is not None:
            held[1].close()

    def close(self) -> None:
        """Close every connection; call once no thread uses them."""
        while self._by_thread:
            self._by_thread.popitem()[1][1].close()


def execute(
    sql: str, db_file: str | Path, timeout_s: float = 30.0, held: HeldConnections | None = None
) -> ExecOutcome:
    """Run one statement read-only and materialize all rows.

    A query still running at the deadline is interrupted and reported
    with status timeout, which counts against QE.

    With ``held``, the statement runs on the calling thread's connection
    in it; without, on a connection opened for this call and closed
    before it returns. A statement that does anything but read (creates
    a TEMP table, sets a PRAGMA, opens a transaction, attaches a
    database) still runs as on a fresh connection, but the connection is
    closed afterwards, so no query sees state another one left. A file
    SQLite cannot open gives a runtime error.
    """
    owner = HeldConnections() if held is None else held
    try:
        con, flagged = owner.connection(Path(db_file))
    except sqlite3.Error as exc:
        return ExecOutcome(status=RUNTIME_ERROR, error=str(exc))
    deadline = time.monotonic() + timeout_s
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
        return ExecOutcome(status=status, error=str(exc))
    finally:
        if held is None or flagged or con.in_transaction:
            owner.drop()
    return ExecOutcome(status=OK, rows=tuple(rows))


def has_top_level_order_by(stmt: SelectStatement) -> bool:
    """Whether a top-level select block of ``stmt`` has its own ORDER BY.

    A parenthesized compound operand, a CTE body and a subquery do not count.
    """
    return any(isinstance(b, SelectBlock) and b.ordered for b in stmt.blocks)


# ----- result comparison -----


def _key(v) -> tuple:
    if v is None:
        return (0,)
    if isinstance(v, (int, float)):
        return (1, float(v))
    if isinstance(v, str):
        return (2, v.rstrip())
    return (3, v)


def _rows_match(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(
        x == y or (x[0] == y[0] == 1 and abs(x[1] - y[1]) <= NUMERIC_ABS_TOL)
        for x, y in zip(a, b)
    )


def compare_results(gold: ExecOutcome, pred: ExecOutcome, gold_has_order_by: bool) -> bool:
    """Whether the prediction's rows match the gold's, as ``COMPARISON_SEMANTICS`` states.

    Each value maps once to the key it is both sorted and compared by:
    NULL first, then a number as a float, then text with trailing
    whitespace trimmed, then a blob. So NULL equals only NULL, text
    never equals a number, and text compares case-sensitively. Two rows
    match when their keys are equal, or differ only in numbers within
    ``NUMERIC_ABS_TOL``. When the gold orders its rows they match as a
    sequence; otherwise both sides are sorted by key first, so they
    match as a multiset, duplicates counted. A failed execution on
    either side never matches.
    """
    if gold.status != OK or pred.status != OK or len(gold.rows) != len(pred.rows):
        return False
    gkeys = [tuple(map(_key, row)) for row in gold.rows]
    pkeys = [tuple(map(_key, row)) for row in pred.rows]
    if not gold_has_order_by:
        gkeys.sort()
        pkeys.sort()
    return all(map(_rows_match, gkeys, pkeys))


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
    """Read a records file as ``write_records`` writes it; blank lines are skipped.

    A line that is not JSON, not an object, or lacks a record's fields
    raises ``ValueError`` naming the file and the line.
    """
    meta: dict = {}
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                if not isinstance(raw, dict):
                    raise TypeError("not a JSON object")
                if "_meta" in raw and "item_id" not in raw:
                    meta = raw["_meta"]
                    if not isinstance(meta, dict):
                        raise TypeError("_meta is not a JSON object")
                    continue
                records.append(EvalRecord.from_dict(raw))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path} line {lineno} is not a record: {type(exc).__name__}: {exc}"
                ) from exc
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
