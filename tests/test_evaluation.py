import json
import os
import random
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from unjoin.evaluation import (
    COMPARISON_SEMANTICS,
    NUMERIC_ABS_TOL,
    OK,
    RUNTIME_ERROR,
    TIMEOUT,
    EvalRecord,
    ExecOutcome,
    bucket_by_table_count,
    build_summary,
    compare_results,
    execute,
    has_top_level_order_by,
    precision_recall,
    read_records,
    score_run,
    write_bucket_csv,
    write_records,
    write_summary,
)
from unjoin.dataset import METHODS, RunConfig, filter_items, load_dataset
from unjoin.llm import ExchangeCache, LlmClient
from unjoin.pipeline import run_evaluation
from unjoin.tokens import IDENT, OP, TokenizeError, tokenize

from conftest import ORACLE_MODEL, RETAIL_ROWS, create_sqlite, retail_schema
from oracles import naive_buckets, naive_precision_recall, naive_score


def ok(*rows):
    return ExecOutcome(status=OK, rows=tuple(rows))


def make_record(i=0, qe=True, em=True, tp=1.0, tr=1.0, cp=1.0, cr=1.0, count=2):
    return EvalRecord(
        item_id=f"db:{i}",
        method="unjoin-sp",
        db_id="db",
        question=f"q{i}",
        gold_sql="SELECT 1",
        prediction={"final_sql": "SELECT 1"},
        gold_exec=ok((1,)),
        pred_exec=ok((1,)) if qe else None,
        qe=qe,
        em=em,
        gold_tables=("a", "b"),
        gold_columns=("a.x",),
        pred_tables=("a",),
        pred_columns=("a.x",),
        table_precision=tp,
        table_recall=tr,
        column_precision=cp,
        column_recall=cr,
        gold_table_count=count,
    )


# ----- execution -----


def test_execute_ok(retail_sqlite):
    out = execute("SELECT count(*) FROM customer", retail_sqlite)
    assert out.status == OK
    assert out.rows == ((5,),)
    assert out.error is None
    assert out.wall_time_s >= 0.0


def test_execute_runtime_error(retail_sqlite):
    out = execute("SELECT missing_col FROM customer", retail_sqlite)
    assert out.status == RUNTIME_ERROR
    assert out.rows is None
    assert "missing_col" in out.error


def test_execute_timeout(retail_sqlite):
    out = execute(
        "WITH RECURSIVE r(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM r) "
        "SELECT count(*) FROM r",
        retail_sqlite,
        timeout_s=0.05,
    )
    assert out.status == TIMEOUT


def test_execute_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        execute("SELECT 1", tmp_path / "nope.sqlite")


def test_execute_cannot_modify_database(retail_sqlite):
    before = retail_sqlite.read_bytes()
    out = execute("INSERT INTO customer VALUES (99, 'X', 'F', 1)", retail_sqlite)
    assert out.status == RUNTIME_ERROR
    assert retail_sqlite.read_bytes() == before
    with sqlite3.connect(retail_sqlite) as con:
        assert con.execute("SELECT count(*) FROM customer").fetchone() == (5,)


def test_rows_are_fully_materialized_tuples(retail_sqlite):
    out = execute("SELECT name, gender FROM customer ORDER BY customer_id", retail_sqlite)
    assert isinstance(out.rows, tuple)
    assert all(isinstance(r, tuple) for r in out.rows)
    assert out.rows[0] == ("Alice", "F")


def _fresh(sql, db_file):
    """What a new read-only connection returns: (status, rows, error)."""
    con = sqlite3.connect(f"file:{db_file}?mode=ro", uri=True)
    try:
        return OK, tuple(con.execute(sql).fetchall()), None
    except sqlite3.Error as exc:
        return RUNTIME_ERROR, None, str(exc)
    finally:
        con.close()


def _seen(out):
    return out.status, out.rows, out.error


# (statement that leaves state on a connection, query that shows it)
_STATEFUL = [
    ("CREATE TEMP TABLE customer AS SELECT 2, 'Bob'", "SELECT count(*) FROM customer"),
    ("PRAGMA case_sensitive_like=1", "SELECT count(*) FROM customer WHERE name LIKE 'alice'"),
    ("BEGIN", "BEGIN"),
    ("ATTACH ':memory:' AS m", "ATTACH ':memory:' AS m"),
]


@pytest.mark.parametrize("statement, probe", _STATEFUL, ids=["temp-table", "pragma", "begin", "attach"])
def test_state_left_by_one_query_never_reaches_the_next(retail_sqlite, statement, probe):
    assert execute(statement, retail_sqlite).status == OK
    assert _seen(execute(probe, retail_sqlite)) == _fresh(probe, retail_sqlite)
    assert execute("SELECT count(*) FROM customer", retail_sqlite).rows == ((5,),)


def test_rewritten_database_file_is_read_again(tmp_path):
    path = tmp_path / "retail.sqlite"
    create_sqlite(path, retail_schema(), RETAIL_ROWS)
    assert execute("SELECT count(*) FROM customer", path).rows == ((5,),)
    path.unlink()
    create_sqlite(path, retail_schema(), {"customer": RETAIL_ROWS["customer"][:2]})
    assert execute("SELECT count(*) FROM customer", path).rows == ((2,),)
    replacement = tmp_path / "other.sqlite"
    create_sqlite(replacement, retail_schema(), {"customer": RETAIL_ROWS["customer"][:3]})
    os.replace(replacement, path)
    assert execute("SELECT count(*) FROM customer", path).rows == ((3,),)


def test_call_after_a_timeout_runs_normally(retail_sqlite):
    endless = "WITH RECURSIVE r(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM r) SELECT count(*) FROM r"
    assert execute(endless, retail_sqlite, timeout_s=0.05).status == TIMEOUT
    assert execute("SELECT count(*) FROM customer", retail_sqlite, timeout_s=5.0).rows == ((5,),)


def test_deleted_database_file_is_reported_missing(tmp_path):
    path = tmp_path / "retail.sqlite"
    create_sqlite(path, retail_schema(), RETAIL_ROWS)
    assert execute("SELECT 1", path).status == OK
    path.unlink()
    with pytest.raises(FileNotFoundError):
        execute("SELECT 1", path)


@pytest.mark.parametrize("method", METHODS)
def test_replayed_records_do_not_depend_on_workers(
        method, mini_spider_root, oracle_cache_dir, tmp_path):
    bundle = load_dataset(mini_spider_root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    blobs, metas = [], []
    for workers in (4, 1):
        config = RunConfig(dataset="spider", root=str(mini_spider_root), method=method,
                           model=ORACLE_MODEL, cache_mode="replay",
                           cache_dir=str(oracle_cache_dir), workers=workers)
        client = LlmClient(config.llm_config(), ExchangeCache(oracle_cache_dir))
        records, meta = run_evaluation(bundle, kept, config, client)
        path = tmp_path / f"records-{workers}.jsonl"
        write_records(records, path, meta)
        blobs.append(path.read_bytes())
        metas.append(meta)
    assert metas[0]["config"].pop("workers") == 4
    assert metas[1]["config"].pop("workers") == 1
    assert metas[0] == metas[1]
    # Past the _meta line (which names the worker count) the bytes match.
    assert blobs[0].split(b"\n", 1)[1] == blobs[1].split(b"\n", 1)[1]
    assert blobs[0].count(b"\n") == 26


def test_exec_outcome_row_invariant():
    with pytest.raises(ValueError):
        ExecOutcome(status=OK, rows=None)
    with pytest.raises(ValueError):
        ExecOutcome(status=RUNTIME_ERROR, rows=((1,),))


def test_exec_outcome_serialization_drops_wall_time():
    out = ExecOutcome(status=OK, rows=((1, "a"),), wall_time_s=1.25)
    raw = out.to_dict()
    assert "wall_time_s" not in raw
    back = ExecOutcome.from_dict(raw)
    assert back.rows == ((1, "a"),)
    assert back.wall_time_s == 0.0


# ----- ordering detection -----


def test_top_level_order_by_detected():
    assert has_top_level_order_by("SELECT a FROM t ORDER BY a")
    assert has_top_level_order_by("SELECT a FROM t UNION SELECT b FROM u ORDER BY 1")


def test_nested_order_by_ignored():
    assert not has_top_level_order_by(
        "SELECT x FROM (SELECT a AS x FROM t ORDER BY a LIMIT 3) AS d"
    )
    assert not has_top_level_order_by("SELECT a FROM t")


def _tokenizing_order_by(sql):
    """The order-by check with no substring shortcut: every string is tokenized."""
    depth = 0
    for tok in tokenize(sql):
        if tok.kind == OP and tok.value in ("(", ")"):
            depth = depth + 1 if tok.value == "(" else max(0, depth - 1)
        elif tok.kind == IDENT and depth == 0 and tok.lower == "order":
            return True
    return False


_SQL_PARTS = st.sampled_from([
    "SELECT", "a", "FROM", "t", "(", ")", ",", "ORDER", "order", "oRdEr", "BY", "orders",
    "border", "'order'", '"order"', "[order]", "-- order\n", "/* ORDER */", "LIMIT 1",
    "UNION", "'unterminated", "x.order_id",
])


@settings(max_examples=300)
@given(st.lists(_SQL_PARTS, max_size=12))
def test_order_by_shortcut_matches_tokenizing_path(parts):
    sql = " ".join(parts)
    try:
        expected = _tokenizing_order_by(sql)
    except TokenizeError:
        if "order" in sql.lower():
            with pytest.raises(TokenizeError):
                has_top_level_order_by(sql)
        else:
            assert has_top_level_order_by(sql) is False
        return
    assert has_top_level_order_by(sql) == expected


# ----- result comparison -----


def test_multiset_comparison_ignores_row_order():
    a = ok((1, "a"), (2, "b"))
    b = ok((2, "b"), (1, "a"))
    assert compare_results(a, b, gold_has_order_by=False)
    assert not compare_results(a, b, gold_has_order_by=True)


def test_ordered_comparison_respects_sequence():
    a = ok((1,), (2,))
    b = ok((1,), (2,))
    assert compare_results(a, b, gold_has_order_by=True)


def test_duplicates_are_multiset_sensitive():
    a = ok((1,), (1,), (2,))
    b = ok((1,), (2,), (2,))
    assert not compare_results(a, b, gold_has_order_by=False)


def test_numeric_tolerance():
    assert compare_results(ok((1.0,)), ok((1.0 + 1e-9,)), False)
    assert not compare_results(ok((1.0,)), ok((1.0 + 1e-3,)), False)
    assert compare_results(ok((1,)), ok((1.0,)), False)


def test_text_rstrip_but_case_sensitive():
    assert compare_results(ok(("a ",)), ok(("a",)), False)
    assert not compare_results(ok(("A",)), ok(("a",)), False)


def test_null_equals_null_only():
    assert compare_results(ok((None,)), ok((None,)), False)
    assert not compare_results(ok((None,)), ok((0,)), False)
    assert not compare_results(ok(("",)), ok((None,)), False)


def test_text_never_equals_number():
    assert not compare_results(ok(("1",)), ok((1,)), False)


def test_failed_executions_never_match():
    err = ExecOutcome(status=RUNTIME_ERROR, error="x")
    assert not compare_results(err, ok((1,)), False)
    assert not compare_results(ok((1,)), err, False)


def test_different_lengths_never_match():
    assert not compare_results(ok((1,)), ok((1,), (1,)), False)


_value = st.one_of(
    st.none(),
    st.integers(min_value=-3, max_value=3),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=32),
    st.sampled_from(["a", "b", "a ", "B"]),
)
_rows = st.lists(st.tuples(_value, _value), min_size=0, max_size=4)


@settings(max_examples=150)
@given(_rows, _rows, st.booleans())
def test_comparison_is_symmetric(rows_a, rows_b, ordered):
    a, b = ok(*rows_a), ok(*rows_b)
    assert compare_results(a, b, ordered) == compare_results(b, a, ordered)


@settings(max_examples=100)
@given(_rows, st.randoms(use_true_random=False))
def test_unordered_comparison_invariant_to_permutation(rows, rng):
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert compare_results(ok(*rows), ok(*shuffled), gold_has_order_by=False)


# ----- precision / recall -----


def test_precision_recall_conventions():
    assert precision_recall(frozenset(), frozenset()) == (1.0, 1.0)
    assert precision_recall(frozenset(), frozenset({"g"})) == (0.0, 0.0)
    assert precision_recall(frozenset({"p"}), frozenset()) == (0.0, 1.0)
    assert precision_recall(frozenset({"a", "b"}), frozenset({"b", "c"})) == (0.5, 0.5)


_items = st.frozensets(st.sampled_from("abcdef"), max_size=5)


@given(_items, _items)
def test_precision_recall_matches_naive_oracle(pred, gold):
    assert precision_recall(pred, gold) == naive_precision_recall(pred, gold)


# ----- records and summaries -----


def test_em_implies_qe_enforced():
    with pytest.raises(ValueError):
        make_record(qe=False, em=True)


def test_record_roundtrip():
    rec = make_record(qe=False, em=False)
    back = EvalRecord.from_dict(rec.to_dict())
    assert back == rec
    assert back.pred_exec is None


def seeded_records(n=50, seed=7):
    rng = random.Random(seed)
    records = []
    for i in range(n):
        qe = rng.random() < 0.8
        em = qe and rng.random() < 0.7
        records.append(
            make_record(
                i=i,
                qe=qe,
                em=em,
                tp=rng.choice([0.0, 0.5, 2 / 3, 1.0]),
                tr=rng.choice([0.0, 0.5, 2 / 3, 1.0]),
                cp=rng.choice([0.0, 0.25, 0.75, 1.0]),
                cr=rng.choice([0.0, 0.25, 0.75, 1.0]),
                count=rng.choice([2, 2, 3, 3, 4, 5, 6, 8]),
            )
        )
    return records


def test_score_run_matches_naive_oracle():
    records = seeded_records()
    assert score_run(records) == naive_score(records)


def test_bucket_matches_naive_oracle():
    records = seeded_records()
    assert bucket_by_table_count(records) == naive_buckets(records)


def test_bucket_labels_and_order():
    records = [make_record(i=i, count=c) for i, c in enumerate([6, 2, 5, 3, 4, 2, 9])]
    labels = [row["bucket"] for row in bucket_by_table_count(records)]
    assert labels == ["2", "3", "4", "5+"]
    five_plus = bucket_by_table_count(records)[-1]
    assert five_plus["n"] == 3


def test_score_empty_rejected():
    with pytest.raises(ValueError):
        score_run([])


def test_write_and_read_records(tmp_path):
    records = seeded_records(n=5)
    meta = {"config": {"method": "unjoin-sp"}, "n_items": 5}
    path = tmp_path / "records.jsonl"
    write_records(records, path, meta)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6
    first = json.loads(lines[0])
    assert "_meta" in first
    got_meta, got_records = read_records(path)
    assert got_meta == meta
    assert got_records == records


def test_records_file_is_deterministic(tmp_path):
    records = seeded_records(n=8)
    meta = {"config": {"x": 1}}
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_records(records, a, meta)
    write_records(records, b, meta)
    assert a.read_bytes() == b.read_bytes()


def test_summary_built_only_from_meta_and_records(tmp_path):
    records = seeded_records(n=10)
    meta = {"config": {"m": 1}, "template_hashes": {"sp.txt": "h"},
            "comparison": COMPARISON_SEMANTICS, "n_items": 10}
    summary = build_summary(meta, records)
    assert summary["metrics"] == score_run(records)
    assert summary["buckets"] == bucket_by_table_count(records)
    assert summary["comparison"]["numeric_abs_tol"] == NUMERIC_ABS_TOL
    path = tmp_path / "summary.json"
    write_summary(summary, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text) == summary


def test_write_bucket_csv(tmp_path):
    rows = bucket_by_table_count(seeded_records(n=12))
    path = tmp_path / "buckets.csv"
    write_bucket_csv(rows, path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "bucket,n,table_recall,column_recall"
    assert len(lines) == len(rows) + 1
