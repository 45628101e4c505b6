import itertools
import json
import os
import random
import sqlite3
import time
from contextlib import closing
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from unjoin import evaluation
from unjoin.evaluation import (
    COMPARISON_SEMANTICS,
    NUMERIC_ABS_TOL,
    OK,
    RUNTIME_ERROR,
    TIMEOUT,
    EvalRecord,
    ExecOutcome,
    HeldConnections,
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
from unjoin.sqlast import SqlParseError, parse
from unjoin.tokens import IDENT, OP, TokenizeError, tokenize

from conftest import ORACLE_MODEL, RETAIL_ROWS, create_sqlite, retail_schema
from oracles import naive_buckets, naive_precision_recall, naive_score, tokenizing_order_by


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


def test_execute_file_sqlite_cannot_open_is_a_runtime_error(tmp_path):
    (tmp_path / "dir.sqlite").mkdir()  # a directory where the database belongs
    for held in (None, HeldConnections()):
        out = execute("SELECT 1", tmp_path / "dir.sqlite", 10.0, held)
        assert out.status == RUNTIME_ERROR
        assert out.error


def test_execute_cannot_modify_database(retail_sqlite):
    before = retail_sqlite.read_bytes()
    out = execute("INSERT INTO customer VALUES (99, 'X', 'F', 1)", retail_sqlite)
    assert out.status == RUNTIME_ERROR
    assert retail_sqlite.read_bytes() == before
    with closing(sqlite3.connect(retail_sqlite)) as con:
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


@pytest.fixture
def held():
    """One owner across a test's calls, so they reuse its connection."""
    owner = HeldConnections()
    yield owner
    owner.close()


def test_owner_reuses_its_connection_and_execute_without_one_closes_its_own(
        retail_sqlite, held, connection_count):
    for _ in range(2):
        assert execute("SELECT 1", retail_sqlite).status == OK
    assert len(connection_count.opened) == 2 and connection_count.still_open == 0
    for _ in range(2):
        assert execute("SELECT 1", retail_sqlite, held=held).status == OK
    assert len(connection_count.opened) == 3 and connection_count.still_open == 1
    held.close()
    assert connection_count.still_open == 0


# (statement that leaves state on a connection, query that shows it)
_STATEFUL = [
    ("CREATE TEMP TABLE customer AS SELECT 2, 'Bob'", "SELECT count(*) FROM customer"),
    ("PRAGMA case_sensitive_like=1", "SELECT count(*) FROM customer WHERE name LIKE 'alice'"),
    ("BEGIN", "BEGIN"),
    ("ATTACH ':memory:' AS m", "ATTACH ':memory:' AS m"),
]


@pytest.mark.parametrize("statement, probe", _STATEFUL, ids=["temp-table", "pragma", "begin", "attach"])
def test_state_left_by_one_query_never_reaches_the_next(retail_sqlite, held, statement, probe):
    assert execute(statement, retail_sqlite, held=held).status == OK
    assert _seen(execute(probe, retail_sqlite, held=held)) == _fresh(probe, retail_sqlite)
    assert execute("SELECT count(*) FROM customer", retail_sqlite, held=held).rows == ((5,),)


def test_rewritten_database_file_is_read_again(tmp_path, held):
    path = tmp_path / "retail.sqlite"
    create_sqlite(path, retail_schema(), RETAIL_ROWS)
    assert execute("SELECT count(*) FROM customer", path, held=held).rows == ((5,),)
    path.unlink()
    create_sqlite(path, retail_schema(), {"customer": RETAIL_ROWS["customer"][:2]})
    assert execute("SELECT count(*) FROM customer", path, held=held).rows == ((2,),)
    replacement = tmp_path / "other.sqlite"
    create_sqlite(replacement, retail_schema(), {"customer": RETAIL_ROWS["customer"][:3]})
    os.replace(replacement, path)
    assert execute("SELECT count(*) FROM customer", path, held=held).rows == ((3,),)


def test_call_after_a_timeout_runs_normally(retail_sqlite, held):
    endless = "WITH RECURSIVE r(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM r) SELECT count(*) FROM r"
    assert execute(endless, retail_sqlite, timeout_s=0.05, held=held).status == TIMEOUT
    rows = execute("SELECT count(*) FROM customer", retail_sqlite, timeout_s=5.0, held=held).rows
    assert rows == ((5,),)


def test_deleted_database_file_is_reported_missing(tmp_path, held):
    path = tmp_path / "retail.sqlite"
    create_sqlite(path, retail_schema(), RETAIL_ROWS)
    assert execute("SELECT 1", path, held=held).status == OK
    path.unlink()
    with pytest.raises(FileNotFoundError):
        execute("SELECT 1", path, held=held)


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


def test_exec_outcome_serialization_round_trips():
    out = ExecOutcome(status=OK, rows=((1, "a"),))
    raw = out.to_dict()
    back = ExecOutcome.from_dict(raw)
    assert back.rows == ((1, "a"),)


# ----- ordering detection -----


@pytest.mark.parametrize("sql", [
    "SELECT a FROM t ORDER BY a",
    "SELECT a FROM t UNION SELECT b FROM u ORDER BY 1",
    "WITH r AS (SELECT a FROM t) SELECT a FROM r ORDER BY a DESC LIMIT 3",
], ids=["top-level", "last-compound-operand", "after-cte"])
def test_top_level_order_by_detected(sql):
    assert has_top_level_order_by(parse(sql))


@pytest.mark.parametrize("sql", [
    "SELECT a FROM t",
    "SELECT x FROM (SELECT a AS x FROM t ORDER BY a LIMIT 3) AS d",
    "SELECT a FROM t WHERE a IN (SELECT b FROM u ORDER BY b LIMIT 1)",
    "WITH r AS (SELECT a FROM t ORDER BY a LIMIT 2) SELECT a FROM r",
    "(SELECT a FROM t ORDER BY a) UNION SELECT b FROM u",
    "SELECT a, rank() OVER (ORDER BY a) FROM t",
], ids=["none", "derived-table", "subquery", "cte-body", "parenthesized-operand", "window"])
def test_nested_order_by_ignored(sql):
    assert not has_top_level_order_by(parse(sql))


def _order_names_renamed(sql):
    """``sql`` with each ``order`` that names a FROM table (after FROM or ``.``) renamed ``t``."""
    toks = tokenize(sql)
    out, last = [], 0
    for prev, tok in zip(toks, toks[1:]):
        if tok.kind == IDENT and tok.lower == "order" and (
            prev.is_keyword("from") or (prev.kind == OP and prev.value == ".")
        ):
            out.append(sql[last:tok.start] + "t")
            last = tok.end
    return "".join(out) + sql[last:]


_SQL_PARTS = st.sampled_from([
    "SELECT", "a", "FROM", "t", "(", ")", ",", "ORDER", "order", "oRdEr", "BY", "orders",
    "border", "'order'", '"order"', "[order]", "-- order\n", "/* ORDER */", "LIMIT 1",
    "UNION", "'unterminated", "x.order_id", "x.order",
])


@settings(max_examples=300)
@example(["SELECT", "1", "FROM", "oRdEr", "a", "LIMIT 1", "SELECT"])
@given(st.lists(_SQL_PARTS, max_size=12))
def test_order_by_flag_matches_the_depth_scan(parts):
    sql = " ".join(parts)
    try:
        stmt = parse(sql)
    except (SqlParseError, TokenizeError):
        return
    scanned = tokenizing_order_by(sql)
    flag = has_top_level_order_by(stmt)
    if flag != scanned:
        # The one known difference: the scan takes ``order`` naming a FROM
        # table (``FROM oRdEr a``, ``FROM x.order``) for the ORDER keyword.
        assert scanned and tokenizing_order_by(_order_names_renamed(sql)) == flag, sql


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


def test_rows_within_tolerance_pair_as_a_multiset():
    # Sorting by key pairs (1.0000004, 'a') with (1.0, 'b'); each gold row
    # still has a pred row of its own within the tolerance.
    gold = ok((1.0000004, "a"), (1.0, "b"))
    pred = ok((1.0, "a"), (1.0000004, "b"))
    assert compare_results(gold, pred, gold_has_order_by=False)
    # Pairing equal rows first would leave -1e-6 against 1e-6.
    assert compare_results(ok((0.0,), (-1e-6,)), ok((0.0,), (1e-6,)), False)
    assert not compare_results(ok((0.0,), (-1e-6,)), ok((0.0,), (1e-6,)), True)


def _brute_force_em(gold_rows, pred_rows, ordered):
    gold = [tuple(map(evaluation._key, r)) for r in gold_rows]
    pred = [tuple(map(evaluation._key, r)) for r in pred_rows]
    if len(gold) != len(pred):
        return False
    orders = [pred] if ordered else itertools.permutations(pred)
    return any(all(map(evaluation._rows_match, gold, p)) for p in orders)


# Numbers a few tolerances apart, so rows match some neighbours and not others.
_NEAR = st.builds(lambda k, j: round(k * 1e-6 + j * 4e-7, 12),
                  st.integers(-3, 3), st.integers(-1, 1))
_CELL = st.one_of(_NEAR, st.sampled_from(["a", "b", "a ", None]), st.integers(-1, 1))


@settings(max_examples=400, deadline=None)
@given(width=st.integers(1, 3), data=st.data())
def test_compare_results_agrees_with_brute_force(width, data):
    rows = st.lists(st.tuples(*[_CELL] * width), max_size=6)
    gold = data.draw(rows)
    pred = data.draw(st.one_of(st.permutations(gold).map(
        lambda p: [tuple(v + 4e-7 if type(v) is float else v for v in r) for r in p]), rows))
    for ordered in (False, True):
        assert compare_results(ok(*gold), ok(*pred), ordered) == (
            _brute_force_em(gold, pred, ordered)), (gold, pred, ordered)


@pytest.mark.parametrize("gold, pred", [
    ([(1.0000004, "a"), (1.0, "b")], [(1.0, "a"), (1.0000004, "b")]),
    # Two numbers: the first gold row takes the pred row the second needs,
    # so the pairing must be moved along an augmenting path.
    ([(0.0, 1e-6), (4e-7, -4e-7)], [(4e-7, 1e-6), (4e-7, 4e-7)]),
    # A path that moves pairs off a pred row must take them off its count.
    ([(4e-7, 4e-7), (6e-7, 6e-7), (6e-7, 1.4e-6), (0.0, -4e-7)],
     [(-4e-7, 6e-7), (-4e-7, 0.0), (1.4e-6, -6e-7), (1.4e-6, -6e-7)]),
    ([(-1e-6, -1e-6), (1e-6, 4e-7), (0.0, -6e-7), (0.0, 4e-7), (-1e-6, 0.0)],
     [(4e-7, 4e-7), (6e-7, -1.4e-6), (-6e-7, -6e-7), (6e-7, -1.4e-6), (0.0, -1.4e-6)]),
    # Repeated rows: a path moves no more pairs than it found on its way.
    ([(-4e-7, -6e-7), (6e-7, 1.4e-6), (6e-7, 1.4e-6), (-4e-7, -6e-7)],
     [(0.0, -4e-7), (0.0, -4e-7), (0.0, -4e-7), (-4e-7, 4e-7)]),
])
def test_compare_results_agrees_with_brute_force_on_pairings_sorting_misses(gold, pred):
    for ordered in (False, True):
        assert compare_results(ok(*gold), ok(*pred), ordered) == (
            _brute_force_em(gold, pred, ordered)), (gold, pred, ordered)


@pytest.mark.parametrize("gold, pred, want", [
    # A constant first number: every pred row is near each gold row on it.
    ([(1, i) for i in range(20_000)], [(1, i + 0.5) for i in range(20_000)], False),
    ([(1, i) for i in range(20_000)], [(1, i + 4e-7) for i in range(20_000)], True),
    ([(1, 1, i) for i in range(20_000)], [(1, 1, i + 0.5) for i in range(20_000)], False),
    # Sorted order fails on each pair, as in the two-row case above.
    ([r for i in range(10_000) for r in ((i + 4e-7, i, "a"), (i, i, "b"))],
     [r for i in range(10_000) for r in ((i, i, "a"), (i + 4e-7, i, "b"))], True),
    # Distinct numbers crowded within the tolerance, in two shapes that
    # interleave differently on each side.
    ([(i * 1e-10, "a") for i in range(2_000)] + [(i * 1e-10 + 5e-11, "b") for i in range(2_000)],
     [(i * 1e-10 + 6e-11, "a") for i in range(2_000)]
     + [(i * 1e-10 + 5e-11, "b") for i in range(2_000)], True),
    # Float noise repeated on every row: one distinct row a side.
    ([(0.1 + 0.2, 1.0, "a")] * 10_000 + [(0.0, 0.0, "b")] * 10_000,
     [(0.3, 1.0, "a")] * 10_000 + [(-1e-7, 0.0, "b")] * 10_000, True),
])
def test_large_results_compare_in_bounded_time(gold, pred, want):
    started = time.monotonic()
    assert compare_results(ok(*gold), ok(*pred), False) is want
    assert time.monotonic() - started < 5


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
# Text sorts as it compares, trimmed, so ("a ", 1) pairs with ("a", 1).
@example(rows=[("a ", 1), ("a", 2)], rng=random.Random(0))
@given(_rows, st.randoms(use_true_random=False))
def test_unordered_comparison_invariant_to_permutation(rows, rng):
    # The shuffled side also has trailing whitespace trimmed from its text.
    shuffled = [tuple(v.rstrip() if isinstance(v, str) else v for v in row) for row in rows]
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
    # Blank lines are skipped.
    path.write_text("\n".join(lines[:3] + ["", "  "] + lines[3:]) + "\n", encoding="utf-8")
    assert read_records(path) == (meta, records)


def test_blob_rows_survive_the_records_file(tmp_path):
    db_file = tmp_path / "blobs.sqlite"
    with closing(sqlite3.connect(db_file)) as con:
        con.execute("CREATE TABLE t (b BLOB, n INTEGER)")
        con.execute("INSERT INTO t VALUES (x'00ff41', 7)")
        con.commit()
    gold = execute("SELECT b, n FROM t", db_file)
    pred = execute("SELECT b, n FROM t WHERE n = 7", db_file)
    other = execute("SELECT x'00ff', n FROM t", db_file)
    assert gold.rows == ((b"\x00\xffA", 7),)
    assert gold.to_dict()["rows"] == [[{"blob": "00ff41"}, 7]]
    base = make_record()
    records = [replace(base, item_id="db:0", gold_exec=gold, pred_exec=pred),
               replace(base, item_id="db:1", gold_exec=gold, pred_exec=other, em=False)]
    path = tmp_path / "records.jsonl"
    write_records(records, path, {"n_items": 2})
    _, back = read_records(path)
    # Wall time is not written, so compare what is.
    assert [r.to_dict() for r in back] == [r.to_dict() for r in records]
    assert back[0].gold_exec.rows == gold.rows
    assert score_run(back) == score_run(records)
    assert [compare_results(r.gold_exec, r.pred_exec, False) for r in back] == [True, False]
    assert [compare_results(r.gold_exec, r.pred_exec, False) for r in records] == [True, False]
    # Rows without a BLOB keep their plain form.
    assert ok((1, "a", None, 2.5)).to_dict() == {"status": OK, "rows": [[1, "a", None, 2.5]]}


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
