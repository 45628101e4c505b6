import dataclasses
import hashlib
import json
import shutil
import sys
import threading
import time
from pathlib import Path

import pytest

from unjoin.dataset import (
    METHODS,
    DatasetError,
    EvalItem,
    RunConfig,
    filter_items,
    load_dataset,
)
from unjoin.llm import (
    ExchangeCache,
    LlmClient,
    LlmConfig,
    LlmError,
    LlmExchange,
    exchange_key,
)
from unjoin import pipeline, prompting
from unjoin.pipeline import (
    PoolError,
    PredictedQuery,
    assemble_pool,
    evaluate_item,
    run_evaluation,
    run_method,
)
from unjoin.evaluation import (
    build_summary,
    read_records,
    write_bucket_csv,
    write_records,
    write_summary,
)
from unjoin.prompting import (
    DEFAULT_TEMPLATE_DIR,
    METHOD_TEMPLATES,
    TEMPLATE_FILES,
    TemplateError,
    TemplateSet,
    baseline_schema_block,
    build_baseline_prompt,
    build_mp_step1_prompt,
    build_mp_step2_prompt,
)
from unjoin.schema import ColumnDef, DatabaseSchema, TableDef, simplify_schema
from unjoin.sqlast import parse
from unjoin.tokens import IDENT, tokenize

from conftest import BIRD_CASES, ORACLE_MODEL, seed_oracle_cache, spider_oracle_plan

ITEM = EvalItem(
    "retail:7", "retail",
    "How many orders were placed by customers from Springfield?",
    "SELECT count(*) FROM orders JOIN customer ON orders.customer_id = customer.customer_id "
    "JOIN city ON customer.city_id = city.city_id WHERE city.name = 'Springfield'",
    gold_table_count=3,
)


def live_client(transport, **overrides):
    cfg = LlmConfig(model="m", temperature=0.0, **overrides)
    return LlmClient(cfg, cache=None, transport=transport)


def scripted(step1, step2):
    def transport(prompt, cfg):
        if "Simplified Query:" in prompt.rsplit("**Output:**", 1)[0][-400:]:
            return step2, 1, 1
        return step1, 1, 1
    return transport


def mp_transport(step1, step2):
    # step 2 prompts carry the translation instructions header; a reply
    # that is an exception is raised instead of returned
    def transport(prompt, cfg):
        reply = step2 if "### Steps for Translation:" in prompt else step1
        if isinstance(reply, Exception):
            raise reply
        return reply, 1, 1
    return transport


# ----- multi-prompt variant -----


def test_mp_happy_path_corrects_both_stages(retail_db):
    client = live_client(mp_transport(
        "```sql\nSELECT count(*) FROM retail WHERE city.nmae = 'Springfield'\n```",
        "```sql\nSELECT count(*) FROM orders JOIN custmer ON orders.customer_id = "
        "custmer.customer_id\n```",
    ))
    pred = run_method("unjoin-mp", ITEM, retail_db, client, "live")
    assert not pred.failed
    assert pred.intermediate_sql == "SELECT count(*) FROM retail WHERE city.name = 'Springfield'"
    assert "JOIN customer" in pred.final_sql
    assert pred.intermediate_report.substitutions
    assert pred.final_report.substitutions
    assert len(pred.completions) == 2
    assert pred.method == "unjoin-mp"


def test_mp_step1_failure_recorded(retail_db, tmp_path):
    client = LlmClient(LlmConfig(model="m"), ExchangeCache(tmp_path))
    pred = run_method("unjoin-mp", ITEM, retail_db, client, "replay")
    assert pred.failed
    assert pred.failure_stage == "step1-complete"
    assert pred.final_sql is None
    assert pred.intermediate_sql is None


def test_mp_step1_extraction_failure(retail_db):
    client = live_client(mp_transport("no sql here at all", "unused"))
    pred = run_method("unjoin-mp", ITEM, retail_db, client, "live")
    assert pred.failed
    assert pred.failure_stage == "step1-extract"
    assert pred.completions == ("no sql here at all",)


def test_mp_step2_failure_keeps_intermediate(retail_db, tmp_path):
    cfg = LlmConfig(model="m", temperature=0.0)
    cache = ExchangeCache(tmp_path)
    simp = simplify_schema(retail_db)
    p1 = build_mp_step1_prompt(simp, ITEM.prompt_question)
    step1 = "SELECT count(*) FROM retail WHERE city.name = 'Springfield'"
    cache.put(LlmExchange(key=exchange_key(p1, cfg), prompt=p1,
                          completion=f"```sql\n{step1}\n```"))
    client = LlmClient(cfg, cache)
    pred = run_method("unjoin-mp", ITEM, retail_db, client, "replay")
    assert pred.failed
    assert pred.failure_stage == "step2-complete"
    assert pred.intermediate_sql == step1
    assert pred.final_sql is None


# ----- single-prompt variant -----


def test_sp_two_blocks(retail_db):
    completion = (
        "Step 1 gives:\n```sql\nSELECT count(*) FROM retail WHERE city.name = 'Springfield'\n```\n"
        "Step 2 translates:\n```sql\nSELECT count(*) FROM orders JOIN customer ON "
        "orders.customer_id = customer.customer_id JOIN city ON customer.city_id = "
        "city.city_id WHERE city.name = 'Springfield'\n```"
    )
    client = live_client(lambda p, c: (completion, 1, 1))
    pred = run_method("unjoin-sp", ITEM, retail_db, client, "live")
    assert not pred.failed
    assert pred.intermediate_sql.startswith("SELECT count(*) FROM retail")
    assert pred.final_sql == ITEM.gold_sql
    assert pred.warnings == ()
    assert len(pred.completions) == 1


def test_sp_single_block_warns_and_uses_it_as_final(retail_db):
    client = live_client(lambda p, c: ("```sql\nSELECT count(*) FROM orders\n```", 1, 1))
    pred = run_method("unjoin-sp", ITEM, retail_db, client, "live")
    assert not pred.failed
    assert pred.intermediate_sql is None
    assert pred.final_sql == "SELECT count(*) FROM orders"
    assert any("single fenced block" in w for w in pred.warnings)


def test_sp_no_blocks_falls_back_to_keyword(retail_db):
    client = live_client(lambda p, c: ("The answer is SELECT count(*) FROM orders", 1, 1))
    pred = run_method("unjoin-sp", ITEM, retail_db, client, "live")
    assert not pred.failed
    assert pred.final_sql == "SELECT count(*) FROM orders"
    assert any("keyword fallback" in w for w in pred.warnings)


def test_sp_no_sql_at_all_fails(retail_db):
    # refusal text must not contain SELECT or WITH, or the fallback fires
    client = live_client(lambda p, c: ("I cannot answer that.", 1, 1))
    pred = run_method("unjoin-sp", ITEM, retail_db, client, "live")
    assert pred.failed
    assert pred.failure_stage == "extract"


def test_sp_more_than_two_blocks_uses_first_and_last(retail_db):
    completion = (
        "```sql\nSELECT count(*) FROM retail\n```\n"
        "```sql\nSELECT 0\n```\n"
        "```sql\nSELECT count(*) FROM orders\n```"
    )
    client = live_client(lambda p, c: (completion, 1, 1))
    pred = run_method("unjoin-sp", ITEM, retail_db, client, "live")
    assert pred.intermediate_sql == "SELECT count(*) FROM retail"
    assert pred.final_sql == "SELECT count(*) FROM orders"


# ----- baselines and dispatch -----


def test_baseline_runs_and_corrects(retail_db):
    client = live_client(lambda p, c: ("```sql\nSELECT nmae FROM custmer\n```", 1, 1))
    pred = run_method("cot", ITEM, retail_db, client, "live")
    assert not pred.failed
    assert pred.method == "cot"
    assert pred.final_sql == "SELECT name FROM customer"
    assert pred.intermediate_sql is None


def test_run_method_dispatch(retail_db):
    client = live_client(scripted(
        "```sql\nSELECT count(*) FROM retail\n```",
        "```sql\nSELECT count(*) FROM orders\n```",
    ))
    for method in ("unjoin-sp", "unjoin-mp", "cot", "cot-ss"):
        pred = run_method(method, ITEM, retail_db, client, "live")
        assert pred.method == method
    with pytest.raises(DatasetError):
        run_method("few-shot", ITEM, retail_db, client, "live")


def test_every_method_has_a_runner():
    assert tuple(pipeline._RUNNERS) == METHODS == tuple(METHOD_TEMPLATES)


# ----- the failure rule: first failing stage, everything obtained before it -----

REFUSED = LlmError("request rejected: 400")
NO_SQL = "I cannot answer that."
STEP1_SQL = "```sql\nSELECT count(*) FROM retail\n```"


FAILURE_RULE = [
    # (method, step-1 reply, step-2 reply, stage, completions kept, intermediate kept)
    ("unjoin-mp", REFUSED, "unused", "step1-complete", 0, False),
    ("unjoin-mp", NO_SQL, "unused", "step1-extract", 1, False),
    ("unjoin-mp", STEP1_SQL, REFUSED, "step2-complete", 1, True),
    ("unjoin-mp", STEP1_SQL, NO_SQL, "step2-extract", 2, True),
    *[(m, REFUSED, REFUSED, "complete", 0, False) for m in ("unjoin-sp", "cot", "cot-ss")],
    *[(m, NO_SQL, NO_SQL, "extract", 1, False) for m in ("unjoin-sp", "cot", "cot-ss")],
]


@pytest.mark.parametrize(
    "method,step1,step2,stage,n_completions,has_intermediate",
    FAILURE_RULE,
    ids=[f"{case[0]}-{case[3]}" for case in FAILURE_RULE],
)
def test_failure_keeps_what_came_before_the_stage(
    retail_db, method, step1, step2, stage, n_completions, has_intermediate
):
    client = live_client(mp_transport(step1, step2))
    pred = run_method(method, ITEM, retail_db, client, "live")
    assert pred.method == method
    assert pred.failed
    assert pred.failure_stage == stage
    assert pred.failure_reason
    assert pred.final_sql is None and pred.final_report is None
    assert len(pred.completions) == n_completions
    assert (pred.intermediate_sql is not None) == has_intermediate
    assert (pred.intermediate_report is not None) == has_intermediate
    if has_intermediate:
        assert pred.intermediate_sql == "SELECT count(*) FROM retail"
        assert pred.completions[0] == STEP1_SQL
    assert pred.warnings == ()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("listed", [None, [("ghost", "t", 1.0)]], ids=["missing", "unknown-db"])
def test_retrieval_failure_is_the_items_first_stage(mini_spider_root, tmp_path, method, listed):
    bundle = load_dataset(mini_spider_root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    item = kept[0]
    calls = []

    def transport(prompt, cfg):
        calls.append(prompt)
        return "```sql\nSELECT 1\n```", 1, 1

    config = RunConfig(dataset="spider", root=str(mini_spider_root), method=method,
                       model="m", cache_mode="live", workers=1, out_dir=str(tmp_path))
    client = LlmClient(config.llm_config(), cache=None, transport=transport)
    retrieval = {item.item_id: listed} if listed else {}
    records, _ = run_evaluation(bundle, [item], config, client, retrieval=retrieval)
    pred = records[0].prediction
    assert calls == []
    assert pred["method"] == method
    assert pred["failed"] and pred["failure_stage"] == "retrieval"
    assert pred["failure_reason"]
    assert pred["completions"] == [] and pred["intermediate_sql"] is None
    assert records[0].pred_exec is None and not records[0].qe
    assert records[0].gold_tables  # gold is still scored against the home schema



def _replay_cot(mini_spider_root, tmp_path, first_sql):
    """Record then replay a cot run of two retail items, the first answered
    with ``first_sql`` and the second with its gold query; return the
    records as written."""
    bundle = load_dataset(mini_spider_root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    items = [item for item in kept if item.db_id == "retail"][:2]
    answers = {items[0].question: first_sql, items[1].question: items[1].gold_sql}

    def transport(prompt, cfg):
        (sql,) = [sql for question, sql in answers.items() if question in prompt]
        return f"```sql\n{sql}\n```", 1, 1

    config = RunConfig(dataset="spider", root=str(mini_spider_root), method="cot",
                       model="m", cache_mode="record", cache_dir=str(tmp_path / "cache"),
                       workers=1, out_dir=str(tmp_path))
    cache = ExchangeCache(config.cache_dir)
    run_evaluation(bundle, items, config, LlmClient(config.llm_config(), cache, transport))
    config = dataclasses.replace(config, cache_mode="replay")
    records, meta = run_evaluation(bundle, items, config, LlmClient(config.llm_config(), cache))
    write_records(records, tmp_path / "records.jsonl", meta)
    _, written = read_records(tmp_path / "records.jsonl")
    assert [r.item_id for r in written] == [item.item_id for item in items]
    return written


@pytest.mark.parametrize("bad", [
    "SELECT name FROM customer WHERE name = 'x",
], ids=["unterminated-quote"])
def test_query_that_cannot_be_tokenized_is_left_to_sqlite(mini_spider_root, tmp_path, bad):
    bad_record, good_record = _replay_cot(mini_spider_root, tmp_path, bad)
    assert bad_record.prediction["final_sql"] == bad
    assert bad_record.prediction["final_report"] == {"substitutions": [], "unresolved": []}
    assert not bad_record.qe
    assert good_record.qe and good_record.em


def test_unterminated_comment_runs_to_the_end_of_the_query(mini_spider_root, tmp_path):
    # SQLite reads an unclosed /* as a comment up to the end of the text,
    # so the names before it are repaired and the query runs.
    record, good_record = _replay_cot(mini_spider_root, tmp_path, "SELECT nmae FROM customer /* note")
    assert record.prediction["final_sql"] == "SELECT name FROM customer /* note"
    assert record.prediction["final_report"] == {
        "substitutions": [["nmae", "name", 2, 7]], "unresolved": []}
    assert record.qe
    assert good_record.qe and good_record.em


def test_predicted_query_invariant():
    with pytest.raises(ValueError):
        PredictedQuery(method="cot")  # not failed, but no final sql
    with pytest.raises(ValueError):
        PredictedQuery(method="cot", final_sql="SELECT 1", failed=True,
                       failure_stage="x", failure_reason="y")


def test_predicted_query_serialization(retail_db):
    client = live_client(mp_transport(
        "```sql\nSELECT count(*) FROM retail WHERE city.nmae = 'Springfield'\n```",
        "```sql\nSELECT count(*) FROM orders\n```",
    ))
    pred = run_method("unjoin-mp", ITEM, retail_db, client, "live")
    raw = pred.to_dict()
    assert raw["method"] == "unjoin-mp"
    # simplified-stage repair rewrites the whole dotted chain
    assert raw["intermediate_report"]["substitutions"] == [["city.nmae", "city.name", 2, 34]]
    assert raw["failed"] is False


# ----- open-book table pools -----


def crm_schema():
    return DatabaseSchema(
        "crm",
        (TableDef("customer", (ColumnDef("customer_id"), ColumnDef("segment"))),
         TableDef("deal", (ColumnDef("deal_id"), ColumnDef("customer_id")))),
        (("deal", "customer_id", "customer", "customer_id"),),
    )


def test_pool_ranks_by_score_then_input_order(retail_db):
    catalogue = {"retail": retail_db}
    pool = assemble_pool(
        [("retail", "city", 0.5), ("retail", "customer", 0.9), ("retail", "orders", 0.5)],
        catalogue, topk=2,
    )
    assert [t.name for t in pool.tables] == ["customer", "city"]
    assert pool.db_id == "pool"


def test_pool_deduplicates_repeated_tables(retail_db):
    pool = assemble_pool(
        [("retail", "customer", 0.9), ("retail", "CUSTOMER", 0.8)],
        {"retail": retail_db},
    )
    assert [t.name for t in pool.tables] == ["customer"]


def test_pool_renames_cross_database_collisions(retail_db):
    crm = crm_schema()
    pool = assemble_pool(
        [("retail", "customer", 0.9), ("crm", "customer", 0.8)],
        {"retail": retail_db, "crm": crm},
    )
    assert [t.name for t in pool.tables] == ["customer", "customer__crm"]
    # The renamed table is crm's customer, columns and all.
    assert pool.find_table("customer__crm").columns == crm.find_table("customer").columns


def test_pool_keeps_foreign_keys_within_one_source(retail_db):
    pool = assemble_pool(
        [("retail", "customer", 0.9), ("retail", "city", 0.8), ("retail", "product", 0.7)],
        {"retail": retail_db},
    )
    assert ("customer", "city_id", "city", "city_id") in pool.foreign_keys
    # item/orders absent, so their keys must not survive
    assert all("item" not in fk for fk in pool.foreign_keys)


def test_pool_drops_foreign_keys_across_sources(retail_db):
    catalogue = {"retail": retail_db, "crm": crm_schema()}
    pool = assemble_pool(
        [("retail", "customer", 0.9), ("crm", "deal", 0.8)],
        catalogue,
    )
    assert pool.foreign_keys == ()


def test_pool_rejects_source_tables_whose_flat_entries_collide():
    catalogue = {"x": DatabaseSchema("x", (TableDef("a.b", (ColumnDef("c"),)),)),
                 "y": DatabaseSchema("y", (TableDef("a", (ColumnDef("b.c"),)),))}
    with pytest.raises(PoolError, match="pool assembly failed: schema 'pool': column 'c' of "
                                        "table 'a.b' and column 'b.c' of table 'a' flatten"):
        assemble_pool([("x", "a.b", 0.9), ("y", "a", 0.8)], catalogue)


def test_pool_skips_a_table_whose_suffixed_name_is_taken_too():
    catalogue = {"a": DatabaseSchema("a", (TableDef("t", (ColumnDef("x"),)),
                                           TableDef("t__b", (ColumnDef("y"),)))),
                 "b": DatabaseSchema("b", (TableDef("t", (ColumnDef("z"),)),))}
    pool = assemble_pool([("a", "t", 0.9), ("a", "t__b", 0.8), ("b", "t", 0.7)], catalogue)
    assert pool.tables == catalogue["a"].tables


def test_pool_of_an_empty_retrieval_list_is_an_error(retail_db):
    with pytest.raises(PoolError, match="retrieval list produced an empty pool"):
        assemble_pool([], {"retail": retail_db})


def test_pool_rejects_unknown_entries(retail_db):
    with pytest.raises(PoolError):
        assemble_pool([("ghost", "t", 1.0)], {"retail": retail_db})
    with pytest.raises(PoolError):
        assemble_pool([("retail", "ghost", 1.0)], {"retail": retail_db})


# ----- scoring one item -----


def test_evaluate_item_exact_match(retail_db, retail_sqlite):
    pred = PredictedQuery(method="cot", final_sql=ITEM.gold_sql)
    rec = evaluate_item(ITEM, pred, retail_db, retail_db, retail_sqlite, 10.0)
    assert rec.qe and rec.em
    assert rec.table_precision == rec.table_recall == 1.0
    assert rec.gold_table_count == 3
    assert rec.gold_tables == ("city", "customer", "orders")


def test_evaluate_item_failed_prediction(retail_db, retail_sqlite):
    pred = PredictedQuery(method="cot", failed=True, failure_stage="complete",
                          failure_reason="replay miss")
    rec = evaluate_item(ITEM, pred, retail_db, retail_db, retail_sqlite, 10.0)
    assert not rec.qe and not rec.em
    assert rec.pred_exec is None
    assert rec.pred_tables == ()
    assert rec.table_precision == 0.0  # empty prediction vs nonempty gold


def test_evaluate_item_wrong_but_executable(retail_db, retail_sqlite):
    pred = PredictedQuery(method="cot", final_sql="SELECT count(*) FROM orders")
    rec = evaluate_item(ITEM, pred, retail_db, retail_db, retail_sqlite, 10.0)
    assert rec.qe
    assert not rec.em


def test_evaluate_item_missing_database_file(retail_db, tmp_path):
    pred = PredictedQuery(method="cot", final_sql="SELECT 1")
    rec = evaluate_item(ITEM, pred, retail_db, retail_db, tmp_path / "gone.sqlite", 10.0)
    assert rec.gold_exec.status == "runtime_error"
    assert rec.gold_exec.error == "database file missing"
    assert rec.pred_exec is None
    assert not rec.qe


def test_database_file_removed_after_gold_ran_costs_only_that_item(
    retail_db, retail_sqlite, tmp_path, monkeypatch
):
    db_file = tmp_path / "retail.sqlite"
    shutil.copyfile(retail_sqlite, db_file)
    real_execute = pipeline.execute

    def execute_then_remove(sql, path, *args):
        outcome = real_execute(sql, path, *args)
        db_file.unlink(missing_ok=True)
        return outcome

    monkeypatch.setattr(pipeline, "execute", execute_then_remove)
    pred = PredictedQuery(method="cot", final_sql=ITEM.gold_sql)
    rec = evaluate_item(ITEM, pred, retail_db, retail_db, db_file, 10.0)
    assert rec.gold_exec.status == "runtime_error"
    assert rec.gold_exec.error == "database file missing"
    assert rec.pred_exec is None
    assert not rec.qe and not rec.em
    assert rec.gold_tables == ("city", "customer", "orders")


def test_evaluate_item_counts_tables_when_item_lacks_count(retail_db, retail_sqlite):
    item = EvalItem("retail:0", "retail", "q",
                    "SELECT name FROM customer JOIN city ON customer.city_id = city.city_id")
    pred = PredictedQuery(method="cot", final_sql="SELECT 1")
    rec = evaluate_item(item, pred, retail_db, retail_db, retail_sqlite, 10.0)
    assert rec.gold_table_count == 2


def test_evaluate_item_parses_the_gold_once(retail_db, retail_sqlite, monkeypatch):
    seen = []

    def counting(sql):
        seen.append(sql)
        return tokenize(sql)

    for name, module in list(sys.modules.items()):
        if name.startswith("unjoin") and getattr(module, "tokenize", None) is tokenize:
            monkeypatch.setattr(module, "tokenize", counting)
    item = EvalItem("retail:0", "retail", "q", "SELECT name FROM customer ORDER BY name")
    pred = PredictedQuery(method="cot", final_sql="SELECT name FROM customer ORDER BY name DESC")
    rec = evaluate_item(item, pred, retail_db, retail_db, retail_sqlite, 10.0)
    assert seen.count(item.gold_sql) == 1
    # The same parse says the gold orders its rows, so reversed rows differ.
    assert rec.qe and not rec.em
    assert rec.gold_columns == ("customer.name",)


# ----- the gold score filter_items carries -----


def _two_ways_to_read_x():
    """Two schemas of tables t1 and t2 joined on id: x is t1's in one, t2's in the other."""
    def schema(db_id, x_in_t1):
        t1 = ("id", "x") if x_in_t1 else ("id",)
        t2 = ("id", "y") if x_in_t1 else ("id", "x")
        return DatabaseSchema(db_id, (TableDef("t1", tuple(map(ColumnDef, t1))),
                                      TableDef("t2", tuple(map(ColumnDef, t2)))))
    return {"one": schema("one", True), "two": schema("two", False)}


BARE_X = "SELECT x FROM t1 JOIN t2 ON t1.id = t2.id"
FILTERED_PRED = PredictedQuery(method="cot", final_sql="SELECT y FROM t2")


def test_one_gold_text_in_two_databases_scores_against_each_schema():
    catalogue = _two_ways_to_read_x()
    items = [EvalItem("one:0", "one", "q", BARE_X), EvalItem("two:1", "two", "q", BARE_X)]
    kept, dropped = filter_items(items, catalogue)
    assert not dropped
    # The text was scored at the first item; only items of that schema carry it.
    assert kept[0].gold_score.schema is catalogue["one"] and kept[1].gold_score is None
    # A copy may hold other gold text, so it carries no score.
    assert dataclasses.replace(kept[0], gold_sql="SELECT 1").gold_score is None
    columns = [evaluate_item(item, FILTERED_PRED, catalogue[item.db_id], catalogue[item.db_id],
                             None, 10.0).gold_columns for item in kept]
    assert columns == [("t1.id", "t1.x", "t2.id"), ("t1.id", "t2.id", "t2.x")]


def test_items_evaluated_against_another_catalogue_are_scored_as_now():
    filtered_with = _two_ways_to_read_x()
    (item,), _ = filter_items([EvalItem("one:0", "one", "q", BARE_X)], filtered_with)
    assert item.gold_score.columns == ("t1.id", "t1.x", "t2.id")
    # The same db_id, loaded again, and once with x moved to t2.
    for other in (_two_ways_to_read_x()["one"],
                  DatabaseSchema("one", _two_ways_to_read_x()["two"].tables)):
        carried = evaluate_item(item, FILTERED_PRED, other, other, None, 10.0)
        fresh = evaluate_item(EvalItem("one:0", "one", "q", BARE_X, gold_table_count=2),
                              FILTERED_PRED, other, other, None, 10.0)
        assert carried == fresh
    assert carried.gold_columns == ("t1.id", "t2.id", "t2.x")


def test_replayed_run_parses_only_each_prediction(mini_spider_root, oracle_cache_dir,
                                                  monkeypatch):
    bundle = load_dataset(mini_spider_root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    parsed = []

    def counting(sql):
        parsed.append(sql)
        return parse(sql)

    for name, module in list(sys.modules.items()):
        if name.startswith("unjoin") and getattr(module, "parse", None) is parse:
            monkeypatch.setattr(module, "parse", counting)
    config = RunConfig(dataset="spider", root=str(mini_spider_root), method="unjoin-mp",
                       model=ORACLE_MODEL, cache_mode="replay",
                       cache_dir=str(oracle_cache_dir), workers=1)
    client = LlmClient(config.llm_config(), ExchangeCache(oracle_cache_dir))
    records, _ = run_evaluation(bundle, kept, config, client)
    assert all(rec.qe and rec.em for rec in records)
    assert parsed == [rec.prediction["final_sql"] for rec in records]


# A USING list the text ends inside: the parser rejects it, and so does SQLite.
UNCLOSED_USING = "SELECT name FROM customer JOIN city USING (city_id"


def test_prediction_whose_using_list_does_not_close_has_no_refs(retail_db, retail_sqlite):
    assert pipeline._scored(UNCLOSED_USING, retail_db) == pipeline._NO_SCORE
    pred = PredictedQuery(method="cot", final_sql=UNCLOSED_USING)
    rec = evaluate_item(ITEM, pred, retail_db, retail_db, retail_sqlite, 10.0)
    assert rec.pred_exec.status == "runtime_error"
    assert not rec.qe and rec.pred_tables == ()


# ----- whole-run orchestration -----


def _seed_cot_cache(cache, bundle, items, cfg):
    """Record each item's gold as its cot completion; return item id -> cache file."""
    paths = {}
    for item in items:
        db = bundle.catalogue[item.db_id]
        prompt = build_baseline_prompt("cot", baseline_schema_block("cot", db),
                                       item.prompt_question)
        key = exchange_key(prompt, cfg)
        cache.put(LlmExchange(key=key, prompt=prompt,
                              completion=f"```sql\n{item.gold_sql}\n```"))
        paths[item.item_id] = cache.path_for(key)
    return paths


@pytest.mark.parametrize("completion, stage", [
    # SQLite rejects the extracted text at execution.
    (f"```sql\n{UNCLOSED_USING}\n```", None),
    # A cached completion that is not text: the cache file is corrupt.
    (5, "complete"),
])
def test_cot_replay_run_costs_only_the_item_whose_completion_is_bad(
        mini_spider_root, tmp_path, completion, stage):
    bundle = load_dataset(mini_spider_root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    items = kept[:6]
    config = RunConfig(dataset="spider", root=str(mini_spider_root), method="cot",
                       model=ORACLE_MODEL, cache_mode="replay",
                       cache_dir=str(tmp_path / "cache"), workers=2)
    cache = ExchangeCache(config.cache_dir)
    paths = _seed_cot_cache(cache, bundle, items, config.llm_config())
    client = LlmClient(config.llm_config(), cache)
    clean, _ = run_evaluation(bundle, items, config, client)
    assert all(r.qe and r.em for r in clean)

    victim = items[3]
    path = paths[victim.item_id]
    raw = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**raw, "completion": completion}), encoding="utf-8")
    records, _ = run_evaluation(bundle, items, config, client)

    assert [r.item_id for r in records] == [i.item_id for i in items]
    for before, after in zip(clean, records):
        if after.item_id != victim.item_id:
            assert after.to_dict() == before.to_dict()
        elif stage is None:
            assert not after.prediction["failed"]
            assert after.prediction["final_sql"] == UNCLOSED_USING
            assert after.pred_exec.status == "runtime_error"
            assert not after.qe and after.pred_tables == ()
        else:
            assert after.prediction["failed"]
            assert after.prediction["failure_stage"] == stage
            assert str(path) in after.prediction["failure_reason"]


def test_gold_that_cannot_be_tokenized_costs_only_its_item(mini_spider_root, tmp_path):
    bundle = load_dataset(mini_spider_root, "spider")
    # Unfiltered: filter_items would drop this gold.
    item = EvalItem("retail:bad-gold", "retail", "q", "SELECT name FROM customer ORDER BY 'x")
    config = RunConfig(dataset="spider", root=str(mini_spider_root), method="cot",
                       model="m", cache_mode="live", workers=1, out_dir=str(tmp_path))
    client = LlmClient(config.llm_config(), cache=None,
                       transport=lambda prompt, cfg: ("```sql\nSELECT name FROM customer\n```", 1, 1))
    records, _ = run_evaluation(bundle, [item], config, client)
    (record,) = records
    assert record.gold_exec.status == "runtime_error"
    assert record.qe and not record.em
    assert record.gold_tables == () and record.pred_tables == ("customer",)


def test_database_whose_flat_view_collides_costs_only_its_items(mini_spider_root, tmp_path):
    # The flat view of "clash" would hold "a.b.c" twice; its catalogue
    # entry is skipped, so its item is dropped and the run goes on.
    root = tmp_path / "root"
    shutil.copytree(mini_spider_root, root)
    entries = json.loads((root / "tables.json").read_text(encoding="utf-8"))
    entries.append({"db_id": "clash", "table_names_original": ["a.b", "a"],
                    "column_names_original": [[-1, "*"], [0, "c"], [1, "b.c"]]})
    (root / "tables.json").write_text(json.dumps(entries), encoding="utf-8")
    dev = json.loads((root / "dev.json").read_text(encoding="utf-8"))
    dev.append({"db_id": "clash", "question": "Which c are b.c?",
                "query": 'SELECT "a.b".c FROM "a.b" JOIN a ON "a.b".c = a."b.c"'})
    (root / "dev.json").write_text(json.dumps(dev), encoding="utf-8")
    bundle = load_dataset(root, "spider")
    kept, dropped = filter_items(bundle.items, bundle.catalogue)
    config = RunConfig(dataset="spider", root=str(root), method="unjoin-mp", model="m",
                       cache_mode="live", workers=1, out_dir=str(tmp_path))
    client = LlmClient(config.llm_config(), cache=None,
                       transport=lambda prompt, cfg: ("```sql\nSELECT 1\n```", 1, 1))
    records, _ = run_evaluation(bundle, kept, config, client)
    assert [r.item_id for r in records] == [item.item_id for item in kept]
    assert sorted(bundle.catalogue) == ["academic", "retail"]
    assert [(item.item_id, reason) for item, reason in dropped if item.db_id == "clash"] == [
        (f"clash:{len(dev) - 1}", "unknown database 'clash'")]


def test_run_evaluation_preserves_item_order(mini_spider_root, tmp_path):
    bundle = load_dataset(mini_spider_root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    items = kept[:6]
    lock = threading.Lock()
    seen = []

    def jittery(prompt, cfg):
        with lock:
            seen.append(1)
            k = len(seen)
        time.sleep(0.01 * ((7 - k) % 3))
        return "```sql\nSELECT 1\n```", 1, 1

    config = RunConfig(dataset="spider", root=str(mini_spider_root), method="cot",
                       model="m", cache_mode="live", workers=4,
                       out_dir=str(tmp_path))
    client = LlmClient(config.llm_config(), cache=None, transport=jittery)
    records, meta = run_evaluation(bundle, items, config, client)
    assert [r.item_id for r in records] == [i.item_id for i in items]
    assert meta["n_items"] == 6
    assert meta["config"]["method"] == "cot"
    assert set(meta["template_hashes"]) >= {"sp.txt", "mp_step1.txt"}
    assert meta["comparison"]["rows"].startswith("multiset")


def test_run_evaluation_replay_oracle_subset(mini_spider_root, oracle_cache_dir):
    bundle = load_dataset(mini_spider_root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    plan = spider_oracle_plan()
    items = kept[:5]
    config = RunConfig(dataset="spider", root=str(mini_spider_root), method="unjoin-mp",
                       model=ORACLE_MODEL, cache_mode="replay",
                       cache_dir=str(oracle_cache_dir), workers=2)
    client = LlmClient(config.llm_config(), ExchangeCache(oracle_cache_dir))
    records, _ = run_evaluation(bundle, items, config, client)
    for rec in records:
        assert rec.qe and rec.em, rec.item_id
        assert rec.prediction["final_sql"] == plan[rec.item_id][1]
        assert rec.prediction["intermediate_sql"] == plan[rec.item_id][2]


def test_corrupt_cache_file_fails_only_its_item(mini_spider_root, oracle_cache_dir, tmp_path):
    bundle = load_dataset(mini_spider_root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    items = kept[:6]
    cache_dir = tmp_path / "cache"
    shutil.copytree(oracle_cache_dir, cache_dir)
    config = RunConfig(dataset="spider", root=str(mini_spider_root), method="unjoin-mp",
                       model=ORACLE_MODEL, cache_mode="replay",
                       cache_dir=str(cache_dir), workers=2)
    cache = ExchangeCache(cache_dir)
    client = LlmClient(config.llm_config(), cache)
    clean, _ = run_evaluation(bundle, items, config, client)
    assert all(r.qe and r.em for r in clean)

    victim = items[3]
    simp = simplify_schema(bundle.catalogue[victim.db_id])
    prompt = build_mp_step1_prompt(simp, victim.prompt_question)
    path = cache.path_for(exchange_key(prompt, config.llm_config()))
    path.write_text("{not json", encoding="utf-8")
    records, _ = run_evaluation(bundle, items, config, client)

    assert [r.item_id for r in records] == [i.item_id for i in items]
    for before, after in zip(clean, records):
        if after.item_id == victim.item_id:
            assert after.prediction["failed"]
            assert after.prediction["failure_stage"] == "step1-complete"
            assert str(path) in after.prediction["failure_reason"]
        else:
            assert after.to_dict() == before.to_dict()


def test_cache_directory_at_key_path_fails_only_its_item(
        mini_spider_root, oracle_cache_dir, tmp_path):
    bundle = load_dataset(mini_spider_root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    items = kept[:6]
    config = RunConfig(dataset="spider", root=str(mini_spider_root), method="unjoin-mp",
                       model=ORACLE_MODEL, cache_mode="replay",
                       cache_dir=str(tmp_path / "cache"), workers=2)
    shutil.copytree(oracle_cache_dir, config.cache_dir)
    cache = ExchangeCache(config.cache_dir)
    client = LlmClient(config.llm_config(), cache)
    clean, _ = run_evaluation(bundle, items, config, client)

    victim = items[2]
    db = bundle.catalogue[victim.db_id]
    simp = simplify_schema(db)
    plan = spider_oracle_plan()[victim.item_id]
    prompt = build_mp_step2_prompt(simp, plan[2], victim.prompt_question, db)
    path = cache.path_for(exchange_key(prompt, config.llm_config()))
    path.unlink()
    path.mkdir()
    records, _ = run_evaluation(bundle, items, config, client)

    assert [r.item_id for r in records] == [i.item_id for i in items]
    for before, after in zip(clean, records):
        if after.item_id == victim.item_id:
            assert after.prediction["failed"]
            assert after.prediction["failure_stage"] == "step2-complete"
            assert after.prediction["intermediate_sql"] == plan[2]
            assert str(path) in after.prediction["failure_reason"]
        else:
            assert after.to_dict() == before.to_dict()


# ----- templates read once per run -----


def _copy_templates(dest, names=TEMPLATE_FILES):
    dest.mkdir(exist_ok=True)
    for name in names:
        shutil.copy(DEFAULT_TEMPLATE_DIR / name, dest / name)
    return dest


def _recording_client(config, on_call=None):
    prompts = []

    def transport(prompt, cfg):
        prompts.append(prompt)
        if on_call is not None:
            on_call(len(prompts))
        return "```sql\nSELECT 1\n```", 1, 1

    return LlmClient(config.llm_config(), cache=None, transport=transport), prompts


@pytest.mark.parametrize("method", METHODS)
def test_run_reads_templates_once(mini_spider_root, tmp_path, monkeypatch, method):
    bundle = load_dataset(mini_spider_root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    sets = []

    class CountingSet(TemplateSet):
        def __init__(self, *args, **kwargs):
            sets.append(args)
            super().__init__(*args, **kwargs)

    # Counts the run's set and any set a prompt builder would read per call.
    monkeypatch.setattr(pipeline, "TemplateSet", CountingSet)
    monkeypatch.setattr(prompting, "TemplateSet", CountingSet)
    config = RunConfig(dataset="spider", root=str(mini_spider_root), method=method,
                       model="m", cache_mode="live", workers=2, out_dir=str(tmp_path))
    client, prompts = _recording_client(config)
    records, _ = run_evaluation(bundle, kept[:6], config, client)
    assert len(sets) == 1
    assert not any(r.prediction["failed"] for r in records)
    assert len(prompts) == (12 if method == "unjoin-mp" else 6)



def test_concurrent_endpoint_calls_bounded_by_workers(mini_spider_root, tmp_path):
    bundle = load_dataset(mini_spider_root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    lock = threading.Lock()
    state = {"now": 0, "peak": 0}

    def transport(prompt, cfg):
        with lock:
            state["now"] += 1
            state["peak"] = max(state["peak"], state["now"])
        time.sleep(0.01)
        with lock:
            state["now"] -= 1
        return "```sql\nSELECT 1\n```", 1, 1

    config = RunConfig(dataset="spider", root=str(mini_spider_root), method="unjoin-mp",
                       model="m", cache_mode="live", workers=2, out_dir=str(tmp_path))
    client = LlmClient(config.llm_config(), cache=None, transport=transport)
    records, _ = run_evaluation(bundle, kept[:8], config, client)
    assert len(records) == 8
    assert 1 <= state["peak"] <= 2


# ----- connections a run holds -----


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("workers", [1, 4])
def test_run_closes_every_connection_it_opens(
        workers, fail, mini_spider_root, connection_count, tmp_path):
    bundle = load_dataset(mini_spider_root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    items = kept[:8]

    def transport(prompt, cfg):
        if fail and items[5].question in prompt:
            raise RuntimeError("transport bug")  # not an LlmError, so it ends the run
        return "```sql\nSELECT 1\n```", 1, 1

    config = RunConfig(dataset="spider", root=str(mini_spider_root), method="cot",
                       model="m", cache_mode="live", workers=workers, out_dir=str(tmp_path))
    client = LlmClient(config.llm_config(), cache=None, transport=transport)
    if fail:
        with pytest.raises(RuntimeError, match="transport bug"):
            run_evaluation(bundle, items, config, client)
    else:
        records, _ = run_evaluation(bundle, items, config, client)
        assert [r.qe for r in records] == [True] * 8
    assert connection_count.opened and connection_count.still_open == 0


# ----- a rerun of a record-mode run is its resume -----


class GoldEndpoint:
    """Answers each prompt with its item's gold, fenced; raises once ``limit`` calls were answered.

    The item is the one whose question is the longest found in the prompt.
    """

    def __init__(self, items, limit=None):
        self.golds = sorted(((i.question, i.gold_sql) for i in items), key=lambda g: -len(g[0]))
        self.limit = limit
        self.requested: list[str] = []
        self.answered: list[str] = []
        self._lock = threading.Lock()

    def __call__(self, prompt, cfg):
        with self._lock:
            self.requested.append(prompt)
            if self.limit is not None and len(self.answered) >= self.limit:
                raise RuntimeError("endpoint gone")  # not an LlmError, so it ends the run
            self.answered.append(prompt)
        gold = next(g for q, g in self.golds if q in prompt)
        return f"```sql\n{gold}\n```", 1, 1


def _record_run(bundle, items, config, endpoint) -> bytes:
    """One record-mode run written as ``unjoin run`` writes it; the three files' bytes."""
    client = LlmClient(config.llm_config(), ExchangeCache(config.cache_dir), endpoint)
    records, meta = run_evaluation(bundle, items, config, client)
    out = Path(config.out_dir)
    write_records(records, out / "records.jsonl", meta)
    summary = build_summary(meta, records)
    write_summary(summary, out / "summary.json")
    write_bucket_csv(summary["buckets"], out / "buckets.csv")
    return b"\0".join((out / name).read_bytes()
                      for name in ("records.jsonl", "summary.json", "buckets.csv"))


@pytest.mark.parametrize("method", ["unjoin-mp", "cot"])
@pytest.mark.parametrize("workers", [1, 4])
def test_rerun_of_an_interrupted_record_run_resumes_it(
        workers, method, mini_spider_root, tmp_path):
    bundle = load_dataset(mini_spider_root, "spider")
    items, _ = filter_items(bundle.items, bundle.catalogue)
    config = RunConfig(dataset="spider", root=str(mini_spider_root), method=method,
                       model="m", cache_mode="record", cache_dir=str(tmp_path / "cache"),
                       workers=workers, out_dir=str(tmp_path / "out"))

    interrupted = GoldEndpoint(items, limit=7)
    with pytest.raises(RuntimeError, match="endpoint gone"):
        _record_run(bundle, items, config, interrupted)
    rerun = GoldEndpoint(items)
    resumed = _record_run(bundle, items, config, rerun)

    shutil.rmtree(tmp_path / "cache")
    shutil.rmtree(tmp_path / "out")
    whole = GoldEndpoint(items)
    assert _record_run(bundle, items, config, whole) == resumed
    assert len(interrupted.answered) == 7 and len(set(whole.requested)) == len(whole.requested)
    unanswered = set(whole.requested) - set(interrupted.answered)
    assert sorted(rerun.requested) == sorted(unanswered)
    assert b'"em": false' not in resumed


def test_template_rewritten_mid_run_changes_neither_prompts_nor_hash(
        mini_spider_root, tmp_path):
    bundle = load_dataset(mini_spider_root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    items = kept[:4]
    template_dir = _copy_templates(tmp_path / "templates")
    original = (template_dir / "mp_step2.txt").read_bytes()
    config = RunConfig(dataset="spider", root=str(mini_spider_root), method="unjoin-mp",
                       model="m", cache_mode="live", workers=1,
                       template_dir=str(template_dir), out_dir=str(tmp_path))

    def rewrite(calls):
        if calls == 1:
            (template_dir / "mp_step2.txt").write_text("REWRITTEN {question}", encoding="utf-8")

    client, prompts = _recording_client(config, rewrite)
    _, meta = run_evaluation(bundle, items, config, client)

    assert len(prompts) == 8
    assert not any("REWRITTEN" in p for p in prompts)
    for item, prompt in zip(items, prompts[1::2]):
        db = bundle.catalogue[item.db_id]
        (template_dir / "mp_step2.txt").write_bytes(original)
        assert prompt == build_mp_step2_prompt(
            simplify_schema(db), "SELECT 1", item.prompt_question, db,
            TemplateSet(METHOD_TEMPLATES["unjoin-mp"], template_dir))
    assert meta["template_hashes"]["mp_step2.txt"] == hashlib.sha256(original).hexdigest()
    assert meta["template_hashes"] == TemplateSet(()).hashes


def test_missing_needed_template_fails_before_any_call(mini_spider_root, tmp_path):
    bundle = load_dataset(mini_spider_root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    names = [n for n in TEMPLATE_FILES if n != "mp_step2.txt"]
    config = RunConfig(dataset="spider", root=str(mini_spider_root), method="unjoin-mp",
                       model="m", cache_mode="live", workers=1,
                       template_dir=str(_copy_templates(tmp_path / "t", names)),
                       out_dir=str(tmp_path))
    client, prompts = _recording_client(config)
    with pytest.raises(TemplateError, match="mp_step2"):
        run_evaluation(bundle, kept[:3], config, client)
    assert prompts == []


def test_templates_the_method_never_uses_may_be_absent(mini_spider_root, tmp_path):
    bundle = load_dataset(mini_spider_root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    names = ("cot.txt", "examples_baseline.txt")
    config = RunConfig(dataset="spider", root=str(mini_spider_root), method="cot",
                       model="m", cache_mode="live", workers=1,
                       template_dir=str(_copy_templates(tmp_path / "t", names)),
                       out_dir=str(tmp_path))
    client, prompts = _recording_client(config)
    records, meta = run_evaluation(bundle, kept[:3], config, client)
    assert len(prompts) == 3
    assert not any(r.prediction["failed"] for r in records)
    assert sorted(meta["template_hashes"]) == sorted(names)


def test_run_evaluation_open_book_uses_pool(mini_spider_root, tmp_path):
    bundle = load_dataset(mini_spider_root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    item = kept[0]  # completed-order customers over customer+orders
    retrieval = {
        item.item_id: [("retail", "customer", 0.9), ("retail", "orders", 0.8),
                       ("academic", "venue", 0.4)],
    }
    config = RunConfig(dataset="spider", root=str(mini_spider_root), method="cot",
                       model="m", cache_mode="live", workers=1, topk=2,
                       out_dir=str(tmp_path))
    client = LlmClient(
        config.llm_config(), cache=None,
        transport=lambda p, c: (f"```sql\n{item.gold_sql}\n```", 1, 1),
    )
    records, _ = run_evaluation(bundle, [item], config, client, retrieval=retrieval)
    assert records[0].qe and records[0].em
    assert records[0].pred_tables == ("customer", "orders")


def test_run_evaluation_open_book_missing_list_fails_item(mini_spider_root, tmp_path):
    bundle = load_dataset(mini_spider_root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    item = kept[0]
    config = RunConfig(dataset="spider", root=str(mini_spider_root), method="cot",
                       model="m", cache_mode="live", workers=1,
                       out_dir=str(tmp_path))
    client = LlmClient(config.llm_config(), cache=None,
                       transport=lambda p, c: ("```sql\nSELECT 1\n```", 1, 1))
    records, _ = run_evaluation(bundle, [item], config, client, retrieval={})
    assert not records[0].qe
    assert records[0].prediction["failed"]
    assert records[0].prediction["failure_stage"] == "retrieval"


# ----- per-schema caches filled concurrently -----


def _misspell(sql: str, names: set[str]) -> str:
    """Drop the next-to-last letter of the first schema name of 5+ letters."""
    for tok in tokenize(sql):
        if tok.kind == IDENT and tok.lower in names and len(tok.value) >= 5:
            return sql[: tok.start] + tok.value[:-2] + tok.value[-1] + sql[tok.end:]
    raise AssertionError(f"no schema name to misspell in {sql!r}")


def test_cold_schema_caches_filled_by_eight_workers_match_one(mini_bird_root, tmp_path):
    simplified_of = {gold: simp for _, _, _, gold, simp in BIRD_CASES}
    cache_dir = tmp_path / "cache"
    cache = ExchangeCache(cache_dir)
    cfg = LlmConfig(model=ORACLE_MODEL, temperature=0.0)
    seeded = load_dataset(mini_bird_root, "bird")
    kept, _ = filter_items(seeded.items, seeded.catalogue)
    for item in kept:
        db = seeded.catalogue[item.db_id]
        names = {item.db_id} | {t.name.lower() for t in db.tables} | {
            c.name.lower() for t in db.tables for c in t.columns}
        simp = simplify_schema(db, seeded.descriptions.get(item.db_id))
        flat = simplified_of[item.gold_sql]
        # Both completions carry a near-miss name; the step-2 prompt holds
        # the repaired step-1 query, so only a correct repair replays.
        for prompt, sql in (
            (build_mp_step1_prompt(simp, item.prompt_question), flat),
            (build_mp_step2_prompt(simp, flat, item.prompt_question, db), item.gold_sql),
        ):
            completion = f"```sql\n{_misspell(sql, names)}\n```"
            cache.put(LlmExchange(key=exchange_key(prompt, cfg), prompt=prompt,
                                  completion=completion))
    items = kept * 8  # several threads reach each cold schema at once

    def records_body(workers: int) -> bytes:
        bundle = load_dataset(mini_bird_root, "bird")  # new schema objects, caches cold
        config = RunConfig(dataset="bird", root=str(mini_bird_root), method="unjoin-mp",
                           model=ORACLE_MODEL, cache_mode="replay",
                           cache_dir=str(cache_dir), workers=workers)
        client = LlmClient(config.llm_config(), ExchangeCache(cache_dir))
        records, meta = run_evaluation(bundle, items, config, client)
        for rec in records:
            assert rec.em, rec.item_id
            assert rec.prediction["intermediate_report"]["substitutions"], rec.item_id
            assert rec.prediction["final_report"]["substitutions"], rec.item_id
        path = tmp_path / f"records-{workers}.jsonl"
        write_records(records, path, meta)
        return path.read_bytes().split(b"\n", 1)[1]  # the _meta line names the workers

    expected = records_body(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 5.0
        for _ in range(20):
            assert records_body(8) == expected
            if time.monotonic() > deadline:
                break
    finally:
        sys.setswitchinterval(interval)
