import shutil
import threading
import time

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
from unjoin import pipeline
from unjoin.pipeline import (
    PoolError,
    PredictedQuery,
    assemble_pool,
    evaluate_item,
    run_evaluation,
    run_method,
)
from unjoin.prompting import build_mp_step1_prompt
from unjoin.schema import ColumnDef, DatabaseSchema, TableDef, simplify_schema

from conftest import ORACLE_MODEL, seed_oracle_cache, spider_oracle_plan

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
    assert pred.intermediate_report.changed
    assert pred.final_report.changed
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
    assert tuple(pipeline._RUNNERS) == METHODS


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
    assert [t.name for t in pool.schema.tables] == ["customer", "city"]
    assert pool.schema.db_id == "pool"
    assert pool.provenance == {"customer": ("retail", "customer"),
                               "city": ("retail", "city")}


def test_pool_deduplicates_repeated_tables(retail_db):
    pool = assemble_pool(
        [("retail", "customer", 0.9), ("retail", "CUSTOMER", 0.8)],
        {"retail": retail_db},
    )
    assert [t.name for t in pool.schema.tables] == ["customer"]


def test_pool_renames_cross_database_collisions(retail_db):
    catalogue = {"retail": retail_db, "crm": crm_schema()}
    pool = assemble_pool(
        [("retail", "customer", 0.9), ("crm", "customer", 0.8)],
        catalogue,
    )
    assert [t.name for t in pool.schema.tables] == ["customer", "customer__crm"]
    assert pool.provenance["customer__crm"] == ("crm", "customer")


def test_pool_keeps_foreign_keys_within_one_source(retail_db):
    pool = assemble_pool(
        [("retail", "customer", 0.9), ("retail", "city", 0.8), ("retail", "product", 0.7)],
        {"retail": retail_db},
    )
    assert ("customer", "city_id", "city", "city_id") in pool.schema.foreign_keys
    # item/orders absent, so their keys must not survive
    assert all("item" not in fk for fk in pool.schema.foreign_keys)


def test_pool_drops_foreign_keys_across_sources(retail_db):
    catalogue = {"retail": retail_db, "crm": crm_schema()}
    pool = assemble_pool(
        [("retail", "customer", 0.9), ("crm", "deal", 0.8)],
        catalogue,
    )
    assert pool.schema.foreign_keys == ()


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
    assert "missing" in rec.gold_exec.error
    assert not rec.qe


def test_evaluate_item_counts_tables_when_item_lacks_count(retail_db, retail_sqlite):
    item = EvalItem("retail:0", "retail", "q",
                    "SELECT name FROM customer JOIN city ON customer.city_id = city.city_id")
    pred = PredictedQuery(method="cot", final_sql="SELECT 1")
    rec = evaluate_item(item, pred, retail_db, retail_db, retail_sqlite, 10.0)
    assert rec.gold_table_count == 2


# ----- whole-run orchestration -----


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
