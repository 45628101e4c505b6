import importlib
import json
import logging
import random
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import unjoin.evaluation
from unjoin.dataset import (
    DatasetError,
    EvalItem,
    RunConfig,
    filter_items,
    load_dataset,
    load_retrieval_lists,
)
from unjoin.evaluation import score_sql
from unjoin.schema import load_catalogue
from unjoin.sqlast import parse
from unjoin.sqlref import resolve_refs
from unjoin.tokens import tokenize

from conftest import FIXTURE_GOLDS, SPIDER_CASES, academic_schema, retail_schema
from oracles import per_item_filter


def test_load_spider_root(mini_spider_root):
    bundle = load_dataset(mini_spider_root, "spider")
    assert bundle.flavor == "spider"
    assert sorted(bundle.catalogue) == ["academic", "retail"]
    assert len(bundle.items) == 30
    assert bundle.items[0].item_id == "retail:0"
    assert bundle.items[0].gold_sql.startswith("SELECT")
    for db_id, path in bundle.db_paths.items():
        assert path.exists(), db_id
    assert bundle.descriptions == {}


def test_load_bird_root(mini_bird_root):
    bundle = load_dataset(mini_bird_root, "bird")
    assert sorted(bundle.catalogue) == ["financial", "toy_shop"]
    assert len(bundle.items) == 4
    first = bundle.items[0]
    assert first.evidence == "Prague refers to A2 = 'Prague'"
    assert first.gold_sql.startswith("SELECT count(*)")
    assert "district.a2" in bundle.descriptions["financial"]


def test_prompt_question_appends_evidence():
    item = EvalItem("db:0", "db", "How many?", "SELECT 1", evidence="x means y")
    assert item.prompt_question == "How many?\nEvidence: x means y"
    plain = EvalItem("db:1", "db", "How many?", "SELECT 1")
    assert plain.prompt_question == "How many?"


def test_unknown_flavor_rejected(mini_spider_root):
    with pytest.raises(DatasetError):
        load_dataset(mini_spider_root, "wikisql")


def test_root_that_is_not_a_directory_rejected(tmp_path):
    root = tmp_path / "root.json"
    root.write_text("{}", encoding="utf-8")
    with pytest.raises(DatasetError, match="is not a directory"):
        load_dataset(root, "spider")


def test_missing_root_reports_paths(tmp_path):
    with pytest.raises(DatasetError) as info:
        load_dataset(tmp_path, "spider")
    assert "tables.json" in str(info.value)


def test_filter_keeps_exactly_multi_table_items(mini_spider_root):
    bundle = load_dataset(mini_spider_root, "spider")
    kept, dropped = filter_items(bundle.items, bundle.catalogue)
    assert len(kept) == 25
    assert len(dropped) == 5
    assert all(reason == "single-table query" for _, reason in dropped)
    assert all(item.gold_table_count >= 2 for item in kept)


def test_filter_records_gold_table_counts(mini_spider_root):
    bundle = load_dataset(mini_spider_root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    by_id = {item.item_id: item for item in kept}
    # five-way retail join and the academic union-of-four
    assert by_id["retail:12"].gold_table_count == 5
    assert by_id["academic:28"].gold_table_count == 4


def test_filter_drop_reasons(mini_spider_root):
    catalogue = load_catalogue(mini_spider_root / "tables.json")
    items = [
        EvalItem("ghost:0", "ghost", "q", "SELECT 1"),
        EvalItem("retail:1", "retail", "q", ""),
        EvalItem("retail:2", "retail", "q", "SELEC name FRM customer"),
        EvalItem("retail:3", "retail", "q", "SELECT name FROM customer"),
        EvalItem("retail:4", "retail", " \n", "SELECT 1 FROM customer, city"),
        EvalItem("retail:5", "retail", "q", "SELECT 1 FROM customer, Ghost, city AS g"),
        EvalItem("retail:6", "retail", "q", "SELECT name FROM customer JOIN city USING (city_id"),
    ]
    kept, dropped = filter_items(items, catalogue)
    assert kept == []
    reasons = {item.item_id: reason for item, reason in dropped}
    assert reasons["retail:5"] == "gold names tables its database lacks: ghost"
    assert reasons["ghost:0"].startswith("unknown database")
    assert reasons["retail:1"] == "missing gold SQL"
    assert reasons["retail:2"].startswith("unparseable gold SQL")
    assert reasons["retail:3"] == "single-table query"
    assert reasons["retail:4"] == "missing question"
    assert reasons["retail:6"] == "unparseable gold SQL: expected ')', got 'end of input'"


def test_filter_keeps_a_gold_whose_cte_reads_itself():
    # FROM ids inside the body of CTE ids names the CTE, not a table.
    gold = ("WITH RECURSIVE ids(n) AS (SELECT min(city_id) FROM city UNION ALL "
            "SELECT n + 1 FROM ids WHERE n < 3) "
            "SELECT name FROM customer WHERE city_id IN (SELECT n FROM ids)")
    kept, dropped = filter_items([EvalItem("retail:0", "retail", "q", gold)],
                                 {"retail": retail_schema()})
    assert dropped == []
    assert [item.gold_table_count for item in kept] == [2]


def test_filter_bird_counts(mini_bird_root):
    bundle = load_dataset(mini_bird_root, "bird")
    kept, dropped = filter_items(bundle.items, bundle.catalogue)
    assert len(kept) == 3
    assert len(dropped) == 1


# ----- one parse per distinct gold text -----


UNPARSEABLE = "SELEC name FRM customer"


def two_schemas() -> dict:
    return {"retail": retail_schema(), "academic": academic_schema()}


def filtered_with_warnings(fn, items, catalogue, caplog):
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        kept, dropped = fn(items, catalogue)
    return kept, dropped, [(r.levelname, r.getMessage()) for r in caplog.records]


def assert_matches_per_item_filter(items, catalogue, caplog):
    got = filtered_with_warnings(filter_items, items, catalogue, caplog)
    want = filtered_with_warnings(per_item_filter, items, catalogue, caplog)
    assert got == want


def test_filter_matches_the_per_item_reference_on_the_fixtures(
    mini_spider_root, mini_bird_root, caplog
):
    for root, flavor in ((mini_spider_root, "spider"), (mini_bird_root, "bird")):
        bundle = load_dataset(root, flavor)
        assert_matches_per_item_filter(bundle.items, bundle.catalogue, caplog)


@st.composite
def item_lists(draw):
    # A few gold texts from a small pool, so texts repeat across items and
    # databases, plus one unparseable text and an empty gold.
    pool = draw(st.lists(st.sampled_from(FIXTURE_GOLDS), min_size=1, max_size=4))
    rows = draw(st.lists(
        st.tuples(
            st.sampled_from(["retail", "academic", "ghost"]),
            st.sampled_from(["Which ones?", " \n", ""]),
            st.sampled_from(pool + [UNPARSEABLE, ""]),
        ),
        max_size=30,
    ))
    return [EvalItem(f"{db_id}:{i}", db_id, q, gold) for i, (db_id, q, gold) in enumerate(rows)]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(items=item_lists())
@example(items=[
    EvalItem("retail:0", "retail", "q", SPIDER_CASES[0][2]),
    EvalItem("academic:1", "academic", "q", SPIDER_CASES[0][2]),
    EvalItem("retail:2", "retail", "q", UNPARSEABLE),
    EvalItem("academic:3", "academic", "q", UNPARSEABLE),
    EvalItem("retail:4", "retail", " ", SPIDER_CASES[0][2]),
    EvalItem("ghost:5", "ghost", "q", SPIDER_CASES[0][2]),
    EvalItem("retail:6", "retail", "q", ""),
    EvalItem("retail:7", "retail", "q", UNPARSEABLE),
])
def test_filter_matches_the_per_item_reference_on_mixed_items(items, caplog):
    assert_matches_per_item_filter(items, two_schemas(), caplog)


def test_shared_gold_is_resolved_once_and_checked_against_each_items_own_schema(
        monkeypatch, caplog):
    catalogue = two_schemas()
    gold = SPIDER_CASES[0][2]
    items = [EvalItem("retail:0", "retail", "q", gold),
             EvalItem("academic:1", "academic", "q", gold),
             EvalItem("retail:2", "retail", "q", gold)]
    schemas = []

    def recording(stmt, db):
        schemas.append(db.db_id)
        return resolve_refs(stmt, db)

    monkeypatch.setattr(unjoin.evaluation, "resolve_refs", recording)
    assert_matches_per_item_filter(items, catalogue, caplog)
    assert schemas == ["retail"]
    kept, dropped = filter_items(items, catalogue)
    assert [(item.item_id, item.gold_table_count) for item in kept] == [
        ("retail:0", 2), ("retail:2", 2)]
    assert [(item.item_id, reason) for item, reason in dropped] == [
        ("academic:1", "gold names tables its database lacks: customer, orders")]


def count_calls(monkeypatch, fn) -> list:
    """Wrap ``fn`` in every unjoin module that holds it; return the texts it is called on."""
    seen = []

    def counting(sql):
        seen.append(sql)
        return fn(sql)

    for name, module in list(sys.modules.items()):
        if name.startswith("unjoin") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counting)
    return seen


def test_filter_parses_each_distinct_gold_text_once(monkeypatch):
    parsed = count_calls(monkeypatch, parse)
    tokenized = count_calls(monkeypatch, tokenize)
    first, second = SPIDER_CASES[0][2], SPIDER_CASES[3][2]
    golds = [first, first, second, UNPARSEABLE, first, UNPARSEABLE, second]
    items = [EvalItem(f"{db_id}:{i}", db_id, "q", gold)
             for i, (db_id, gold) in enumerate(zip(["retail", "academic"] * 4, golds))]
    kept, dropped = filter_items(items, two_schemas())
    # academic:1 is dropped after its parse: academic lacks the retail tables.
    assert len(kept) == 4 and len(dropped) == 3
    assert Counter(parsed) == {first: 1, second: 1, UNPARSEABLE: 1}
    assert Counter(tokenized) == {first: 1, second: 1, UNPARSEABLE: 1}


def test_filter_parses_nothing_for_items_dropped_before_the_parse(monkeypatch):
    parsed = count_calls(monkeypatch, parse)
    only_dropped, shared = SPIDER_CASES[0][2], SPIDER_CASES[3][2]
    items = [
        EvalItem("ghost:0", "ghost", "q", only_dropped),
        EvalItem("retail:1", "retail", " ", only_dropped),
        EvalItem("retail:2", "retail", "q", ""),
        EvalItem("retail:3", "retail", " ", shared),
        EvalItem("academic:4", "academic", "q", shared),
        EvalItem("ghost:5", "ghost", "q", shared),
        EvalItem("retail:6", "retail", "q", shared),
    ]
    kept, dropped = filter_items(items, two_schemas())
    assert [item.item_id for item in kept] == ["retail:6"]
    assert dropped[4][0].item_id == "academic:4"
    assert dropped[4][1].startswith("gold names tables its database lacks")
    assert parsed == [shared]


def test_filter_holds_no_parse_past_its_resolution(monkeypatch):
    labels = {SPIDER_CASES[0][2]: "a", SPIDER_CASES[1][2]: "b", SPIDER_CASES[3][2]: "c"}
    golds = [SPIDER_CASES[i][2] for i in (0, 1, 0, 3, 3)]
    items = [EvalItem(f"retail:{i}", "retail", "q", gold) for i, gold in enumerate(golds)]
    statements = {}
    live = []

    def parsing(sql):
        stmt = parse(sql)
        statements[labels[sql]] = weakref.ref(stmt)
        return stmt

    def resolving(stmt, db):
        live.append("".join(sorted(k for k, ref in statements.items() if ref() is not None)))
        return resolve_refs(stmt, db)

    monkeypatch.setattr(unjoin.evaluation, "parse", parsing)
    monkeypatch.setattr(unjoin.evaluation, "resolve_refs", resolving)
    filter_items(items, two_schemas())
    # One resolution per distinct text, and each earlier parse is gone by the next.
    assert live == ["a", "b", "c"]


BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("workload", ["spider_narrow", "bird_wide_noisy", "record_slow_endpoint"])
def test_carried_scores_equal_recomputed_ones_on_generated_workloads(
        workload, tmp_path, monkeypatch):
    # The dataset root the benchmark generator writes for the workload at seed 1.
    monkeypatch.syspath_prepend(str(BENCH))
    generate = importlib.import_module("generate")
    spec = generate.WORKLOADS[workload]
    rng = random.Random(f"{workload}:1")
    if spec["shape"] == "spider":
        generate.build_spider(rng, spec["size"], tmp_path)
    else:
        generate.build_bird(rng, spec["size"], spec["items_per_db"], spec["typo_share"],
                            spec["slice_items"], tmp_path)
    bundle = load_dataset(tmp_path, spec["shape"])
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    carried = [item for item in kept if item.gold_score is not None]
    assert carried
    for item in carried:
        assert item.gold_score == score_sql(item.gold_sql, bundle.catalogue[item.db_id])


# ----- malformed dev entries -----


def test_items_of_a_malformed_catalogue_entry_drop_as_unknown_database(
        mini_spider_root, tmp_path, caplog):
    tables = json.loads((mini_spider_root / "tables.json").read_text(encoding="utf-8"))
    academic = next(entry for entry in tables if entry["db_id"] == "academic")
    del academic["column_names_original"]
    (tmp_path / "tables.json").write_text(json.dumps(tables), encoding="utf-8")
    (tmp_path / "dev.json").write_bytes((mini_spider_root / "dev.json").read_bytes())
    with caplog.at_level(logging.WARNING):
        bundle = load_dataset(tmp_path, "spider")
        kept, dropped = filter_items(bundle.items, bundle.catalogue)
    assert "tables.json entry 1 ('academic') skipped" in caplog.text
    assert sorted(bundle.catalogue) == ["retail"]
    full = load_dataset(mini_spider_root, "spider")
    want, _ = filter_items(full.items, full.catalogue)
    assert kept == [item for item in want if item.db_id == "retail"]
    academic_items = [item for item in bundle.items if item.db_id == "academic"]
    assert academic_items
    assert [(item, "unknown database 'academic'") for item in academic_items] == [
        (item, reason) for item, reason in dropped if item.db_id == "academic"]


def test_malformed_dev_entries_cost_one_item_each(mini_spider_root, tmp_path, caplog):
    good = json.loads((mini_spider_root / "dev.json").read_text(encoding="utf-8"))[:3]
    gold = good[0]["query"]
    bad = [
        {"question": "Which ones?", "query": gold},
        {"db_id": "retail", "question": "Which ones?", "query": ["SELECT", "1"]},
        {"db_id": "retail", "question": None, "query": gold},
        "not an object",
        None,
    ]
    (tmp_path / "tables.json").write_bytes((mini_spider_root / "tables.json").read_bytes())
    (tmp_path / "dev.json").write_text(json.dumps(good + bad), encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        bundle = load_dataset(tmp_path, "spider")
    assert len(caplog.records) == 5
    assert "dev entry 3: db_id is missing" in caplog.text
    assert "dev entry 4: gold SQL is a list, not text" in caplog.text
    assert "dev entry 5: question is missing" in caplog.text
    assert "dev entry 6 is not a JSON object" in caplog.text
    assert "dev entry 7 is not a JSON object" in caplog.text
    assert bundle.items[:3] == load_dataset(mini_spider_root, "spider").items[:3]
    assert [item.item_id for item in bundle.items[3:]] == [":3", "retail:4", "retail:5", ":6", ":7"]

    caplog.clear()
    with caplog.at_level(logging.WARNING):
        kept, dropped = filter_items(bundle.items, bundle.catalogue)
    assert [item.item_id for item in kept] == ["retail:0", "retail:1"]
    assert [(item.item_id, reason) for item, reason in dropped] == [
        ("retail:2", "single-table query"),
        (":3", "unknown database ''"),
        ("retail:4", "missing gold SQL"),
        ("retail:5", "missing question"),
        (":6", "unknown database ''"),
        (":7", "unknown database ''"),
    ]
    assert len(caplog.records) == 5


def test_dev_file_that_is_not_a_list_is_rejected(mini_spider_root, tmp_path):
    (tmp_path / "tables.json").write_bytes((mini_spider_root / "tables.json").read_bytes())
    (tmp_path / "dev.json").write_text(json.dumps({"db_id": "retail"}), encoding="utf-8")
    with pytest.raises(DatasetError, match="list of entries"):
        load_dataset(tmp_path, "spider")


def test_load_retrieval_lists(tmp_path):
    path = tmp_path / "retrieval.jsonl"
    path.write_text(
        json.dumps({"question_id": "retail:0",
                    "tables": [{"db_id": "retail", "table_name": "customer", "score": 0.9},
                               {"db_id": "retail", "table_name": "orders", "score": 0.8}]})
        + "\n\n   \n",  # blank lines are skipped
        encoding="utf-8",
    )
    lists = load_retrieval_lists(path)
    assert lists == {"retail:0": [("retail", "customer", 0.9), ("retail", "orders", 0.8)]}


def test_load_retrieval_lists_reports_bad_line(tmp_path):
    path = tmp_path / "retrieval.jsonl"
    good = json.dumps({"question_id": "a", "tables": []})
    path.write_text(good + "\nnot json\n", encoding="utf-8")
    with pytest.raises(DatasetError) as info:
        load_retrieval_lists(path)
    assert "line 2" in str(info.value)


@pytest.mark.parametrize("field, value", [("db_id", ["retail"]), ("table_name", 5)])
def test_load_retrieval_lists_rejects_a_name_that_is_not_text(tmp_path, field, value):
    entry = {"db_id": "retail", "table_name": "customer", field: value}
    path = tmp_path / "retrieval.jsonl"
    path.write_text(json.dumps({"question_id": "a", "tables": []}) + "\n"
                    + json.dumps({"question_id": "b", "tables": [entry]}) + "\n",
                    encoding="utf-8")
    with pytest.raises(DatasetError, match=f"bad retrieval record on line 2: {field} must be text"):
        load_retrieval_lists(path)


# ----- run configuration -----


def test_run_config_roundtrip(tmp_path):
    cfg = RunConfig(dataset="spider", root="/data", method="unjoin-sp",
                    model="m", cache_mode="replay", cache_dir=str(tmp_path))
    back = RunConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_run_config_rejects_unknown_keys():
    with pytest.raises(DatasetError):
        RunConfig.from_dict({"dataset": "spider", "mystery": 1})


def test_run_config_takes_an_int_for_a_float_and_nothing_else_across_types():
    cfg = RunConfig.from_dict({"temperature": 1, "exec_timeout_s": 5, "workers": 2})
    assert (cfg.temperature, cfg.exec_timeout_s, cfg.workers) == (1, 5, 2)
    for key, value in [("workers", 2.0), ("workers", True), ("temperature", "0"),
                       ("model", 3), ("root", None)]:
        with pytest.raises(DatasetError, match=f"config key '{key}' must be"):
            RunConfig.from_dict({key: value})


def test_run_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dataset": "bird", "method": "cot", "model": "m"}),
                    encoding="utf-8")
    cfg = RunConfig.from_file(path)
    assert cfg.dataset == "bird"
    assert cfg.method == "cot"


def test_replay_requires_existing_cache_dir(tmp_path):
    cfg = RunConfig(dataset="spider", root=".", method="unjoin-sp", model="m",
                    cache_mode="replay", cache_dir=str(tmp_path / "missing"))
    with pytest.raises(DatasetError):
        cfg.validate()
    ok_cfg = RunConfig(dataset="spider", root=".", method="unjoin-sp", model="m",
                       cache_mode="replay", cache_dir=str(tmp_path))
    ok_cfg.validate()


def test_record_requires_cache_dir(tmp_path):
    cfg = RunConfig(dataset="spider", root=".", method="cot", model="m",
                    cache_mode="record")
    with pytest.raises(DatasetError, match="record mode"):
        cfg.validate()
    # the directory is created on the first write, so it need not exist yet
    RunConfig(dataset="spider", root=".", method="cot", model="m",
              cache_mode="record", cache_dir=str(tmp_path / "new")).validate()


def test_validate_rejects_bad_enum_values(tmp_path):
    with pytest.raises(DatasetError):
        RunConfig(dataset="spider", root=".", method="gpt-magic", model="m",
                  cache_mode="live").validate()
    with pytest.raises(DatasetError):
        RunConfig(dataset="spider", root=".", method="cot", model="m",
                  cache_mode="sometimes").validate()
    with pytest.raises(DatasetError, match="unknown dataset 'postgres'"):
        RunConfig(dataset="postgres", root=".", method="cot", model="m",
                  cache_mode="live").validate()


@pytest.mark.parametrize("field, value", [
    ("exec_timeout_s", 0.0),
    ("exec_timeout_s", -1.0),
    ("exec_timeout_s", float("nan")),
    ("request_timeout_s", 0.0),
    ("request_timeout_s", -5.0),
    ("retries", -1),
    ("max_output_tokens", 0),
    ("workers", 0),
    ("topk", 0),
])
def test_validate_rejects_out_of_range_settings(field, value):
    cfg = RunConfig(dataset="spider", root=".", method="cot", model="m",
                    cache_mode="live", **{field: value})
    with pytest.raises(DatasetError, match=field):
        cfg.validate()


def test_validate_accepts_smallest_settings():
    RunConfig(dataset="spider", root=".", method="cot", model="m", cache_mode="live",
              exec_timeout_s=0.001, request_timeout_s=0.001, retries=0,
              max_output_tokens=1).validate()


def test_llm_config_mapping():
    cfg = RunConfig(dataset="spider", root=".", method="cot", model="m",
                    endpoint="http://x", temperature=0.3, max_output_tokens=77,
                    request_timeout_s=9.0, retries=4, workers=3)
    llm = cfg.llm_config()
    assert llm.model == "m"
    assert llm.endpoint == "http://x"
    assert llm.temperature == 0.3
    assert llm.max_output_tokens == 77
    assert llm.timeout_s == 9.0
    assert llm.retries == 4
