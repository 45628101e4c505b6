import json

import pytest

from unjoin.dataset import (
    DatasetError,
    EvalItem,
    RunConfig,
    filter_items,
    load_dataset,
    load_retrieval_lists,
)
from unjoin.schema import load_catalogue


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
    ]
    kept, dropped = filter_items(items, catalogue)
    assert kept == []
    reasons = {item.item_id: reason for item, reason in dropped}
    assert reasons["ghost:0"].startswith("unknown database")
    assert reasons["retail:1"] == "missing gold SQL"
    assert reasons["retail:2"].startswith("unparseable gold SQL")
    assert reasons["retail:3"] == "single-table query"


def test_filter_bird_counts(mini_bird_root):
    bundle = load_dataset(mini_bird_root, "bird")
    kept, dropped = filter_items(bundle.items, bundle.catalogue)
    assert len(kept) == 3
    assert len(dropped) == 1


def test_load_retrieval_lists(tmp_path):
    path = tmp_path / "retrieval.jsonl"
    path.write_text(
        json.dumps({"question_id": "retail:0",
                    "tables": [{"db_id": "retail", "table_name": "customer", "score": 0.9},
                               {"db_id": "retail", "table_name": "orders", "score": 0.8}]})
        + "\n",
        encoding="utf-8",
    )
    lists = load_retrieval_lists(path)
    assert lists["retail:0"] == [("retail", "customer", 0.9), ("retail", "orders", 0.8)]


def test_load_retrieval_lists_reports_bad_line(tmp_path):
    path = tmp_path / "retrieval.jsonl"
    good = json.dumps({"question_id": "a", "tables": []})
    path.write_text(good + "\nnot json\n", encoding="utf-8")
    with pytest.raises(DatasetError) as info:
        load_retrieval_lists(path)
    assert "line 2" in str(info.value)


# ----- run configuration -----


def test_run_config_roundtrip(tmp_path):
    cfg = RunConfig(dataset="spider", root="/data", method="unjoin-sp",
                    model="m", cache_mode="replay", cache_dir=str(tmp_path))
    back = RunConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_run_config_rejects_unknown_keys():
    with pytest.raises(DatasetError):
        RunConfig.from_dict({"dataset": "spider", "mystery": 1})


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
    assert llm.max_in_flight == 3
