"""Pinned bytes of replayed runs: the outputs every method writes.

A replay cache holds an oracle completion for every prompt each method
sends over the SPIDER fixture and the BIRD fixture (its descriptions
included): for unjoin-mp the gold flat-view query, then the gold query;
for unjoin-sp both in one completion; for the two baselines the gold
query. Each method is then run at ``workers`` 1 and 4, and its
``records.jsonl``, ``summary.json`` and ``buckets.csv`` are written
with the run's own writers. Both worker counts must write the same
bytes, and these bytes must not drift: a refactor that changes a
prompt, a repair, a score or a serialization moves a digest.

The checkout's ``root`` and ``cache_dir`` and the ``workers`` value are
replaced by fixed placeholders in the run's meta, so the digests do not
depend on where the test runs.
"""

import hashlib
import json

import pytest

from unjoin.dataset import METHODS, RunConfig, filter_items, load_dataset
from unjoin.evaluation import build_summary, write_bucket_csv, write_records, write_summary
from unjoin.llm import ExchangeCache, LlmClient, LlmConfig, LlmExchange, exchange_key
from unjoin.pipeline import run_evaluation
from unjoin.prompting import (
    baseline_schema_block,
    build_baseline_prompt,
    build_mp_step1_prompt,
    build_mp_step2_prompt,
    build_sp_prompt,
)
from unjoin.schema import simplify_schema

from conftest import BIRD_CASES, ORACLE_MODEL, SPIDER_CASES

# sha256 over the three output files of the SPIDER run, then of the BIRD
# run, each file's bytes followed by a NUL.
REPLAY_DIGESTS = {
    "unjoin-sp": "d156d8b1c19b85d97461f75ea2850944cc3dac169a48f8d51913ff304f9a8241",
    "unjoin-mp": "e449be50768466655e544dc12da7816d9a4277dd40077467236444f769635679",
    "cot": "3ca76bb9a07eb7c7e8543b2f46c5426a3a3fd3759829c632b9839dd1eb0d1ec1",
    "cot-ss": "4ff96aa9ebaefff6f14c78d799708ba176dfe4cb84700042de22fb919bc2b6cd",
}

OUTPUTS = ("records.jsonl", "summary.json", "buckets.csv")


def _fenced(sql: str) -> str:
    return f"```sql\n{sql}\n```"


def _oracle_exchanges(bundle, cases):
    """(prompt, completion) for every prompt of every method over the kept items."""
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    out = []
    for item in kept:
        db = bundle.catalogue[item.db_id]
        simplified = simplify_schema(db, bundle.descriptions.get(item.db_id))
        question = item.prompt_question
        gold, flat = item.gold_sql, cases[int(item.item_id.rsplit(":", 1)[1])][-1]
        out.append((build_mp_step1_prompt(simplified, question), _fenced(flat)))
        out.append((build_mp_step2_prompt(simplified, flat, question, db), _fenced(gold)))
        joint = f"{_fenced(flat)}\n\nTranslated back to the original schema:\n\n{_fenced(gold)}"
        out.append((build_sp_prompt(simplified, question, db), joint))
        for kind in ("cot", "cot-ss"):
            prompt = build_baseline_prompt(kind, baseline_schema_block(kind, db), question)
            out.append((prompt, _fenced(gold)))
    return kept, out


@pytest.fixture(scope="module")
def replay_runs(mini_spider_root, mini_bird_root, tmp_path_factory):
    """(flavor, root, bundle, kept items) per fixture, and the cache that answers them all."""
    cache_dir = tmp_path_factory.mktemp("replay_pins_cache")
    cache = ExchangeCache(cache_dir)
    cfg = LlmConfig(model=ORACLE_MODEL, temperature=0.0)
    runs = []
    for flavor, root, cases in (("spider", mini_spider_root, SPIDER_CASES),
                                ("bird", mini_bird_root, BIRD_CASES)):
        bundle = load_dataset(root, flavor)
        kept, exchanges = _oracle_exchanges(bundle, cases)
        for prompt, completion in exchanges:
            cache.put(LlmExchange(key=exchange_key(prompt, cfg), prompt=prompt,
                                  completion=completion))
        runs.append((flavor, root, bundle, kept))
    return runs, cache_dir


def _write_run(method, flavor, root, bundle, items, cache_dir, workers, out):
    config = RunConfig(dataset=flavor, root=str(root), method=method, model=ORACLE_MODEL,
                       cache_mode="replay", cache_dir=str(cache_dir), workers=workers)
    client = LlmClient(config.llm_config(), ExchangeCache(cache_dir))
    records, meta = run_evaluation(bundle, items, config, client)
    meta["config"].update(root="<root>", cache_dir="<cache_dir>", workers="<workers>")
    write_records(records, out / "records.jsonl", meta)
    summary = build_summary(meta, records)
    write_summary(summary, out / "summary.json")
    write_bucket_csv(summary["buckets"], out / "buckets.csv")
    return b"".join((out / name).read_bytes() + b"\0" for name in OUTPUTS)


@pytest.mark.parametrize("method", METHODS)
def test_replayed_outputs_pinned(method, replay_runs, tmp_path):
    runs, cache_dir = replay_runs
    written = {}
    for workers in (1, 4):
        written[workers] = b"".join(
            _write_run(method, flavor, root, bundle, items, cache_dir, workers,
                       tmp_path / f"{flavor}-{workers}")
            for flavor, root, bundle, items in runs
        )
    assert written[1] == written[4]
    # Every prompt was answered and every item scored right.
    assert b'"failed": true' not in written[1] and b'"em": false' not in written[1]
    assert hashlib.sha256(written[1]).hexdigest() == REPLAY_DIGESTS[method]


@pytest.mark.parametrize("method", METHODS)
def test_replayed_outputs_pinned_from_a_cache_in_another_layout(method, replay_runs, tmp_path):
    # Files as another writer might lay them out are read in full, to the same outputs.
    runs, cache_dir = replay_runs
    relaid = tmp_path / "cache"
    for path in cache_dir.rglob("*.json"):
        target = relaid / path.relative_to(cache_dir)
        target.parent.mkdir(parents=True, exist_ok=True)
        raw = json.loads(path.read_text(encoding="utf-8"))
        target.write_text(json.dumps(raw, ensure_ascii=False, indent=2), encoding="utf-8")
    written = b"".join(
        _write_run(method, flavor, root, bundle, items, relaid, 1, tmp_path / flavor)
        for flavor, root, bundle, items in runs
    )
    assert hashlib.sha256(written).hexdigest() == REPLAY_DIGESTS[method]
