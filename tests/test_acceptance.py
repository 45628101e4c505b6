"""End-to-end gate: one test per shipping requirement.

Each test prints a single PASS / FAIL / SKIP line outside pytest's
capture so the verdicts survive into piped logs. Tolerances are stated
inline; where a requirement needs data this sandbox cannot ship (the
real benchmark dumps), the test skips with the environment variable
that would enable it.
"""

import json
import os
import time
from contextlib import contextmanager

import pytest

from unjoin.cli import main as cli_main
from unjoin.correction import correct_identifiers
from unjoin.dataset import RunConfig, filter_items, load_dataset
from unjoin.evaluation import (
    EvalRecord,
    bucket_by_table_count,
    compare_results,
    execute,
    has_top_level_order_by,
    score_run,
)
from unjoin.llm import ExchangeCache, LlmClient
from unjoin.pipeline import run_evaluation
from unjoin.schema import simplify_schema
from unjoin.sqlast import parse
from unjoin.sqlref import extract_refs

from conftest import ORACLE_MODEL, financial_schema, synthetic_6x10_schema
from oracles import naive_buckets, naive_score
from test_correction import SUITE
from test_evaluation import seeded_records
from test_sqlref import CASES


@pytest.fixture()
def verdict(capsys):
    @contextmanager
    def _verdict(label):
        try:
            yield
        except pytest.skip.Exception as exc:
            with capsys.disabled():
                print(f"\nSKIP {label}: {exc}")
            raise
        except BaseException:
            with capsys.disabled():
                print(f"\nFAIL {label}")
            raise
        with capsys.disabled():
            print(f"\nPASS {label}")
    return _verdict


def oracle_config(root, cache_dir, method):
    return RunConfig(dataset="spider", root=str(root), method=method,
                     model=ORACLE_MODEL, cache_mode="replay",
                     cache_dir=str(cache_dir), workers=4)


def oracle_run(root, cache_dir, method):
    bundle = load_dataset(root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    config = oracle_config(root, cache_dir, method)
    client = LlmClient(config.llm_config(), ExchangeCache(cache_dir))
    return run_evaluation(bundle, kept, config, client)


def test_criterion_1_real_benchmark_filter_counts(verdict):
    spider = os.environ.get("UNJOIN_SPIDER_ROOT")
    bird = os.environ.get("UNJOIN_BIRD_ROOT")
    with verdict("criterion 1: real dev sets filter to 443/81 and 1095/77"):
        missing = [name for name, value in
                   (("UNJOIN_SPIDER_ROOT", spider), ("UNJOIN_BIRD_ROOT", bird))
                   if not value]
        if missing:
            pytest.skip("real benchmark data not present; set " + ", ".join(missing))
        started = time.monotonic()
        bundle = load_dataset(spider, "spider")
        kept, _ = filter_items(bundle.items, bundle.catalogue)
        assert len(kept) == 443, f"spider kept {len(kept)}, want 443 (tolerance 0)"
        dbs = {item.db_id for item in kept}
        assert len(dbs) == 81, f"spider dbs {len(dbs)}, want 81 (tolerance 0)"
        bundle = load_dataset(bird, "bird")
        kept, _ = filter_items(bundle.items, bundle.catalogue)
        assert len(kept) == 1095, f"bird kept {len(kept)}, want 1095 (tolerance 0)"
        dbs = {item.db_id for item in kept}
        assert len(dbs) == 77, f"bird dbs {len(dbs)}, want 77 (tolerance 0)"
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_2_simplified_schema_entry_counts(verdict):
    with verdict("criterion 2: flattening yields 60 synthetic and 54 financial entries"):
        synthetic = simplify_schema(synthetic_6x10_schema())
        assert len(synthetic.entries) == 60, f"{len(synthetic.entries)} != 60 (tolerance 0)"
        financial = simplify_schema(financial_schema())
        assert len(financial.entries) == 54, f"{len(financial.entries)} != 54 (tolerance 0)"
        assert all(e.rendered.count(".") == 1 for e in financial.entries)


def test_criterion_3_oracle_replay_scores_perfectly(
        verdict, mini_spider_root, oracle_cache_dir):
    with verdict("criterion 3: both variants replay the 25-item fixture at QE=EM=100.00"):
        started = time.monotonic()
        for method in ("unjoin-sp", "unjoin-mp"):
            records, _ = run_evaluation(
                *_bundle_and_items(mini_spider_root),
                oracle_config(mini_spider_root, oracle_cache_dir, method),
                LlmClient(oracle_config(mini_spider_root, oracle_cache_dir,
                                        method).llm_config(),
                          ExchangeCache(oracle_cache_dir)),
            )
            metrics = score_run(records)
            assert metrics["n"] == 25
            assert metrics["qe"] == 100.00, f"{method} QE {metrics['qe']} != 100.00"
            assert metrics["em"] == 100.00, f"{method} EM {metrics['em']} != 100.00"
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def _bundle_and_items(root):
    bundle = load_dataset(root, "spider")
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    return bundle, kept


def test_criterion_4_perturbed_identifiers_restored(verdict, mini_spider_root):
    with verdict("criterion 4: >=90% of 50 perturbed queries restored, "
                 "idempotent and result-preserving on all"):
        assert len(SUITE) == 50
        restored = 0
        for db, gold, broken in SUITE:
            fixed, _ = correct_identifiers(broken, db)
            if fixed == gold:
                restored += 1
            again, report = correct_identifiers(fixed, db)
            assert again == fixed and not report.substitutions, "not idempotent"
            db_file = mini_spider_root / "database" / db.db_id / f"{db.db_id}.sqlite"
            want = execute(gold, db_file)
            got = execute(fixed, db_file)
            assert want.status == got.status == "ok"
            assert compare_results(want, got, has_top_level_order_by(parse(gold))), \
                f"result drift on {broken!r}"
        assert restored >= 45, f"restored {restored}/50, need >= 45 (90%)"


def test_criterion_5_scoring_matches_brute_force(
        verdict, mini_spider_root, oracle_cache_dir):
    with verdict("criterion 5: score and bucket outputs equal brute-force recomputation"):
        fixtures = [
            seeded_records(50, seed=7),
            seeded_records(37, seed=11),
            seeded_records(1, seed=3),
            oracle_run(mini_spider_root, oracle_cache_dir, "unjoin-mp")[0],
        ]
        for records in fixtures:
            assert len(records) <= 50
            assert score_run(records) == naive_score(records)
            assert bucket_by_table_count(records) == naive_buckets(records)


def test_criterion_6_exact_match_implies_execution(
        verdict, mini_spider_root, oracle_cache_dir):
    with verdict("criterion 6: every record satisfies EM => QE, and the "
                 "record type rejects violations"):
        runs = [oracle_run(mini_spider_root, oracle_cache_dir, m)[0]
                for m in ("unjoin-sp", "unjoin-mp")]
        bundle, kept = _bundle_and_items(mini_spider_root)
        config = RunConfig(dataset="spider", root=str(mini_spider_root),
                           method="cot", model="m", cache_mode="live", workers=2)
        flaky = LlmClient(
            config.llm_config(), cache=None,
            transport=lambda p, c: ("```sql\nSELECT x FROM nowhere\n```", 1, 1),
        )
        runs.append(run_evaluation(bundle, kept, config, flaky)[0])
        checked = 0
        for records in runs:
            for rec in records:
                assert not (rec.em and not rec.qe), rec.item_id
                checked += 1
        assert checked == 75
        with pytest.raises(ValueError):
            EvalRecord(item_id="x", db_id="d", method="cot", question="q",
                       gold_sql="SELECT 1",
                       prediction={}, gold_exec=None, pred_exec=None,
                       qe=False, em=True, gold_tables=(), pred_tables=(),
                       gold_columns=(), pred_columns=(),
                       table_precision=0.0, table_recall=0.0,
                       column_precision=0.0, column_recall=0.0,
                       gold_table_count=2)


def test_criterion_7_replay_runs_are_byte_identical(
        verdict, mini_spider_root, oracle_cache_dir, tmp_path, capsys):
    with verdict("criterion 7: two replayed CLI runs write identical bytes"):
        config = {
            "dataset": "spider",
            "root": str(mini_spider_root),
            "method": "unjoin-sp",
            "model": ORACLE_MODEL,
            "cache_mode": "replay",
            "cache_dir": str(oracle_cache_dir),
            "workers": 3,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        blobs = []
        for name in ("first", "second"):
            out_dir = tmp_path / name
            code = cli_main(["run", "--config", str(config_path),
                             "--out", str(out_dir)])
            assert code == 0
            blobs.append((out_dir / "records.jsonl").read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1], "records differ between replays"
        assert blobs[0].count(b"\n") == 26  # meta line + 25 records


def test_criterion_8_reference_extraction_matches_oracle(verdict, retail_db):
    with verdict("criterion 8: 30 hand-checked queries yield exact table and "
                 "column reference sets"):
        assert len(CASES) == 30
        for case_id, sql, tables, columns, ambiguous in CASES:
            refs = extract_refs(sql, retail_db)
            assert set(refs.tables) == tables, case_id
            assert set(refs.columns) == columns, case_id
            assert set(refs.ambiguous) == ambiguous, case_id
