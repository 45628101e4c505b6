"""Tests for the benchmark's own generator and tracer.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
Workloads are generated at a reduced size so the suite stays fast.
"""

import json
import random
import sqlite3
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from generate import (  # noqa: E402
    WORKLOADS,
    allowed_distance,
    edit_distance,
    generate,
    oracle_exchanges,
)
from tracing import Tracer  # noqa: E402

SMALL = {"spider_narrow": 2, "bird_wide_noisy": 2, "record_slow_endpoint": 2}


def make(workload, seed, out):
    return generate(workload, seed, out, size=SMALL[workload], items_per_db=12)


def tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def db_file(out: Path, db_id: str) -> Path:
    for layout in ("database", "dev_databases"):
        path = out / "root" / layout / db_id / f"{db_id}.sqlite"
        if path.exists():
            return path
    raise FileNotFoundError(db_id)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_inputs(workload, tmp_path):
    make(workload, 7, tmp_path / "a")
    make(workload, 7, tmp_path / "b")
    make(workload, 8, tmp_path / "c")
    a, b, c = (tree(tmp_path / d) for d in "abc")
    assert a == b
    store = "cache" if WORKLOADS[workload]["cache_mode"] == "replay" else "oracle"
    keys_a = {k for k in a if k.startswith(store + "/")}
    keys_c = {k for k in c if k.startswith(store + "/")}
    assert keys_a and keys_a.isdisjoint(keys_c)
    if WORKLOADS[workload]["shape"] == "bird":
        assert a["root/dev.json"] != c["root/dev.json"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_gold_query_executes_and_returns_rows(workload, tmp_path):
    generated = make(workload, 3, tmp_path)
    assert generated["items"]
    for item_id, expected in generated["items"].items():
        con = sqlite3.connect(db_file(tmp_path, item_id.split(":")[0]))
        try:
            rows = con.execute(expected["gold"]).fetchall()
        finally:
            con.close()
        assert rows, item_id


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_no_two_prompts_collide(workload, tmp_path):
    from unjoin.dataset import load_dataset

    generated = make(workload, 5, tmp_path)
    bundle = load_dataset(tmp_path / "root", generated["flavor"])
    prompts = [p for p, _ in oracle_exchanges(bundle, generated["items"],
                                              WORKLOADS[workload]["methods"])]
    assert len(set(prompts)) == len(prompts)
    assert generated["traffic"]["repeated_prompt_share"] == 0


def test_injected_typos_are_unambiguous_near_misses(tmp_path):
    generated = make("bird_wide_noisy", 4, tmp_path)
    entries = json.loads((tmp_path / "root" / "dev_tables.json").read_text())
    injected = 0
    for item_id, expected in generated["items"].items():
        entry = next(e for e in entries if e["db_id"] == item_id.split(":")[0])
        tables = entry["table_names_original"]
        columns = {name for t, name in entry["column_names_original"] if t >= 0}
        rendered = {f"{tables[t]}.{name}" for t, name in entry["column_names_original"] if t >= 0}
        for stage, typos in expected["typos"].items():
            for typo, intended in typos:
                injected += 1
                kind = rendered if "." in intended else (
                    set(tables) if intended in tables else columns)
                dist = naive_distance(typo, intended)
                assert 0 < dist <= allowed_distance(intended)
                assert typo not in kind
                assert all(naive_distance(typo, other) > dist for other in kind - {intended})
                assert typo in expected["completions"][stage]
    assert injected > 0


def naive_distance(a: str, b: str) -> int:
    @lru_cache(maxsize=None)
    def d(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        return min(d(i - 1, j) + 1, d(i, j - 1) + 1, d(i - 1, j - 1) + cost)

    return d(len(a), len(b))


def test_edit_distance_matches_recursive_definition():
    rng = random.Random(0)
    for _ in range(300):
        a = "".join(rng.choice("ab_c") for _ in range(rng.randint(0, 7)))
        b = "".join(rng.choice("ab_c") for _ in range(rng.randint(0, 7)))
        exact = naive_distance(a, b)
        assert edit_distance(a, b) == exact
        for cap in range(4):
            capped = edit_distance(a, b, cap=cap)
            assert capped == exact if exact <= cap else capped > cap


def test_tracer_counts_nested_calls_and_restores_bindings():
    import unjoin.correction as correction
    import unjoin.tokens as tokens
    from unjoin.schema import ColumnDef, DatabaseSchema, TableDef

    db = DatabaseSchema("d", (TableDef("t", (ColumnDef("a"),)),))
    original = tokens.tokenize
    tracer = Tracer()
    tracer.install()
    try:
        assert correction.tokenize is not original
        correction.correct_identifiers("SELECT b FROM t", db)
    finally:
        tracer.remove()
    assert tokens.tokenize is original and correction.tokenize is original
    stats = tracer.stats()
    assert stats["tokens.tokenize"][0] == 1
    assert stats["correction.correct_identifiers"][0] == 1
    assert stats["correction.levenshtein"][0] == 1
    total_self = sum(self_ms for _, _, self_ms in stats.values())
    outer = stats["correction.correct_identifiers"]
    assert total_self <= outer[1] / 1e3 * 1.001 + 1e-9


def test_tracer_skips_functions_the_program_no_longer_has(monkeypatch):
    import tracing
    import unjoin.evaluation as evaluation
    import unjoin.llm as llm

    monkeypatch.delattr(evaluation, "has_top_level_order_by")
    monkeypatch.delattr(llm.ExchangeCache, "put")
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + (("unjoin.gone", "f"),))
    tracer = Tracer()
    tracer.install()
    tracer.remove()
    stats = tracer.stats()
    for name in ("evaluation.has_top_level_order_by", "llm.ExchangeCache.put", "gone.f"):
        assert stats[name] == (0, 0.0, 0.0)
