"""Pinned repair outputs over a seeded corpus of near-miss queries.

The corpus takes every SPIDER fixture gold query and flat-view query,
unedited and with eight seeded edits of 1-3 characters each anywhere in
the text, and runs each against the five fixture schemas (and their
flat views). One sha256 per function pins every result: the repaired
SQL, its substitutions and its unresolved names, or the extracted
references. A change to how repair searches its candidates must leave
these digests as they are; a change to what repair does moves them, and
the inputs whose results moved can be listed with ``repair_results``.
"""

import hashlib
import json
import random

import pytest

from unjoin.correction import correct_identifiers, correct_identifiers_simplified
from unjoin.schema import simplify_schema
from unjoin.sqlref import extract_refs_simplified

from conftest import (
    SPIDER_CASES,
    academic_schema,
    financial_schema,
    retail_schema,
    synthetic_6x10_schema,
    toy_shop_schema,
)

SEED = 20251019
EDITS_PER_QUERY = 8
CHARS = "abcdefghijklmnopqrstuvwxyz_. "


def _edit(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(text))
        op = rng.choice(("sub", "ins", "del", "swap"))
        ch = rng.choice(CHARS)
        if op == "sub":
            text = text[:pos] + ch + text[pos + 1:]
        elif op == "ins":
            text = text[:pos] + ch + text[pos:]
        elif op == "del":
            text = text[:pos] + text[pos + 1:]
        elif pos + 1 < len(text):
            text = text[:pos] + text[pos + 1] + text[pos] + text[pos + 2:]
    return text


def corpus() -> list[str]:
    """Every gold and flat-view query, then its seeded edits, in order."""
    rng = random.Random(SEED)
    originals = []
    for _, _, gold, flat in SPIDER_CASES:
        originals += [gold] if flat is None else [gold, flat]
    queries = []
    for sql in originals:
        queries.append(sql)
        queries += [_edit(sql, rng) for _ in range(EDITS_PER_QUERY)]
    return queries


def _report(result):
    sql, report = result
    subs = [[s.original, s.replacement, s.distance, s.position] for s in report.substitutions]
    return [sql, subs, list(report.unresolved)]


def _refs(sql, view):
    try:
        refs, unresolved = extract_refs_simplified(sql, view)
    except ValueError as exc:
        return ["error", type(exc).__name__]
    return [sorted(refs.tables), sorted(refs.columns), sorted(refs.ambiguous), list(unresolved)]


def repair_results() -> dict[str, list]:
    """Per function, one JSON-ready result per (query, schema) pair."""
    schemas = [retail_schema(), academic_schema(), financial_schema(), toy_shop_schema(),
               synthetic_6x10_schema()]
    views = [simplify_schema(db) for db in schemas]
    out = {"correct_identifiers": [], "correct_identifiers_simplified": [],
           "extract_refs_simplified": []}
    for sql in corpus():
        for db, view in zip(schemas, views):
            out["correct_identifiers"].append(_report(correct_identifiers(sql, db)))
            out["correct_identifiers_simplified"].append(
                _report(correct_identifiers_simplified(sql, view)))
            out["extract_refs_simplified"].append(_refs(sql, view))
    return out


PINNED = {
    "correct_identifiers": "8de255f61a11bc7f2cfdbdf996e9753e758292c4f8058e539cba16495738852b",
    "correct_identifiers_simplified":
        "16ce04187220499e1f7052cdc9c15aeca8e8540c81dd3066bdce3495aa7d1b40",
    "extract_refs_simplified": "b619d25fde686938f37839528c8c897d00044dd8f2bf4d5b816a9e6a427927b6",
}


def _digest(results: list) -> str:
    text = json.dumps(results, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def results():
    return repair_results()


def test_corpus_holds_edited_queries():
    queries = corpus()
    originals = sum(2 if flat else 1 for *_, flat in SPIDER_CASES)
    assert len(queries) == originals * (1 + EDITS_PER_QUERY)
    assert len(set(queries)) > originals * EDITS_PER_QUERY * 0.9


@pytest.mark.parametrize("name", sorted(PINNED))
def test_repair_outputs_are_pinned(results, name):
    assert _digest(results[name]) == PINNED[name]
