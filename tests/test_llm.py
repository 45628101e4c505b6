import json
import threading
import time

import pytest

from unjoin.llm import (
    CorruptCacheError,
    ExchangeCache,
    ExtractionError,
    LlmClient,
    LlmConfig,
    LlmError,
    LlmExchange,
    ReplayMissError,
    TransportError,
    exchange_key,
    extract_sql,
    extract_sql_blocks,
    trim_sql,
)

CFG = LlmConfig(model="m", temperature=0.0)


def make_client(tmp_path, transport, **overrides):
    cfg = LlmConfig(model="m", temperature=0.0, **overrides)
    return LlmClient(cfg, ExchangeCache(tmp_path), transport=transport)


# ----- keys and cache -----


def test_key_depends_on_prompt_model_temperature():
    base = exchange_key("p", CFG)
    assert base == exchange_key("p", LlmConfig(model="m", temperature=0.0, max_output_tokens=9))
    assert base != exchange_key("q", CFG)
    assert base != exchange_key("p", LlmConfig(model="m2", temperature=0.0))
    assert base != exchange_key("p", LlmConfig(model="m", temperature=0.7))
    assert len(base) == 64


def test_cache_roundtrip_and_layout(tmp_path):
    cache = ExchangeCache(tmp_path)
    key = exchange_key("hello", CFG)
    cache.put(LlmExchange(key=key, prompt="hello", completion="world"))
    path = cache.path_for(key)
    assert path == tmp_path / key[:2] / f"{key}.json"
    assert path.exists()
    hit = cache.get(key)
    assert hit.completion == "world"
    assert hit.prompt == "hello"
    assert cache.get("0" * 64) is None


def test_cache_leaves_no_temp_files(tmp_path):
    cache = ExchangeCache(tmp_path)
    key = exchange_key("a", CFG)
    cache.put(LlmExchange(key=key, prompt="a", completion="b"))
    assert not list(tmp_path.rglob("*.tmp"))


def test_corrupt_cache_file_fails_loudly(tmp_path):
    cache = ExchangeCache(tmp_path)
    key = exchange_key("a", CFG)
    cache.put(LlmExchange(key=key, prompt="a", completion="b"))
    cache.path_for(key).write_text("{broken", encoding="utf-8")
    with pytest.raises(ValueError):
        cache.get(key)


@pytest.mark.parametrize("body", ["{broken", "[1, 2]", '{"key": "k"}', "\udcff"])
def test_corrupt_cache_file_is_an_llm_error_naming_the_file(tmp_path, body):
    cache = ExchangeCache(tmp_path)
    key = exchange_key("a", CFG)
    path = cache.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(body.encode("utf-8", "surrogateescape"))
    with pytest.raises(CorruptCacheError) as info:
        LlmClient(CFG, cache).complete("a", "replay")
    assert isinstance(info.value, LlmError)
    assert str(path) in str(info.value)


# ----- cache modes -----


def test_replay_hit_and_miss(tmp_path):
    calls = []

    def transport(prompt, cfg):
        calls.append(prompt)
        return "live answer", 1, 1

    client = make_client(tmp_path, transport)
    key = exchange_key("p", client.cfg)
    client.cache.put(LlmExchange(key=key, prompt="p", completion="cached"))
    assert client.complete("p", "replay") == "cached"
    assert calls == []
    with pytest.raises(ReplayMissError) as info:
        client.complete("other", "replay")
    assert info.value.key == exchange_key("other", client.cfg)


def test_replay_without_cache_raises():
    client = LlmClient(CFG, cache=None, transport=lambda p, c: ("x", 1, 1))
    with pytest.raises(ReplayMissError):
        client.complete("p", "replay")


def test_record_calls_transport_once_then_serves_from_cache(tmp_path):
    calls = []

    def transport(prompt, cfg):
        calls.append(prompt)
        return "answer", 3, 4

    client = make_client(tmp_path, transport)
    assert client.complete("p", "record") == "answer"
    assert client.complete("p", "record") == "answer"
    assert len(calls) == 1
    stored = client.cache.get(exchange_key("p", client.cfg))
    assert stored.completion == "answer"
    assert stored.prompt_tokens == 3


def test_record_writes_before_returning(tmp_path):
    client = make_client(tmp_path, lambda p, c: ("out", None, None))
    client.complete("p", "record")
    path = client.cache.path_for(exchange_key("p", client.cfg))
    raw = json.loads(path.read_text(encoding="utf-8"))
    assert raw["completion"] == "out"


def test_record_without_cache_rejected():
    client = LlmClient(CFG, cache=None, transport=lambda p, c: ("x", 1, 1))
    with pytest.raises(ValueError):
        client.complete("p", "record")


def test_record_without_cache_makes_no_call():
    calls = []

    def transport(prompt, cfg):
        calls.append(prompt)
        return "paid for", 1, 1

    client = LlmClient(CFG, cache=None, transport=transport)
    with pytest.raises(ValueError, match="cache directory"):
        client.complete("p", "record")
    assert calls == []


def test_live_bypasses_cache(tmp_path):
    calls = []

    def transport(prompt, cfg):
        calls.append(prompt)
        return "fresh", None, None

    client = make_client(tmp_path, transport)
    key = exchange_key("p", client.cfg)
    client.cache.put(LlmExchange(key=key, prompt="p", completion="stale"))
    assert client.complete("p", "live") == "fresh"
    assert len(calls) == 1
    # and nothing new written
    assert client.cache.get(key).completion == "stale"


def test_unknown_cache_mode_rejected(tmp_path):
    client = make_client(tmp_path, lambda p, c: ("x", 1, 1))
    with pytest.raises(ValueError):
        client.complete("p", "offline")


# ----- retries -----


def test_transport_errors_retried_exactly_retries_plus_one(tmp_path):
    attempts = []

    def transport(prompt, cfg):
        attempts.append(1)
        raise TransportError("boom")

    client = make_client(tmp_path, transport, retries=2)
    with pytest.raises(TransportError) as info:
        client.complete("p", "live")
    assert len(attempts) == 3
    assert "3 attempts" in str(info.value)


def test_zero_retries_means_single_attempt(tmp_path):
    attempts = []

    def transport(prompt, cfg):
        attempts.append(1)
        raise TransportError("boom")

    client = make_client(tmp_path, transport, retries=0)
    with pytest.raises(TransportError):
        client.complete("p", "live")
    assert len(attempts) == 1


def test_recovery_after_one_failure(tmp_path):
    attempts = []

    def transport(prompt, cfg):
        attempts.append(1)
        if len(attempts) == 1:
            raise TransportError("flaky")
        return "ok", 1, 1

    client = make_client(tmp_path, transport, retries=2)
    assert client.complete("p", "live") == "ok"
    assert len(attempts) == 2


def test_non_transport_errors_not_retried(tmp_path):
    attempts = []

    def transport(prompt, cfg):
        attempts.append(1)
        raise LlmError("bad request")

    client = make_client(tmp_path, transport, retries=5)
    with pytest.raises(LlmError):
        client.complete("p", "live")
    assert len(attempts) == 1


def test_concurrent_calls_bounded_by_max_in_flight(tmp_path):
    lock = threading.Lock()
    state = {"now": 0, "peak": 0}

    def transport(prompt, cfg):
        with lock:
            state["now"] += 1
            state["peak"] = max(state["peak"], state["now"])
        time.sleep(0.02)
        with lock:
            state["now"] -= 1
        return "x", None, None

    client = make_client(tmp_path, transport, max_in_flight=2)
    threads = [
        threading.Thread(target=client.complete, args=(f"p{i}", "live"))
        for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert state["peak"] <= 2


# ----- completion post-processing -----

EXTRACTION_CASES = [
    ("tagged-fence", "```sql\nSELECT 1\n```", "SELECT 1"),
    ("bare-fence", "```\nSELECT 1\n```", "SELECT 1"),
    ("uppercase-tag", "```SQL\nSELECT a FROM t\n```", "SELECT a FROM t"),
    ("mixedcase-tag", "```Sql\nSELECT a FROM t\n```", "SELECT a FROM t"),
    ("prose-around-fence",
     "Here is the query:\n```sql\nSELECT 2\n```\nHope that helps!",
     "SELECT 2"),
    ("first-of-two-blocks",
     "```sql\nSELECT 1\n```\nthen\n```sql\nSELECT 2\n```",
     "SELECT 1"),
    ("unclosed-fence", "```sql\nSELECT 3", "SELECT 3"),
    ("multiline-block",
     "```sql\nSELECT a\nFROM t\nWHERE x = 1\n```",
     "SELECT a\nFROM t\nWHERE x = 1"),
    ("block-keeps-only-first-statement",
     "```sql\nSELECT 1; SELECT 2\n```",
     "SELECT 1;"),
    ("with-query-in-block",
     "```\nWITH x AS (SELECT 1) SELECT * FROM x\n```",
     "WITH x AS (SELECT 1) SELECT * FROM x"),
    ("plain-sql", "SELECT x FROM t", "SELECT x FROM t"),
    ("prose-prefix", "Sure! The answer is SELECT x FROM t", "SELECT x FROM t"),
    ("prose-after-semicolon",
     "Answer: SELECT x FROM t; hope this helps",
     "SELECT x FROM t;"),
    ("with-keyword-fallback",
     "Use WITH cte AS (SELECT 1) SELECT * FROM cte",
     "WITH cte AS (SELECT 1) SELECT * FROM cte"),
    ("lowercase-keyword", "here: select a from t", "select a from t"),
    ("selected-is-not-select",
     "Columns were SELECTED carefully. SELECT b FROM u",
     "SELECT b FROM u"),
    ("word-with-inside-identifier",
     "The withholding table is irrelevant. SELECT c FROM v",
     "SELECT c FROM v"),
    ("semicolon-inside-string-is-kept",
     "SELECT 'a;b' FROM t",
     "SELECT 'a;b' FROM t"),
    ("leading-whitespace-block", "```sql\n\n  SELECT 9\n```", "SELECT 9"),
    ("crlf-free-suffix", "answer:\nSELECT z\nFROM w", "SELECT z\nFROM w"),
    ("prose-line-after-query",
     "Here is the query: SELECT name FROM customer\nThis returns every customer name.",
     "SELECT name FROM customer"),
    ("two-queries-without-fences",
     "SELECT name FROM customer_flat\n\nTranslated back to the original schema:\n\n"
     "SELECT c.name FROM customer AS c JOIN city AS y ON c.city_id = y.city_id",
     "SELECT name FROM customer_flat"),
]


@pytest.mark.parametrize(
    "completion, expected",
    [c[1:] for c in EXTRACTION_CASES],
    ids=[c[0] for c in EXTRACTION_CASES],
)
def test_extraction_fixture(completion, expected):
    assert extract_sql(completion) == expected


def test_extraction_fixture_case_count():
    assert len(EXTRACTION_CASES) == 22


def test_keyword_fallback_never_shortens_an_unparsed_query():
    # The parser rejects IS DISTINCT FROM; a line that starts with a
    # keyword is read as part of the query, not as prose.
    sql = "SELECT a\nFROM t\nWHERE a IS DISTINCT FROM b"
    assert extract_sql("Answer:\n" + sql) == sql
    # No prefix parses: the whole suffix comes back, as before.
    assert extract_sql("SELECT FROM\nNothing here.") == "SELECT FROM\nNothing here."


def test_extract_sql_blocks_order_and_tags():
    text = "a\n```sql\nSELECT 1\n```\nb\n```\nSELECT 2\n```\n"
    assert extract_sql_blocks(text) == ["SELECT 1", "SELECT 2"]


def test_extract_sql_blocks_skips_empty_block():
    assert extract_sql_blocks("```sql\n\n```") == []


def test_no_sql_content_raises():
    with pytest.raises(ExtractionError):
        extract_sql("I am unable to answer that.")
    with pytest.raises(ExtractionError):
        extract_sql("")


def test_trim_sql_cuts_after_first_semicolon():
    assert trim_sql("SELECT 1; junk") == "SELECT 1;"
    assert trim_sql("  SELECT 1  ") == "SELECT 1"


def test_semicolon_inside_literal_does_not_cut():
    fenced = "```sql\nSELECT * FROM t WHERE name = 'a;b';\n```"
    assert extract_sql(fenced) == "SELECT * FROM t WHERE name = 'a;b';"
    assert trim_sql("SELECT [x;y] FROM t; junk") == "SELECT [x;y] FROM t;"
    # An apostrophe in the prose after the statement does not hide its end.
    assert (
        extract_sql("SELECT a FROM t WHERE b = 'x;y'; that's all")
        == "SELECT a FROM t WHERE b = 'x;y';"
    )
    # Unreadable text before any unquoted ';' keeps the plain cut.
    assert trim_sql("SELECT 'a;b FROM t") == "SELECT 'a;"
