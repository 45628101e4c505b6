import hashlib
import json
import random

import pytest
import requests
from hypothesis import given, strategies as st

from unjoin import llm
from unjoin.dataset import RunConfig
from unjoin.llm import (
    API_KEY_ENV,
    CorruptCacheError,
    ExchangeCache,
    ExtractionError,
    JsonText,
    LlmClient,
    LlmConfig,
    LlmError,
    LlmExchange,
    ReplayMissError,
    TransportError,
    default_transport,
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


# Keys recorded caches are filed under: a changed formula would stop every
# recorded cache from replaying while the fixture cache, written through
# exchange_key itself, still replayed.
PINNED_KEYS = [
    ("p", "m", 0.0, "e4d69f0a30bb712c0c9036749c9c213a0607ca926100c7420cd2ed5e2528c4d7"),
    ('Say "hi"\\\n\t\x00\x1f\x7f\u2028\u2029 café \U0001d11e', "gpt-4o-mini", 0.7,
     "f2169f9f49793245558e6b2bb2ad160cc55c4213ddaa7bdd85b970dfb4e28c44"),
    ("SELECT 1;\r\n", 'model "q" \\ é', 1,
     "37106fa42e2cf65861f84ec9fca4678ff66937946599d835fa75a941d27351d0"),
]


@pytest.mark.parametrize("prompt, model, temperature, key", PINNED_KEYS)
def test_key_values_are_pinned(prompt, model, temperature, key):
    assert exchange_key(prompt, LlmConfig(model=model, temperature=temperature)) == key


def _reference_key(prompt, model, temperature):
    payload = json.dumps({"prompt": prompt, "model": model, "temperature": float(temperature)},
                         sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# Text that JSON escapes, or writes raw with ensure_ascii=False.
_KEY_TEXT = st.text(st.one_of(
    st.sampled_from('"\\\x7f\u2028\u2029\U0001d11eé'),
    st.characters(max_codepoint=0x1F),
    st.characters(blacklist_categories=("Cs",)),
))


@given(prompt=_KEY_TEXT, model=_KEY_TEXT,
       temperature=st.sampled_from([0, 0.0, 0.2, 1, 1e-7, 2.5e300]))
def test_key_is_the_hash_of_the_sorted_json_payload(prompt, model, temperature):
    assert exchange_key(prompt, LlmConfig(model=model, temperature=temperature)) == (
        _reference_key(prompt, model, temperature))


@pytest.mark.parametrize("prompt, model", [("a\udcffb", "m"), ("a", "m\ud800")])
def test_key_of_a_lone_surrogate_raises_as_the_payload_encode_does(prompt, model):
    with pytest.raises(UnicodeEncodeError) as want:
        _reference_key(prompt, model, 0.0)
    with pytest.raises(UnicodeEncodeError) as got:
        exchange_key(prompt, LlmConfig(model=model))
    assert str(got.value) == str(want.value)


def test_integer_temperature_keys_as_its_float():
    # A config file may spell temperature 0 as an int; a replay must hit
    # the exchanges recorded under the default 0.0.
    keys = {exchange_key("p", RunConfig.from_dict(raw).llm_config())
            for raw in ({"temperature": 0}, {"temperature": 0.0}, {})}
    assert keys == {exchange_key("p", RunConfig().llm_config())}


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


@pytest.mark.parametrize("body", [
    "{broken", "[1, 2]", '{"key": "k"}', "\udcff", '"text"',
    # Valid JSON whose fields lack the exchange's types.
    '{"key": "k", "prompt": "p", "completion": 5}',
    '{"key": "k", "prompt": null, "completion": "c"}',
    '{"key": ["k"], "prompt": "p", "completion": "c"}',
    '{"key": "k", "prompt": "p", "completion": "c", "latency_s": "0.5"}',
    '{"key": "k", "prompt": "p", "completion": "c", "latency_s": true}',
    '{"key": "k", "prompt": "p", "completion": "c", "prompt_tokens": 1.5}',
    '{"key": "k", "prompt": "p", "completion": "c", "completion_tokens": "3"}',
])
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


def test_cache_entry_that_cannot_be_opened_is_corrupt(tmp_path):
    cache = ExchangeCache(tmp_path)
    key = exchange_key("a", CFG)
    assert cache.get(key) is None  # no shard directory yet: a miss
    path = cache.path_for(key)
    path.mkdir(parents=True)  # a directory where the file belongs
    with pytest.raises(CorruptCacheError) as info:
        LlmClient(CFG, cache).complete("a", "replay")
    assert str(path) in str(info.value)
    assert "IsADirectoryError" in str(info.value)


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



def test_record_writes_a_prompt_from_its_carried_json_text(tmp_path, monkeypatch):
    prompt = JsonText(READ_PROMPT, llm.json_text(READ_PROMPT))
    dumps = json.dumps

    def dumps_of_anything_but_the_prompt(obj, *args, **kwargs):
        assert obj != READ_PROMPT, "the prompt was escaped again"
        return dumps(obj, *args, **kwargs)

    client = make_client(tmp_path, lambda p, c: (READ_EXCHANGE.completion, 12, None))
    monkeypatch.setattr(llm.json, "dumps", dumps_of_anything_but_the_prompt)
    assert client.complete(prompt, "record") == READ_EXCHANGE.completion
    monkeypatch.undo()
    written = client.cache.path_for(READ_EXCHANGE.key).read_bytes()
    raw = json.loads(written)
    assert raw["prompt"] == READ_PROMPT
    assert written == json.dumps(raw, ensure_ascii=False, indent=1).encode("utf-8")
    stored = client.cache.get(READ_EXCHANGE.key, prompt)
    assert type(stored.prompt) is str and stored.prompt == READ_PROMPT


def test_cache_file_layout_is_pinned(tmp_path):
    cache = ExchangeCache(tmp_path)
    cache.put(LlmExchange(key="ab12", prompt="p\u00e9", completion="c", latency_s=0.5,
                          prompt_tokens=3))
    assert cache.path_for("ab12").read_text(encoding="utf-8") == (
        '{\n "key": "ab12",\n "prompt": "p\u00e9",\n "completion": "c",\n'
        ' "latency_s": 0.5,\n "prompt_tokens": 3,\n "completion_tokens": null\n}'
    )


def test_cache_file_field_type_error_names_the_field(tmp_path):
    cache = ExchangeCache(tmp_path)
    path = cache.path_for("ab12")
    path.parent.mkdir(parents=True)
    path.write_text('{"key": "ab12", "prompt": "p", "completion": 5}', encoding="utf-8")
    with pytest.raises(CorruptCacheError) as info:
        cache.get("ab12")
    assert str(info.value) == (
        f"corrupt cache file {path}: TypeError: 'completion' must be str, not int")


def test_cache_file_holds_numbers_and_nulls_where_an_exchange_may(tmp_path):
    cache = ExchangeCache(tmp_path)
    path = cache.path_for("ab12")
    path.parent.mkdir(parents=True)
    path.write_text('{"key": "ab12", "prompt": "p", "completion": "c", "latency_s": 2, '
                    '"prompt_tokens": 7, "completion_tokens": null}', encoding="utf-8")
    assert cache.get("ab12") == LlmExchange(key="ab12", prompt="p", completion="c",
                                            latency_s=2, prompt_tokens=7)


def test_cache_file_without_optional_fields_reads_with_defaults(tmp_path):
    cache = ExchangeCache(tmp_path)
    path = cache.path_for("ab12")
    path.parent.mkdir(parents=True)
    path.write_text('{"completion": "c", "prompt": "p", "key": "ab12", "extra": 1}',
                    encoding="utf-8")
    assert cache.get("ab12") == LlmExchange(key="ab12", prompt="p", completion="c")


@pytest.mark.parametrize("missing", ["key", "prompt", "completion"])
def test_cache_file_without_a_required_field_is_corrupt(tmp_path, missing):
    cache = ExchangeCache(tmp_path)
    path = cache.path_for("ab12")
    path.parent.mkdir(parents=True)
    raw = {"key": "ab12", "prompt": "p", "completion": "c"}
    del raw[missing]
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(CorruptCacheError) as info:
        cache.get("ab12")
    assert f"KeyError: '{missing}'" in str(info.value)


# ----- reading a file from after its prompt -----

# A prompt JSON escapes in several ways, so a wrongly escaped head misses.
READ_PROMPT = 'Table: t\n "q" \\ caf\u00e9 \x01 \U0001d11e'
READ_EXCHANGE = LlmExchange(key=exchange_key(READ_PROMPT, CFG), prompt=READ_PROMPT,
                            completion="```sql\nSELECT 1\n```", latency_s=0.25,
                            prompt_tokens=12, completion_tokens=None)


def _outcome(cache, key, prompt=None):
    try:
        return "read", cache.get(key, prompt)
    except CorruptCacheError as exc:
        return "corrupt", str(exc)


def _recorded(tmp_path):
    cache = ExchangeCache(tmp_path)
    cache.put(READ_EXCHANGE)
    path = cache.path_for(READ_EXCHANGE.key)
    return cache, path, path.read_bytes()


def test_prompted_read_of_a_recorded_file_equals_the_full_read(tmp_path):
    cache, _, _ = _recorded(tmp_path)
    for prompt in (READ_PROMPT, JsonText(READ_PROMPT)):
        hit = cache.get(READ_EXCHANGE.key, prompt)
        assert hit == READ_EXCHANGE == cache.get(READ_EXCHANGE.key)
        assert type(hit.prompt) is str


def test_prompted_read_skips_a_file_the_full_read_would_decode(tmp_path, monkeypatch):
    cache, _, _ = _recorded(tmp_path)
    loads = json.loads

    def loads_without_the_prompt(text, *args, **kwargs):
        assert llm.json_text(READ_PROMPT) not in text, "the prompt was decoded"
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(llm.json, "loads", loads_without_the_prompt)
    assert cache.get(READ_EXCHANGE.key, READ_PROMPT) == READ_EXCHANGE
    with pytest.raises(AssertionError, match="the prompt was decoded"):
        cache.get(READ_EXCHANGE.key)


def test_prompted_read_of_every_truncation_equals_the_full_read(tmp_path):
    cache, path, data = _recorded(tmp_path)
    for end in range(len(data) + 1):
        path.write_bytes(data[:end])
        assert _outcome(cache, READ_EXCHANGE.key, READ_PROMPT) == (
            _outcome(cache, READ_EXCHANGE.key)), end


def _after_completion(text, extra):
    """``text`` with ``extra`` fields written after its last one."""
    return (text[:-2] + extra + "\n}").encode()


# (name, the recorded file's text -> a variant's bytes, what a full read
# raises after the file's path, or None when it reads an exchange). The
# reason reaches a record's failure_reason, so it is pinned: text-mode
# newlines place a decode error after a CRLF by its LF-only offset.
VARIANTS = [
    ("as recorded", str.encode, None),
    ("completion not text", lambda t: t.replace('"```sql\\nSELECT 1\\n```"', "5").encode(),
     "TypeError: 'completion' must be str, not int"),
    ("latency not a number", lambda t: t.replace("0.25", '"0.25"').encode(),
     "TypeError: 'latency_s' must be int or float, not str"),
    ("token count not an int", lambda t: t.replace("12", "12.5").encode(),
     "TypeError: 'prompt_tokens' must be int or NoneType, not float"),
    ("prompt repeated after", lambda t: _after_completion(t, ',\n "prompt": "other"'), None),
    ("key repeated after", lambda t: _after_completion(t, ',\n "key": "k2"'), None),
    ("prompt repeated as a number", lambda t: _after_completion(t, ',\n "prompt": 1'),
     "TypeError: 'prompt' must be str, not int"),
    ("extra field", lambda t: _after_completion(t, ',\n "extra": [1]'), None),
    ("trailing data", lambda t: (t + " {}").encode(),
     "JSONDecodeError: Extra data: line 8 column 3 (char 237)"),
    ("trailing space", lambda t: (t + "\n ").encode(), None),
    ("crlf", lambda t: t.replace("\n", "\r\n").encode(), None),
    ("crlf with trailing data", lambda t: (t + " {}").replace("\n", "\r\n").encode(),
     "JSONDecodeError: Extra data: line 8 column 3 (char 237)"),
    ("bom", lambda t: b"\xef\xbb\xbf" + t.encode(),
     "JSONDecodeError: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("indent 2", lambda t: json.dumps(json.loads(t), ensure_ascii=False, indent=2).encode(), None),
    ("ascii escapes", lambda t: json.dumps(json.loads(t), indent=1).encode(), None),
    ("reordered", lambda t: json.dumps(dict(reversed(json.loads(t).items())),
                                       ensure_ascii=False, indent=1).encode(), None),
    ("other prompt", lambda t: json.dumps({**json.loads(t), "prompt": "other"},
                                          ensure_ascii=False, indent=1).encode(), None),
    ("bad utf-8 after", lambda t: t.encode()[:-1] + b"\xff}",
     "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in position 239: "
     "invalid start byte"),
    ("raw control in completion", lambda t: t.replace("SELECT 1", "SELECT\r1").encode(),
     "JSONDecodeError: Invalid control character at: line 4 column 31 (char 156)"),
    ("not an object after",
     lambda t: t.split('"completion": ')[0].encode() + b'"completion": "c"]',
     "JSONDecodeError: Expecting ',' delimiter: line 4 column 19 (char 144)"),
]


@pytest.mark.parametrize("make, error", [v[1:] for v in VARIANTS], ids=[v[0] for v in VARIANTS])
def test_prompted_read_of_a_variant_equals_the_full_read(tmp_path, make, error):
    cache, path, data = _recorded(tmp_path)
    path.write_bytes(make(data.decode("utf-8")))
    full = _outcome(cache, READ_EXCHANGE.key)
    assert _outcome(cache, READ_EXCHANGE.key, READ_PROMPT) == full
    if error is None:
        assert full[0] == "read"
    else:
        assert full == ("corrupt", f"corrupt cache file {path}: {error}")


@pytest.mark.parametrize("make", [v[1] for v in VARIANTS if v[0] in ("as recorded", "indent 2")],
                         ids=["as recorded", "indent 2"])
def test_each_lookup_opens_the_file_once(tmp_path, monkeypatch, make):
    cache, path, data = _recorded(tmp_path)
    path.write_bytes(make(data.decode("utf-8")))
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(llm, "open", counting_open, raising=False)
    for prompt in (None, READ_PROMPT):
        opened.clear()
        assert cache.get(READ_EXCHANGE.key, prompt) == READ_EXCHANGE
        assert opened == [path]


def test_prompted_read_of_a_missing_or_unopenable_file(tmp_path):
    cache = ExchangeCache(tmp_path)
    assert cache.get(READ_EXCHANGE.key, READ_PROMPT) is None
    path = cache.path_for(READ_EXCHANGE.key)
    path.mkdir(parents=True)
    assert _outcome(cache, READ_EXCHANGE.key, READ_PROMPT) == _outcome(cache, READ_EXCHANGE.key)


def test_put_writes_utf8_bytes_with_lf_newlines(tmp_path):
    _, _, data = _recorded(tmp_path)
    assert data == json.dumps(
        {f: getattr(READ_EXCHANGE, f) for f in ("key", "prompt", "completion", "latency_s",
                                                "prompt_tokens", "completion_tokens")},
        ensure_ascii=False, indent=1).encode("utf-8")


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


# ----- default transport -----

LIVE_CFG = LlmConfig(model="m", endpoint="http://llm.invalid/v1/chat", temperature=0.2,
                     max_output_tokens=64, timeout_s=7.0)


def response(status: int, body) -> requests.Response:
    """A real ``requests.Response`` holding ``body``: JSON, or raw text for a str."""
    resp = requests.Response()
    resp.status_code = status
    resp.encoding = "utf-8"
    resp._content = (body if isinstance(body, str) else json.dumps(body)).encode()
    return resp


@pytest.fixture()
def post(monkeypatch):
    """Replaces ``requests.post``; set ``post.reply`` to a response or an exception."""

    class Post:
        def __init__(self):
            self.reply = None
            self.calls = []

        def __call__(self, url, **kwargs):
            self.calls.append((url, kwargs))
            if isinstance(self.reply, Exception):
                raise self.reply
            return self.reply

    fake = Post()
    monkeypatch.setattr(requests, "post", fake)
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    return fake


def completion_body(text, usage=None):
    body = {"choices": [{"message": {"role": "assistant", "content": text}}]}
    if usage is not None:
        body["usage"] = usage
    return body


def test_default_transport_returns_text_and_token_counts(post):
    post.reply = response(200, completion_body(
        "SELECT 1", {"prompt_tokens": 12, "completion_tokens": 3}))
    assert default_transport("the prompt", LIVE_CFG) == ("SELECT 1", 12, 3)
    ((url, kwargs),) = post.calls
    assert url == LIVE_CFG.endpoint
    assert kwargs["json"] == {
        "model": "m",
        "messages": [{"role": "user", "content": "the prompt"}],
        "temperature": 0.2,
        "max_tokens": 64,
    }
    assert kwargs["timeout"] == 7.0


@pytest.mark.parametrize("usage", [
    None, {}, [1, 2], {"prompt_tokens": "12", "completion_tokens": 3.0},
    {"prompt_tokens": True, "completion_tokens": None},
])
def test_default_transport_without_usage_gives_no_counts(post, usage):
    post.reply = response(200, completion_body("SELECT 1", usage))
    assert default_transport("p", LIVE_CFG) == ("SELECT 1", None, None)


@pytest.mark.parametrize("status", [429, 500, 502, 503])
def test_default_transport_server_error_is_retryable(post, status):
    post.reply = response(status, {"error": "busy"})
    with pytest.raises(TransportError, match=str(status)):
        default_transport("p", LIVE_CFG)


@pytest.mark.parametrize("status", [400, 401, 404])
def test_default_transport_rejection_is_not_retryable(post, status):
    post.reply = response(status, {"error": "no"})
    with pytest.raises(LlmError, match=str(status)) as info:
        default_transport("p", LIVE_CFG)
    assert not isinstance(info.value, TransportError)


@pytest.mark.parametrize("exc", [
    requests.ConnectionError("refused"),
    requests.Timeout("slow"),
    requests.RequestException("other"),
])
def test_default_transport_request_exception_is_retryable(post, exc):
    post.reply = exc
    with pytest.raises(TransportError):
        default_transport("p", LIVE_CFG)


@pytest.mark.parametrize("body", [
    {}, {"choices": []}, {"choices": [{}]}, [1, 2], "not json",
    {"choices": [{"message": {"content": None}}]},
])
def test_default_transport_malformed_body_is_an_llm_error(post, body):
    post.reply = response(200, body)
    with pytest.raises(LlmError, match="malformed") as info:
        default_transport("p", LIVE_CFG)
    assert not isinstance(info.value, TransportError)


def test_default_transport_sends_bearer_token_only_when_set(post, monkeypatch):
    post.reply = response(200, completion_body("SELECT 1"))
    default_transport("p", LIVE_CFG)
    monkeypatch.setenv(API_KEY_ENV, "secret")
    default_transport("p", LIVE_CFG)
    (_, without), (_, with_key) = post.calls
    assert "Authorization" not in without["headers"]
    assert with_key["headers"]["Authorization"] == "Bearer secret"
    assert without["headers"]["Content-Type"] == with_key["headers"]["Content-Type"]


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
    ("longer-lower-case-before-keyword", "İ SELECT a FROM t", "SELECT a FROM t"),
    ("long-s-is-not-select", "ſelect nothing. SELECT b FROM u", "SELECT b FROM u"),
    ("dotted-capital-i-is-not-with", "WİTH x. SELECT c FROM v", "SELECT c FROM v"),
]


@pytest.mark.parametrize(
    "completion, expected",
    [c[1:] for c in EXTRACTION_CASES],
    ids=[c[0] for c in EXTRACTION_CASES],
)
def test_extraction_fixture(completion, expected):
    assert extract_sql(completion) == expected


def test_extraction_fixture_case_count():
    assert len(EXTRACTION_CASES) == 25


def test_keyword_fallback_never_shortens_an_unparsed_query():
    # The parser rejects a VALUES operand; a line that starts with a
    # keyword is read as part of the query, not as prose.
    sql = "SELECT a\nFROM t\nUNION\nVALUES (1)"
    assert extract_sql("Answer:\n" + sql) == sql
    # No prefix parses: the whole suffix comes back, as before.
    assert extract_sql("SELECT FROM\nNothing here.") == "SELECT FROM\nNothing here."
    # A USING list the text ends inside is a parse error, so no prefix parses.
    unclosed = "SELECT name FROM customer JOIN city USING (city_id\nThat is all."
    assert extract_sql("Here: " + unclosed) == unclosed


def test_extract_sql_blocks_order_and_tags():
    text = "a\n```sql\nSELECT 1\n```\nb\n```\nSELECT 2\n```\n"
    assert extract_sql_blocks(text) == ["SELECT 1", "SELECT 2"]


def test_extract_sql_blocks_skips_empty_block():
    assert extract_sql_blocks("```sql\n\n```") == []


FENCE_CASES = [
    ("no-fence", "SELECT 1", []),
    ("unclosed", "```sql\nSELECT 1", ["SELECT 1"]),
    ("unclosed-after-closed", "```\na\n```\n```sql\nb", ["a", "b"]),
    ("lone-fence", "```", []),
    ("tag-only-unclosed", "```sql", ["sql"]),
    ("tag-without-newline-is-content", "```sql```", ["sql"]),
    ("tag-line-holds-closing-fence", "```sql```\nSELECT 1\n```", ["sql"]),
    ("inline-fence-then-text", "```a```b\nc```", ["a"]),
    ("blank-tag-line", "```   \nSELECT 1```", ["SELECT 1"]),
    ("crlf-tag-line", "```sql\r\nSELECT 1\r\n```", ["SELECT 1"]),
    ("padded-tag", "```  sql  \nSELECT 1\n```", ["SELECT 1"]),
    ("non-alnum-tag-is-kept", "```sql-lite\nSELECT 1\n```", ["sql-lite\nSELECT 1"]),
    ("two-word-tag-is-kept", "```my sql\nSELECT 1\n```", ["my sql\nSELECT 1"]),
    ("only-first-line-dropped", "```sql\nsql\nSELECT 1\n```", ["sql\nSELECT 1"]),
    ("four-backticks", "````sql\nSELECT 1\n````", ["`sql\nSELECT 1"]),
    ("five-backticks", "`````\nSELECT 1\n`````", ["``\nSELECT 1"]),
    ("seven-backticks", "```````sql\nSELECT 1\n```tail```", ["tail"]),
    ("six-backticks-is-an-empty-block", "``````", []),
    ("empty-blocks-skipped", "```\n```\n```sql\n \n```x```y```z", ["y"]),
]


@pytest.mark.parametrize(
    "completion, expected",
    [c[1:] for c in FENCE_CASES],
    ids=[c[0] for c in FENCE_CASES],
)
def test_extract_sql_blocks_edge_shapes(completion, expected):
    assert extract_sql_blocks(completion) == expected


# A seeded corpus of fence soups pins every block list the fence reader
# returns. Soups mix fences of 1-7 backticks, tag words, blank and
# CRLF line ends and text, so they reach unclosed fences, tags that hold
# a closing fence and empty blocks. A change to how the reader finds
# its fences must leave the digest as it is.
FENCE_SEED = 20261021
FENCE_SOUP_COUNT = 20000
FENCE_VOCABULARY = (
    ["`", "``", "```", "````", "`````", "```````", "\n", "\r\n", " ", "\t"]
    + ["sql", "SQL", "sqlite", "sql-lite", "my sql", "2", "é"]
    + ["SELECT 1", "SELECT a FROM t;", "prose.", "x"]
)
FENCE_PIN = "a2a0c3443a9ee73053e87c088fa558571f9dd6b1451eeb5c8b4fe91fc86c4021"


def fence_soups() -> list[str]:
    rng = random.Random(FENCE_SEED)
    return ["".join(rng.choice(FENCE_VOCABULARY) for _ in range(rng.randint(1, 16)))
            for _ in range(FENCE_SOUP_COUNT)]


def test_fence_soups_reach_the_edge_shapes():
    soups = fence_soups()
    assert sum(s.count("```") % 2 == 1 for s in soups) > FENCE_SOUP_COUNT // 5
    assert sum(bool(extract_sql_blocks(s)) for s in soups) > FENCE_SOUP_COUNT // 5


def test_fence_reader_outputs_are_pinned():
    text = json.dumps([extract_sql_blocks(s) for s in fence_soups()],
                      ensure_ascii=False, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FENCE_PIN


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
    # Nor does a ';' inside a comment.
    assert trim_sql("SELECT a -- pick a; not b\nFROM t;") == "SELECT a -- pick a; not b\nFROM t;"
    assert trim_sql("SELECT a /* x; */ FROM t;") == "SELECT a /* x; */ FROM t;"
    # An unclosed comment runs to the end of the text, as in SQLite.
    assert trim_sql("SELECT a /* x; FROM t") == "SELECT a /* x; FROM t"
    # Unreadable text before any unquoted ';' keeps the plain cut.
    assert trim_sql("SELECT 'a;b FROM t") == "SELECT 'a;"
