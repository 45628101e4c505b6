"""Chat-completion client with deterministic record/replay caching.

An exchange's key is the sha256 hex digest of the UTF-8 bytes of
``json.dumps({"prompt": prompt, "model": model, "temperature":
float(temperature)}, sort_keys=True, ensure_ascii=False)``: the
temperature is read as a float, so 0 and 0.0 give one key, and
identical prompts dedupe across items and runs. A prompt built by
``prompting`` is a ``JsonText``, which carries the JSON text of its
own characters, so the key's payload, and the head of the file record
mode writes, are assembled without escaping the schema blocks again for
every item.

Each exchange lives in its own JSON file under a content-addressed
directory: corrupting one file can affect at most one key. A lookup
reads its file once; a file as record mode writes it is decoded from
after the prompt, any other layout in full, under the same corruption
rules. Replay mode never touches the network; a missing key is a hard
error that names the key.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .sqlast import parse
from .tokens import KEYWORDS, OP, TokenizeError, tokenize

CACHE_MODES = ("record", "replay", "live")

API_KEY_ENV = "UNJOIN_API_KEY"


class LlmError(RuntimeError):
    """Any failure to obtain a completion."""


class TransportError(LlmError):
    """Network-level failure: connection, timeout, 429 or 5xx. Retryable."""


class ReplayMissError(LlmError):
    def __init__(self, key: str):
        super().__init__(f"replay cache has no entry for key {key}")
        self.key = key


class CorruptCacheError(LlmError, ValueError):
    """A cache file that cannot be read as an exchange. Fails one item."""

    def __init__(self, path: Path, reason: str):
        super().__init__(f"corrupt cache file {path}: {reason}")


class ExtractionError(ValueError):
    pass


@dataclass(frozen=True)
class LlmConfig:
    model: str
    endpoint: str = ""
    temperature: float = 0.0
    max_output_tokens: int = 1024
    timeout_s: float = 60.0
    retries: int = 2


@dataclass(frozen=True)
class LlmExchange:
    key: str
    prompt: str
    completion: str
    latency_s: float = 0.0
    prompt_tokens: int | None = None
    completion_tokens: int | None = None


# A cache file holds these fields as JSON keys, in this order.
_RECORD_FIELDS = fields(LlmExchange)
# The JSON types each field may take: text, a number, an int or null.
_FIELD_TYPES = {
    "key": (str,), "prompt": (str,), "completion": (str,), "latency_s": (int, float),
    "prompt_tokens": (int, type(None)), "completion_tokens": (int, type(None)),
}


class JsonText(str):
    """Text that carries its JSON text.

    ``json`` is what ``json.dumps(text, ensure_ascii=False)`` writes
    between the quotes. JSON escapes each character on its own, so the
    JSON text of joined pieces is the join of theirs: a prompt is
    assembled from pieces whose JSON text their owners hold. Given at
    construction, or computed on first read.
    """

    __slots__ = ("_json",)

    def __new__(cls, text: str, escaped: str | None = None):
        self = super().__new__(cls, text)
        if escaped is not None:
            self._json = escaped
        return self

    @property
    def json(self) -> str:
        try:
            return self._json
        except AttributeError:
            self._json = json_text(str(self))
            return self._json


def json_text(text: str) -> str:
    """The JSON text of ``text``: carried by a ``JsonText``, escaped here otherwise."""
    if isinstance(text, JsonText):
        return text.json
    return json.dumps(text, ensure_ascii=False)[1:-1]


def universal_text(data: bytes) -> str:
    """``data`` decoded as text-mode reading does: UTF-8, then CRLF and CR become LF."""
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def exchange_key(prompt: str, cfg: LlmConfig) -> str:
    """The sha256 of the sorted JSON payload of (prompt, model, float temperature).

    The payload is written field by field, in sorted key order with
    ``json.dumps``'s default separators and the prompt's carried JSON
    text in place, so its bytes equal ``json.dumps({...},
    sort_keys=True, ensure_ascii=False)``'s.
    """
    payload = (
        f'{{"model": {json.dumps(cfg.model, ensure_ascii=False)}, '
        f'"prompt": "{json_text(prompt)}", '
        f'"temperature": {json.dumps(float(cfg.temperature))}}}'
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _exchange(raw: dict) -> LlmExchange:
    """The exchange a decoded cache file holds; KeyError or TypeError if it holds none."""
    values = {
        f.name: raw[f.name] if f.default is MISSING else raw.get(f.name, f.default)
        for f in _RECORD_FIELDS
    }
    for name, value in values.items():
        if type(value) not in _FIELD_TYPES[name]:
            want = " or ".join(t.__name__ for t in _FIELD_TYPES[name])
            raise TypeError(f"{name!r} must be {want}, not {type(value).__name__}")
    return LlmExchange(**values)


class ExchangeCache:
    """One JSON file per exchange, sharded by the first two key hex chars."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str, prompt: str | None = None) -> LlmExchange | None:
        """The stored exchange, or None when no file exists at the key's path.

        The file is read once. One that cannot be opened or read as an
        exchange (a directory, unreadable bytes, bad JSON, missing fields
        or fields of the wrong type) raises ``CorruptCacheError``, which
        fails one item.

        Given the prompt the key was made from, bytes that start with what
        ``put`` writes before the completion are decoded from there on: a
        field the rest repeats wins, as in a full read. Other bytes, or a
        rest that does not read as an exchange, are decoded in full as
        text mode would, which gives the same exchange or the same error.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            if prompt is not None and (hit := _read_after_prompt(data, key, prompt)) is not None:
                return hit
            return _exchange(json.loads(universal_text(data)))
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CorruptCacheError(path, f"{type(exc).__name__}: {exc}") from exc

    def put(self, exchange: LlmExchange) -> None:
        path = self.path_for(exchange.key)
        rest = {f.name: getattr(exchange, f.name) for f in _RECORD_FIELDS[2:]}
        text = json.dumps(rest, ensure_ascii=False, indent=1)
        # UTF-8 bytes, not text mode, so a file has one layout on every platform.
        body = _head(exchange.key, exchange.prompt) + text[len(_REST_OPEN):].encode("utf-8")
        with self._lock:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(body)
            os.replace(tmp, path)


# A file as ``put`` writes it is ``json.dumps(record, ensure_ascii=False,
# indent=1)`` of the ``_RECORD_FIELDS``, in two parts: the head, which holds
# the key and the prompt and ends as the rest's object opens, less its
# brace; then the rest, the dump of the fields from the completion on, less
# that opening.
_REST_OPEN = '{\n "completion": '


def _head(key: str, prompt: str) -> bytes:
    """What ``put`` writes before the completion's value, as UTF-8."""
    return (f'{{\n "key": {json.dumps(key, ensure_ascii=False)},\n '
            f'"prompt": "{json_text(prompt)}",{_REST_OPEN[1:]}').encode("utf-8")


def _read_after_prompt(data: bytes, key: str, prompt: str) -> LlmExchange | None:
    """The exchange in ``data`` if ``put`` wrote its head for ``key`` and ``prompt``.

    Only what follows the head is decoded. None when the head differs or
    the rest does not read as an exchange.
    """
    try:
        head = _head(key, prompt)
        if not data.startswith(head):
            return None
        rest = json.loads(_REST_OPEN + data[len(head):].decode("utf-8"))
        return _exchange({"key": key, "prompt": str(prompt), **rest})
    except (ValueError, KeyError, TypeError):
        return None


def default_transport(prompt: str, cfg: LlmConfig) -> tuple[str, int | None, int | None]:
    """POST an OpenAI-style chat request; return (text, token counts).

    ``requests`` is imported here, not at module level: its HTTP stack is
    about 250 modules and 9 MB that replay runs and injected transports
    never use.
    """
    import requests

    headers = {"Content-Type": "application/json"}
    token = os.environ.get(API_KEY_ENV, "")
    if token:
        headers["Authorization"] = f"Bearer {token}"
    payload = {
        "model": cfg.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_output_tokens,
    }
    try:
        resp = requests.post(cfg.endpoint, json=payload, headers=headers, timeout=cfg.timeout_s)
    except requests.RequestException as exc:
        raise TransportError(str(exc)) from exc
    if resp.status_code >= 500 or resp.status_code == 429:
        raise TransportError(f"server error {resp.status_code}")
    if resp.status_code != 200:
        raise LlmError(f"request rejected: {resp.status_code} {resp.text[:200]}")
    try:
        body = resp.json()
        text = body["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise LlmError(f"malformed completion response: {exc}") from exc
    if not isinstance(text, str):
        raise LlmError(f"malformed completion response: content is {type(text).__name__}")
    # Token counts are optional: a missing or odd usage field or count gives
    # None, so the cache file holds only what a replay reads back.
    usage = body.get("usage")
    if not isinstance(usage, dict):
        usage = {}
    counts = (usage.get("prompt_tokens"), usage.get("completion_tokens"))
    return text, *(c if type(c) is int else None for c in counts)


class LlmClient:
    """Thread-safe client; each calling thread makes one endpoint call at a time."""

    def __init__(self, cfg: LlmConfig, cache: ExchangeCache | None = None, transport=None):
        self.cfg = cfg
        self.cache = cache
        self.transport = transport or default_transport

    def complete(self, prompt: str, cache_mode: str = "replay") -> str:
        if cache_mode not in CACHE_MODES:
            raise ValueError(f"unknown cache mode {cache_mode!r}")
        if cache_mode == "record" and self.cache is None:
            # Checked before the call: a paid completion must not be lost.
            raise ValueError("record mode requires a cache directory")
        key = exchange_key(prompt, self.cfg)
        if cache_mode != "live":
            hit = self.cache.get(key, prompt) if self.cache is not None else None
            if hit is not None:
                return hit.completion
            if cache_mode == "replay":
                raise ReplayMissError(key)
        exchange = self._call(prompt, key)
        if cache_mode == "record":
            self.cache.put(exchange)
        return exchange.completion

    def _call(self, prompt: str, key: str) -> LlmExchange:
        attempts = self.cfg.retries + 1
        last: Exception | None = None
        for _ in range(attempts):
            started = time.monotonic()
            try:
                text, ptok, ctok = self.transport(prompt, self.cfg)
                return LlmExchange(
                    key=key,
                    prompt=prompt,
                    completion=text,
                    latency_s=time.monotonic() - started,
                    prompt_tokens=ptok,
                    completion_tokens=ctok,
                )
            except TransportError as exc:
                last = exc
        raise TransportError(f"transport failed after {attempts} attempts: {last}")


# ----- completion post-processing -----

_LEADING_WORD = re.compile(r"\s*([A-Za-z_]\w*)")
# SELECT or WITH as a whole word, matched on the text itself so offsets
# stay exact. Spelled-out cases, not IGNORECASE, which would also take
# letters such as "ſ" or "İ" for ASCII ones.
_FIRST_KEYWORD = re.compile(r"(?<!\w)(?:[Ss][Ee][Ll][Ee][Cc][Tt]|[Ww][Ii][Tt][Hh])(?!\w)")


def extract_sql_blocks(completion: str) -> list[str]:
    """Contents of every fenced code block, language tags stripped.

    A block runs from an odd fence to the next one, or to the end. A blank
    or one-word alphanumeric first line is a tag; empty blocks are skipped.
    """
    blocks = []
    for block in completion.split("```")[1::2]:
        tag, newline, body = block.partition("\n")
        if newline and (tag.strip().isalnum() or not tag.strip()):
            block = body
        block = block.strip()
        if block:
            blocks.append(block)
    return blocks


def _starts_with_prose(line: str) -> bool:
    word = _LEADING_WORD.match(line)
    return word is not None and word.group(1).lower() not in KEYWORDS


def _parsing_prefix(sql: str) -> str:
    """The longest whole-line prefix of ``sql`` that parses.

    A cut is made only before a line that starts with a word that is not
    a SQL keyword, so a query the parser rejects is never shortened into
    a different query. With no such prefix ``sql`` comes back unchanged.
    """
    lines = sql.split("\n")
    for end in range(len(lines), 0, -1):
        if end < len(lines) and not _starts_with_prose(lines[end]):
            continue
        head = "\n".join(lines[:end])
        try:
            parse(head)
        except ValueError:
            continue
        return head.strip()
    return sql


def trim_sql(text: str) -> str:
    """Cut anything after the first statement-terminating semicolon.

    A ';' inside a literal, a quoted name or a comment does not end the
    statement: the cut is at the first ';' the tokenizer reads as an
    operator. Tokens stop where the text turns unreadable (say, an
    apostrophe in trailing prose); with no ';' read before that point,
    the cut is at the first ';' in the text.
    """
    semi = text.find(";")
    if semi < 0:
        return text.strip()
    try:
        toks, readable = tokenize(text), True
    except TokenizeError as exc:
        toks, readable = tokenize(text[: exc.offset]), False
    for tok in toks:
        if tok.kind == OP and tok.value == ";":
            return text[: tok.end].strip()
    # Every readable ';' is quoted. Unreadable text keeps the raw cut.
    return text.strip() if readable else text[: semi + 1].strip()


def extract_sql(completion: str) -> str:
    """Pull the SQL out of a model completion.

    First fenced code block wins when fences exist; otherwise the suffix
    starting at the first SELECT or WITH keyword, with prose after the
    terminating semicolon dropped. With no terminating semicolon either,
    lines of prose after the query are dropped: the suffix is cut to its
    longest whole-line prefix that parses.
    """
    blocks = extract_sql_blocks(completion)
    if blocks:
        return trim_sql(blocks[0])
    keyword = _FIRST_KEYWORD.search(completion)
    if keyword is None:
        raise ExtractionError("no SQL content found in completion")
    sql = trim_sql(completion[keyword.start():])
    return sql if sql.endswith(";") else _parsing_prefix(sql)
